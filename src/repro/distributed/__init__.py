"""Scale-out model: slab decomposition, halo exchange, and the
compute/communication cost model of the paper's multi-GPU extension.

:class:`DistributedStencil` runs one window tile per simulated rank
in-process — bit-identical to the single-device plan — and counts the
ring exchanges; :func:`scaling_curve` and :func:`predict_exchange_seconds`
price the halo traffic those exchanges move.
"""

from .costmodel import (
    HOST_SHM,
    NVLINK4,
    PCIE5,
    Interconnect,
    ScalingPoint,
    predict_exchange_seconds,
    scaling_curve,
)
from .decomposition import SlabDecomposition, exchange_halos
from .simulator import DistributedStencil

__all__ = [
    "DistributedStencil",
    "HOST_SHM",
    "Interconnect",
    "NVLINK4",
    "PCIE5",
    "ScalingPoint",
    "SlabDecomposition",
    "exchange_halos",
    "predict_exchange_seconds",
    "scaling_curve",
]
