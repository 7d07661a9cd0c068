"""FlashFFTStencil reproduction — FFT-bridged stencil computation on
(simulated) Tensor Core Units.

Reproduces *FlashFFTStencil: Bridging Fast Fourier Transforms to
Memory-Efficient Stencil Computations on Tensor Core Units* (PPoPP 2025).

Quick start::

    import numpy as np
    from repro import FlashFFTStencil, heat_1d

    grid = np.random.default_rng(0).standard_normal(4096)
    plan = FlashFFTStencil(grid.shape, heat_1d(), fused_steps=8)
    out = plan.run(grid, total_steps=64)

Subpackages
-----------
``repro.core``
    The algorithm: kernels, reference engine, FFT stencils, Kernel
    Tailoring, the Prime-Factor plan, Double-layer Filling, Computation
    Streamlining, and the assembled :class:`FlashFFTStencil` system.
``repro.gpusim``
    The hardware model: A100/H100 specs, coalescing / bank-conflict /
    fragment / pipeline / occupancy / roofline models.
``repro.baselines``
    Re-implementations of every comparator in the paper's Figure 6.
``repro.analysis``
    Metrics: GStencil/s, speedups, ablation ladders, footprint, sparsity.
``repro.workloads``
    Table-3 benchmark configurations and grid generators.
``repro.experiments``
    One runner per paper table/figure (``python -m repro.experiments all``).
``repro.observability``
    Pipeline telemetry: per-stage spans, counters, cache metrics.
``repro.robustness``
    Fault-tolerant execution: numerical guards, drift sentinel with
    graceful degradation, checkpoint/restart, fault injection.
``repro.parallel``
    Throughput engine: multi-core sharded execution, pluggable FFT
    backends, batched multi-grid serving, workspace arenas.
``repro.serving``
    Serving front-end: work-conserving asyncio micro-batcher (a batch
    launches when the engine is idle, with no fill wait),
    deficit-round-robin tenant fairness, admission control, and a
    persistent plan/spectrum cache for fresh-process warm starts.
"""

from .core import (
    KERNEL_ZOO,
    TwoStepStencil,
    WaveFFTPlan,
    wave_equation,
    FlashFFTStencil,
    PFAPlan,
    SegmentPlan,
    StencilKernel,
    StreamlineConfig,
    TCUStencilExecutor,
    apply_fft_stencil,
    apply_stencil,
    box_2d9p,
    box_3d27p,
    heat_1d,
    heat_2d,
    heat_3d,
    kernel_by_name,
    run_stencil,
    star_1d5p,
    star_1d7p,
    tailored_fft_stencil,
)
from .distributed import DistributedStencil, scaling_curve
from .errors import (
    BoundaryError,
    CheckpointError,
    FaultInjected,
    KernelError,
    NumericalError,
    PFAError,
    PlanError,
    ReproError,
    ServingError,
    SimulationError,
)
from .gpusim import A100, H100, GPUSpec, gpu_by_name
from .observability import NULL_TELEMETRY, NullTelemetry, Telemetry, telemetry_to_json
from .parallel import (
    FFTBackend,
    NumpyFFTBackend,
    ScipyFFTBackend,
    ShardedExecutor,
    WorkspaceArena,
    apply_many,
    available_backends,
    choose_workers,
    get_backend,
    register_backend,
    run_many,
    serve_batch,
)
from .robustness import (
    DiskCheckpointStore,
    DriftSentinel,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
    MemoryCheckpointStore,
    NumericalWarning,
    RetryPolicy,
    RobustnessConfig,
    SentinelConfig,
)
from .serving import (
    AdmissionController,
    DeficitRoundRobin,
    PlanDiskCache,
    ServingConfig,
    StencilServer,
)
from .tuner import (
    OnlineTuner,
    TunerCandidate,
    TunerPolicy,
    WorkloadSignature,
    autotune_default,
    workload_signature,
)

__version__ = "1.0.0"

__all__ = [
    "A100",
    "AdmissionController",
    "DeficitRoundRobin",
    "DistributedStencil",
    "TwoStepStencil",
    "WaveFFTPlan",
    "scaling_curve",
    "wave_equation",
    "BoundaryError",
    "CheckpointError",
    "DiskCheckpointStore",
    "DriftSentinel",
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "FFTBackend",
    "FlashFFTStencil",
    "GPUSpec",
    "GuardPolicy",
    "H100",
    "KERNEL_ZOO",
    "KernelError",
    "MemoryCheckpointStore",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "NumpyFFTBackend",
    "NumericalError",
    "NumericalWarning",
    "OnlineTuner",
    "PFAError",
    "PFAPlan",
    "PlanDiskCache",
    "PlanError",
    "ReproError",
    "RetryPolicy",
    "RobustnessConfig",
    "ScipyFFTBackend",
    "SegmentPlan",
    "SentinelConfig",
    "ServingConfig",
    "ServingError",
    "ShardedExecutor",
    "SimulationError",
    "StencilServer",
    "StencilKernel",
    "StreamlineConfig",
    "TCUStencilExecutor",
    "Telemetry",
    "TunerCandidate",
    "TunerPolicy",
    "WorkloadSignature",
    "WorkspaceArena",
    "autotune_default",
    "telemetry_to_json",
    "workload_signature",
    "apply_fft_stencil",
    "apply_many",
    "apply_stencil",
    "available_backends",
    "box_2d9p",
    "box_3d27p",
    "choose_workers",
    "get_backend",
    "gpu_by_name",
    "heat_1d",
    "heat_2d",
    "heat_3d",
    "kernel_by_name",
    "register_backend",
    "run_many",
    "run_stencil",
    "serve_batch",
    "star_1d5p",
    "star_1d7p",
    "tailored_fft_stencil",
    "__version__",
]
