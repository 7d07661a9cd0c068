"""Deficit-round-robin fair scheduling over per-tenant request queues.

A multi-tenant batcher cannot serve in plain FIFO order: one tenant
flooding the queue would starve everyone behind it for the length of its
backlog.  Deficit round-robin (Shreedhar & Varghese) fixes this with two
invariants the serving tests assert directly:

* **work conservation** — whenever requests are pending, a batch can be
  filled; credit bookkeeping never idles the engine;
* **starvation freedom** — every backlogged tenant is visited once per
  round and earns ``quantum * weight`` credit per visit, so any request
  is served after at most ``ceil(cost / (quantum * weight))`` rounds no
  matter how deep the other tenants' backlogs are.

Costs are arbitrary non-negative floats; the batcher uses grid points, so
a tenant submitting huge grids consumes its share in *work*, not in
request count.  Weights bias the shares (a paid tier at ``weight=4`` gets
4x the credit per round).  The structure is intentionally not thread-safe:
it lives inside the asyncio event loop, which serialises access.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Mapping

from ..errors import ServingError

__all__ = ["DeficitRoundRobin"]


class _Tenant:
    __slots__ = ("queue", "deficit", "weight")

    def __init__(self, weight: float) -> None:
        self.queue: deque[tuple[Any, float]] = deque()
        self.deficit = 0.0
        self.weight = weight


class DeficitRoundRobin:
    """DRR scheduler: per-tenant FIFO queues drained by rotating credit.

    Parameters
    ----------
    quantum:
        Credit added to a tenant's deficit counter on each round visit
        (scaled by the tenant's weight).  Must be positive; measured in
        the same unit as the per-item ``cost`` passed to :meth:`push`.
    weights:
        Optional per-tenant share multipliers (default 1.0 each).
    """

    def __init__(
        self,
        quantum: float = 1.0,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if not quantum > 0:
            raise ServingError(f"quantum must be > 0, got {quantum}")
        self.quantum = float(quantum)
        self._weights = {str(k): float(v) for k, v in (weights or {}).items()}
        for tenant, w in self._weights.items():
            if not w > 0:
                raise ServingError(f"weight for tenant {tenant!r} must be > 0, got {w}")
        # Ordered so the round-robin rotation order is deterministic.
        self._tenants: "OrderedDict[str, _Tenant]" = OrderedDict()
        self._active: deque[str] = deque()
        self._pending = 0

    # ------------------------------------------------------------- enqueue

    def push(self, tenant: str, item: Any, cost: float = 1.0) -> None:
        """Append ``item`` to ``tenant``'s queue with service cost ``cost``."""
        cost = float(cost)
        if cost < 0:
            raise ServingError(f"cost must be >= 0, got {cost}")
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _Tenant(
                self._weights.get(tenant, 1.0)
            )
        if not state.queue:
            self._active.append(tenant)
        state.queue.append((item, cost))
        self._pending += 1

    # ------------------------------------------------------------- drain

    def pop_batch(self, max_items: int) -> list[Any]:
        """Up to ``max_items`` requests in DRR order.

        Visits backlogged tenants round-robin, crediting ``quantum *
        weight`` per visit and serving head-of-line requests while the
        deficit covers their cost.  Idle tenants forfeit their credit
        (classic DRR — otherwise a long-idle tenant could burst far past
        its share).
        """
        if max_items < 1:
            raise ServingError(f"max_items must be >= 1, got {max_items}")
        out: list[Any] = []
        while len(out) < max_items and self._active:
            tenant = self._active.popleft()
            state = self._tenants[tenant]
            state.deficit += self.quantum * state.weight
            while (
                state.queue
                and len(out) < max_items
                and state.queue[0][1] <= state.deficit
            ):
                item, cost = state.queue.popleft()
                state.deficit -= cost
                self._pending -= 1
                out.append(item)
            if state.queue:
                self._active.append(tenant)
            else:
                state.deficit = 0.0
        return out

    # ------------------------------------------------------------- introspect

    def pending(self, tenant: str | None = None) -> int:
        """Queued request count, total or for one tenant."""
        if tenant is None:
            return self._pending
        state = self._tenants.get(tenant)
        return len(state.queue) if state is not None else 0

    def __len__(self) -> int:
        return self._pending

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeficitRoundRobin(pending={self._pending}, "
            f"tenants={len(self._active)}, quantum={self.quantum})"
        )
