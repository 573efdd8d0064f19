"""One cluster storage server: its own SSD + HMB + rings, a shared loop.

A :class:`ClusterNode` is a :class:`repro.serve.server.ServingNode`
(its own StorageSystem, NVMe rings and ``s<i>:``-named stage pipeline)
on the cluster's shared wave+settle loop: contention is per-server, the
timeline is cluster-wide.  On top of the shared core it adds:

- **settled admission**: router attempts routed here during a wave are
  buffered and pushed into the rings in stable ``order_key`` order at
  settle time, so ring content never depends on the tie-break order of
  the events that routed them;
- the drop of **cancelled hedge losers** still queued when fetched;
- **faults** (:mod:`repro.cluster.faults`): a ``server_stall`` pauses
  the pump (in-pipeline requests drain, rings back up), a
  ``die_slowdown`` multiplies one channel's NAND service and a
  ``link_degrade`` every PCIe service, sampled at dispatch.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.cluster.faults import DIE_SLOWDOWN, LINK_DEGRADE, SERVER_STALL, FaultSpec
from repro.cluster.metrics import ServerMetrics
from repro.config import SimConfig
from repro.serve.engine import EventLoop
from repro.serve.server import ServingNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.router import Attempt
    from repro.serve.server import TenantSpec


class _NodeTenant:
    """This node's view of one tenant: its backlog and ring name."""

    __slots__ = ("spec", "backlog")

    def __init__(self, spec: "TenantSpec") -> None:
        self.spec = spec
        #: Attempts admitted to the node but waiting for a ring slot.
        self.backlog: deque["Attempt"] = deque()


class ClusterNode(ServingNode):
    """One shard server on the shared cluster event loop."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        *,
        system: str,
        sim_config: SimConfig | None,
        tenants: tuple["TenantSpec", ...],
        arbitration: str = "wrr",
        max_inflight: int = 8,
        fine_grained: bool = True,
    ) -> None:
        super().__init__(
            loop,
            system,
            sim_config,
            tenants,
            arbitration=arbitration,
            max_inflight=max_inflight,
            fine_grained=fine_grained,
            prefix=f"{name}:",
        )
        # Admissions settle before the pump so a same-pass fetch sees
        # every push of the pass (settle passes repeat until quiescent
        # either way; the order just saves a pass).
        loop.add_settler(self._settle_admissions)
        loop.add_settler(self._settle)
        self.name = name
        self.metrics = ServerMetrics(name)
        #: Completion hook wired by the router after construction.
        self.on_attempt_done: Callable[["Attempt", float], None] | None = None
        #: Wave-buffered admissions, settled in stable order_key order.
        self._pending_admissions: list["Attempt"] = []
        # Fault state: stalls nest (overlapping campaigns), slowdown
        # factors multiply while their specs are active.
        self._stall_depth = 0
        self._active_faults: list[FaultSpec] = []
        self._tenants: list[_NodeTenant] = []
        for spec in tenants:
            self._tenants.append(_NodeTenant(spec))
            queue = self.mq.add_queue(
                spec.name, depth=spec.qos.queue_depth, weight=spec.qos.weight
            )
            if self.racecheck is not None:
                # Pushes happen only at settle (stable-sorted batch) or
                # before the run; pops only in the settle-phase pump.
                self.racecheck.track(queue, f"{name}:ring:{spec.name}")

    # --- fault state ---------------------------------------------------
    def begin_fault(self, spec: FaultSpec) -> None:
        self.metrics.faults_begun += 1
        if spec.kind == SERVER_STALL:
            self._stall_depth += 1
        else:
            self._active_faults.append(spec)
            # Keep a canonical (field) order so the float product of
            # several same-kind factors never depends on which
            # same-instant begin event fired first.
            self._active_faults.sort()

    def end_fault(self, spec: FaultSpec) -> None:
        if spec.kind == SERVER_STALL:
            self._stall_depth -= 1
            if self._stall_depth == 0:
                self._request_pump()
        else:
            self._active_faults.remove(spec)

    @property
    def paused(self) -> bool:
        """A stalled server fetches nothing until the stall ends."""
        return self._stall_depth > 0

    def _stage_scales(self, channel_index: int) -> tuple[float, float]:
        # Fault multipliers are sampled at dispatch (settle phase), so
        # every same-wave dispatch sees the same post-wave fault state.
        nand_scale = pcie_scale = 1.0
        for spec in self._active_faults:
            if spec.kind == DIE_SLOWDOWN and spec.channel == channel_index:
                nand_scale *= spec.die_slowdown_factor
            elif spec.kind == LINK_DEGRADE:
                pcie_scale *= spec.link_degrade_factor
        return nand_scale, pcie_scale

    # --- admission path ------------------------------------------------
    def submit(self, attempt: "Attempt") -> None:
        """Route one attempt into this node (buffered while running)."""
        self.metrics.attempts += 1
        if self.loop.running:
            self._pending_admissions.append(attempt)
            return
        self._admit(attempt)

    def _settle_admissions(self) -> bool:
        if not self._pending_admissions:
            return False
        batch = sorted(self._pending_admissions, key=lambda a: a.order_key)
        self._pending_admissions.clear()
        for attempt in batch:
            self._admit(attempt)
        return True

    def _admit(self, attempt: "Attempt") -> None:
        state = self._tenants[attempt.tenant_index]
        state.backlog.append(attempt)
        self._drain(state)

    def _drain(self, state: _NodeTenant) -> None:
        """Move backlog attempts into the tenant's ring while it has room."""
        queue = self.mq.queue(state.spec.name)
        while state.backlog and not queue.full:
            queue.push(state.backlog.popleft())
        self._request_pump()

    # --- dispatch path -------------------------------------------------
    def _fetched(self, tenant: str, entry: object) -> _NodeTenant:
        attempt: "Attempt" = entry  # type: ignore[assignment]
        state = self._tenants[attempt.tenant_index]
        assert state.spec.name == tenant
        if attempt.cancelled:
            # A hedge loser cancelled while still queued: drop it
            # without occupying a device slot.
            self.metrics.cancelled += 1
        else:
            attempt.dispatched = True
            self._dispatch(tenant, attempt.request.op, attempt)
        return state

    def _on_done(self, token: object, end_ns: float) -> None:
        self.metrics.completed += 1
        assert self.on_attempt_done is not None
        self.on_attempt_done(token, end_ns)  # type: ignore[arg-type]


__all__ = ["ClusterNode"]
