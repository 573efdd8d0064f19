"""The multi-tenant serving façade: clients -> QoS -> NVMe MQ -> system.

:class:`StorageServer` runs many concurrent tenants against one
registered :class:`~repro.system.StorageSystem` (Pipette or any
baseline) on the deterministic event loop:

1. a tenant's client (:mod:`repro.serve.clients`) submits an op;
2. admission control applies the tenant's token bucket and queue-full
   policy (:mod:`repro.serve.qos`) before the op enters the tenant's
   NVMe submission ring (:mod:`repro.serve.nvme_mq`);
3. whenever a device slot is free, the arbiter (RR or NVMe-style WRR)
   picks the next ring to fetch from;
4. the fetched op executes against the storage system, which records
   the request's :class:`~repro.sim.trace.StageTrace` exactly as in
   single-stream mode — the runtime sanitizer's ledger==trace-sums
   invariant is checked at every root-trace close, now with many
   requests in flight;
5. the finished trace's queueing demand (``StageTrace.demand``) is
   replayed through the shared host/NAND-channel/PCIe
   :class:`~repro.sim.queueing.StagePipeline` on the loop, so the op's
   *completion time* reflects contention with every other in-flight
   request;
6. completion feeds the tenant's tail-latency accounting and, for
   closed-loop clients, releases the next submission.

Steps 3-5 live in :class:`ServingNode`, shared with the cluster's nodes.
Same ``ServeConfig`` + seed => byte-identical :class:`ServeResult`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.clients import CLOSED, OPEN, Client, build_client
from repro.serve.engine import EventLoop
from repro.serve.metrics import ServeResult, TenantMetrics
from repro.serve.nvme_mq import ARBITERS, MultiQueueNvme
from repro.serve.qos import SHED, AdmissionRejected, TenantQoS, TokenBucket
from repro.sim import racecheck as racecheck_mod
from repro.sim.queueing import StagePipeline
from repro.sim.racecheck import RaceChecker
from repro.system import StorageSystem, build_system
from repro.workloads.trace import Op, ReadOp, Trace, WriteOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import ClusterResult


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload, its QoS contract, and its client shape."""

    name: str
    trace: Trace
    qos: TenantQoS = field(default_factory=TenantQoS)
    #: ``"closed"`` (concurrency + think time) or ``"open"`` (Poisson).
    mode: str = CLOSED
    #: Closed-loop: number of outstanding synchronous callers.
    concurrency: int = 8
    #: Closed-loop: virtual think time between completion and next op.
    think_ns: float = 0.0
    #: Open-loop: offered arrival rate in ops per simulated second.
    rate_qps: float = 0.0
    #: Cap on ops taken from the trace (``None`` = run it dry).
    max_ops: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.mode not in (CLOSED, OPEN):
            raise ValueError(f"unknown client mode {self.mode!r}")
        if self.mode == OPEN and self.rate_qps <= 0:
            raise ValueError("open-loop tenants need a positive rate_qps")


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a serving run (with the system config)."""

    tenants: tuple[TenantSpec, ...]
    system: str = "pipette"
    #: Interconnect/placement backend the storage system's device runs
    #: on (see :mod:`repro.ssd.backends`).  ``None`` inherits whatever
    #: the supplied ``SimConfig`` selects (``pcie_gen3`` by default);
    #: a name overrides it, so the serving layer runs on any fabric.
    backend: str | None = None
    #: ``"rr"`` or ``"wrr"`` NVMe submission-queue arbitration.
    arbitration: str = "wrr"
    #: Device slots: maximum requests concurrently in the stage pipeline.
    max_inflight: int = 8
    #: Seed for open-loop arrival processes (per-tenant streams derive
    #: from it deterministically).
    seed: int = 42
    fine_grained: bool = True
    #: Optional horizon: stop the loop at this virtual time (rate
    #: measurements over a clean window); ``None`` runs all ops dry.
    max_time_ns: float | None = None

    def __post_init__(self) -> None:
        check_tenants(self.tenants, self.arbitration)
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")


def check_tenants(tenants: tuple[TenantSpec, ...], arbitration: str) -> None:
    """The checks a server's and a cluster's config share."""
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {names}")
    if arbitration not in ARBITERS:
        raise ValueError(f"unknown arbitration {arbitration!r}; choose from {sorted(ARBITERS)}")


class ServingNode:
    """A storage system, its stage pipeline, NVMe rings and settle-phase pump.

    The core :class:`StorageServer` and the cluster's nodes share.
    Subclasses fill the rings (:meth:`_drain`) and say what a fetched
    entry (:meth:`_fetched`) and a finished op (:meth:`_on_done`) mean.
    Each subclass registers :meth:`_settle` itself, after any settler
    that must run before the pump in the same pass.
    """

    #: A paused node fetches nothing; in-pipeline requests still finish.
    paused = False

    def __init__(
        self,
        loop: EventLoop,
        system: str,
        sim_config: SimConfig | None,
        tenants: tuple[TenantSpec, ...],
        *,
        arbitration: str,
        max_inflight: int,
        fine_grained: bool,
        prefix: str = "",
    ) -> None:
        self.loop = loop
        self.racecheck = loop.racecheck
        self.max_inflight = max_inflight
        self.system: StorageSystem = build_system(system, sim_config)
        #: Retain finished root traces so each dispatched op's demand
        #: can be read off its StageTrace (popped per op, stays empty).
        self.system.tracer.retain = True
        self.pipeline = StagePipeline(
            loop,
            host_servers=self.system.config.timing.host_parallelism,
            channels=self.system.config.ssd.channels,
            prefix=prefix,
        )
        self.mq = MultiQueueNvme(arbitration)
        self.mq.racecheck = self.racecheck
        if self.racecheck is not None:
            # The storage system's caches/mapping are order-sensitive
            # shared state too: two simultaneous unordered dispatches
            # would hit it in tie-break order.
            self.racecheck.track(self.system, f"{prefix}system:{system}")
            self.racecheck.track(self.mq, f"{prefix}nvme-mq:{arbitration}")
        self.inflight = 0
        self.max_inflight_observed = 0
        self._pumping = False
        self._pump_needed = False
        #: Stable admission priority of each dispatched op: assigned in
        #: settle-phase arbitration order, carried through every stage.
        self._dispatch_seq = itertools.count()
        self._create_files(tenants)
        flags = O_RDWR | (O_FINE_GRAINED if fine_grained else 0)
        #: Tenant name -> path -> open file descriptor.
        self._fds = {
            spec.name: {file.path: self.system.open(file.path, flags) for file in spec.trace.files}
            for spec in tenants
        }

    def _create_files(self, tenants: tuple[TenantSpec, ...]) -> None:
        sizes: dict[str, int] = {}
        for spec in tenants:
            for file in spec.trace.files:
                known = sizes.setdefault(file.path, file.size)
                if known != file.size:
                    raise ValueError(
                        f"file {file.path} declared with conflicting sizes "
                        f"({known} vs {file.size})"
                    )
        for path, size in sizes.items():
            self.system.create_file(path, size)

    # --- dispatch path -------------------------------------------------
    def _request_pump(self) -> None:
        """Fetch from the rings while device slots are free.

        While the loop is running, the pump is deferred to the settle
        phase: arbitration then sees every ring push and freed slot of
        the whole timestamp wave, so which ops are fetched — and in
        what order — cannot depend on the tie-break order of the events
        that requested pumping.
        """
        if self.loop.running:
            self._pump_needed = True
            return
        self._pump_now()

    def _settle(self) -> bool:
        if not self._pump_needed:
            return False
        self._pump_needed = False
        self._pump_now()
        return True

    def _pump_now(self) -> None:
        """The actual fetch loop (settle phase, or before the run starts).

        Guarded against re-entry: ``_drain`` (called below when a fetch
        frees a ring slot) ends with a ``_request_pump`` of its own,
        which must no-op while this frame's while-loop is already
        fetching.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while not self.paused and self.inflight < self.max_inflight:
                fetched = self.mq.fetch()
                if fetched is None:
                    return
                state = self._fetched(*fetched)
                # Fetching freed a ring slot: blocked backlog may advance.
                if state.backlog:
                    self._drain(state)
        finally:
            self._pumping = False

    def _fetched(self, tenant: str, entry: object):
        """Dispatch (or drop) a fetched ring entry; return its tenant state."""
        raise NotImplementedError

    def _drain(self, state) -> None:
        """Move ``state.backlog`` into the tenant's ring as it permits."""
        raise NotImplementedError

    def _dispatch(self, tenant: str, op: Op, token: object) -> None:
        """Take a device slot, execute ``op``, replay its demand on the stages."""
        self.inflight += 1
        if self.inflight > self.max_inflight_observed:
            self.max_inflight_observed = self.inflight
        if self.racecheck is not None:
            self.racecheck.access(self.system, "write", "io")
        fd = self._fds[tenant][op.path]
        if isinstance(op, ReadOp):
            self.system.read(fd, op.offset, op.size)
        elif isinstance(op, WriteOp):
            payload = (
                op.payload()
                if self.system.config.transfer_data
                else b"\x00" * op.size
            )
            self.system.write(fd, op.offset, payload)
        else:  # pragma: no cover - trace model is closed
            raise TypeError(f"unknown op {op!r}")
        demand = self.system.tracer.finished.pop().demand()
        nand_scale, pcie_scale = self._stage_scales(
            demand.channel % len(self.pipeline.channels)
        )
        # The op's stable admission priority at every stage: assigned in
        # arbitration order (settle-deterministic), so same-timestamp
        # stage contention resolves identically under any tie-break.
        key = next(self._dispatch_seq)
        self.pipeline.replay(
            demand,
            key,
            lambda end_ns: self._complete(token, end_ns),
            nand_scale,
            pcie_scale,
        )

    def _stage_scales(self, channel_index: int) -> tuple[float, float]:
        """NAND and PCIe service multipliers of a dispatch on ``channel_index``."""
        return 1.0, 1.0

    def _complete(self, token: object, end_ns: float) -> None:
        self.inflight -= 1
        self._on_done(token, end_ns)
        self._request_pump()

    def _on_done(self, token: object, end_ns: float) -> None:
        """The op dispatched with ``token`` finished its last stage."""
        raise NotImplementedError


class _TenantState:
    """Server-side live state of one tenant."""

    __slots__ = ("spec", "metrics", "bucket", "backlog", "client", "drain_event")

    def __init__(self, spec: TenantSpec, client: Client) -> None:
        self.spec = spec
        self.metrics = TenantMetrics(spec.name)
        self.bucket: TokenBucket | None = (
            TokenBucket(spec.qos.rate_limit_qps, spec.qos.burst)
            if spec.qos.rate_limit_qps is not None
            else None
        )
        #: Ops admitted by the client but not yet in the NVMe ring
        #: (waiting on tokens or on ring space under the block policy).
        self.backlog: deque[tuple[Op, float]] = deque()
        self.client = client
        #: Pending timer for a token-bucket retry (avoid duplicates).
        self.drain_event = None


class StorageServer(ServingNode):
    """Drive one storage system from many concurrent tenants.

    A :class:`ServingNode` plus clients, the token-bucket/shed/block
    admission backlog and per-tenant metrics; ring entries are
    ``(op, submit_ns)`` tuples.

    ``racecheck`` attaches a :class:`~repro.sim.racecheck.RaceChecker`
    (created automatically when ``REPRO_RACECHECK=1`` or the CLI's
    ``--racecheck`` armed :func:`repro.sim.racecheck.enable`); every
    shared object — stage FIFOs, submission rings, QoS buckets,
    latency histograms, and the storage system itself — is registered,
    so any order-dependent same-timestamp access raises a
    ``virtual-time race`` with both event stacks.  ``tiebreak_seed``
    arms the loop's schedule-perturbation mode (see :func:`perturbed`).
    """

    def __init__(
        self,
        config: ServeConfig,
        sim_config: SimConfig | None = None,
        *,
        racecheck: RaceChecker | None = None,
        tiebreak_seed: int | None = None,
    ) -> None:
        self.config = config
        if racecheck is None and racecheck_mod.active():
            racecheck = RaceChecker()
        if config.backend is not None:
            sim_config = (sim_config or SimConfig()).scaled(backend=config.backend)
        super().__init__(
            EventLoop(racecheck=racecheck, tiebreak_seed=tiebreak_seed),
            config.system,
            sim_config,
            config.tenants,
            arbitration=config.arbitration,
            max_inflight=config.max_inflight,
            fine_grained=config.fine_grained,
        )
        self.loop.add_settler(self._settle)
        self._tenants: list[_TenantState] = []
        self._by_name: dict[str, _TenantState] = {}
        for index, spec in enumerate(config.tenants):
            state = _TenantState(spec, build_client(spec, index, config.seed))
            self._tenants.append(state)
            self._by_name[spec.name] = state
            queue = self.mq.add_queue(
                spec.name, depth=spec.qos.queue_depth, weight=spec.qos.weight
            )
            state.client.bind(self.loop, self._make_submit(state))
            if racecheck is not None:
                # A push always moves the tenant backlog *head* into the
                # ring, so the pushed entry is a function of tenant state,
                # not of which same-time event does the pushing:
                # simultaneous pushes commute.  (Pops happen only in the
                # settle-phase pump, already fenced after the wave.)
                racecheck.track(queue, f"ring:{spec.name}", commutative_ops={"push"})
                if state.bucket is not None:
                    state.bucket.racecheck = racecheck
                    # Token arithmetic commutes; which submitter a failed
                    # take delays does not matter, because the delayed op
                    # is the backlog head either way.
                    racecheck.track(
                        state.bucket, f"bucket:{spec.name}", commutative_ops={"take"}
                    )
                # Histogram inserts commute (order-independent sketch),
                # so only mixed access patterns can race.
                racecheck.track(
                    state.metrics.latency,
                    f"latency:{spec.name}",
                    commutative_ops={"record"},
                )
                racecheck.track(
                    state.metrics.queue_delay,
                    f"queue-delay:{spec.name}",
                    commutative_ops={"record"},
                )

    # --- submission path ----------------------------------------------
    def _make_submit(self, state: _TenantState):
        def submit(op: Op) -> None:
            state.metrics.submitted += 1
            state.backlog.append((op, self.loop.now_ns))
            self._drain(state)

        return submit

    def _drain(self, state: _TenantState) -> None:
        """Move backlog ops into the NVMe ring as QoS permits."""
        queue = self.mq.queue(state.spec.name)
        while state.backlog:
            if queue.full:
                if state.spec.qos.full_policy == SHED:
                    op, _ = state.backlog.popleft()
                    self._shed(state, op)
                    continue
                break  # block: re-drained when a ring slot frees
            if state.bucket is not None:
                ready_ns = state.bucket.take(self.loop.now_ns)
                if ready_ns is not None:
                    if state.drain_event is None:
                        state.metrics.rate_delayed += 1
                        state.drain_event = self.loop.schedule_at(
                            ready_ns, lambda: self._drain_retry(state)
                        )
                    break
            op, submit_ns = state.backlog.popleft()
            queue.push((op, submit_ns))
            state.metrics.admitted += 1
        self._request_pump()

    def _drain_retry(self, state: _TenantState) -> None:
        state.drain_event = None
        self._drain(state)

    def _shed(self, state: _TenantState, op: Op) -> None:
        """Reject one op (queue full, shed policy) with a typed error.

        The client notification is deferred onto the loop: a closed-loop
        client reacts to a shed by submitting its next op immediately,
        and doing that synchronously would recurse drain->shed->submit
        unboundedly when the ring stays full.
        """
        state.metrics.shed += 1
        rejection = AdmissionRejected(state.spec.name, "submission queue full")
        client = state.client
        self.loop.schedule(0.0, lambda: client.on_rejected(op, rejection))

    # --- dispatch path -------------------------------------------------
    def _fetched(self, tenant: str, entry: object) -> _TenantState:
        state = self._by_name[tenant]
        op, submit_ns = entry  # type: ignore[misc]
        metrics = state.metrics
        if self.racecheck is not None:
            self.racecheck.access(metrics.queue_delay, "write", "record")
        metrics.queue_delay.record(self.loop.now_ns - submit_ns)
        if isinstance(op, ReadOp):
            metrics.reads += 1
            metrics.demanded_bytes += op.size
        elif isinstance(op, WriteOp):
            metrics.writes += 1
        self._dispatch(tenant, op, (state, op, submit_ns))
        return state

    def _on_done(self, token: object, end_ns: float) -> None:
        state, op, submit_ns = token  # type: ignore[misc]
        metrics = state.metrics
        metrics.completed += 1
        if self.racecheck is not None:
            self.racecheck.access(metrics.latency, "write", "record")
        metrics.latency.record(end_ns - submit_ns)
        state.client.on_done(op, completed=True)

    # --- run -----------------------------------------------------------
    def run(self) -> ServeResult:
        """Start every client, drain the loop, snapshot the metrics."""
        for state in self._tenants:
            state.client.start()
        elapsed_ns = self.loop.run(self.config.max_time_ns)
        return ServeResult(
            system=self.config.system,
            backend=self.system.config.backend,
            arbitration=self.config.arbitration,
            elapsed_ns=elapsed_ns,
            max_inflight_observed=self.max_inflight_observed,
            events_processed=self.loop.processed,
            tenants={
                state.spec.name: state.metrics.snapshot(elapsed_ns)
                for state in self._tenants
            },
        )


def serve(
    config: ServeConfig,
    sim_config: SimConfig | None = None,
    *,
    racecheck: RaceChecker | None = None,
    tiebreak_seed: int | None = None,
) -> ServeResult:
    """Convenience one-shot: build a server, run it, return the result."""
    return StorageServer(
        config, sim_config, racecheck=racecheck, tiebreak_seed=tiebreak_seed
    ).run()


def result_digest(result: ServeResult | ClusterResult) -> str:
    """sha256 of a result's canonical ``to_dict()`` JSON (regression currency)."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PerturbationReport:
    """Result of re-running one config under shuffled tie-breaks."""

    #: Digest of the unperturbed run (schedule-order tie-break).
    baseline_digest: str
    #: Tie-break seed -> digest of that perturbed run.
    digests: dict[int, str]

    @property
    def identical(self) -> bool:
        return all(digest == self.baseline_digest for digest in self.digests.values())

    @property
    def drifted(self) -> tuple[int, ...]:
        """Seeds whose perturbed run diverged from the baseline."""
        return tuple(
            seed
            for seed, digest in sorted(self.digests.items())
            if digest != self.baseline_digest
        )

    def render(self) -> str:
        verdict = "byte-identical" if self.identical else f"DRIFTED (seeds {list(self.drifted)})"
        return (
            f"tie-break perturbation: {len(self.digests)} seeds, {verdict}; "
            f"baseline sha256 {self.baseline_digest[:16]}"
        )


def perturbed(
    run: Callable[[int | None], ServeResult | ClusterResult],
    seeds: tuple[int, ...] = tuple(range(1, 9)),
) -> PerturbationReport:
    """Prove (or refute) tie-break independence of a serve or cluster run.

    ``run(None)`` is the normal ``(time, seq)`` tie-break; ``run(seed)``
    passes ``tiebreak_seed=seed`` so simultaneous events are shuffled by
    seeded uniforms.  A race-free program gives the same
    :func:`result_digest` for every seed; any drift means some
    observable state leaned on the arbitrary ordering of same-timestamp
    events.
    """
    baseline = result_digest(run(None))
    digests = {seed: result_digest(run(seed)) for seed in seeds}
    return PerturbationReport(baseline_digest=baseline, digests=digests)


__all__ = [
    "CLOSED",
    "OPEN",
    "PerturbationReport",
    "ServeConfig",
    "ServingNode",
    "StorageServer",
    "TenantSpec",
    "check_tenants",
    "perturbed",
    "result_digest",
    "serve",
]
