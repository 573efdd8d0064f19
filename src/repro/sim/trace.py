"""Per-request stage traces: the single record both views derive from.

Every layer of the simulation — VFS, page cache, block layer, driver,
Pipette core, device controller, Read Engine, PCIe link — records the
costs it incurs as :class:`Stage` entries in the *active request's*
:class:`StageTrace` instead of side-effect-charging the resource ledger
and separately returning latency floats for callers to sum.  The three
previously independent bookkeeping mechanisms then become derived
views of the one record:

- **ledger charging** — every charged stage is folded into the
  :class:`repro.sim.resources.ResourceModel` at exactly one choke point
  (:meth:`Tracer.add`), so aggregated stage charges always equal the
  ledger's busy totals;
- **QD-1 latency** — :meth:`StageTrace.latency_ns` sums the stages on
  the request's serial critical path; ``StorageSystem.read`` feeds that
  sum to the :class:`repro.sim.latency.LatencyRecorder`;
- **queueing demand** — :meth:`StageTrace.demand` projects the trace
  onto the three-stage closed-loop pipeline model
  (:class:`repro.sim.queueing.RequestDemand`), which is how
  ``experiments/qd_sweep`` replays *actual* recorded per-request costs
  through the event-level simulator.

Stage semantics
---------------

A stage has a resource tag (``"host"``, ``"pcie"``, ``"channel:3"`` or
the uncharged ``"nand"``), a name (``"tR"``, ``"block_stack"``, ...),
a duration, and two flags:

``latency``
    the stage sits on the request's QD-1 critical path and contributes
    to its serial latency;
``charged``
    the stage occupies its resource in the pipelined-throughput view
    and is folded into the ledger.

The flags decouple the two views where they genuinely differ: a page
sensed for read-ahead occupies its flash channel (``charged=True``)
but completes asynchronously (``latency=False``), while the array
phase of a multi-page read appears in latency as one *serial* stage of
``ceil(pages/channels)`` rounds (``latency=True, charged=False`` with
the generic ``"nand"`` tag) on top of the per-page channel charges.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Iterator, NamedTuple

from repro.sim import sanitize
from repro.sim.queueing import RequestDemand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.resources import ResourceModel

#: Resource tag: host CPU time.
HOST = "host"
#: Resource tag: PCIe link time.
PCIE = "pcie"
#: Resource tag: NAND array time *not* attributed to a specific channel
#: — used for derived serial (QD-1) array stages, never charged.
NAND = "nand"

_CHANNEL_PREFIX = "channel:"


def channel_tag(index: int) -> str:
    """Resource tag of one flash channel, e.g. ``"channel:3"``."""
    if index < 0:
        raise ValueError(f"negative channel index {index}")
    return f"{_CHANNEL_PREFIX}{index}"


@cache
def parse_channel(resource: str) -> int | None:
    """Channel index of a ``"channel:<i>"`` tag, else ``None``.

    Memoised: a run uses a handful of distinct tags, so each is parsed
    once and every later stage costs one dictionary lookup.
    """
    if not resource.startswith(_CHANNEL_PREFIX):
        return None
    return int(resource[len(_CHANNEL_PREFIX) :])


class _StageFields(NamedTuple):
    resource: str
    name: str
    ns: float
    latency: bool
    charged: bool


class Stage(_StageFields):
    """One costed step of a request: resource tag + name + duration.

    ``latency``: on the QD-1 critical path (contributes to serial
    latency).  ``charged``: occupies its resource in the throughput view
    (folded into the ledger); derived serial stages (``"nand"``) must be
    uncharged.  A stage is an immutable tuple, so :meth:`Tracer.add` can
    build one in a single step once it has checked the values itself.
    """

    __slots__ = ()

    def __new__(
        cls, resource: str, name: str, ns: float, latency: bool = True, charged: bool = True
    ) -> "Stage":
        _check_stage(resource, ns, charged)
        return tuple.__new__(cls, (resource, name, ns, latency, charged))


def _check_stage(resource: str, ns: float, charged: bool) -> None:
    if not math.isfinite(ns):
        raise ValueError(f"non-finite stage duration {ns}")
    if ns < 0:
        raise ValueError(f"negative stage duration {ns}")
    if charged and resource == NAND:
        raise ValueError(
            "generic 'nand' stages are derived views and cannot be "
            "charged; charge a specific 'channel:<i>' instead"
        )


@dataclass
class StageTrace:
    """Append-only per-request record of stages, with nested spans.

    A trace is a tree: layers that want their costs grouped open a
    child span (``Tracer.span``) and record into it; views cover the
    whole tree.

    When :meth:`Tracer.end` closes a root trace it derives the three
    views (latency, demand, anatomy) in one pass and keeps them;
    :meth:`add` or :meth:`child` on it afterwards drops them again.
    Spans and traces built by hand derive each view when asked.
    """

    name: str
    meta: dict[str, object] = field(default_factory=dict)
    stages: list[Stage] = field(default_factory=list)
    children: list["StageTrace"] = field(default_factory=list)
    _views: "tuple[float, RequestDemand, dict[str, float]] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, stage: Stage) -> Stage:
        self._views = None
        self.stages.append(stage)
        return stage

    def child(self, name: str, **meta: object) -> "StageTrace":
        self._views = None
        span = StageTrace(name=name, meta=dict(meta))
        self.children.append(span)
        return span

    # --- traversal ----------------------------------------------------
    def walk(self) -> Iterator[Stage]:
        """All stages of this trace and its spans, pre-order.

        A span's own stages come first, then each child span's subtree
        in turn — *not* recording order when a parent records after a
        child span closed.  Every view sums in this order.
        """
        pending = [self]
        while pending:
            span = pending.pop()
            yield from span.stages
            if span.children:
                pending.extend(reversed(span.children))

    # --- derived views ------------------------------------------------
    def latency_ns(self) -> float:
        """QD-1 latency: the sum of the critical-path stages."""
        if self._views is not None:
            return self._views[0]
        return sum([stage.ns for stage in self.walk() if stage.latency])

    def charges(self) -> dict[str, float]:
        """Ledger view: charged nanoseconds per resource tag."""
        totals: dict[str, float] = {}
        for stage in self.walk():
            if stage.charged:
                totals[stage.resource] = totals.get(stage.resource, 0.0) + stage.ns
        return totals

    def latency_by_name(self) -> dict[str, float]:
        """Critical-path nanoseconds per stage name (anatomy view)."""
        return dict((self._views or self._derive())[2])

    def demand(self) -> RequestDemand:
        """Project the trace onto the three-stage queueing model.

        - ``host_ns``: every host-tagged stage (the cores serially
          execute all of a request's host work);
        - ``pcie_ns``: every PCIe-tagged stage, including overlapped
          transfers such as read-ahead — they load the link under
          pipelining even though they are off the QD-1 path;
        - ``nand_ns``: the *charged* channel work (total array
          occupancy the request generated), attributed to the
          most-loaded channel of the request.  Derived serial
          ``"nand"`` stages are excluded to avoid double counting.
        """
        return (self._views or self._derive())[1]

    def _derive(self) -> "tuple[float, RequestDemand, dict[str, float]]":
        """Latency, demand and anatomy in one pre-order pass.

        Each total accumulates in :meth:`walk` order, and the latency is
        builtin ``sum()`` over the critical-path durations in that
        order (compensated on CPython 3.12+), so the views are
        bit-identical to summing each one on its own walk.
        """
        on_path: list[float] = []
        by_name: dict[str, float] = {}
        host_ns = 0.0
        pcie_ns = 0.0
        per_channel: dict[int, float] = {}
        for resource, name, ns, latency, charged in self.walk():
            if latency:
                on_path.append(ns)
                by_name[name] = by_name.get(name, 0.0) + ns
            if resource == HOST:
                host_ns += ns
            elif resource == PCIE:
                pcie_ns += ns
            elif charged:
                index = parse_channel(resource)
                if index is not None:
                    per_channel[index] = per_channel.get(index, 0.0) + ns
        if per_channel:
            dominant = max(per_channel, key=per_channel.__getitem__)
            nand_ns = sum(per_channel.values())
        else:
            dominant, nand_ns = 0, 0.0
        demand = RequestDemand(
            host_ns=host_ns, nand_ns=nand_ns, channel=dominant, pcie_ns=pcie_ns
        )
        return sum(on_path), demand, by_name


def fold_charges(traces: Iterator[StageTrace] | list[StageTrace]) -> dict[str, float]:
    """Aggregate the charged stages of several traces by resource tag."""
    totals: dict[str, float] = {}
    for trace in traces:
        for resource, ns in trace.charges().items():
            totals[resource] = totals.get(resource, 0.0) + ns
    return totals


class Tracer:
    """The active-trace context every layer records through.

    One tracer is shared by a system and its whole device stack.  The
    storage system opens a root trace per request (``begin``/``end``);
    layers append stages to whatever trace is active — the innermost
    open span, or the ``ambient`` trace when no request is in flight
    (initialization work, direct device-level use in tests).

    Folding charged stages into the :class:`ResourceModel` happens here
    and only here, so the ledger is — by construction — a derived view
    of the recorded stages.
    """

    def __init__(self, resources: "ResourceModel | None" = None, *, retain: bool = False) -> None:
        self.resources = resources
        #: Catch-all trace for work outside any request.
        self.ambient = StageTrace("ambient")
        #: When true, completed root traces are kept in ``finished``.
        self.retain = retain
        self.finished: list[StageTrace] = []
        self._stack: list[StageTrace] = []
        #: Mirror of every charge folded through this tracer plus the
        #: ledger totals at attach time — the runtime sanitizer compares
        #: them against the ResourceModel at each root-trace boundary to
        #: prove the ledger is still a derived view of the traces.
        self._folded_host = 0.0
        self._folded_pcie = 0.0
        self._folded_channels: dict[int, float] = {}
        if resources is not None:
            self._ledger_base: tuple[float, float, list[float]] = (
                resources.host_busy_ns,
                resources.pcie_busy_ns,
                list(resources.channel_busy_ns),
            )
        else:
            self._ledger_base = (0.0, 0.0, [])

    # --- context ------------------------------------------------------
    @property
    def active(self) -> StageTrace:
        return self._stack[-1] if self._stack else self.ambient

    def begin(self, name: str, **meta: object) -> StageTrace:
        """Open a root trace (one storage request)."""
        trace = StageTrace(name=name, meta=dict(meta))
        self._stack.append(trace)
        return trace

    def end(self) -> StageTrace:
        """Close the innermost open trace/span and return it.

        When sanitizing is active (``REPRO_SANITIZE=1`` or an open
        :class:`repro.sim.sanitize.SimSanitizer`), closing a *root*
        trace verifies the per-request invariants: finite non-negative
        stage costs and ledger totals equal to the folded charges.
        """
        if not self._stack:
            raise sanitize.SanitizeError("Tracer.end() without a matching begin()")
        trace = self._stack.pop()
        if not self._stack:
            trace._views = trace._derive()
            if sanitize.active():
                sanitize.verify_root(self, trace)
            if self.retain:
                self.finished.append(trace)
        return trace

    @contextmanager
    def span(self, name: str, **meta: object):
        """Open a child span of the active trace for a nested layer."""
        child = self.active.child(name, **meta)
        self._stack.append(child)
        try:
            yield child
        finally:
            self._stack.pop()

    @contextmanager
    def detached(self, name: str, **meta: object):
        """Record background work outside the active request.

        The span becomes a child of the *ambient* trace regardless of
        what is in flight: its charged stages still fold into the
        ledger, but nothing it records touches the active request's
        latency or demand (e.g. page-cache eviction write-back that
        happens to trigger mid-read).
        """
        child = self.ambient.child(name, **meta)
        self._stack.append(child)
        try:
            yield child
        finally:
            self._stack.pop()

    # --- recording ----------------------------------------------------
    def add(
        self,
        resource: str,
        name: str,
        ns: float,
        *,
        latency: bool = True,
        charged: bool = True,
    ) -> Stage:
        """Record one stage into the active trace and fold its charge.

        The stage is checked, stored and folded here in one step: the
        hot path builds no intermediate objects, and only a channel
        stage makes calls (the memoised tag parse and the ledger's
        range-checked :meth:`ResourceModel.channel`).
        """
        ns = float(ns)
        if not 0.0 <= ns < math.inf or (charged and resource == NAND):
            _check_stage(resource, ns, charged)
        stage = tuple.__new__(Stage, (resource, name, ns, latency, charged))
        stack = self._stack
        (stack[-1] if stack else self.ambient).stages.append(stage)
        resources = self.resources
        if not charged or resources is None:
            return stage
        if resource == HOST:
            resources.host_busy_ns += ns
            self._folded_host += ns
        elif resource == PCIE:
            resources.pcie_busy_ns += ns
            self._folded_pcie += ns
        else:
            index = parse_channel(resource)
            if index is None:
                raise ValueError(f"cannot charge unknown resource {resource!r}")
            resources.channel(index, ns)
            folded = self._folded_channels
            folded[index] = folded.get(index, 0.0) + ns
        return stage

    def host(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self.add(HOST, name, ns, latency=latency, charged=charged)

    def pcie(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self.add(PCIE, name, ns, latency=latency, charged=charged)

    def channel(
        self, index: int, name: str, ns: float, *, latency: bool = False, charged: bool = True
    ) -> Stage:
        """Charge one flash channel (off the latency path by default)."""
        return self.add(channel_tag(index), name, ns, latency=latency, charged=charged)

    def serial_nand(self, name: str, ns: float) -> Stage:
        """Record the derived serial (QD-1) array phase of a request."""
        return self.add(NAND, name, ns, latency=True, charged=False)


__all__ = [
    "HOST",
    "NAND",
    "PCIE",
    "Stage",
    "StageTrace",
    "Tracer",
    "channel_tag",
    "fold_charges",
    "parse_channel",
]
