"""Per-layer tracing from outside the program, for the traced run only.

:class:`LayerTracer` wraps public functions of the program's modules
while it is entered and restores them on exit.  Each wrapped call
records one in-memory span (id, parent span, request id, name, start,
end); a call to ``StorageSystem.read``/``write`` opens a new request id
that its nested spans share.  Self time is a span's duration minus the
time its child spans cover.  Other wrappers only count: settle-hook
calls (through ``EventLoop.add_settler``), NVMe ring fetches, and the
service each ``FifoResource`` is given together with the wait each job
saw (completion time minus service minus acquire time).

The wrappers only read.  A traced repetition gives the same simulated
result digest as an untraced one, which the benchmark checks.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict
from typing import Callable

from repro.cluster.node import ClusterNode
from repro.core.read_cache.cache import FineGrainedReadCache
from repro.kernel.vfs import BlockReadPath
from repro.serve.engine import EventLoop, FifoResource
from repro.serve.nvme_mq import MultiQueueNvme
from repro.sim.latency import LatencyRecorder
from repro.sim.stats import LatencyHistogram
from repro.sim.trace import StageTrace, Tracer
from repro.ssd.device import SSDDevice
from repro.ssd.hmb import HostMemoryBuffer
from repro.system import StorageSystem

#: (owner, attribute, span name) of every function timed as a span.
SPANNED = (
    (StorageSystem, "read", "system.read"),
    (StorageSystem, "write", "system.write"),
    (Tracer, "begin", "sim.trace.begin"),
    (Tracer, "end", "sim.trace.end"),
    (Tracer, "add", "sim.trace.add"),
    (StageTrace, "demand", "sim.trace.demand"),
    (StageTrace, "latency_by_name", "sim.trace.latency_by_name"),
    (SSDDevice, "block_read", "ssd.device.block_read"),
    (SSDDevice, "block_write", "ssd.device.block_write"),
    (SSDDevice, "submit", "ssd.device.submit"),
    (HostMemoryBuffer, "__post_init__", "ssd.hmb.init"),
    (BlockReadPath, "read", "kernel.block_path.read"),
    (FineGrainedReadCache, "lookup", "core.fgrc.lookup"),
    (EventLoop, "run", "serve.engine.run"),
)

#: Spans that start a request: their nested spans share its id.
REQUEST_ROOTS = frozenset({"system.read", "system.write"})

#: (owner, attribute, counter name) of functions only counted.
COUNTED = (
    (LatencyHistogram, "record", "sim.stats.record"),
    (LatencyRecorder, "record", "sim.stats.record"),
)

FIFO_KINDS = ("host", "channel", "pcie")

_ABSENT = object()


class Patches:
    """Class attributes replaced for a while, then put back as they were."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def patch(self, owner: type, attribute: str, wrapper: Callable) -> None:
        self._saved.append((owner, attribute, owner.__dict__.get(attribute, _ABSENT)))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._saved.clear()


def fifo_kind(name: str) -> str:
    """``host``/``channel``/``pcie`` from a stage name such as ``s0:channel:3``."""
    parts = name.split(":")
    if "channel" in parts:
        return "channel"
    return parts[-1]


class LayerTracer:
    """Spans, counts and stage waits of one traced repetition."""

    def __init__(self, *, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        #: Finished spans: (id, parent, request, name, start_s, end_s).
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        #: name -> [calls, inclusive seconds, self seconds].
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        #: id(fifo) -> [fifo, service given, jobs, wait ns summed]
        self.fifos: dict[int, list] = {}
        self.queue_delays_ns: list[float] = []
        self.loops: list[EventLoop] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        #: Open spans: [id, request, child seconds].
        self._stack: list[list] = []
        self._request = 0
        self._attempt_issued_ns: dict[int, float] = {}
        self._patches = Patches()

    # --- install / restore -------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for owner, attribute, name in SPANNED:
            self._patch(owner, attribute, self._spanned(getattr(owner, attribute), name))
        for owner, attribute, name in COUNTED:
            self._patch(owner, attribute, self._counted(getattr(owner, attribute), name))
        self._patch(EventLoop, "__init__", self._loop_init(EventLoop.__init__))
        self._patch(EventLoop, "add_settler", self._add_settler(EventLoop.add_settler))
        self._patch(FifoResource, "acquire", self._acquire(FifoResource.acquire))
        self._patch(MultiQueueNvme, "fetch", self._fetch(MultiQueueNvme.fetch))
        self._patch(ClusterNode, "submit", self._node_submit(ClusterNode.submit))
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    def _patch(self, owner: type, attribute: str, wrapper: Callable) -> None:
        self._patches.patch(owner, attribute, wrapper)

    # --- wrappers ----------------------------------------------------
    def _spanned(self, function: Callable, name: str) -> Callable:
        tracer = self
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter
        root = name in REQUEST_ROOTS

        def spanned(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            outer_request = tracer._request
            if root:
                tracer._request = next(tracer._requests)
            # The facade's read time is also attributed to each system.
            per_system = f"system.{args[0].NAME}.read" if name == "system.read" else None
            frame = [span_id, tracer._request, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if per_system is not None:
                    totals[per_system][0] += 1
                    totals[per_system][1] += duration
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, frame[1], name, start, end))
                tracer._request = outer_request

        return spanned

    def _counted(self, function: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def _loop_init(self, function: Callable) -> Callable:
        loops = self.loops

        def loop_init(loop, *args, **kwargs):
            function(loop, *args, **kwargs)
            loops.append(loop)

        return loop_init

    def _add_settler(self, function: Callable) -> Callable:
        counts = self.counts

        def add_settler(loop, settler):
            counts["serve.engine.settlers"] += 1

            def settle():
                counts["serve.engine.settle_calls"] += 1
                worked = settler()
                if worked:
                    counts["serve.engine.settle_useful"] += 1
                return worked

            function(loop, settle)

        return add_settler

    def _acquire(self, function: Callable) -> Callable:
        fifos = self.fifos

        def acquire(fifo, service_ns, done, *, key=None):
            entry = fifos.get(id(fifo))
            if entry is None:
                entry = fifos[id(fifo)] = [fifo, [], 0, 0.0]
            entry[1].append(service_ns)
            acquired_ns = fifo.loop.now_ns

            def observed_done(end_ns):
                entry[2] += 1
                entry[3] += end_ns - service_ns - acquired_ns
                done(end_ns)

            return function(fifo, service_ns, observed_done, key=key)

        return acquire

    def _fetch(self, function: Callable) -> Callable:
        counts = self.counts
        delays = self.queue_delays_ns
        issued = self._attempt_issued_ns
        tracer = self

        def fetch(mq):
            fetched = function(mq)
            counts["serve.nvme_mq.fetch_calls"] += 1
            if fetched is None:
                return None
            counts["serve.nvme_mq.fetch_hits"] += 1
            entry = fetched[1]
            now_ns = tracer.loops[-1].now_ns
            if isinstance(entry, tuple):
                # StorageServer rings hold (op, submit_ns).
                delays.append(now_ns - entry[1])
            else:
                # ClusterNode rings hold router attempts.
                issued_ns = issued.pop(id(entry))
                if not entry.cancelled:
                    delays.append(now_ns - issued_ns)
            return fetched

        return fetch

    def _node_submit(self, function: Callable) -> Callable:
        issued = self._attempt_issued_ns

        def submit(node, attempt):
            issued[id(attempt)] = node.loop.now_ns
            return function(node, attempt)

        return submit

    # --- summary -----------------------------------------------------
    def fifo_summary(self) -> tuple[dict[str, float], list[str]]:
        """Stage utilisation and mean wait per kind, plus busy-time checks.

        Call right after the run, while the stages' loops still hold
        their final clock.
        """
        busy = Counter()
        capacity = Counter()
        waits = Counter()
        jobs = Counter()
        violations = []
        for fifo, given, served, wait_ns in self.fifos.values():
            kind = fifo_kind(fifo.name)
            given_ns = math.fsum(given)
            if not math.isclose(fifo.busy_ns, given_ns, rel_tol=1e-9, abs_tol=1e-6):
                violations.append(
                    f"stage {fifo.name}: busy_ns {fifo.busy_ns!r} != service given {given_ns!r}"
                )
            busy[kind] += fifo.busy_ns
            capacity[kind] += fifo.servers * fifo.loop.now_ns
            waits[kind] += wait_ns
            jobs[kind] += served
        summary = {}
        for kind in FIFO_KINDS:
            summary[f"serve.fifo.{kind}.util"] = (
                busy[kind] / capacity[kind] if capacity[kind] else 0.0
            )
            summary[f"serve.fifo.{kind}.wait_us_mean"] = (
                waits[kind] / jobs[kind] / 1e3 if jobs[kind] else 0.0
            )
        return summary, violations

    def write_spans(self, path) -> None:
        """Write the kept spans as tab-separated lines (times in ns)."""
        if not self.spans:
            return
        origin = min(span[4] for span in self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span_id, parent, request, name, start, end in sorted(self.spans):
                out.write(
                    f"{span_id}\t{parent}\t{request}\t{name}\t"
                    f"{(start - origin) * 1e9:.0f}\t{(end - origin) * 1e9:.0f}\n"
                )
