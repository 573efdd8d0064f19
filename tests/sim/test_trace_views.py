"""The one-pass trace views equal a recursive reference, bit for bit.

Random nested traces are recorded through a :class:`Tracer`: spans open
and close at random, parents record again after a child span closed,
and every stage kind appears (host, PCIe, charged channel, uncharged
serial ``nand``).  Durations span many orders of magnitude, so summing
in any order other than the reference's shows up as a differing float.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import RequestDemand
from repro.sim.resources import ResourceModel
from repro.sim.trace import HOST, NAND, PCIE, Stage, StageTrace, Tracer, channel_tag

CHANNELS = 4

durations = st.one_of(
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e17, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e16, 1.0]),
)
resources = st.sampled_from([HOST, PCIE, NAND] + [channel_tag(i) for i in range(CHANNELS)])
stage_op = st.tuples(
    st.just("stage"),
    resources,
    st.sampled_from(["a", "b", "tR", "xfer"]),
    durations,
    st.booleans(),
    st.booleans(),
)
open_op = st.tuples(st.just("open"), st.sampled_from(["s", "t"]))
ops = st.lists(st.one_of(stage_op, open_op, st.just(("close",))), max_size=60)


# --- recursive reference -------------------------------------------------


def _stages(trace: StageTrace) -> list:
    ordered = list(trace.stages)
    for span in trace.children:
        ordered.extend(_stages(span))
    return ordered


def _latency(trace: StageTrace) -> float:
    return sum(stage.ns for stage in _stages(trace) if stage.latency)


def _by_name(trace: StageTrace) -> dict[str, float]:
    totals: dict[str, float] = {}
    for stage in _stages(trace):
        if stage.latency:
            totals[stage.name] = totals.get(stage.name, 0.0) + stage.ns
    return totals


def _demand(trace: StageTrace) -> RequestDemand:
    host_ns = 0.0
    pcie_ns = 0.0
    per_channel: dict[int, float] = {}
    for stage in _stages(trace):
        if stage.resource == HOST:
            host_ns += stage.ns
        elif stage.resource == PCIE:
            pcie_ns += stage.ns
        elif stage.charged and stage.resource.startswith("channel:"):
            index = int(stage.resource.split(":")[1])
            per_channel[index] = per_channel.get(index, 0.0) + stage.ns
    if per_channel:
        dominant = max(per_channel, key=per_channel.__getitem__)
        nand_ns = sum(per_channel.values())
    else:
        dominant, nand_ns = 0, 0.0
    return RequestDemand(host_ns=host_ns, nand_ns=nand_ns, channel=dominant, pcie_ns=pcie_ns)


def _record(script: list) -> tuple[StageTrace, list[StageTrace]]:
    """Play ``script`` into one root trace; returns it and every span."""
    tracer = Tracer(ResourceModel(channels=CHANNELS))
    root = tracer.begin("read")
    spans: list[StageTrace] = []
    open_spans = []
    for op in script:
        if op[0] == "stage":
            _, resource, name, ns, latency, charged = op
            tracer.add(resource, name, ns, latency=latency, charged=charged and resource != NAND)
        elif op[0] == "open":
            context = tracer.span(op[1])
            spans.append(context.__enter__())
            open_spans.append(context)
        elif open_spans:
            open_spans.pop().__exit__(None, None, None)
    while open_spans:
        open_spans.pop().__exit__(None, None, None)
    assert tracer.end() is root
    return root, spans


def _assert_views_match(trace: StageTrace) -> None:
    assert trace.latency_ns() == _latency(trace)
    assert trace.latency_by_name() == _by_name(trace)
    assert trace.demand() == _demand(trace)


@given(ops)
@settings(max_examples=300, deadline=None)
def test_views_equal_recursive_reference(script):
    root, spans = _record(script)
    _assert_views_match(root)  # a closed root: views derived once in end()
    for span in spans:
        _assert_views_match(span)  # an inner span: views derived on demand
    assert list(root.walk()) == _stages(root)


def test_parent_stage_after_child_span_sums_in_walk_order():
    tracer = Tracer()
    root = tracer.begin("read")
    tracer.host("a", 1e16)
    with tracer.span("device"):
        tracer.pcie("xfer", 1.0)
    tracer.host("b", 1.0)
    tracer.end()
    # Walk order is a, b (the root's own stages), then xfer.
    assert [stage.name for stage in root.walk()] == ["a", "b", "xfer"]
    assert root.latency_ns() == sum([1e16, 1.0, 1.0])


def test_recording_into_a_closed_root_drops_its_kept_views():
    tracer = Tracer()
    root = tracer.begin("read")
    tracer.host("a", 1.0)
    tracer.end()
    assert root.latency_ns() == 1.0
    root.add(Stage(HOST, "late", 2.0))
    root.child("span").add(Stage(PCIE, "xfer", 4.0))
    assert root.latency_ns() == 7.0
    assert root.latency_by_name() == {"a": 1.0, "late": 2.0, "xfer": 4.0}
    assert root.demand() == _demand(root)
