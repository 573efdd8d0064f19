"""Benchmark driver: repeat a workload for a while, check it, report metrics.

One invocation runs one workload::

    python3 perfbench/run.py --workload serve-graph-rw --seed 42 --seconds 15 --trace 0

Inputs are generated from ``--seed`` before timing starts.  With
``--trace 0`` the workload is repeated, untraced, until ``--seconds``
have passed, and the end-to-end metrics are printed: host metrics are
medians over the repetitions, simulated (``virtual_*``) metrics are
exact and identical in every repetition.  Throughput is normalised to a
fixed host speed, measured by a reference loop run between repetitions
(:mod:`perfbench.reference`).  With ``--trace 1`` untraced
and traced repetitions alternate, and the per-layer metrics are printed;
the first traced repetition's spans are written to ``.perfbench/`` in
the checkout.  Either way every repetition is checked (ops issued and
completed, conservation counts, the simulated-result digest), and the
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.metrics import SYSTEM_ORDER

from perfbench.reference import REFERENCE_PASS_S, reference_pass
from perfbench.tracing import FIFO_KINDS, LayerTracer
from perfbench.workloads import (
    DEFAULT_SEED,
    FULL,
    WORKLOADS,
    Outcome,
    Sizes,
    nearest_rank,
)

#: Metric name -> unit, for the untraced run.  Host metrics:
#:
#: - ``setup_s``: building the systems, server or cluster and creating and
#:   opening their files (median per repetition);
#: - ``norm_req_per_s``: simulated requests completed per host second of
#:   the run phase, scaled to a host on which one reference pass takes
#:   ``REFERENCE_PASS_S`` (median per repetition, each scaled by the mean of
#:   the reference passes just before and after it).  The host's speed
#:   drifts by up to 2x over minutes with its other tenants' load, and the
#:   unscaled rate drifts with it; it is the per-layer
#:   ``host.wall_req_per_s``;
#: - ``peak_rss_mib``: the process's peak resident set;
#: - ``ops_ok_frac``: ops completed OK / ops attempted (1.0 when nothing
#:   is shed, failed or left unfinished).
#:
#: Simulated metrics, exact for a seed: mean read latency (the paper's
#: Fig. 8 statistic), device-to-host bytes per demanded byte, and
#: ``virtual_qps``:
#: completions per simulated second of the bottleneck resource's busy
#: time on the paper path (pipette) and on the cluster (busiest node),
#: where the open-loop arrival rate would otherwise fix it; measured
#: closed-loop capacity on the server.  ``virtual_speedup_vs_block_io``
#: divides it by the same workload's ``virtual_qps`` on ``block-io``.
END_TO_END = {
    "setup_s": "s",
    "norm_req_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "ratio",
    "virtual_read_mean_us": "us",
    "virtual_qps": "1/s",
    "read_amplification": "ratio",
    "virtual_speedup_vs_block_io": "ratio",
}

#: Metric name -> unit, for the traced run.  A layer a workload does not
#: exercise reports 0.  The simulated read-latency median and p99 (the
#: highest percentile with at least ten samples beyond it at these sizes)
#: are here with their sample count: at QD-1 the paper path's latencies
#: take a handful of exact values, so its percentiles are the same for
#: every seed.
PER_LAYER = {
    "host.wall_req_per_s": "1/s",
    "host.reference_pass_s": "s",
    "virtual.read_p50_us": "us",
    "virtual.read_p99_us": "us",
    "virtual.read_samples": "count",
    "workloads.gen_s": "s",
    "system.read.calls": "count",
    "system.read.self_us": "us/read",
    "system.write.calls": "count",
    "system.write.us": "us/write",
    **{f"system.{name}.us_per_read": "us/read" for name in SYSTEM_ORDER},
    **{f"system.{name}.virtual_qps": "1/s" for name in SYSTEM_ORDER},
    "sim.trace.add_per_request": "count",
    "sim.trace.us_per_request": "us/request",
    "sim.stats.record_calls": "count",
    "ssd.hmb.init_s": "s",
    "ssd.device.block_read.calls": "count",
    "ssd.device.submit.calls": "count",
    "ssd.device.us_per_request": "us/request",
    "ssd.bytes_to_host": "bytes",
    "kernel.block_path.read_us": "us/call",
    "kernel.page_cache.hit_ratio": "ratio",
    "core.fgrc.lookup.calls": "count",
    "core.fgrc.hit_ratio": "ratio",
    "core.fgrc.admit_frac": "ratio",
    "core.fine_write.absorbed": "count",
    "core.fine_write.flushes": "count",
    "serve.engine.events": "count",
    "serve.engine.us_per_event": "us/event",
    "serve.engine.settlers": "count",
    "serve.engine.settle_calls_per_event": "ratio",
    "serve.engine.settle_useful_frac": "ratio",
    **{f"serve.fifo.{kind}.util": "ratio" for kind in FIFO_KINDS},
    **{f"serve.fifo.{kind}.wait_us_mean": "us" for kind in FIFO_KINDS},
    "serve.nvme_mq.fetch_hit_frac": "ratio",
    "serve.queue_delay_us_p99": "us",
    "cluster.attempts_per_request": "ratio",
    "cluster.hedges_issued": "count",
    "cluster.hedge_win_frac": "ratio",
    "cluster.hedges_wasted": "count",
    "cluster.node.s0.attempt_share": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer counts that must repeat exactly in every traced repetition.
EXACT = (
    "system.read.calls",
    "system.write.calls",
    "sim.trace.add_per_request",
    "sim.stats.record_calls",
    "ssd.device.block_read.calls",
    "ssd.device.submit.calls",
    "ssd.bytes_to_host",
    "core.fgrc.lookup.calls",
    "serve.engine.events",
    "serve.engine.settlers",
    "serve.engine.settle_calls_per_event",
)

#: Repetitions made even when ``--seconds`` has already run out.
MIN_REPS = 3

#: Where the traced run writes its spans, relative to the checkout.
SPANS_DIR = ".perfbench"


def machine_tag() -> dict[str, object]:
    """CPU model, core count and Python version: numbers from different
    machines are never compared."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _us_per(seconds: float, calls: float) -> float:
    return _ratio(seconds * 1e6, calls)


def _layer_counts(tracer: LayerTracer, outcome: Outcome) -> dict[str, float]:
    """The per-layer counts and ratios of one traced repetition."""
    totals, counts, counters = tracer.totals, tracer.counts, outcome.counters
    requests = totals["system.read"][0] + totals["system.write"][0]
    events = sum(loop.processed for loop in tracer.loops)
    settle_calls = counts["serve.engine.settle_calls"]
    virtual = outcome.virtual
    layer = {
        "virtual.read_p50_us": virtual["read_p50_ns"] / 1e3,
        "virtual.read_p99_us": virtual["read_p99_ns"] / 1e3,
        "virtual.read_samples": virtual["read_samples"],
        "system.read.calls": totals["system.read"][0],
        "system.write.calls": totals["system.write"][0],
        "sim.trace.add_per_request": _ratio(totals["sim.trace.add"][0], requests),
        "sim.stats.record_calls": counts["sim.stats.record"],
        "ssd.device.block_read.calls": totals["ssd.device.block_read"][0],
        "ssd.device.submit.calls": totals["ssd.device.submit"][0],
        "ssd.bytes_to_host": counters["ssd.bytes_to_host"],
        "kernel.page_cache.hit_ratio": _ratio(
            counters["kernel.page_cache.hits"],
            counters["kernel.page_cache.hits"] + counters["kernel.page_cache.misses"],
        ),
        "core.fgrc.lookup.calls": totals["core.fgrc.lookup"][0],
        "core.fgrc.hit_ratio": _ratio(
            counters["core.fgrc.hits"], counters["core.fgrc.hits"] + counters["core.fgrc.misses"]
        ),
        "core.fgrc.admit_frac": _ratio(
            counters["core.fgrc.admissions"], counters["core.fgrc.misses"]
        ),
        "core.fine_write.absorbed": counters["core.fine_write.absorbed"],
        "core.fine_write.flushes": counters["core.fine_write.flushes"],
        "serve.engine.events": events,
        "serve.engine.settlers": counts["serve.engine.settlers"],
        "serve.engine.settle_calls_per_event": _ratio(settle_calls, events),
        "serve.engine.settle_useful_frac": _ratio(
            counts["serve.engine.settle_useful"], settle_calls
        ),
        "serve.nvme_mq.fetch_hit_frac": _ratio(
            counts["serve.nvme_mq.fetch_hits"], counts["serve.nvme_mq.fetch_calls"]
        ),
        "serve.queue_delay_us_p99": (
            nearest_rank(sorted(tracer.queue_delays_ns), 0.99) / 1e3
            if tracer.queue_delays_ns
            else 0.0
        ),
    }
    for name, value in virtual.items():
        if name.startswith(("system.", "cluster.")):
            layer[name] = value
    return layer


def _layer_seconds(tracer: LayerTracer) -> dict[str, float]:
    """Host seconds (and the calls they divide by) of one traced repetition."""
    totals = tracer.totals
    seconds = {
        "requests": totals["system.read"][0] + totals["system.write"][0],
        "system.read.self": totals["system.read"][2],
        "system.write": totals["system.write"][1],
        "sim.trace": sum(
            totals[name][1]
            for name in (
                "sim.trace.begin",
                "sim.trace.end",
                "sim.trace.add",
                "sim.trace.demand",
                "sim.trace.latency_by_name",
            )
        ),
        "ssd.device": sum(
            totals[name][1]
            for name in ("ssd.device.block_read", "ssd.device.block_write", "ssd.device.submit")
        ),
        "ssd.hmb.init": totals["ssd.hmb.init"][1],
        "kernel.block_path.read": totals["kernel.block_path.read"][1],
        "kernel.block_path.read.calls": totals["kernel.block_path.read"][0],
        "serve.engine.self": totals["serve.engine.run"][2],
    }
    for name in SYSTEM_ORDER:
        seconds[f"system.{name}.read"] = totals[f"system.{name}.read"][1]
        seconds[f"system.{name}.read.calls"] = totals[f"system.{name}.read"][0]
    return seconds


def _norm_rates(outcomes: list[Outcome], passes: list[float]) -> list[float]:
    """Each repetition's throughput at the reference host speed; repetition
    ``i`` ran between reference passes ``i`` and ``i + 1``."""
    return [
        outcome.completed_ok / outcome.run_s * (before + after) / (2 * REFERENCE_PASS_S)
        for outcome, before, after in zip(outcomes, passes, passes[1:])
    ]


def _per_layer(
    layers: list[dict[str, float]],
    seconds: list[dict[str, float]],
    fifos: list[dict[str, float]],
    untraced: list[Outcome],
    traced: list[Outcome],
    host: dict[str, float],
    gen_s: float,
) -> tuple[dict[str, float], list[str]]:
    violations = [
        f"{name} differs between traced repetitions"
        for name in EXACT
        if len({layer[name] for layer in layers}) != 1
    ]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers[0])
    metrics.update(fifos[0])

    def total(key: str) -> float:
        return sum(entry[key] for entry in seconds)

    requests = total("requests")
    events = sum(layer["serve.engine.events"] for layer in layers)
    metrics.update(
        {
            **{f"host.{name}": value for name, value in host.items()},
            "workloads.gen_s": gen_s,
            "system.read.self_us": _us_per(total("system.read.self"), sum(
                layer["system.read.calls"] for layer in layers
            )),
            "system.write.us": _us_per(total("system.write"), sum(
                layer["system.write.calls"] for layer in layers
            )),
            "sim.trace.us_per_request": _us_per(total("sim.trace"), requests),
            "ssd.hmb.init_s": statistics.median(entry["ssd.hmb.init"] for entry in seconds),
            "ssd.device.us_per_request": _us_per(total("ssd.device"), requests),
            "kernel.block_path.read_us": _us_per(
                total("kernel.block_path.read"), total("kernel.block_path.read.calls")
            ),
            "serve.engine.us_per_event": _us_per(total("serve.engine.self"), events),
            "trace.overhead_frac": statistics.median(o.run_s for o in traced)
            / statistics.median(o.run_s for o in untraced)
            - 1.0,
        }
    )
    for name in SYSTEM_ORDER:
        metrics[f"system.{name}.us_per_read"] = _us_per(
            total(f"system.{name}.read"), total(f"system.{name}.read.calls")
        )
    return metrics, violations


def _end_to_end(
    outcomes: list[Outcome], passes: list[float], reference: dict[str, float]
) -> dict[str, float]:
    virtual = outcomes[0].virtual
    speedup = virtual.get("virtual_speedup_vs_block_io")
    if speedup is None:
        speedup = virtual["virtual_qps"] / reference["block_io_virtual_qps"]
    return {
        "setup_s": statistics.median(o.setup_s for o in outcomes),
        "norm_req_per_s": statistics.median(_norm_rates(outcomes, passes)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": sum(o.completed_ok for o in outcomes) / sum(o.attempted for o in outcomes),
        "virtual_read_mean_us": virtual["read_mean_ns"] / 1e3,
        "virtual_qps": virtual["virtual_qps"],
        "read_amplification": virtual["read_amplification"],
        "virtual_speedup_vs_block_io": speedup,
    }


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Sizes = FULL,
    spans_dir: Path | None = None,
) -> dict[str, object]:
    """Run one workload; returns the result object printed last."""
    workload = WORKLOADS[workload_name](sizes)
    started = time.perf_counter()
    inputs = workload.generate(seed)
    gen_s = time.perf_counter() - started

    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    layers: list[dict[str, float]] = []
    layer_seconds: list[dict[str, float]] = []
    fifos: list[dict[str, float]] = []
    violations: list[str] = []
    passes = [reference_pass()]
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(workload.repeat(inputs))
        passes.append(reference_pass())
        if not trace:
            continue
        gc.collect()
        with LayerTracer(keep_spans=not traced) as tracer:
            outcome = workload.repeat(inputs)
        traced.append(outcome)
        layers.append(_layer_counts(tracer, outcome))
        layer_seconds.append(_layer_seconds(tracer))
        fifo_metrics, fifo_violations = tracer.fifo_summary()
        fifos.append(fifo_metrics)
        violations += fifo_violations
        if spans_dir is not None and len(traced) == 1:
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_dir / f"spans-{workload_name}.tsv")
        del tracer

    outcomes = untraced + traced
    for outcome in outcomes:
        violations += outcome.violations
    digests = {outcome.digest for outcome in outcomes}
    if len(digests) != 1:
        violations.append(f"simulated-result digests differ across repetitions: {sorted(digests)}")
    host = {
        "wall_req_per_s": statistics.median(o.completed_ok / o.run_s for o in untraced),
        "reference_pass_s": statistics.median(passes),
    }
    if trace:
        metrics, layer_violations = _per_layer(
            layers, layer_seconds, fifos, untraced, traced, host, gen_s
        )
        violations += layer_violations
        units = PER_LAYER
    else:
        gc.collect()
        metrics = _end_to_end(untraced, passes, workload.reference(inputs))
        units = END_TO_END

    attempted = sum(outcome.attempted for outcome in outcomes)
    completed = sum(outcome.completed_ok for outcome in outcomes)
    return {
        "machine": machine_tag(),
        "workload": workload_name,
        "seed": seed,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "digest": outcomes[0].digest,
        "host": host,
        "read_latency": {
            key: untraced[0].virtual[key] for key in ("read_p50_ns", "read_p99_ns", "read_samples")
        },
        "violations": violations,
        "correct": not violations,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    result = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_dir=root / SPANS_DIR,
    )
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(
        f"workload: {result['workload']} seed={result['seed']} "
        f"repetitions={result['repetitions']}"
    )
    print(f"simulated-result sha256: {result['digest']}")
    for violation in result["violations"]:
        print(f"VIOLATION: {violation}")
    host = result["host"]
    print(
        f"host: unscaled {host['wall_req_per_s']:.1f} req/s, "
        f"reference pass {host['reference_pass_s']:.4f} s (scaled to {REFERENCE_PASS_S} s)"
    )
    latency = result["read_latency"]
    print(
        f"simulated read latency: p50 {latency['read_p50_ns'] / 1e3:.3f} us, "
        f"p99 {latency['read_p99_ns'] / 1e3:.3f} us (n={latency['read_samples']:.0f} reads)"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=False))
    sys.stdout.flush()
    return 0
