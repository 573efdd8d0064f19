"""The benchmark's three workloads: inputs from a seed, one timed repetition.

``generate`` turns the workload seed into a materialised op stream and
the configs that carry it, before any timing starts; the program only
ever sees those generated ops.  ``repeat`` then builds the program from
scratch through its public entry point (``build_system``,
``StorageServer``, ``Cluster``), times set-up and the run phase
separately, checks the simulated outcome, and returns both.  Every
workload starts with the modelled caches empty, as the paper's runs do.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.metrics import SYSTEM_ORDER
from repro.cluster.cluster import Cluster
from repro.core.read_cache.cache import FineGrainedReadCache
from repro.experiments import cluster as cluster_experiment
from repro.experiments.scale import get_scale
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.clients import ClosedLoopClient
from repro.serve.qos import TenantQoS
from repro.serve.server import ServeConfig, StorageServer, TenantSpec, serve
from repro.system import StorageSystem, build_system
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.trace import ReadOp, Trace

from perfbench.tracing import Patches

#: The recorded default seed; with it the synthetic trace uses seed 42,
#: the graph tenants 31 and 32, and the arrival processes 42.  Seed
#: 4242 is held out of tuning, for confirming later claims.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Sizes:
    """How much work one repetition of each workload does."""

    #: QD-1 reads replayed on each of the five paper systems.
    paper_reads: int = 4_000
    #: Ops per closed-loop serving tenant, and its graph's node count.
    serve_ops: int = 1_500
    serve_nodes: int = 16_384
    #: Ops per open-loop cluster tenant, and its graph's node count.
    cluster_ops: int = 1_500
    cluster_nodes: int = 65_536


#: The sizes the benchmark runs at.
FULL = Sizes()
#: A few-second variant for the benchmark's own test.
TINY = Sizes(
    paper_reads=300, serve_ops=150, serve_nodes=2_048, cluster_ops=150, cluster_nodes=4_096
)


@dataclass
class Outcome:
    """One repetition: host timings plus the checked simulated result."""

    setup_s: float
    run_s: float
    attempted: int
    completed_ok: int
    #: sha256 of the canonical simulated-result dict.
    digest: str
    #: Simulated end-to-end values (deterministic for a given seed).
    virtual: dict[str, float]
    #: Layer counters read off the program's own objects.
    counters: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nearest_rank(sorted_samples: list[float], fraction: float) -> float:
    """The smallest sample with at least ``fraction`` of samples <= it."""
    index = max(0, math.ceil(fraction * len(sorted_samples)) - 1)
    return sorted_samples[index]


def _read_latency(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    return {
        "read_mean_ns": math.fsum(ordered) / len(ordered),
        "read_p50_ns": nearest_rank(ordered, 0.50),
        "read_p99_ns": nearest_rank(ordered, 0.99),
        "read_samples": float(len(ordered)),
    }


def _materialise(trace: Trace) -> Trace:
    """The trace with its op stream generated once and held in memory."""
    ops = list(trace.ops())
    return dataclasses.replace(trace, build_ops=lambda: ops)


def _absorb(counters: Counter, system: StorageSystem) -> None:
    """Fold one system's layer counters into ``counters``."""
    traffic = system.device.traffic
    counters["ssd.bytes_to_host"] += traffic.device_to_host_bytes
    counters["demanded_bytes"] += traffic.demanded_bytes
    page_cache = getattr(system, "page_cache", None)
    if page_cache is not None:
        counters["kernel.page_cache.hits"] += page_cache.counter.hits
        counters["kernel.page_cache.misses"] += page_cache.counter.misses
    fgrc = getattr(system, "cache", None)
    if isinstance(fgrc, FineGrainedReadCache):
        counters["core.fgrc.hits"] += fgrc.counter.hits
        counters["core.fgrc.misses"] += fgrc.counter.misses
        counters["core.fgrc.admissions"] += fgrc.admissions
    write_buffer = getattr(system, "write_buffer", None)
    if write_buffer is not None:
        counters["core.fine_write.absorbed"] += write_buffer.absorbed
        counters["core.fine_write.flushes"] += write_buffer.flushes


def _graph_tenant_seed(seed: int, index: int) -> int:
    # Seed 42 gives tenants 31 and 32; numpy needs a non-negative seed.
    return (seed - 11 + index) % 2**32


def _graph_trace(seed: int, index: int, name: str, nodes: int, ops: int) -> Trace:
    graph = SocialGraphConfig(
        nodes=nodes,
        operations=ops,
        seed=_graph_tenant_seed(seed, index),
        node_file=f"/data/{name}/nodes.bin",
        edge_file=f"/data/{name}/edges.bin",
    )
    return _materialise(social_graph_trace(graph))


class ReadLatencyProbe:
    """Observe closed-loop clients' read latency (submit to completion).

    The serving result keeps one latency histogram per tenant for reads
    and writes together; the benchmark reports reads alone.  While the
    probe is entered, ``ClosedLoopClient.bind`` and ``.on_done`` are
    wrapped so each read's completion time minus its submission time is
    recorded.  It only reads: the serving result is unchanged.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._submitted: dict[int, float] = {}
        self._loop = None
        self._patches = Patches()

    def __enter__(self) -> "ReadLatencyProbe":
        bind = ClosedLoopClient.bind
        on_done = ClosedLoopClient.on_done
        probe = self

        def observed_bind(client, loop, submit):
            probe._loop = loop

            def observed_submit(op):
                probe._submitted[id(op)] = loop.now_ns
                submit(op)

            bind(client, loop, observed_submit)

        def observed_on_done(client, op, completed):
            submitted_ns = probe._submitted.pop(id(op))
            if completed and isinstance(op, ReadOp):
                probe.samples.append(probe._loop.now_ns - submitted_ns)
            on_done(client, op, completed)

        self._patches.patch(ClosedLoopClient, "bind", observed_bind)
        self._patches.patch(ClosedLoopClient, "on_done", observed_on_done)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()


class PaperZipfMix:
    """Table-1 mix D over zipfian offsets, QD-1 on the five paper systems."""

    name = "paper-zipf-mix"

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def generate(self, seed: int) -> dict:
        scale = get_scale("small")
        config = SyntheticConfig(
            workload="D",
            distribution="zipfian",
            requests=self.sizes.paper_reads,
            file_size=scale.synthetic_file_bytes,
            seed=seed,
        )
        trace = synthetic_trace(config)
        return {
            "file": trace.files[0],
            "ops": list(trace.ops()),
            "sim_config": scale.sim_config(),
        }

    def repeat(self, inputs: dict) -> Outcome:
        ops: list[ReadOp] = inputs["ops"]
        spec = inputs["file"]
        flags = O_RDWR | O_FINE_GRAINED
        setup_s = run_s = 0.0
        results = {}
        counters: Counter = Counter()
        latencies: list[float] = []
        # One system alive at a time, as experiments.runner.run_comparison.
        for system_name in SYSTEM_ORDER:
            started = time.perf_counter()
            system = build_system(system_name, inputs["sim_config"])
            system.create_file(spec.path, spec.size)
            fd = system.open(spec.path, flags)
            ready = time.perf_counter()
            if system_name == "pipette":
                record = system.latency.record

                def observed(latency_ns, key=None, record=record):
                    latencies.append(latency_ns)
                    record(latency_ns, key=key)

                system.latency.record = observed
            read = system.read
            for op in ops:
                read(fd, op.offset, op.size)
            finished = time.perf_counter()
            setup_s += ready - started
            run_s += finished - ready
            results[system_name] = system.result()
            _absorb(counters, system)
            del system, read
            # The system's reference cycles go now, not whenever the
            # collector next runs, so only one system is ever alive.
            gc.collect()
        violations = [
            f"{name}: {result.requests} of {len(ops)} reads completed"
            for name, result in results.items()
            if result.requests != len(ops)
        ]
        if len(latencies) != len(ops):
            violations.append(f"pipette: {len(latencies)} latency samples for {len(ops)} reads")
        pipette = results["pipette"]
        block_io = results["block-io"]
        virtual = {
            "virtual_qps": pipette.throughput_ops,
            "read_amplification": pipette.read_amplification,
            "virtual_speedup_vs_block_io": pipette.throughput_ops / block_io.throughput_ops,
            **_read_latency(latencies),
        }
        for name, result in results.items():
            virtual[f"system.{name}.virtual_qps"] = result.throughput_ops
        completed = sum(result.requests for result in results.values())
        return Outcome(
            setup_s=setup_s,
            run_s=run_s,
            attempted=len(ops) * len(SYSTEM_ORDER),
            completed_ok=completed,
            digest=_sha256({name: dataclasses.asdict(r) for name, r in results.items()}),
            virtual=virtual,
            counters=counters,
            violations=violations,
        )

    def reference(self, inputs: dict) -> dict[str, float]:
        """Nothing extra: the block-io bar is part of every repetition."""
        return {}


class ServeGraphRW:
    """Two closed-loop LinkBench tenants on one ``pipette-rw`` server."""

    name = "serve-graph-rw"

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def generate(self, seed: int) -> dict:
        tenants = tuple(
            TenantSpec(
                name,
                _graph_trace(seed, index, name, self.sizes.serve_nodes, self.sizes.serve_ops),
                qos=TenantQoS(weight=weight),
                mode="closed",
                concurrency=4,
            )
            for index, (name, weight) in enumerate((("alpha", 2), ("beta", 1)))
        )
        config = ServeConfig(
            tenants=tenants, system="pipette-rw", arbitration="wrr", max_inflight=8, seed=seed
        )
        return {"config": config, "sim_config": get_scale("small").sim_config()}

    def repeat(self, inputs: dict) -> Outcome:
        config: ServeConfig = inputs["config"]
        with ReadLatencyProbe() as probe:
            started = time.perf_counter()
            server = StorageServer(config, inputs["sim_config"])
            ready = time.perf_counter()
            result = server.run()
            finished = time.perf_counter()
        counters: Counter = Counter()
        _absorb(counters, server.system)
        del server
        violations = []
        attempted = 0
        for spec in config.tenants:
            stats = result.tenants[spec.name]
            ops = spec.trace.count_ops()
            attempted += ops
            if stats["submitted"] != ops:
                violations.append(f"{spec.name}: {stats['submitted']:.0f} of {ops} ops issued")
            if stats["submitted"] != stats["completed"] + stats["shed"]:
                violations.append(f"{spec.name}: submitted != completed + shed")
        reads = sum(int(stats["reads"]) for stats in result.tenants.values())
        if len(probe.samples) != reads:
            violations.append(f"{len(probe.samples)} read latencies for {reads} reads")
        return Outcome(
            setup_s=ready - started,
            run_s=finished - ready,
            attempted=attempted,
            completed_ok=result.total_completed,
            digest=_sha256(result.to_dict()),
            virtual={
                "virtual_qps": result.total_qps,
                "read_amplification": counters["ssd.bytes_to_host"] / counters["demanded_bytes"],
                **_read_latency(probe.samples),
            },
            counters=counters,
            violations=violations,
        )

    def reference(self, inputs: dict) -> dict[str, float]:
        """The same serving run on ``block-io``, for the speedup bar."""
        config = dataclasses.replace(inputs["config"], system="block-io")
        return {"block_io_virtual_qps": serve(config, inputs["sim_config"]).total_qps}


def _cluster_capacity_qps(cluster: Cluster, completed: int) -> float:
    """Completions per simulated second of the busiest node's bottleneck.

    The open-loop arrival rate fixes completions per elapsed second, so
    capacity is read off the device ledgers instead, as the paper path's
    ``SystemResult.throughput_ops`` does for one device.
    """
    busiest_ns = max(
        node.system.device.resources.bottleneck_time_ns() for node in cluster.nodes.values()
    )
    return completed / (busiest_ns / 1e9)


class ClusterHedgedStall:
    """Four pipette shards, hedged reads, ``s0`` stalled for half the run.

    Read latency runs from each arrival's due time.  The open-loop
    arrival generator runs in virtual time, so it never runs late.
    """

    name = "cluster-hedged-stall"

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def generate(self, seed: int) -> dict:
        ops = self.sizes.cluster_ops
        tenants = tuple(
            TenantSpec(
                name,
                _graph_trace(seed, index, name, self.sizes.cluster_nodes, ops),
                qos=TenantQoS(weight=1),
                mode="open",
                rate_qps=cluster_experiment.TENANT_QPS,
                max_ops=ops,
            )
            for index, name in enumerate(("alpha", "beta"))
        )
        # The open-loop arrival stream's virtual length; the stall covers
        # half of it, as in the cluster experiment.
        horizon_ns = ops / cluster_experiment.TENANT_QPS * 1e9
        faults = cluster_experiment.fault_schedule("server-stall", horizon_ns)
        config = dataclasses.replace(
            cluster_experiment.cluster_config(tenants, "hedged", faults), seed=seed
        )
        return {"config": config, "sim_config": get_scale("small").sim_config()}

    def _run(self, config, sim_config) -> tuple[Cluster, object, float, float]:
        started = time.perf_counter()
        cluster = Cluster(config, sim_config)
        ready = time.perf_counter()
        result = cluster.run()
        finished = time.perf_counter()
        return cluster, result, ready - started, finished - ready

    def repeat(self, inputs: dict) -> Outcome:
        config = inputs["config"]
        cluster, result, setup_s, run_s = self._run(config, inputs["sim_config"])
        counters: Counter = Counter()
        for node in cluster.nodes.values():
            _absorb(counters, node.system)
        capacity = _cluster_capacity_qps(cluster, result.total_completed)
        del cluster
        overall = result.overall
        violations = []
        attempted = 0
        for spec in config.tenants:
            stats = result.tenants[spec.name]
            attempted += spec.max_ops
            if stats["submitted"] != spec.max_ops:
                violations.append(
                    f"{spec.name}: {stats['submitted']:.0f} of {spec.max_ops} ops issued"
                )
            if stats["completed"] != stats["submitted"]:
                violations.append(f"{spec.name}: submitted != completed")
        attempts = 0.0
        for server, stats in result.per_server.items():
            attempts += stats["attempts"]
            if stats["attempts"] != stats["completed"] + stats["cancelled"]:
                violations.append(f"{server}: attempts != completed + cancelled")
        expected = (
            overall["reads"] + overall["hedges_issued"] + overall["writes"] * config.replication
        )
        if attempts != expected:
            violations.append(f"sum of attempts {attempts:.0f} != {expected:.0f}")
        demanded = sum(stats["demanded_bytes"] for stats in result.tenants.values())
        per_server = result.per_server
        return Outcome(
            setup_s=setup_s,
            run_s=run_s,
            attempted=attempted,
            completed_ok=result.total_completed,
            digest=_sha256(result.to_dict()),
            virtual={
                "virtual_qps": capacity,
                "read_amplification": counters["ssd.bytes_to_host"] / demanded,
                "read_mean_ns": overall["read_mean_latency_ns"],
                "read_p50_ns": overall["read_p50_ns"],
                "read_p99_ns": overall["read_p99_ns"],
                "read_samples": overall["reads"],
                "cluster.attempts_per_request": attempts / overall["completed"],
                "cluster.hedges_issued": overall["hedges_issued"],
                "cluster.hedge_win_frac": overall["hedges_won"] / overall["hedges_issued"]
                if overall["hedges_issued"]
                else 0.0,
                "cluster.hedges_wasted": overall["hedges_wasted"],
                "cluster.node.s0.attempt_share": per_server["s0"]["attempts"] / attempts,
            },
            counters=counters,
            violations=violations,
        )

    def reference(self, inputs: dict) -> dict[str, float]:
        """The same cluster run on ``block-io`` shards, for the speedup bar."""
        config = dataclasses.replace(inputs["config"], system="block-io")
        cluster, result, _, _ = self._run(config, inputs["sim_config"])
        return {"block_io_virtual_qps": _cluster_capacity_qps(cluster, result.total_completed)}


WORKLOADS = {
    workload.name: workload for workload in (PaperZipfMix, ServeGraphRW, ClusterHedgedStall)
}
