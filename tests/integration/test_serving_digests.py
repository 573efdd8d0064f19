"""Pinned digests of the serving layer, the cluster and the queueing model.

The serving and cluster determinism tests compare a run against a rerun
of the same code, so a change that shifts every run the same way would
pass them.  This module pins the sha256 of each result's canonical JSON
in ``tests/data/serving_digests.json``, so any drift across commits in
admission, arbitration, stage replay, fault handling or completion order
fails here.

The configs cover the serving paths one at a time: closed-loop WRR,
open-loop RR, a token-bucket tenant next to a shed tenant, writes on
``pipette-rw``, and the ``cxl_lmb`` backend; the cluster experiment's
smoke grid (3 replica policies x 4 fault scenarios); and the closed-loop
``PipelineSimulator`` at three queue depths.

Regenerate the file only for a declared model change::

    PYTHONPATH=src python -m tests.integration.test_serving_digests
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random

import pytest

from repro.cluster import run_cluster
from repro.config import MIB
from repro.experiments import cluster as cluster_experiment
from repro.experiments.scale import get_scale
from repro.serve.qos import SHED, TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.sim.queueing import PipelineSimulator, RequestDemand
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

DIGESTS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "data" / "serving_digests.json"
)


def _sha256(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _synthetic(seed: int, requests: int = 400):
    return synthetic_trace(
        SyntheticConfig(workload="E", requests=requests, file_size=1 * MIB, seed=seed)
    )


def _graph(name: str, seed: int, operations: int = 200):
    return social_graph_trace(
        SocialGraphConfig(
            nodes=1_024,
            operations=operations,
            seed=seed,
            node_file=f"/data/{name}/nodes.bin",
            edge_file=f"/data/{name}/edges.bin",
        )
    )


def _closed_wrr(**overrides) -> ServeConfig:
    kwargs = dict(
        tenants=(
            TenantSpec("heavy", _synthetic(11), qos=TenantQoS(weight=2), max_ops=150),
            TenantSpec("light", _synthetic(12), qos=TenantQoS(weight=1), max_ops=150),
        ),
        system="pipette",
        arbitration="wrr",
        max_inflight=8,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def _open_rr() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec("fast", _synthetic(21), mode="open", rate_qps=2e5, max_ops=120),
            TenantSpec("slow", _synthetic(22), mode="open", rate_qps=1e5, max_ops=80),
        ),
        system="pipette",
        arbitration="rr",
        max_inflight=4,
        seed=7,
    )


def _bucket_and_shed() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec(
                "limited",
                _synthetic(30),
                qos=TenantQoS(rate_limit_qps=50_000.0, burst=4),
                concurrency=16,
                max_ops=100,
            ),
            TenantSpec(
                "bursty",
                _synthetic(31),
                qos=TenantQoS(queue_depth=4, full_policy=SHED),
                concurrency=32,
                max_ops=150,
            ),
        ),
        system="pipette",
        arbitration="wrr",
        max_inflight=2,
    )


def _rw_writes() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec("alpha", _graph("alpha", 31), qos=TenantQoS(weight=2), concurrency=4),
            TenantSpec("beta", _graph("beta", 32), qos=TenantQoS(weight=1), concurrency=4),
        ),
        system="pipette-rw",
        arbitration="wrr",
        max_inflight=8,
    )


#: Serving configs by case name.
SERVE_CASES = {
    "closed-wrr": _closed_wrr,
    "open-rr": _open_rr,
    "bucket-and-shed": _bucket_and_shed,
    "pipette-rw-writes": _rw_writes,
    "cxl-lmb": lambda: _closed_wrr(backend="cxl_lmb"),
}

#: ``(policy, fault scenario)`` pairs of the cluster experiment's grid.
CLUSTER_CASES = tuple(
    (policy, scenario)
    for policy in cluster_experiment.POLICY_ORDER
    for scenario in cluster_experiment.FAULT_SCENARIOS
)

QUEUE_DEPTHS = (1, 4, 32)


@functools.cache
def _cluster_inputs():
    """Tenants, sim config and horizon of the cluster experiment's smoke run."""
    scale = get_scale("tiny")
    ops = scale.sweep_requests
    tenants = cluster_experiment._tenants(scale, ops)
    return tenants, scale.sim_config(), cluster_experiment._horizon_ns(ops)


def cluster_case(policy: str, scenario: str):
    """The smoke-size cluster config of one grid cell, and its sim config."""
    tenants, sim_config, horizon_ns = _cluster_inputs()
    faults = cluster_experiment.fault_schedule(scenario, horizon_ns)
    return cluster_experiment.cluster_config(tenants, policy, faults), sim_config


def queueing_demands() -> list[RequestDemand]:
    """A fixed, seeded list of per-request stage demands."""
    rng = random.Random(2022)
    return [
        RequestDemand(
            host_ns=rng.uniform(500.0, 3_000.0),
            nand_ns=rng.uniform(2_000.0, 60_000.0),
            channel=rng.randrange(16),
            pcie_ns=rng.uniform(100.0, 5_000.0),
        )
        for _ in range(300)
    ]


def _queueing_payload(queue_depth: int) -> dict:
    result = PipelineSimulator(channels=8, host_servers=4).run(
        queueing_demands(), queue_depth, keep_latencies=True
    )
    return {
        "requests": result.requests,
        "queue_depth": result.queue_depth,
        "total_ns": result.total_ns,
        "mean_latency_ns": result.mean_latency_ns,
        "host_busy_ns": result.host_busy_ns,
        "nand_busy_ns": result.nand_busy_ns,
        "pcie_busy_ns": result.pcie_busy_ns,
        "latencies_ns": result.latencies_ns,
    }


def serve_digest(case: str) -> str:
    return _sha256(serve(SERVE_CASES[case]()).to_dict())


def cluster_digest_of(policy: str, scenario: str) -> str:
    config, sim_config = cluster_case(policy, scenario)
    return _sha256(run_cluster(config, sim_config).to_dict())


def queueing_digest(queue_depth: int) -> str:
    return _sha256(_queueing_payload(queue_depth))


def compute_all() -> dict:
    return {
        "serve": {case: serve_digest(case) for case in SERVE_CASES},
        "cluster": {
            f"{policy}/{scenario}": cluster_digest_of(policy, scenario)
            for policy, scenario in CLUSTER_CASES
        },
        "queueing": {f"qd{depth}": queueing_digest(depth) for depth in QUEUE_DEPTHS},
    }


@functools.cache
def _pinned() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def test_pinned_file_covers_every_case():
    pinned = _pinned()
    assert sorted(pinned["serve"]) == sorted(SERVE_CASES)
    assert sorted(pinned["cluster"]) == sorted(f"{p}/{s}" for p, s in CLUSTER_CASES)
    assert sorted(pinned["queueing"]) == sorted(f"qd{d}" for d in QUEUE_DEPTHS)


def test_serve_cases_exercise_their_paths():
    shed_run = serve(_bucket_and_shed())
    assert shed_run.tenant("bursty")["shed"] > 0
    assert shed_run.tenant("limited")["rate_delayed"] > 0
    rw_run = serve(_rw_writes())
    assert sum(stats["writes"] for stats in rw_run.tenants.values()) > 0
    assert serve(SERVE_CASES["cxl-lmb"]()).backend == "cxl_lmb"


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_digest_is_pinned(case):
    assert serve_digest(case) == _pinned()["serve"][case]


@pytest.mark.parametrize(("policy", "scenario"), CLUSTER_CASES)
def test_cluster_digest_is_pinned(policy, scenario):
    assert cluster_digest_of(policy, scenario) == _pinned()["cluster"][f"{policy}/{scenario}"]


@pytest.mark.parametrize("queue_depth", QUEUE_DEPTHS)
def test_queueing_digest_is_pinned(queue_depth):
    assert queueing_digest(queue_depth) == _pinned()["queueing"][f"qd{queue_depth}"]


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
