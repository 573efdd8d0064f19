"""Conservation through the stage pipeline, over the pinned serving configs.

Every request's demand reaches the host, NAND-channel and PCIe stages
through :meth:`StagePipeline.replay`.  Wrapping it records the service
handed to each stage FIFO, so after a run:

- each FIFO's ``busy_ns`` equals the sum of the service handed to it
  (a stage's busy time is the demand replayed through it);
- every serving node has drained: ``inflight == 0``;
- per tenant, submitted = completed + shed;
- per cluster server, attempts = completed + cancelled.

The configs are the ones whose digests
``test_serving_digests.py`` pins.
"""

from __future__ import annotations

import math
from collections import defaultdict

import pytest

from repro.cluster.cluster import Cluster
from repro.serve.server import StorageServer
from repro.sim.queueing import StagePipeline
from tests.integration.test_serving_digests import (
    CLUSTER_CASES,
    SERVE_CASES,
    cluster_case,
)


@pytest.fixture
def given(monkeypatch) -> dict[int, list[float]]:
    """``id(fifo)`` -> every service time replay handed to that FIFO."""
    handed: dict[int, list[float]] = defaultdict(list)
    original = StagePipeline.replay

    def replay(pipeline, demand, key, done, nand_scale=1.0, pcie_scale=1.0):
        channel = pipeline.channels[demand.channel % len(pipeline.channels)]
        handed[id(pipeline.host)].append(demand.host_ns)
        handed[id(channel)].append(demand.nand_ns * nand_scale)
        handed[id(pipeline.pcie)].append(demand.pcie_ns * pcie_scale)
        return original(pipeline, demand, key, done, nand_scale, pcie_scale)

    monkeypatch.setattr(StagePipeline, "replay", replay)
    return handed


def _assert_node_conserved(node, given: dict[int, list[float]], completed: int) -> None:
    pipeline = node.pipeline
    assert len(given.get(id(pipeline.host), ())) == completed
    for fifo in (pipeline.host, *pipeline.channels, pipeline.pcie):
        handed = math.fsum(given.get(id(fifo), ()))
        # busy_ns adds in service-start order, fsum rounds once.
        assert math.isclose(fifo.busy_ns, handed, rel_tol=1e-12), (
            f"{fifo.name}: busy_ns {fifo.busy_ns!r} != service handed {handed!r}"
        )
    assert node.inflight == 0


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_stage_busy_equals_replayed_demand(given, case):
    server = StorageServer(SERVE_CASES[case]())
    result = server.run()
    _assert_node_conserved(server, given, result.total_completed)
    for name, stats in result.tenants.items():
        assert stats["submitted"] == stats["completed"] + stats["shed"], name


@pytest.mark.parametrize(("policy", "scenario"), CLUSTER_CASES)
def test_cluster_stage_busy_equals_replayed_demand(given, policy, scenario):
    cluster = Cluster(*cluster_case(policy, scenario))
    result = cluster.run()
    for name, node in cluster.nodes.items():
        stats = result.per_server[name]
        _assert_node_conserved(node, given, int(stats["completed"]))
        assert stats["attempts"] == stats["completed"] + stats["cancelled"], name
