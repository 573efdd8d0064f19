"""Golden-digest regression: pcie_gen3 is byte-identical to the seed.

``tests/data/golden_digests.json`` was captured from the pre-refactor
code (before the interconnect/placement backends existed).  Every
registered system run on the default ``pcie_gen3`` backend must still
hash to exactly those digests: any bit of drift in stage recording,
timing arithmetic, placement decisions or iteration order fails here.

The new backends are *expected* to diverge from the golden digests —
but each must still be deterministic (same config => same digest), and
every system on ``cxl_lmb`` and ``nvme_fdp`` is pinned too
(``backend_digests``).  ``prefetch_digests`` pins the three cached
fine-grained systems with spatial prefetch on: the only digest runs
where one command carries several ranges that share sensed pages.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.digest import digest_config, system_digest
from repro.system import available_systems

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_registered_system():
    assert sorted(GOLDEN["digests"]) == sorted(available_systems())


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_pcie_gen3_matches_pre_refactor_seed(name):
    config = digest_config()
    assert config.backend == "pcie_gen3"
    digest = system_digest(name, config, seed=GOLDEN["seed"])
    assert digest == GOLDEN["digests"][name], (
        f"{name} diverged from the pre-refactor golden digest on the "
        f"pcie_gen3 backend — the refactor changed observable behaviour"
    )


@pytest.mark.parametrize("backend", sorted(GOLDEN["backend_digests"]))
@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_backend_digest_is_pinned(backend, name):
    digest = system_digest(name, digest_config(backend=backend), seed=GOLDEN["seed"])
    assert digest == GOLDEN["backend_digests"][backend][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["prefetch_digests"]["digests"]))
def test_multi_range_prefetch_digest_is_pinned(name):
    pinned = GOLDEN["prefetch_digests"]
    base = digest_config()
    config = base.scaled(
        pipette=dataclasses.replace(
            base.pipette, fine_prefetch_objects=pinned["fine_prefetch_objects"]
        )
    )
    assert system_digest(name, config, seed=GOLDEN["seed"]) == pinned["digests"][name]


@pytest.mark.parametrize("backend", ["cxl_lmb", "nvme_fdp"])
@pytest.mark.parametrize("name", ["pipette", "2b-ssd-mmio", "2b-ssd-dma"])
def test_new_backends_are_deterministic(backend, name):
    config = digest_config(backend=backend)
    first = system_digest(name, config, seed=GOLDEN["seed"])
    second = system_digest(name, config, seed=GOLDEN["seed"])
    assert first == second


def test_cxl_lmb_diverges_from_pcie_gen3():
    """The coherent fabric must actually change the timing model."""
    pcie = system_digest("2b-ssd-dma", digest_config(), seed=GOLDEN["seed"])
    cxl = system_digest("2b-ssd-dma", digest_config(backend="cxl_lmb"), seed=GOLDEN["seed"])
    assert pcie != cxl


def test_nvme_fdp_is_transport_identical_but_reports_placement():
    """FDP keeps the PCIe transport: latencies match, stats differ."""
    from repro.analysis.digest import system_fingerprint

    pcie = system_fingerprint("pipette", digest_config(), seed=GOLDEN["seed"])
    fdp = system_fingerprint(
        "pipette", digest_config(backend="nvme_fdp"), seed=GOLDEN["seed"]
    )
    assert fdp["latency"] == pcie["latency"]
    assert fdp["ledger"] == pcie["ledger"]
    assert fdp["traffic"] == pcie["traffic"]
    fdp_keys = [key for key in fdp["cache_stats"] if key.startswith("fdp_")]
    assert fdp_keys, "nvme_fdp backend should report per-handle placement stats"
    assert not any(key.startswith("fdp_") for key in pcie["cache_stats"])


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_accounting_only_mode_keeps_timing(name):
    """Storing payloads or not must not change any recorded figure."""
    from repro.analysis.digest import system_fingerprint

    stored = system_fingerprint(name, digest_config(), seed=GOLDEN["seed"])
    accounted = system_fingerprint(
        name, digest_config(transfer_data=False), seed=GOLDEN["seed"]
    )
    assert accounted == stored
