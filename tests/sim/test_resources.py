"""Tests for the resource (bottleneck) model."""

import pytest

from repro.sim.resources import ResourceModel
from repro.sim.trace import Tracer


def test_host_and_pcie_accumulate():
    model = ResourceModel(channels=2)
    tracer = Tracer(model)
    tracer.host("work", 10.0)
    tracer.host("work", 5.0)
    tracer.pcie("xfer", 7.0)
    assert model.host_busy_ns == 15.0
    assert model.pcie_busy_ns == 7.0


def test_channel_charging_rejects_out_of_range_index():
    model = ResourceModel(channels=4)
    model.channel(1, 3.0)
    with pytest.raises(ValueError, match="out of range"):
        model.channel(5, 2.0)
    with pytest.raises(ValueError, match="out of range"):
        model.channel(-1, 2.0)
    assert model.channel_busy_ns[1] == 3.0


def test_nand_busy_is_max_channel():
    model = ResourceModel(channels=3)
    model.channel(0, 4.0)
    model.channel(1, 9.0)
    assert model.nand_busy_ns == 9.0
    assert model.nand_total_ns == 13.0


def test_bottleneck_is_busiest_resource():
    model = ResourceModel(channels=2, host_busy_ns=100.0, pcie_busy_ns=50.0)
    model.channel(0, 80.0)
    assert model.bottleneck_time_ns() == 100.0
    assert model.bottleneck_resource() == "host"


def test_host_parallelism_divides_host_time():
    model = ResourceModel(channels=2, host_parallelism=4, host_busy_ns=100.0)
    model.channel(0, 50.0)
    assert model.host_effective_ns == 25.0
    assert model.bottleneck_time_ns() == 50.0
    assert model.bottleneck_resource() == "nand"


def test_invalid_construction():
    with pytest.raises(ValueError):
        ResourceModel(channels=0)
    with pytest.raises(ValueError):
        ResourceModel(channels=2, host_parallelism=0)
