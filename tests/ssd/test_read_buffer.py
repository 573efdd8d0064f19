"""Every page sense reads the array: the controller keeps no page cache.

The read buffer holds sensed pages only for the command that sensed
them (see ``SSDDevice.read_piece``); a later command senses again.
"""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.ssd.device import SSDDevice


def make_device() -> SSDDevice:
    spec = SSDSpec(
        capacity_bytes=64 * MIB,
        mapping_region_bytes=2 * MIB,
        read_buffer_pages=4,
    )
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    return SSDDevice(config)


def test_disabled_by_default_rereads_nand():
    device = make_device()
    _, nand_ns_first = device.controller.sense_page(5)
    reads_before = device.nand.reads
    _, nand_ns_second = device.controller.sense_page(5)
    assert device.nand.reads == reads_before + 1
    assert nand_ns_second == nand_ns_first


def test_write_invalidates_buffered_page():
    device = make_device()
    device.controller.sense_page(5)
    payload = bytes([0xCD]) * 4096
    device.block_write([(5, payload)])
    content, _ = device.controller.sense_page(5)
    assert content == payload


def test_timing_model_unchanged_when_disabled():
    baseline = make_device()
    first = baseline.block_read([7]).latency_ns
    second = baseline.block_read([7]).latency_ns
    assert first == pytest.approx(second)
