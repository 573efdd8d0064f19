"""Tests for the controller and assembled device."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.ssd.device import SSDDevice, _contiguous_runs
from repro.ssd.nand import page_pattern


def make_device(**overrides) -> SSDDevice:
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec,
        cache=CacheConfig(shared_memory_bytes=1 * MIB, fgrc_bytes=512 * 1024),
    )
    if overrides:
        config = config.scaled(**overrides)
    return SSDDevice(config)


def test_contiguous_runs_merging():
    assert _contiguous_runs([5, 3, 4, 9]) == [(3, 3), (9, 1)]
    assert _contiguous_runs([]) == []
    assert _contiguous_runs([1, 1, 1]) == [(1, 1)]


def test_block_read_returns_pattern_pages():
    device = make_device()
    result = device.block_read([10, 11])
    assert result.pages[10] == page_pattern(10)
    assert result.pages[11] == page_pattern(11)


def test_block_read_meters_traffic_per_page():
    device = make_device()
    device.block_read([1, 2, 3])
    assert device.traffic.device_to_host_bytes == 3 * 4096


def test_block_read_latency_components():
    device = make_device()
    timing = device.config.timing
    single = device.block_read([0]).latency_ns
    expected_nand = (
        timing.nand_read(device.config.ssd.nand_type)
        + timing.channel_xfer_page_ns
        + timing.block_page_penalty_ns
    )
    expected = expected_nand + timing.pcie_transfer_ns(4096) + timing.completion_ns
    assert single == pytest.approx(expected)


def test_block_read_parallelizes_across_channels():
    device = make_device()
    # 8 pages on 8 distinct channels: one array round.
    one_round = device.block_read(list(range(8))).latency_ns
    device2 = make_device()
    # 9 pages: two rounds.
    two_rounds = device2.block_read(list(range(9))).latency_ns
    assert two_rounds > one_round


def test_background_pages_add_traffic_not_latency():
    plain = make_device()
    with_ra = make_device()
    base = plain.block_read([0]).latency_ns
    result = with_ra.block_read([0], background_lbas=[1, 2, 3])
    assert result.latency_ns == pytest.approx(base)
    assert with_ra.traffic.device_to_host_bytes == 4 * 4096
    assert with_ra.resources.nand_total_ns > plain.resources.nand_total_ns


def test_block_write_ack_from_buffer():
    device = make_device()
    timing = device.config.timing
    latency = device.block_write([(5, bytes(4096))])
    # Acked after transfer + completion; NAND program is background.
    assert latency == pytest.approx(timing.pcie_transfer_ns(4096) + timing.completion_ns)
    assert device.resources.nand_total_ns > 0


def test_write_then_read_roundtrip():
    device = make_device()
    payload = bytes([0x42]) * 4096
    device.block_write([(5, payload)])
    assert device.block_read([5]).pages[5] == payload


def test_block_write_requires_full_pages():
    device = make_device()
    with pytest.raises(ValueError):
        device.block_write([(5, b"short")])


def test_stage_for_byte_access_uses_cmb():
    device = make_device()
    nand_ns_each: list[float] = []
    data, ppns = device.read_piece(3, 100, 8, {}, nand_ns_each, stage_in_cmb=True)
    assert data == page_pattern(3)[100:108]
    assert ppns == (3,)
    assert device.cmb.staged_ppn(0) == 3
    assert device.cmb.read(0, 4096) == page_pattern(3)
    assert len(nand_ns_each) == 1 and nand_ns_each[0] > 0


def test_read_piece_senses_each_page_once_per_command():
    device = make_device()
    sensed: dict[int, bytes | None] = {}
    nand_ns_each: list[float] = []
    first, _ = device.read_piece(3, 4090, 16, sensed, nand_ns_each)
    second, ppns = device.read_piece(4, 0, 8, sensed, nand_ns_each)
    assert first == page_pattern(3)[4090:] + page_pattern(4)[:10]
    assert second == page_pattern(4)[:8]
    assert ppns == (4,)
    assert device.controller.pages_sensed == 2
    assert len(nand_ns_each) == 2
    # Without payloads the same senses happen, but no bytes come back.
    quiet = make_device(transfer_data=False)
    assert quiet.read_piece(3, 4090, 16, {}, []) == (None, (3, 4))
    assert quiet.controller.pages_sensed == 2


def test_enable_hmb_once():
    device = make_device()
    first = device.enable_hmb()
    assert first > 0
    assert device.enable_hmb() == 0.0


def test_transfer_data_false_skips_payloads():
    device = make_device(transfer_data=False)
    result = device.block_read([0])
    assert result.pages[0] is None
    assert device.traffic.device_to_host_bytes == 4096


def test_nvme_queue_sees_block_reads():
    device = make_device()
    device.block_read([0, 1, 4])
    # Two contiguous runs -> two READ commands.
    assert device.queue.submitted == 2
