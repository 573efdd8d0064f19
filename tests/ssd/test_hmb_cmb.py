"""Tests for the HMB and CMB memory regions."""

import os

import pytest

from repro.config import MIB
from repro.ssd.cmb import ControllerMemoryBuffer
from repro.ssd.hmb import HostMemoryBuffer


def test_hmb_roundtrip():
    hmb = HostMemoryBuffer(size=4096)
    hmb.write(100, b"hello")
    assert hmb.read(100, 5) == b"hello"


def test_hmb_zero_initialized():
    hmb = HostMemoryBuffer(size=64)
    assert hmb.read(0, 64) == bytes(64)


def test_hmb_bounds_checked():
    hmb = HostMemoryBuffer(size=64)
    with pytest.raises(ValueError):
        hmb.write(60, b"too long")
    with pytest.raises(ValueError):
        hmb.read(-1, 4)
    with pytest.raises(ValueError):
        hmb.read(0, -1)


def test_hmb_requires_positive_size():
    with pytest.raises(ValueError):
        HostMemoryBuffer(size=0)


def test_cmb_stage_and_read():
    cmb = ControllerMemoryBuffer(size=4 * 4096, page_size=4096)
    payload = bytes(range(256)) * 16
    addr = cmb.stage_page(7, payload)
    assert cmb.read(addr, 16) == payload[:16]
    assert cmb.staged_ppn(addr // 4096) == 7


def test_cmb_slots_rotate():
    cmb = ControllerMemoryBuffer(size=2 * 4096, page_size=4096)
    a = cmb.stage_page(1, None)
    b = cmb.stage_page(2, None)
    c = cmb.stage_page(3, None)  # wraps to slot 0
    assert (a, b) == (0, 4096)
    assert c == 0
    assert cmb.staged_ppn(0) == 3


def test_cmb_rejects_partial_page():
    cmb = ControllerMemoryBuffer(size=4096, page_size=4096)
    with pytest.raises(ValueError):
        cmb.stage_page(0, b"short")


def test_cmb_bounds():
    cmb = ControllerMemoryBuffer(size=4096, page_size=4096)
    with pytest.raises(ValueError):
        cmb.read(4090, 100)
    with pytest.raises(ValueError):
        ControllerMemoryBuffer(size=100, page_size=4096)


# --- lazily backed HMB -------------------------------------------------


def test_hmb_unwritten_ranges_read_as_zeros_next_to_written():
    hmb = HostMemoryBuffer(size=3 * 4096)
    hmb.write(4090, b"\xff" * 12)  # straddles the first page boundary
    assert hmb.read(4080, 32) == bytes(10) + b"\xff" * 12 + bytes(10)
    assert hmb.read(0, 4090) == bytes(4090)
    assert hmb.read(2 * 4096, 4096) == bytes(4096)


def test_hmb_writes_round_trip_and_overwrite():
    hmb = HostMemoryBuffer(size=8192)
    hmb.write(0, b"abcdef")
    hmb.write(2, b"XY")
    hmb.write(8188, bytearray(b"tail"))
    assert hmb.read(0, 6) == b"abXYef"
    assert hmb.read(8188, 4) == b"tail"
    assert hmb.read(8192, 0) == b""
    assert isinstance(hmb.read(0, 6), bytes)


def test_hmb_out_of_range_messages_unchanged():
    hmb = HostMemoryBuffer(size=64)
    with pytest.raises(ValueError, match=r"access \[60, 68\) outside HMB of 64 bytes"):
        hmb.write(60, b"too long")
    with pytest.raises(ValueError, match=r"access \[-1, 3\) outside HMB of 64 bytes"):
        hmb.read(-1, 4)
    with pytest.raises(ValueError, match="negative length"):
        hmb.read(0, -1)
    with pytest.raises(ValueError, match="HMB size must be positive"):
        HostMemoryBuffer(size=-4096)


def _resident_bytes() -> int | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            resident_pages = int(statm.read().split()[1])
    except OSError:
        return None
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def test_building_hmbs_does_not_touch_their_memory():
    if _resident_bytes() is None:
        pytest.skip("no /proc/self/statm on this platform")
    before = _resident_bytes()
    buffers = [HostMemoryBuffer(size=64 * MIB) for _ in range(4)]
    for hmb in buffers:
        assert hmb.read(0, 4096) == bytes(4096)
        assert hmb.read(32 * MIB + 7, 100) == bytes(100)
        assert hmb.read(64 * MIB - 16, 16) == bytes(16)
    grown = _resident_bytes() - before
    assert grown < 16 * MIB, f"four 64 MiB HMBs raised resident memory by {grown} bytes"
