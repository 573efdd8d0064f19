"""Host Memory Buffer: host DRAM lent to the device at initialization.

Pipette places the fine-grained read cache's Data/Info/TempBuf areas
inside the HMB so the device can DMA extracted byte ranges directly to
their final destinations (paper section 3.1.1).  The buffer is modelled
as a flat byte-addressable region; address management is left to the
cache layers above.

The region is an anonymous private memory mapping, so building one
touches none of its bytes: a page is backed by memory only once it is
written, and unwritten bytes read as zeros.  Devices that never store
payload bytes in the HMB (accounting-only runs, systems without a
fine-grained cache) pay neither the time nor the memory for it.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field


@dataclass
class HostMemoryBuffer:
    """Flat host-resident region addressable by both host and device."""

    size: int
    _data: mmap.mmap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("HMB size must be positive")
        self._data = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)

    def write(self, addr: int, payload: bytes) -> None:
        """Store ``payload`` at ``addr`` (device DMA or host store)."""
        self._check(addr, len(payload))
        self._data[addr : addr + len(payload)] = payload

    def read(self, addr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``addr``."""
        self._check(addr, length)
        return self._data[addr : addr + length]

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if addr < 0 or addr + length > self.size:
            raise ValueError(
                f"access [{addr}, {addr + length}) outside HMB of {self.size} bytes"
            )


__all__ = ["HostMemoryBuffer"]
