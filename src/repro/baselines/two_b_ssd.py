"""2B-SSD: dual byte/block-addressable SSD (Bae et al., ISCA'18).

The state-of-the-art fine-grained baseline the paper compares against.
Reads are served through the byte-addressable CMB interface:

1. the controller senses the NAND page(s) into the CMB;
2. the host pulls the demanded bytes out, either

   - **MMIO mode**: after a page fault maps the BAR window, with
     non-posted loads of at most 8 bytes each (latency grows linearly
     with request size — paper Fig. 8), or
   - **DMA mode**: after a per-access DMA mapping is set up on the
     critical path (the constant ~23 us the paper attributes to it).

There is *no host-side caching* in either mode (paper section 2.2), so
every access pays the full device round trip, but only demanded bytes
cross the link (I/O traffic = requested bytes exactly — Tables 2/3).
:class:`UncachedBytePathSystem` is that uncached byte path; Pipette
w/o cache (:mod:`repro.baselines.pipette_nocache`) is one more subclass.
"""

from __future__ import annotations

from repro.baselines._direct_write import direct_write
from repro.config import SimConfig
from repro.kernel.vfs import OpenFile
from repro.system import StorageSystem, register_system


class UncachedBytePathSystem(StorageSystem):
    """Byte-granular reads with no host cache: every read senses flash.

    Subclasses choose the host stages recorded before sensing, whether
    sensed pages land in the CMB, and how the demanded bytes reach the
    host (``_host_pull``).  Writes go straight through to the device.
    """

    #: Land sensed pages in the CMB for the host to pull from.
    STAGE_IN_CMB = True

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        #: Flash pages sensed for byte reads.
        self.pages_staged = 0

    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        timing = self.config.timing
        device = self.device

        self._host_stages()
        # Each sense records its channel occupancy in the trace.
        chunks: list[bytes | None] = []
        nand_ns_each: list[float] = []
        sensed: dict[int, bytes | None] = {}
        for piece in self.fs.extract_ranges(entry.inode, offset, size):
            chunk, _ = device.read_piece(
                piece.lba,
                piece.offset_in_page,
                piece.length,
                sensed,
                nand_ns_each,
                stage_in_cmb=self.STAGE_IN_CMB,
            )
            chunks.append(chunk)
        self.pages_staged += len(sensed)
        device.record_array_phase(nand_ns_each)

        self._host_pull(size)
        device.tracer.host("completion", timing.completion_ns)

        if not self.config.transfer_data:
            return None
        data = b"".join(chunks)
        if len(data) != size:
            raise RuntimeError(f"{self.NAME} returned {len(data)} of {size} bytes")
        return data

    def _host_stages(self) -> None:
        """Host work recorded before the device senses flash."""
        self.device.tracer.host("fine_stack", self.config.timing.fine_stack_ns)

    def _host_pull(self, size: int) -> None:
        """Mode-specific transfer of the demanded bytes to the host."""
        raise NotImplementedError

    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        direct_write(self.device, self.fs, entry.inode, offset, data)

    def cache_stats(self) -> dict[str, float]:
        return {
            "page_cache_hit_ratio": 0.0,
            "page_cache_usage_bytes": 0.0,
            "fgrc_hit_ratio": 0.0,
            "fgrc_usage_bytes": 0.0,
        }


@register_system
class TwoBSSDMmioSystem(UncachedBytePathSystem):
    """2B-SSD reading the CMB through MMIO loads."""

    NAME = "2b-ssd-mmio"

    def _host_pull(self, size: int) -> None:
        # Non-posted loads stall the issuing CPU for the full round
        # trips (that is the latency cost); under pipelined load other
        # cores keep issuing, so the stall is host work, while the link
        # itself only carries the payload bytes (off the latency path).
        self.device.mmio.pull(self.device.tracer, size)


@register_system
class TwoBSSDDmaSystem(UncachedBytePathSystem):
    """2B-SSD pulling from the CMB with a per-access DMA mapping."""

    NAME = "2b-ssd-dma"

    def _host_pull(self, size: int) -> None:
        # Mapping setup on the critical path, then the payload transfer.
        self.device.dma.pull_per_access(self.device.tracer, size)


__all__ = ["TwoBSSDDmaSystem", "TwoBSSDMmioSystem", "UncachedBytePathSystem"]
