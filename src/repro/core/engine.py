"""Device-side Fine-Grained Read Engine (paper section 3.1.2, Figure 4).

Installed in the controller as the handler for the vendor
``FINE_GRAINED_READ`` opcode.  For each reconstructed request it:

1. loads the needed NAND pages into the pre-allocated read buffer
   (charging the owning flash channels);
2. consumes Info Area records to learn each range's destination
   address (assigned by the host simultaneously with the flash read);
3. extracts the demanded byte ranges and DMAs them to their HMB
   destinations, bumping the Info Area head so the host can observe
   completion.

Only demanded bytes cross the link — the source of Pipette's I/O
traffic savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.read_cache.info_area import InfoArea
from repro.ssd.device import SSDDevice
from repro.ssd.nvme import NvmeCommand, NvmeCompletion


@dataclass
class EngineResult:
    """Timing decomposition of one fine-grained read command."""

    nand_ns_each: list[float]
    transfer_ns: float
    bytes_moved: int


class FineGrainedReadEngine:
    """Firmware extension executing reconstructed fine-grained reads."""

    def __init__(self, device: SSDDevice, info_area: InfoArea) -> None:
        self.device = device
        self.info_area = info_area
        self.commands_handled = 0
        self.ranges_served = 0

    def handle(self, command: NvmeCommand) -> NvmeCompletion:
        """Execute one ``FINE_GRAINED_READ`` command."""
        with self.device.tracer.span("device.fine_read", ranges=len(command.ranges)):
            return self._handle_traced(command)

    def _handle_traced(self, command: NvmeCommand) -> NvmeCompletion:
        device = self.device
        nand_ns_each: list[float] = []
        transfer_ns = 0.0
        bytes_moved = 0
        #: Pages already sensed by *this* command (the read buffer holds
        #: them for the command's duration).
        sensed: dict[int, bytes | None] = {}

        placement = device.placement
        for fine_range in command.ranges:
            # Phase 1: load NAND pages into the read buffer.
            payload, range_ppns = device.read_piece(
                fine_range.lba,
                fine_range.offset_in_page,
                fine_range.length,
                sensed,
                nand_ns_each,
            )

            # Phase 2: consume the Info record assigned by the host.
            record = self.info_area.consume()
            if (
                record.dest_addr != fine_range.dest_addr
                or record.byte_length != fine_range.length
            ):
                return NvmeCompletion(cid=command.cid, status=0x02)
            # Resolve the destination's placement handle (staged by the
            # host with the Info record) and account the served range
            # against it — on an FDP backend this is the per-handle
            # flash-footprint segregation.
            handle = placement.pop_destination(record.dest_addr)
            placement.record_read(handle, fine_range.length, pages=range_ppns)

            # Phase 3: DMA the extracted range to its destination.
            if payload is not None:
                device.hmb.write(record.dest_addr, payload)
            transfer_ns += device.link.dma_to_host(device.tracer, fine_range.length)
            bytes_moved += fine_range.length
            self.ranges_served += 1

        device.record_array_phase(nand_ns_each)
        self.commands_handled += 1
        return NvmeCompletion(
            cid=command.cid,
            result=EngineResult(
                nand_ns_each=nand_ns_each, transfer_ns=transfer_ns, bytes_moved=bytes_moved
            ),
        )


__all__ = ["EngineResult", "FineGrainedReadEngine"]
