"""SSD controller: NAND scheduling and command execution.

The controller owns the primitives every read path composes:

- ``sense_page``: translate an LBA and occupy the owning flash channel
  for tR plus the ONFI bus transfer;
- ``block_page_extra_ns``: the device-side serialization penalty paid
  only by full-page block reads (see DESIGN.md section 5);
- ``execute``: the NVMe dispatch used by the queue pair.

The fine-grained Read Engine (:mod:`repro.core.engine`) is installed as
a firmware extension and handles ``FINE_GRAINED_READ`` commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.config import SimConfig
from repro.sim.resources import ResourceModel
from repro.sim.trace import Tracer
from repro.ssd.backends.base import BufferPlacement
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.nand import FlashArray
from repro.ssd.nvme import NvmeCommand, NvmeCompletion, NvmeOpcode


class FirmwareExtension(Protocol):
    """Interface of an installed vendor-command handler."""

    def handle(self, command: NvmeCommand) -> NvmeCompletion: ...


@dataclass
class SSDController:
    """Device-side execution engine."""

    config: SimConfig
    nand: FlashArray
    ftl: FlashTranslationLayer
    resources: ResourceModel
    #: Shared stage tracer; channel occupancy is recorded here (and
    #: folded into ``resources``) instead of charged directly.
    tracer: Tracer | None = None
    #: Backend placement policy; writes are tagged with its handles
    #: (conventional stream unless an FDP-style backend segregates).
    placement: BufferPlacement | None = None
    _extensions: dict[NvmeOpcode, FirmwareExtension] = field(default_factory=dict)
    pages_sensed: int = 0
    #: Extra read attempts caused by injected transient faults.
    read_retries: int = 0

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = Tracer(self.resources)
        if self.placement is None:
            self.placement = BufferPlacement()

    # --- primitives -----------------------------------------------------
    def sense_page(self, lba: int) -> tuple[bytes | None, float]:
        """Read one logical page from NAND.

        Returns ``(content, nand_ns)`` where ``nand_ns`` is the array
        occupancy charged to the page's channel (tR + bus transfer);
        ``content`` is ``None`` when payloads are not stored.
        """
        ppn = self.ftl.translate(lba)
        attempts = 1
        if self.config.faults.enabled:
            # May raise NandReadError after exhausting retries.
            attempts = self.config.faults.attempts_needed(ppn)
            self.read_retries += attempts - 1
        content = self.nand.read_page(ppn, with_data=self.config.transfer_data)
        nand_ns = (
            attempts * self.nand.read_latency_ns()
            + self.config.timing.channel_xfer_page_ns
        )
        self.tracer.channel(self.nand.channel_of(ppn), "tR", nand_ns)
        self.pages_sensed += 1
        return content, nand_ns

    def block_page_extra_ns(self) -> float:
        """Device-side penalty for a full-page block read.

        Charged on top of ``sense_page``; models the platform's
        inability to read a striped page from parallel channels
        synchronously (paper section 4.2 discussion of Fig. 8).
        """
        return float(self.config.timing.block_page_penalty_ns)

    def program_page(self, lba: int, data: bytes) -> float:
        """Write one page through the FTL; returns NAND occupancy (ns)."""
        ppn_before = self.ftl.translate(lba)
        self.ftl.write(lba, data)
        ppn_after = self.ftl.translate(lba)
        assert ppn_after != ppn_before or self.nand.spec.pages_per_block == 1
        nand_ns = self.nand.program_latency_ns() + self.config.timing.channel_xfer_page_ns
        self.tracer.channel(self.nand.channel_of(ppn_after), "program", nand_ns)
        self.placement.record_write(
            self.placement.block_handle, self.config.ssd.page_size, ppn=ppn_after
        )
        return nand_ns

    # --- firmware extensions ---------------------------------------------
    def install_extension(self, opcode: NvmeOpcode, extension: FirmwareExtension) -> None:
        """Install a vendor-command handler (Pipette's Read Engine)."""
        self._extensions[opcode] = extension

    # --- NVMe dispatch ----------------------------------------------------
    def execute(self, command: NvmeCommand) -> NvmeCompletion:
        """Execute one NVMe command; returns its completion."""
        if command.opcode == NvmeOpcode.READ:
            return self._execute_block_read(command)
        if command.opcode == NvmeOpcode.WRITE:
            return self._execute_block_write(command)
        if command.opcode == NvmeOpcode.FLUSH:
            return NvmeCompletion(cid=command.cid)
        extension = self._extensions.get(command.opcode)
        if extension is not None:
            return extension.handle(command)
        return NvmeCompletion(cid=command.cid, status=0x01)  # invalid opcode

    def _execute_block_read(self, command: NvmeCommand) -> NvmeCompletion:
        pages: list[bytes | None] = []
        nand_ns_each: list[float] = []
        for lba in range(command.lba, command.lba + command.nlb):
            content, nand_ns = self.sense_page(lba)
            penalty = self.block_page_extra_ns()
            self.tracer.channel(
                self.nand.channel_of(self.ftl.translate(lba)), "block_penalty", penalty
            )
            pages.append(content)
            nand_ns_each.append(nand_ns + penalty)
        return NvmeCompletion(cid=command.cid, result=(pages, nand_ns_each))

    def _execute_block_write(self, command: NvmeCommand) -> NvmeCompletion:
        # Payload is attached by the driver model via command.ranges abuse;
        # the driver calls program_page directly instead, so a WRITE here
        # is only exercised by protocol-level tests.
        nand_ns_total = 0.0
        for lba in range(command.lba, command.lba + command.nlb):
            page = self.nand.read_page(self.ftl.translate(lba))
            assert page is not None
            nand_ns_total += self.program_page(lba, page)
        return NvmeCompletion(cid=command.cid, result=nand_ns_total)


__all__ = ["FirmwareExtension", "SSDController"]
