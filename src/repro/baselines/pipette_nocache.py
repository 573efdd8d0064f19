"""Pipette without the fine-grained read cache ("Pipette w/o cache").

Keeps Pipette's HMB-based byte-addressable path — the persistent DMA
mapping established at initialization means no per-access setup cost —
but every read still goes to flash: only the demanded bytes cross the
link (traffic = requested bytes), and latency is the full NAND round
trip.  The gap between this system and full Pipette isolates the value
of the fine-grained read cache in the paper's figures.

It shares 2B-SSD's uncached byte path and differs in three places: the
host records the fine-grained miss work before sensing, sensed pages
stay in the device read buffer instead of the CMB, and the bytes are
DMAed over the persistent mapping.
"""

from __future__ import annotations

from repro.baselines.two_b_ssd import UncachedBytePathSystem
from repro.config import SimConfig
from repro.system import register_system


@register_system
class PipetteNoCacheSystem(UncachedBytePathSystem):
    """Pipette's byte path with caching disabled."""

    NAME = "pipette-nocache"
    #: The device DMAs the bytes straight from its read buffer.
    STAGE_IN_CMB = False

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        # HMB feature negotiation: persistent mapping, off the read path.
        self.device.enable_hmb()

    def _host_stages(self) -> None:
        super()._host_stages()
        self.device.tracer.host("fine_miss_host", self.config.timing.fine_miss_host_ns)

    def _host_pull(self, size: int) -> None:
        # Over the persistent HMB mapping: no per-access setup cost.
        self.device.link.dma_to_host(self.device.tracer, size)


__all__ = ["PipetteNoCacheSystem"]
