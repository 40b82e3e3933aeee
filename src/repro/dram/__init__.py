"""DRAM substrate: the timing device, which is also main memory."""

from repro.dram.device import DRAMDevice

__all__ = ["DRAMDevice"]
