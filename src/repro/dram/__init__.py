"""DRAM substrate: the timing device and the memory controller."""

from repro.dram.controller import MemoryController
from repro.dram.device import DRAMDevice, DRAMLocation

__all__ = [
    "MemoryController",
    "DRAMDevice",
    "DRAMLocation",
]
