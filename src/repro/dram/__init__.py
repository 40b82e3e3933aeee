"""DRAM substrate: the timing device, memory controller and test oracle."""

from repro.dram.controller import MemoryController
from repro.dram.device import DRAMDevice, DRAMLocation
from repro.dram.reference import ReferenceAccess, ReferenceBank

__all__ = [
    "MemoryController",
    "DRAMDevice",
    "DRAMLocation",
    "ReferenceAccess",
    "ReferenceBank",
]
