"""SRAM substrate: set-associative LRU caches, MSHRs, hierarchy."""

from repro.sram.cache import AccessResult, SetAssociativeCache
from repro.sram.hierarchy import CacheHierarchy, FilterOutcome
from repro.sram.mshr import MSHRFile

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "CacheHierarchy",
    "FilterOutcome",
    "MSHRFile",
]
