"""SRAM substrate: the set-associative LRU cache."""

from repro.sram.cache import SetAssociativeCache

__all__ = ["SetAssociativeCache"]
