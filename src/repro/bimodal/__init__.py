"""The Bi-Modal DRAM cache — the paper's primary contribution."""

from repro.bimodal.analytic import TagLatencyModel, breakeven_locator_hit_rate
from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.bimodal.dueling import SetDuelingController
from repro.bimodal.victim import VictimBuffer, VictimProbeWrapper
from repro.bimodal.global_state import GlobalStateController
from repro.bimodal.metadata import MetadataLayout
from repro.bimodal.sets import SMALLS_PER_BIG, BiModalSet, allowed_states
from repro.bimodal.size_predictor import BlockSizePredictor, UtilizationTracker
from repro.bimodal.way_locator import WayLocator, WayLocatorEntry

__all__ = [
    "TagLatencyModel",
    "breakeven_locator_hit_rate",
    "BiModalCache",
    "BiModalConfig",
    "SetDuelingController",
    "VictimBuffer",
    "VictimProbeWrapper",
    "GlobalStateController",
    "MetadataLayout",
    "SMALLS_PER_BIG",
    "BiModalSet",
    "allowed_states",
    "BlockSizePredictor",
    "UtilizationTracker",
    "WayLocator",
    "WayLocatorEntry",
]
