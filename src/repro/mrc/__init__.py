"""Miss-ratio-curve estimation and design-space exploration.

``repro.mrc`` answers "what would the hit rate be?" questions without
timing simulation: tag-only ghost caches (:mod:`repro.mrc.ghost`) are
resolved over a materialized trace, optionally sampled
(:mod:`repro.mrc.engine`), in one shared pass, and the Pareto-pruned
search driver (:mod:`repro.mrc.dse`) spends real timing simulations
only on the estimated frontier. See ``docs/dse.md``.
"""

from repro.mrc.engine import sample_addresses
from repro.mrc.ghost import AdaptiveGhost, BiModalGhost, GhostCount, LRUGhost, ghost_pass
from repro.mrc.dse import DesignPoint, default_space, pareto_frontier, run_design_space

__all__ = [
    "AdaptiveGhost",
    "BiModalGhost",
    "DesignPoint",
    "GhostCount",
    "LRUGhost",
    "default_space",
    "ghost_pass",
    "pareto_frontier",
    "run_design_space",
    "sample_addresses",
]
