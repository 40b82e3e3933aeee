"""Named registry of DRAM cache organizations.

Every scheme the harness can evaluate registers a builder here; the CLI
(``repro list-schemes``, ``repro run``), the experiment grids and
:func:`repro.harness.runner.build_cache` all resolve schemes by name
through this one table, so adding an organization is a single
:func:`register_scheme` call instead of editing an if/elif chain.

Builders receive a :class:`SchemeBuildContext` carrying everything the
old ``build_cache`` signature threaded through keyword arguments
(system config, shared off-chip memory device, bimodal config override,
capacity scale, adaptation interval) and return a ready
:class:`~repro.dramcache.base.DRAMCacheBase`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable

from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.common.config import SystemConfig
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import AlloyCache
from repro.dramcache.atcache import ATCache
from repro.dramcache.base import DRAMCacheBase
from repro.dramcache.footprint import FootprintCache
from repro.dramcache.lohhill import LohHillCache

__all__ = [
    "SchemeBuildContext",
    "SchemeSpec",
    "UnknownSchemeError",
    "available_schemes",
    "build_scheme",
    "get_scheme",
    "register_scheme",
    "scheme_catalog",
    "scheme_descriptions",
]


@dataclass(frozen=True)
class SchemeBuildContext:
    """Everything a scheme builder may need to construct its cache."""

    system: SystemConfig
    offchip: DRAMDevice
    bimodal_config: BiModalConfig | None = None
    scale: int = 16
    adaptation_interval: int = 10_000

    def default_bimodal_config(self) -> BiModalConfig:
        """The scaled Bi-Modal configuration (see runner.build_cache)."""
        from repro.harness.runner import scaled_locator_bits

        if self.bimodal_config is not None:
            return self.bimodal_config
        # Scale SRAM learning structures so training density per table
        # entry matches the paper's full-size setup (see the rationale
        # in runner.build_cache's original if/elif body).
        scale = self.scale
        return BiModalConfig(
            locator_index_bits=scaled_locator_bits(scale=scale),
            predictor_index_bits=12 if scale > 1 else 16,
            tracker_sample_every=1 if scale > 1 else 25,
            adaptation_interval=self.adaptation_interval,
        )


SchemeBuilder = Callable[[SchemeBuildContext], DRAMCacheBase]


@dataclass(frozen=True)
class SchemeSpec:
    """A registered scheme: its builder plus display metadata."""

    name: str
    builder: SchemeBuilder
    description: str = ""


class UnknownSchemeError(ValueError):
    """Raised for unregistered scheme names; message lists valid ones."""

    def __init__(self, name: str) -> None:
        valid = ", ".join(available_schemes())
        super().__init__(
            f"unknown scheme {name!r}; available schemes: {valid}"
        )
        self.name = name


_REGISTRY: dict[str, SchemeSpec] = {}


def register_scheme(
    name: str,
    builder: SchemeBuilder,
    *,
    description: str = "",
    overwrite: bool = False,
) -> SchemeSpec:
    """Register ``builder`` under ``name`` (idempotent re-registration
    requires ``overwrite=True``)."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"scheme {name!r} already registered")
    spec = SchemeSpec(name=name, builder=builder, description=description)
    _REGISTRY[name] = spec
    return spec


def available_schemes() -> list[str]:
    """Registered scheme names, in registration order."""
    return list(_REGISTRY)


def scheme_descriptions() -> dict[str, str]:
    """Name -> one-line description for CLI listings."""
    return {name: spec.description for name, spec in _REGISTRY.items()}


def scheme_catalog() -> list[str]:
    """One aligned ``name description`` line per registered scheme.

    The single formatting point for the catalog: ``python -m repro
    list-schemes`` prints exactly these lines and
    :class:`UnknownSchemeError` lists the same names, so neither can
    drift from the registry.
    """
    return [
        f"{name:14s} {spec.description}".rstrip()
        for name, spec in _REGISTRY.items()
    ]


def get_scheme(name: str) -> SchemeSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(name) from None


def build_scheme(name: str, context: SchemeBuildContext) -> DRAMCacheBase:
    """Construct scheme ``name`` under ``context``."""
    return get_scheme(name).builder(context)


# ----------------------------------------------------------------------
# built-in organizations
# ----------------------------------------------------------------------
def _bimodal_variant(**overrides) -> SchemeBuilder:
    def build(ctx: SchemeBuildContext) -> DRAMCacheBase:
        cfg = ctx.default_bimodal_config()
        if overrides:
            cfg = replace(cfg, **overrides)
        return BiModalCache(ctx.system.dram_cache, ctx.offchip, cfg)

    return build


register_scheme(
    "alloy",
    lambda ctx: AlloyCache(ctx.system.dram_cache, ctx.offchip),
    description="AlloyCache: direct-mapped, 64 B TAD units (baseline)",
)
register_scheme(
    "lohhill",
    lambda ctx: LohHillCache(ctx.system.dram_cache, ctx.offchip),
    description="Loh-Hill: 29-way set-associative, tags-in-DRAM",
)
register_scheme(
    "atcache",
    lambda ctx: ATCache(ctx.system.dram_cache, ctx.offchip),
    description="ATCache: SRAM tag cache over a set-associative DRAM cache",
)
register_scheme(
    "footprint",
    lambda ctx: FootprintCache(ctx.system.dram_cache, ctx.offchip),
    description="Footprint Cache: 2 KB pages, predicted-block fetch",
)
register_scheme(
    "bimodal",
    _bimodal_variant(),
    description="Bi-Modal cache: adaptive big/small blocks + way locator",
)
register_scheme(
    "wayloc-only",
    _bimodal_variant(enable_bimodal=False),
    description="Bi-Modal with only the way locator (fixed 512 B blocks)",
)
register_scheme(
    "bimodal-only",
    _bimodal_variant(enable_way_locator=False),
    description="Bi-Modal block sizing without the way locator",
)
register_scheme(
    "fixed512",
    _bimodal_variant(enable_bimodal=False, enable_way_locator=False),
    description="Fixed 512 B blocks, no locator (Figure 9a/8b baseline)",
)
