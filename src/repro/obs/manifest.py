"""Run manifests: the "what exactly produced this file" record.

Every experiment output (``--export`` table, ``--trace-out`` trace)
gets a sibling ``<file>.manifest.json`` capturing everything needed to
reproduce or diff the run: a stable hash of the configuration, the
seed, scheme/mix selection, the git revision of the working tree, the
``REPRO_*`` environment knobs that alter behaviour, and the
interpreter/platform. Two runs whose manifests agree on
``config_hash`` + ``seed`` + git rev must produce identical simulation
statistics; when they don't, the manifest diff is the first thing to
read.

A run that finished despite per-cell failures carries
``status: "partial"`` and a ``failures`` list (one structured entry per
failed grid cell, see :mod:`repro.harness.faults`); a clean run says
``status: "complete"`` with an empty list.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

__all__ = ["RunManifest", "config_hash", "git_revision", "write_manifest"]

_ENV_PREFIX = "REPRO_"


def _canonical(value):
    if is_dataclass(value) and not isinstance(value, type):
        return _canonical(asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def config_hash(config) -> str:
    """Stable short hash of any dataclass/dict configuration."""
    payload = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def git_revision(repo_dir: str | Path | None = None) -> str | None:
    """Current git commit (with ``+dirty`` suffix), or None outside git."""
    cwd = str(repo_dir) if repo_dir is not None else None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        if rev.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        dirty = "+dirty" if status.returncode == 0 and status.stdout.strip() else ""
        return rev.stdout.strip() + dirty
    except (OSError, subprocess.SubprocessError):
        return None


def _env_knobs() -> dict[str, str]:
    return {
        k: v for k, v in sorted(os.environ.items()) if k.startswith(_ENV_PREFIX)
    }


@dataclass
class RunManifest:
    """Reproducibility record for one experiment invocation."""

    experiment: str
    config_hash: str
    seed: int | None = None
    scheme: str | None = None
    config: dict = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    git_rev: str | None = None
    env: dict[str, str] = field(default_factory=dict)
    repro_version: str = ""
    python: str = ""
    machine: str = ""
    created: str = ""
    status: str = "complete"
    failures: list = field(default_factory=list)

    @classmethod
    def collect(
        cls,
        experiment: str,
        *,
        config=None,
        seed: int | None = None,
        scheme: str | None = None,
        argv: list[str] | None = None,
        failures: list | None = None,
    ) -> "RunManifest":
        """Build a manifest from the current process state."""
        from repro import __version__

        config_dict = _canonical(config) if config is not None else {}
        if not isinstance(config_dict, dict):
            config_dict = {"config": config_dict}
        return cls(
            experiment=experiment,
            config_hash=config_hash(config_dict),
            seed=seed,
            scheme=scheme,
            config=config_dict,
            argv=list(argv or []),
            git_rev=git_revision(),
            env=_env_knobs(),
            repro_version=__version__,
            python=platform.python_version(),
            machine=platform.machine(),
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            status="partial" if failures else "complete",
            failures=list(failures or []),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def write_next_to(self, output: str | Path) -> Path:
        """Write as ``<output>.manifest.json`` beside an artifact."""
        output = Path(output)
        return self.write(output.with_name(output.name + ".manifest.json"))


def write_manifest(output: str | Path, experiment: str, **collect_kwargs) -> Path:
    """One-call helper: collect and write beside ``output``."""
    return RunManifest.collect(experiment, **collect_kwargs).write_next_to(output)
