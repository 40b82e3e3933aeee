"""Export experiment rows to JSON/CSV for external analysis or plotting.

Experiments return lists of flat dictionaries; these helpers persist
them with a small metadata header (experiment id, setup parameters,
package version) so result files are self-describing.

Result objects across the harness (``DriveResult``, ``EnergyBreakdown``,
``RunManifest``) share one export protocol: a ``to_dict()`` returning
flat (or dot-nested) JSON-friendly keys.
:func:`flatten_stats` is the one consumer-side entry point — it accepts
any such object *or* a plain mapping and yields a flat dict the
exporters, the tracer and the metrics registry all agree on.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from collections.abc import Mapping, Sequence

__all__ = ["export_json", "export_csv", "flatten_stats", "load_json"]


def _normalize(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def flatten_stats(stats, *, prefix: str = "") -> dict[str, object]:
    """Flatten a stats object or mapping to dotted JSON-friendly keys.

    ``stats`` may implement the export protocol (``to_dict()``) or be a
    mapping; nested mappings flatten recursively. Non-scalar leaves are
    stringified.
    """
    if hasattr(stats, "to_dict"):
        stats = stats.to_dict()
    if not isinstance(stats, Mapping):
        raise TypeError(
            f"cannot flatten {type(stats).__name__}: expected a mapping or "
            "an object with to_dict()"
        )
    out: dict[str, object] = {}
    for key, value in stats.items():
        full = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            out.update(flatten_stats(value, prefix=full))
        else:
            out[full] = _normalize(value)
    return out


def export_json(
    rows: Sequence[Mapping[str, object]],
    path: str | Path,
    *,
    experiment: str = "",
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write rows plus a metadata header as one JSON document."""
    from repro import __version__

    path = Path(path)
    document = {
        "experiment": experiment,
        "repro_version": __version__,
        "metadata": {k: _normalize(v) for k, v in (metadata or {}).items()},
        "rows": [
            {k: _normalize(v) for k, v in row.items()} for row in rows
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2))
    return path


def export_csv(
    rows: Sequence[Mapping[str, object]],
    path: str | Path,
    *,
    columns: Sequence[str] | None = None,
) -> Path:
    """Write rows as CSV (header from the first row unless given)."""
    if not rows:
        raise ValueError("no rows to export")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = list(columns) if columns else list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _normalize(row.get(k)) for k in cols})
    return path


def load_json(path: str | Path) -> dict:
    """Read back a document written by :func:`export_json`."""
    return json.loads(Path(path).read_text())
