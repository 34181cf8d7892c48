"""Export harness results to JSON/CSV for external plotting.

The text reports in ``benchmarks/results/`` are the canonical comparison
artifacts; these helpers serialize the underlying data so the figures can
be re-plotted (matplotlib, gnuplot, a spreadsheet) without re-running the
experiments.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import pathlib
from typing import Any

import numpy as np

from repro.errors import ConfigurationError


def to_jsonable(value: Any) -> Any:
    """Recursively convert harness outputs to JSON-serializable values.

    Handles numpy scalars/arrays, dataclasses (e.g.
    :class:`~repro.workloads.apps.WorkloadEvaluation`), enums, and nested
    containers.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.repr  # a kept execution is not a result
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(v) for v in value]
    raise ConfigurationError(f"cannot serialize {type(value).__name__} to JSON")


def dump_json(data: Any, path: str | pathlib.Path) -> pathlib.Path:
    """Write harness data as pretty-printed JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(data), indent=2, sort_keys=True) + "\n")
    return path


def sweep_to_csv(sweep, path: str | pathlib.Path | None = None) -> str:
    """Serialize a threshold sweep (Fig. 19 row) as CSV.

    Args:
        sweep: List of :class:`~repro.workloads.apps.WorkloadEvaluation`.
        path: Optional file to write; the CSV text is returned either way.
    """
    if not sweep:
        raise ConfigurationError("cannot export an empty sweep")
    fields = [
        "threshold_index",
        "alpha_inter",
        "alpha_intra",
        "speedup",
        "energy_saving",
        "accuracy",
        "mean_tissue_size",
        "mean_skip_fraction",
        "mean_breakpoints",
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(fields)
    for ev in sweep:
        writer.writerow([getattr(ev, f) for f in fields])
    text = buffer.getvalue()
    if path is not None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text
