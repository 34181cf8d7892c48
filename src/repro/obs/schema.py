"""Validators for the exported run-record formats.

Used by the golden schema tests and by the CI trace-export smoke step:
``validate_jsonl_file`` checks every line of a JSONL export against the
:data:`RUN_RECORD_SCHEMA_ID` structure, ``validate_chrome_trace`` checks
the ``trace_event`` shape Perfetto expects. Both raise
:class:`~repro.errors.ConfigurationError` with the offending location.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ConfigurationError
from repro.obs.record import SCHEMA_ID as RUN_RECORD_SCHEMA_ID
from repro.obs.record import RunRecord

#: Required top-level keys of one serialized run record and their types.
_RUN_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "label": str,
    "mode": str,
    "spec": str,
    "batch": int,
    "seq_length": int,
    "config": dict,
    "timing": dict,
    "simulated": dict,
    "sequences": list,
    "kernels": list,
}

#: Required keys of one kernel event and their types.
_KERNEL_FIELDS: dict[str, type | tuple[type, ...]] = {
    "seq_index": int,
    "index": int,
    "name": str,
    "tag": str,
    "time_s": (int, float),
    "exec_s": (int, float),
    "t_compute_s": (int, float),
    "t_dram_s": (int, float),
    "t_onchip_s": (int, float),
    "flops": (int, float),
    "dram_bytes": (int, float),
    "onchip_bytes": (int, float),
    "energy_j": (int, float),
    "stall_cycles": dict,
    # Bytes-moved accounting (quantized weight memory): fp64-equivalent,
    # streamed-at-precision, and DRS-skipped weight bytes per launch.
    "weight_bytes_fp64": (int, float),
    "weight_bytes_moved": (int, float),
    "weight_bytes_skipped": (int, float),
}

#: Required keys of one layer observation and their types.
_LAYER_FIELDS: dict[str, type | tuple[type, ...]] = {
    "layer_index": int,
    "hidden_size": int,
    "seq_length": int,
    "num_breakpoints": int,
    "num_sublayers": int,
    "num_tissues": int,
    "mean_tissue_size": (int, float),
    "mean_skip_fraction": (int, float),
    "mean_warp_skip_fraction": (int, float),
}


def _check_fields(data: dict, fields: dict, where: str) -> None:
    for key, expected in fields.items():
        if key not in data:
            raise ConfigurationError(f"{where}: missing key {key!r}")
        if not isinstance(data[key], expected):
            raise ConfigurationError(
                f"{where}: key {key!r} has type {type(data[key]).__name__}, "
                f"expected {expected}"
            )


def validate_run_dict(data: dict, where: str = "run record") -> None:
    """Validate one deserialized run-record dict against the v1 schema."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: expected an object")
    _check_fields(data, _RUN_FIELDS, where)
    if data["schema"] != RUN_RECORD_SCHEMA_ID:
        raise ConfigurationError(
            f"{where}: schema {data['schema']!r} != {RUN_RECORD_SCHEMA_ID!r}"
        )
    if data.get("cache") is not None:
        if not isinstance(data["cache"], dict):
            raise ConfigurationError(f"{where}: 'cache' must be an object or null")
        # An open counter mapping: plan-cache and program-cache families
        # share it, and new counters need no schema bump — but every value
        # must be a plain number so merge can sum them key-wise.
        for key, value in data["cache"].items():
            if not isinstance(key, str) or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ConfigurationError(
                    f"{where}: 'cache' entry {key!r} must map a string "
                    "to a number"
                )
    for k, event in enumerate(data["kernels"]):
        _check_fields(event, _KERNEL_FIELDS, f"{where}: kernel[{k}]")
    for s, seq in enumerate(data["sequences"]):
        for key in ("seq_index", "num_launches"):
            if not isinstance(seq.get(key), int):
                raise ConfigurationError(
                    f"{where}: sequence[{s}] missing integer {key!r}"
                )
        for li, layer in enumerate(seq.get("layers", [])):
            _check_fields(layer, _LAYER_FIELDS, f"{where}: sequence[{s}].layers[{li}]")
    # The dict must round-trip through the dataclass form.
    RunRecord.from_dict(data)


def validate_jsonl_file(path: str | pathlib.Path) -> int:
    """Validate every line of a JSONL export; returns the record count."""
    path = pathlib.Path(path)
    count = 0
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{n}: invalid JSON ({exc})") from exc
        validate_run_dict(data, where=f"{path}:{n}")
        count += 1
    if count == 0:
        raise ConfigurationError(f"{path}: no run records found")
    return count


def validate_chrome_trace(data: dict, where: str = "chrome trace") -> int:
    """Validate a ``trace_event`` JSON object; returns the event count."""
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ConfigurationError(f"{where}: missing 'traceEvents'")
    events = data["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ConfigurationError(f"{where}: 'traceEvents' must be a non-empty list")
    complete = 0
    for k, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ConfigurationError(f"{where}: event[{k}] missing {key!r}")
        if event["ph"] == "X":
            complete += 1
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ConfigurationError(
                        f"{where}: event[{k}] missing numeric {key!r}"
                    )
            if event["dur"] < 0 or event["ts"] < 0:
                raise ConfigurationError(f"{where}: event[{k}] has negative time")
        elif event["ph"] != "M":
            raise ConfigurationError(
                f"{where}: event[{k}] has unsupported phase {event['ph']!r}"
            )
    if complete == 0:
        raise ConfigurationError(f"{where}: no complete ('X') events")
    return complete


def validate_chrome_trace_file(path: str | pathlib.Path) -> int:
    """Validate one exported Chrome trace file; returns the event count."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return validate_chrome_trace(data, where=str(path))
