"""File formats: shot-record JSONL, sweep CSV, atomic JSON.

Shot records are line-oriented JSON, one object per record:

    {"stage": "i", "qubits": ["c", "h"], "counts": {"00": n, ...},
     "shots": N, "seed": s, "meta": {...}}

The first line is a header object echoing the configuration under a
"config" key.  Sweep exports are CSV with the fixed header
``parameter,lhs,rhs,ci_low,ci_high,violated``.  All writes go through a
write-temp-then-rename so partially written files are never observed.
"""

from __future__ import annotations

import json
import os

from .shots import ShotRecord, ShotsError


class RecordFormatError(ValueError):
    """Malformed record or sweep file; message carries the line number."""


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj, allow_nan: bool = False) -> None:
    """Strict JSON: NaN or an infinity raises ValueError.  Only a config echo
    passes allow_nan, as an infinite inverse temperature (a pure state) has
    no strict JSON form; it is written as Infinity, as in record headers."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=allow_nan) + "\n")


def write_records(path: str, config_echo: dict, records) -> None:
    lines = [json.dumps({"config": config_echo}, sort_keys=True)]
    for rec in records:
        line = {
            "stage": rec.stage,
            "qubits": list(rec.qubits) if rec.qubits else [],
            "counts": {k: rec.counts[k] for k in sorted(rec.counts)},
            "shots": rec.shots,
            "seed": rec.seed,
            "meta": rec.meta,
        }
        lines.append(json.dumps(line, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_int(value, name: str) -> int:
    """value if it is a JSON integer that numpy's int64 holds; floats (even
    400.0) and booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or abs(value) >= 2**63:
        raise TypeError(f"{name} must be a JSON integer below 2**63, got {value!r}")
    return value


def _json_string(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a JSON string, got {value!r}")
    return value


def _json_labels(value) -> tuple[str, ...] | None:
    """value as a tuple of qubit labels if it is a JSON list of strings; an
    absent (null) or empty list gives None."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(q, str) for q in value):
        raise TypeError(f"qubits must be a JSON list of strings, got {value!r}")
    return tuple(value) or None


def read_records(path: str) -> tuple[dict, list[ShotRecord]]:
    """Parse a record file; raises RecordFormatError with 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        raise RecordFormatError(f"{path}: empty file")

    def parse(line_no: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})")
        if not isinstance(obj, dict):
            raise RecordFormatError(f"{path}:{line_no}: expected a JSON object")
        return obj

    header = parse(1, raw_lines[0])
    if "config" not in header:
        raise RecordFormatError(f"{path}:1: header line must carry a 'config' key")
    records = []
    for line_no, text in enumerate(raw_lines[1:], start=2):
        if not text.strip():
            continue
        obj = parse(line_no, text)
        missing = {"stage", "counts", "shots"} - set(obj)
        if missing:
            raise RecordFormatError(
                f"{path}:{line_no}: record missing fields {sorted(missing)}"
            )
        try:
            records.append(
                ShotRecord(
                    stage=_json_string(obj["stage"], "stage"),
                    counts={str(k): _json_int(v, f"count of {k!r}")
                            for k, v in obj["counts"].items()},
                    shots=_json_int(obj["shots"], "shots"),
                    qubits=_json_labels(obj.get("qubits")),
                    seed=obj.get("seed"),
                    meta=obj.get("meta") or {},
                )
            )
        except (ShotsError, TypeError, ValueError, AttributeError) as exc:
            raise RecordFormatError(f"{path}:{line_no}: {exc}") from exc
    return header["config"], records


def write_sweep_csv(path: str, grid, lhs, rhs, ci_low=None, ci_high=None) -> None:
    """One row per grid point, violated iff lhs < rhs; the CI columns stay
    empty unless both ci_low and ci_high are given."""
    rows = ["parameter,lhs,rhs,ci_low,ci_high,violated"]
    has_ci = ci_low is not None and ci_high is not None
    for k in range(len(grid)):
        lo = repr(float(ci_low[k])) if has_ci else ""
        hi = repr(float(ci_high[k])) if has_ci else ""
        rows.append(
            f"{float(grid[k])!r},{float(lhs[k])!r},{float(rhs[k])!r},"
            f"{lo},{hi},{str(bool(lhs[k] < rhs[k])).lower()}"
        )
    atomic_write_text(path, "\n".join(rows) + "\n")
