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

import numpy as np

from .register import HeatleakError
from .shots import ShotRecord


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj) -> None:
    """Strict JSON: NaN or an infinity raises ValueError."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def write_records(path: str, config_echo: dict, records) -> None:
    """Strict JSON lines, like write_json."""
    lines = [json.dumps({"config": config_echo}, sort_keys=True, allow_nan=False)]
    for rec in records:
        line = {
            "stage": rec.stage,
            "qubits": list(rec.qubits) if rec.qubits else [],
            "counts": {k: rec.counts[k] for k in sorted(rec.counts)},
            "shots": rec.shots,
            "seed": rec.seed,
            "meta": rec.meta,
        }
        lines.append(json.dumps(line, sort_keys=True, allow_nan=False))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_int(value, name: str) -> int:
    """value if it is a JSON integer that numpy's int64 holds; floats (even
    400.0) and booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or abs(value) >= 2**63:
        raise TypeError(f"{name} must be a JSON integer below 2**63, got {value!r}")
    return value


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {value!r}")
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
    """Parse a record file; raises HeatleakError with 1-based line numbers.

    Lines end at b"\\n" only: JSON strings may hold U+2028 and its kin raw,
    and a CRLF line's "\\r" is JSON whitespace."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise HeatleakError(f"{path}: empty file")

    def parse(line_no: int, line: bytes) -> dict | None:
        """The line's JSON object, or None for a blank record line."""
        try:
            text = line.decode("utf-8")
            if line_no > 1 and not text.strip():
                return None
            obj = json.loads(text)
        except UnicodeDecodeError as exc:
            raise HeatleakError(f"{path}:{line_no}: invalid UTF-8 ({exc.reason})") from exc
        except (ValueError, RecursionError) as exc:
            # bad or too deeply nested JSON, or an int over the digit limit
            raise HeatleakError(f"{path}:{line_no}: invalid JSON "
                                f"({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            raise HeatleakError(f"{path}:{line_no}: expected a JSON object")
        return obj

    lines = data.split(b"\n")
    header = parse(1, lines[0])
    if "config" not in header:
        raise HeatleakError(f"{path}:1: header line must carry a 'config' key")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        obj = parse(line_no, line)
        if obj is None:
            continue
        missing = {"stage", "counts", "shots"} - set(obj)
        if missing:
            raise HeatleakError(
                f"{path}:{line_no}: record missing fields {sorted(missing)}"
            )
        seed, meta = obj.get("seed"), obj.get("meta")
        try:
            if seed is not None and (type(seed) is not int or not 0 <= seed < 2**64):
                raise TypeError(f"seed must be a JSON integer in [0, 2**64), got {seed!r}")
            records.append(
                ShotRecord(
                    stage=_json_string(obj["stage"], "stage"),
                    counts={str(k): _json_int(v, f"count of {k!r}")
                            for k, v in _json_object(obj["counts"], "counts").items()},
                    shots=_json_int(obj["shots"], "shots"),
                    qubits=_json_labels(obj.get("qubits")),
                    seed=seed,
                    meta={} if meta is None else _json_object(meta, "meta"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise HeatleakError(f"{path}:{line_no}: {exc}") from exc
    return header["config"], records


def write_sweep_csv(path: str, grid, lhs, rhs, ci_low=None, ci_high=None) -> None:
    """One row per grid point, violated iff lhs < rhs; the CI columns stay
    empty unless both ci_low and ci_high are given."""
    grid, lhs, rhs = (np.asarray(c, dtype=float).tolist() for c in (grid, lhs, rhs))
    if ci_low is not None and ci_high is not None:
        lo, hi = (map(repr, np.asarray(c, dtype=float).tolist()) for c in (ci_low, ci_high))
    else:
        lo = hi = [""] * len(grid)
    rows = ["parameter,lhs,rhs,ci_low,ci_high,violated"]
    rows += [f"{x!r},{a!r},{b!r},{low},{high},{'true' if a < b else 'false'}"
             for x, a, b, low, high in zip(grid, lhs, rhs, lo, hi, strict=True)]
    atomic_write_text(path, "\n".join(rows) + "\n")
