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
    """Strict JSON lines, like write_json; a record line is the record's
    fields, with no qubit labels (None) written as []."""
    lines = [json.dumps({"config": config_echo}, sort_keys=True, allow_nan=False)]
    lines += [json.dumps({**vars(rec), "qubits": rec.qubits or []},
                         sort_keys=True, allow_nan=False) for rec in records]
    atomic_write_text(path, "\n".join(lines) + "\n")


# the JSON type of each record field: its wording and its test; a record's
# numbers are JSON integers that numpy's int64 holds, so floats (even 400.0)
# and booleans are not, and a seed is one that derive_seed can give (uint64)
_JSON_TYPES = {
    "int64": ("a JSON integer below 2**63", lambda v: type(v) is int and abs(v) < 2**63),
    "seed": ("a JSON integer in [0, 2**64)", lambda v: type(v) is int and 0 <= v < 2**64),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "string": ("a JSON string", lambda v: isinstance(v, str)),
    "labels": ("a JSON list of strings",
               lambda v: isinstance(v, list) and all(isinstance(q, str) for q in v)),
}


def _json(value, name: str, kind: str, nullable: bool = False):
    """value if it has the JSON type kind, or is null where nullable;
    otherwise TypeError naming the field."""
    wording, test = _JSON_TYPES[kind]
    if not (nullable and value is None or test(value)):
        raise TypeError(f"{name} must be {wording}, got {value!r}")
    return value


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
        try:
            seed = _json(obj.get("seed"), "seed", "seed", nullable=True)
            records.append(
                ShotRecord(
                    stage=_json(obj["stage"], "stage", "string"),
                    counts={k: _json(v, f"count of {k!r}", "int64")
                            for k, v in _json(obj["counts"], "counts", "object").items()},
                    shots=_json(obj["shots"], "shots", "int64"),
                    # an absent (null) or empty list of qubit labels gives None
                    qubits=tuple(_json(obj.get("qubits"), "qubits", "labels",
                                       nullable=True) or ()) or None,
                    seed=seed,
                    meta=_json(obj.get("meta"), "meta", "object", nullable=True) or {},
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
