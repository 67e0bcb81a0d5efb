"""The benchmark's workloads: input generation, the op, and its correctness check.

Every op is one or two calls of ``heatleak.cli.main``, the entry point a user
runs.  Inputs come only from the workload seed: record files are drawn here
from the independent oracle in ``tests/oracles.py`` (not from the program's
own sampler), and config files are written here, all before timing starts.

heatleak is looked up as ``heatleak.cli.main`` at call time, so a tracer that
replaces that attribute sees every op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# records and configs generated per run; ops past the pool cycle through it
POOL_SIZE = 64
NULL_SEEDS = 4096

REFERENCE = {
    "A": {"variant": "A", "beta_c": 2.23, "beta_h": 0.43, "beta_e": 2.02},
    "B": {"variant": "B", "beta_c": 1.627, "beta_h": 1.099, "beta_e": 2.232},
}


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions of Python's encoder."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def read_strict_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return strict_json(fh.read())


def cli(argv: list[str]) -> int:
    """One call of ``heatleak.cli.main`` with its console output discarded."""
    import heatleak.cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return heatleak.cli.main(argv)


def _rng(seed: int, workload_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, workload_id]))


def write_record_file(path: str, variant: str, dists, shots: int,
                      resamples: int, rng: np.random.Generator) -> None:
    """A records.jsonl in the documented format, with multinomial counts."""
    config = {
        "protocol": dict(REFERENCE[variant], include_env_swap=True),
        "shots_per_stage": shots,
        "seed": int(rng.integers(1, 2**31)),
        "bootstrap": {"resamples": resamples, "confidence": 0.6827, "seed": 0},
    }
    lines = [json.dumps({"config": config}, sort_keys=True)]
    for stage, p in zip(("i", "ii", "iii"), dists):
        p = np.clip(np.real(p), 0.0, None)
        counts = rng.multinomial(shots, p / p.sum())
        lines.append(json.dumps({
            "stage": stage,
            "qubits": ["c", "h"],
            "counts": {f"{k:02b}": int(c) for k, c in enumerate(counts)},
            "shots": shots,
            "seed": None,
            "meta": {"variant": variant},
        }, sort_keys=True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def same_files(dir_a: str, dir_b: str) -> str | None:
    """None when both trees hold the same files with the same bytes."""
    def listing(root):
        found = {}
        for base, _, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                found[os.path.relpath(path, root)] = path
        return found

    a, b = listing(dir_a), listing(dir_b)
    if sorted(a) != sorted(b):
        return f"file sets differ: {sorted(a)} vs {sorted(b)}"
    for rel in sorted(a):
        with open(a[rel], "rb") as fa, open(b[rel], "rb") as fb:
            if fa.read() != fb.read():
                return f"{rel} differs between identical runs"
    return None


class Workload:
    """One workload: ``prepare`` makes the inputs, ``op`` runs one, ``check``
    returns the list of problems with its outputs (empty when correct)."""

    name = ""
    workload_id = 0
    why = ""
    # op_tail_ms percentile, fixed per workload so runs stay comparable: the
    # highest of p50/p75/p90 with 10+ ops beyond it in a run at the seed
    # commit's speed that moved under 20% between runs on a shared 2-core host
    tail_percentile = 90

    def prepare(self, seed: int, in_dir: str, oracles) -> list:
        raise NotImplementedError

    def op(self, inp, out_dir: str):
        raise NotImplementedError

    def check(self, inp, out_dir: str, result, oracles) -> list[str]:
        raise NotImplementedError

    def describe(self, inp) -> str:
        return str(inp)


class AnalyzeWorkload(Workload):
    """``heatleak analyze`` on a fresh record file of one protocol."""

    # a run holds 13-25 ops, so no percentile above the median has 10 beyond it
    tail_percentile = 50

    def __init__(self, name, workload_id, variant, shots, resamples,
                 channel, test, pin_name, why):
        self.name, self.workload_id, self.why = name, workload_id, why
        self.variant, self.shots, self.resamples = variant, shots, resamples
        self.channel, self.test, self.pin_name = channel, test, pin_name

    def _dists(self, oracles):
        if self.variant == "A":
            return oracles.oracle_protocol_a(True)
        return oracles.oracle_protocol_b(True)

    def prepare(self, seed, in_dir, oracles):
        rng = _rng(seed, self.workload_id)
        dists = self._dists(oracles)
        paths = []
        for k in range(POOL_SIZE):
            path = os.path.join(in_dir, f"records_{k:03d}.jsonl")
            write_record_file(path, self.variant, dists, self.shots,
                              self.resamples, rng)
            paths.append(path)
        return paths

    def op(self, inp, out_dir):
        return cli(["analyze", inp, "--out", out_dir])

    def check(self, inp, out_dir, result, oracles):
        problems = []
        if result != 2:
            problems.append(f"exit code {result}, expected 2 (leak)")
        try:
            verdict = read_strict_json(os.path.join(out_dir, "verdict.json"))
        except (OSError, ValueError) as exc:
            return problems + [f"verdict.json: {exc}"]
        if verdict.get("channel") != self.channel:
            problems.append(f"channel {verdict.get('channel')!r}, expected {self.channel!r}")
        pin = getattr(oracles, self.pin_name)
        entries = [t for t in verdict.get("thresholds", [])
                   if t.get("test") == self.test and t.get("stage_pair") == "i->iii"
                   and t.get("found")]
        if len(entries) != 1:
            problems.append(f"expected one {self.test} i->iii threshold, got {len(entries)}")
            return problems
        value, se = entries[0].get("value"), entries[0].get("std_error")
        if not (isinstance(value, float) and isinstance(se, float)
                and math.isfinite(value) and math.isfinite(se) and se > 0):
            problems.append(f"threshold value {value!r} / std_error {se!r} not finite")
        elif abs(value - pin) > 5.0 * se:
            problems.append(f"threshold {value} is {abs(value - pin) / se:.1f} std errors "
                            f"from {self.pin_name} = {pin}")
        return problems

    def describe(self, inp):
        return os.path.basename(inp)


class NullCalibWorkload(Workload):
    """``simulate`` then ``analyze`` of protocol A without the environment SWAP."""

    name = "null-calib"
    workload_id = 3
    tail_percentile = 75  # p90 has only 10-16 ops beyond it and moved 23%
    why = ("CLI simulate+analyze of a no-leak A run at 500 resamples: file "
           "round trip and per-call costs, no threshold bootstrap")

    def prepare(self, seed, in_dir, oracles):
        rng = _rng(seed, self.workload_id)
        return [int(s) for s in rng.integers(1, 2**31, size=NULL_SEEDS)]

    def op(self, inp, out_dir):
        sim = cli(["simulate", "--variant", "A", "--no-env-swap", "--seed", str(inp),
                   "--shots-per-stage", "6700", "--resamples", "500",
                   "--out", out_dir])
        if sim != 0:
            return sim, None
        return sim, cli(["analyze", os.path.join(out_dir, "records.jsonl"),
                         "--out", out_dir])

    def check(self, inp, out_dir, result, oracles):
        sim, ana = result
        if sim != 0:
            return [f"simulate exit code {sim}, expected 0"]
        problems = [] if ana == 0 else [f"analyze exit code {ana}, expected 0 (no leak)"]
        try:
            verdict = read_strict_json(os.path.join(out_dir, "verdict.json"))
        except (OSError, ValueError) as exc:
            return problems + [f"verdict.json: {exc}"]
        if verdict.get("detected") is not False:
            problems.append("verdict reports a leak on a no-leak run")
        return problems

    def describe(self, inp):
        return f"simulate --seed {inp}"


class ExactScanWorkload(Workload):
    """``heatleak exact --config`` at one point of a phase scan, A and B alternating."""

    name = "exact-scan"
    workload_id = 4
    why = ("exact theory at scan points alternating A (phi) and B (theta): "
           "register/circuits evolution and CSV/JSON writes, no sampling")

    def prepare(self, seed, in_dir, oracles):
        rng = _rng(seed, self.workload_id)
        points = []
        for k in range(POOL_SIZE):
            variant = "AB"[k % 2]
            angle = float(rng.uniform(0.01, math.pi - 0.01))
            protocol = dict(REFERENCE[variant])
            protocol["phi" if variant == "A" else "theta"] = angle
            path = os.path.join(in_dir, f"config_{k:03d}.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump({"protocol": protocol}, fh, sort_keys=True)
                fh.write("\n")
            points.append((path, variant, angle))
        return points

    def op(self, inp, out_dir):
        return cli(["exact", "--config", inp[0], "--out", out_dir])

    def check(self, inp, out_dir, result, oracles):
        _, variant, angle = inp
        if result != 0:
            return [f"exit code {result}, expected 0"]
        try:
            doc = read_strict_json(os.path.join(out_dir, "stage_distributions.json"))
        except (OSError, ValueError) as exc:
            return [f"stage_distributions.json: {exc}"]
        if variant == "A":
            expected = oracles.oracle_protocol_a(True, phi=angle)
        else:
            expected = oracles.oracle_protocol_b(True, rotation_angle=angle)
        problems = []
        for stage, want in zip(("i", "ii", "iii"), expected):
            got = np.asarray(doc.get("stages", {}).get(stage, []), dtype=float)
            if got.shape != (4,) or not np.allclose(got, np.real(want), rtol=0, atol=1e-12):
                problems.append(f"stage {stage} distribution {got.tolist()} != oracle "
                                f"{np.real(want).tolist()}")
        return problems

    def describe(self, inp):
        return f"{os.path.basename(inp[0])} ({inp[1]} at {inp[2]!r})"


WORKLOADS = {
    w.name: w for w in (
        AnalyzeWorkload(
            "analyze-A", 1, "A", 6700, 2000, "global-passivity",
            "global-passivity", "PIN_ALPHA_STAR_A",
            "reference input: protocol A, 6700 shots, 2000 resamples; CI and "
            "alpha-threshold bootstraps, so shots resampling and alpha bisection"),
        AnalyzeWorkload(
            "analyze-B", 2, "B", 3200, 2000, "deformation", "deformation",
            "PIN_XI_STAR_B",
            "protocol B, 3200 shots, 2000 resamples: same resampling, no alpha "
            "crossing, so alpha bisection is bypassed; deformation sweeps run"),
        NullCalibWorkload(),
        ExactScanWorkload(),
    )
}
