"""Write the reference set: every output file of the reference runs.

    PYTHONPATH=src python tests/reference_set.py OUT_DIR

For protocol A at 6700 and B at 3200 shots per stage, seeds 3, 7 and 11,
each with and without the environment SWAP, it runs `simulate` and
`analyze`, and `analyze` again at 100 resamples; then `exact` of A and of B,
each with and without the SWAP; then `simulate` and `analyze` of two
configs whose B ties outcomes (A at beta_c = beta_h, B at beta_h = 0);
then `analyze` of three record files of count moves that are zero in exact
arithmetic on some channels or all of them, two of B and one inside the
tied class of the A tie config.  It writes the tie configs and the move
record files itself.  OUT_DIR/exit_codes.txt lists every command
with its exit code.  All paths in it are relative to OUT_DIR, so two trees
written by two versions of heatleak compare with `diff -r`.

The commands run in this process through `heatleak.cli.main`, of whichever
heatleak the interpreter imports: the checkout's with PYTHONPATH=src, an
installed one without.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from heatleak.cli import main
from heatleak.config import REFERENCE_PARAMS

SHOTS = {"A": 6700, "B": 3200}
SEEDS = (3, 7, 11)
SWAP_FLAGS = {"": [], "-noswap": ["--no-env-swap"]}
# configs whose B ties outcomes: beta_c = beta_h ties 01 with 10, and
# beta_h = 0 ties 00 with 01 and 10 with 11 (B then runs its auto xi grid)
TIES = {
    "tie-A": {"protocol": {"variant": "A", "beta_c": 1.2, "beta_h": 1.2, "beta_e": 2.0},
              "shots_per_stage": SHOTS["A"], "seed": 3},
    "tie-B": {"protocol": {"variant": "B", **REFERENCE_PARAMS["B"], "beta_h": 0.0},
              "shots_per_stage": SHOTS["B"], "seed": 3},
}
# record files of count moves: the config the header echoes, shots per
# stage, stage-i counts and the counts of stages ii and iii (outcomes
# 00/01/10/11); the B moves leave d<B>, d<H_c> and d<H_h> at 0, the
# 6700-shot one by moving one shot from each of 00 and 11 onto 01 and 10,
# and the tie move moves one shot from 01 to 10, inside a class of its B,
# which leaves every column at 0
REFERENCE_B = {"protocol": {"variant": "B", **REFERENCE_PARAMS["B"]}}
MOVES = {
    "move-3": (REFERENCE_B, 3, (1, 1, 0, 1), (0, 2, 1, 0)),
    "move-6700": (REFERENCE_B, 6700, (1675, 1675, 1675, 1675), (1674, 1676, 1676, 1674)),
    "move-tie": (TIES["tie-A"], 6700, (1675, 1675, 1675, 1675), (1675, 1674, 1676, 1675)),
}


def commands():
    """(argv, ...) of the reference runs, in the order they run."""
    for variant, shots in SHOTS.items():
        for seed in SEEDS:
            for suffix, swap in SWAP_FLAGS.items():
                run = f"{variant}-seed{seed}{suffix}"
                records = f"{run}/sim/records.jsonl"
                yield ["simulate", "--variant", variant, "--shots-per-stage", str(shots),
                       "--seed", str(seed), *swap, "--out", f"{run}/sim"]
                yield ["analyze", records, "--out", f"{run}/analyze"]
                yield ["analyze", records, "--resamples", "100",
                       "--out", f"{run}/analyze-100"]
    for variant in SHOTS:
        for suffix, swap in SWAP_FLAGS.items():
            yield ["exact", "--variant", variant, *swap, "--out", f"exact-{variant}{suffix}"]
    for name in TIES:
        yield ["simulate", "--config", f"{name}.json", "--out", f"{name}/sim"]
        yield ["analyze", f"{name}/sim/records.jsonl", "--out", f"{name}/analyze"]
    for name in MOVES:
        yield ["analyze", f"{name}.jsonl", "--out", name]


def write_inputs() -> None:
    """The config file of each tie and the record file of each count move."""
    for name, config in TIES.items():
        _write(f"{name}.json", [config])
    for name, (config, shots, counts_i, counts_f) in MOVES.items():
        _write(f"{name}.jsonl", [{"config": config}] + [
            {"stage": stage, "shots": shots,
             "counts": dict(zip(("00", "01", "10", "11"), counts))}
            for stage, counts in (("i", counts_i), ("ii", counts_f), ("iii", counts_f))])


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(json.dumps(line) + "\n" for line in lines))


def write_reference_set(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    write_inputs()
    lines = []
    for argv in commands():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        lines.append(f"{code} {' '.join(argv)}")
    with open("exit_codes.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    write_reference_set(sys.argv[1])
