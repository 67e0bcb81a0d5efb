"""Write the reference set: every output file of the reference runs.

    PYTHONPATH=src python tests/reference_set.py OUT_DIR

For protocol A at 6700 and B at 3200 shots per stage, seeds 3, 7 and 11,
each with and without the environment SWAP, it runs `simulate` and
`analyze`, and `analyze` again at 100 resamples; then `exact` of A and of B,
each with and without the SWAP; then `analyze --variant B` of two record
files of B count moves that are zero in exact arithmetic on some channels,
which it writes itself.  OUT_DIR/exit_codes.txt lists every command
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

SHOTS = {"A": 6700, "B": 3200}
SEEDS = (3, 7, 11)
SWAP_FLAGS = {"": [], "-noswap": ["--no-env-swap"]}
# record files of B count moves: shots per stage, stage-i counts and the
# counts of stages ii and iii (outcomes 00/01/10/11); both leave d<B>, d<H_c>
# and d<H_h> at 0, the 6700-shot one by moving one shot from each of 00 and
# 11 onto 01 and 10
MOVES = {
    "move-3": (3, (1, 1, 0, 1), (0, 2, 1, 0)),
    "move-6700": (6700, (1675, 1675, 1675, 1675), (1674, 1676, 1676, 1674)),
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
    for name in MOVES:
        yield ["analyze", f"{name}.jsonl", "--variant", "B", "--out", name]


def write_moves() -> None:
    """The record file of each count move, its header echoing no config."""
    for name, (shots, counts_i, counts_f) in MOVES.items():
        lines = [{"config": {}}] + [
            {"stage": stage, "shots": shots,
             "counts": dict(zip(("00", "01", "10", "11"), counts))}
            for stage, counts in (("i", counts_i), ("ii", counts_f), ("iii", counts_f))]
        with open(f"{name}.jsonl", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(json.dumps(line) + "\n" for line in lines))


def write_reference_set(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    write_moves()
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
