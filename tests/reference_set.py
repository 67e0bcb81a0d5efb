"""Write the reference set: every output file of the reference runs.

    PYTHONPATH=src python tests/reference_set.py OUT_DIR

For protocol A at 6700 and B at 3200 shots per stage, seeds 3, 7 and 11,
each with and without the environment SWAP, it runs `simulate` and
`analyze`, and `analyze` again at 100 resamples; then `exact` of A and of B,
each with and without the SWAP.  OUT_DIR/exit_codes.txt lists every command
with its exit code.  All paths in it are relative to OUT_DIR, so two trees
written by two versions of heatleak compare with `diff -r`.

The commands run in this process through `heatleak.cli.main`, of whichever
heatleak the interpreter imports: the checkout's with PYTHONPATH=src, an
installed one without.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from heatleak.cli import main

SHOTS = {"A": 6700, "B": 3200}
SEEDS = (3, 7, 11)
SWAP_FLAGS = {"": [], "-noswap": ["--no-env-swap"]}


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


def write_reference_set(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
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
