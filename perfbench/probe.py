"""Set-up probe: ``import heatleak`` in a fresh interpreter, then the first op.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORK_DIR

Prints one JSON line: import_s, first_op_s and the op's check problems.
``run.py`` starts several probes and reports the median of
import_s + first_op_s as ``setup_s``.
"""

import json
import os
import sys
from time import perf_counter

import checkout

checkout.pin_threads()


def main(workload_name: str, seed: int, work_dir: str) -> None:
    t0 = perf_counter()
    checkout.import_heatleak()
    import_s = perf_counter() - t0

    import workloads  # numpy is already loaded by heatleak at this point

    oracles = checkout.load_oracles()
    workload = workloads.WORKLOADS[workload_name]
    in_dir = os.path.join(work_dir, "in")
    os.makedirs(in_dir)
    inp = workload.prepare(seed, in_dir, oracles)[0]
    out_dir = os.path.join(work_dir, "out")
    t1 = perf_counter()
    result = workload.op(inp, out_dir)
    first_op_s = perf_counter() - t1
    problems = workload.check(inp, out_dir, result, oracles)
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s,
                      "problems": problems, "input": workload.describe(inp)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
