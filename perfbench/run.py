"""heatleak benchmark: one workload, closed loop with one client, one process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/heatleak`` of the checkout
that holds this directory.  Each op starts when the previous one has ended
and is checked for correctness outside the timed region.  Op time is summed
until it reaches ``--seconds`` (and at least MIN_OPS ops have run).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every input
untraced and traced in turn and prints the per-layer metrics (see spans.py).
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
environment and (traced runs) the spans are also written under
``.perfbench_out/``; scratch files go to ``.perfbench_work/`` and are removed.
Exits 2 without a result when the checkout lacks the program.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checkout

checkout.pin_threads()

import numpy as np  # noqa: E402  (imported after the thread pools are pinned)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_OPS = 11
MIN_TRACED_OPS = 3
MAX_MEASURE_S = 100.0
PROBE_TIMEOUT_S = 120
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(checkout.ROOT, ".perfbench_work")
OUT = os.path.join(checkout.ROOT, ".perfbench_out")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in checkout.THREAD_VARS},
    }


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """The workload's tail percentile of the samples, and how many lie beyond it."""
    value = float(np.percentile(samples, percentile))
    return value, sum(1 for s in samples if s > value)


class Run:
    """One benchmark run: inputs, op loop, failures."""

    def __init__(self, workload, inputs, oracles, work_dir):
        self.workload = workload
        self.inputs = inputs
        self.oracles = oracles
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.next_dir = 0

    def _fresh_dir(self) -> str:
        self.next_dir += 1
        return os.path.join(self.work_dir, f"op{self.next_dir}")

    def one_op(self, k: int, tracer=None, keep=False,
               reference_dir=None) -> tuple[float, str]:
        """Run and check op ``k``; returns (op seconds, output directory).

        With ``reference_dir`` the op's files must also equal that tree's
        byte for byte (criterion 8)."""
        inp = self.inputs[k % len(self.inputs)]
        out_dir = self._fresh_dir()
        if tracer is not None:
            tracer.op_id = k
        t0 = perf_counter()
        try:
            result = self.workload.op(inp, out_dir)
        except Exception:  # the loop must go on; the op counts as failed
            elapsed = perf_counter() - t0
            problems = ["raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
        else:
            elapsed = perf_counter() - t0
            problems = self.workload.check(inp, out_dir, result, self.oracles)
        if reference_dir is not None:
            diff = workloads.same_files(reference_dir, out_dir)
            if diff:
                problems.append(f"repeat of op 0 not byte-identical: {diff}")
        self.record(k, inp, problems)
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed, out_dir

    def record(self, k, inp, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"op {k} input {self.workload.describe(inp)}: "
                                 + "; ".join(problems))

    def loop(self, seconds: float, reference_dir: str) -> list[float]:
        """Closed loop from input 0; op 0 repeats the warm-up op and its files
        are compared byte for byte with ``reference_dir``."""
        times = []
        total = 0.0
        k = 0
        while (total < seconds or len(times) < MIN_OPS) and total < MAX_MEASURE_S:
            elapsed, _ = self.one_op(k, reference_dir=reference_dir if k == 0 else None)
            times.append(elapsed)
            total += elapsed
            k += 1
        return times

    def paired_loop(self, seconds: float, reference_dir: str, tracer,
                    heatleak) -> tuple[list[float], list[float]]:
        """Each input runs untraced and traced, in alternating order, so the
        two sides see the same inputs and the same machine load.  Both runs
        of input 0 are compared byte for byte with the untraced warm-up op."""
        untraced, traced = [], []
        total = 0.0
        k = 0
        while ((total < seconds or len(traced) < MIN_TRACED_OPS)
               and total < MAX_MEASURE_S):
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install(heatleak)
                try:
                    elapsed, _ = self.one_op(
                        k, tracer if with_trace else None,
                        reference_dir=reference_dir if k == 0 else None)
                finally:
                    tracer.uninstall()
                (traced if with_trace else untraced).append(elapsed)
                total += elapsed
            k += 1
        return untraced, traced


def setup_probes(workload_name: str, seed: int, work_dir: str) -> list[dict]:
    results = []
    for p in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe{p}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload_name,
             str(seed), probe_dir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=checkout.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout.require_program()
    except checkout.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


def measure(args, work_dir: str) -> int:
    workload = workloads.WORKLOADS[args.workload]
    oracles = checkout.load_oracles()
    probes = setup_probes(args.workload, args.seed, work_dir)
    heatleak = checkout.import_heatleak()
    env = environment()

    in_dir = os.path.join(work_dir, "in")
    os.makedirs(in_dir)
    inputs = workload.prepare(args.seed, in_dir, oracles)
    run = Run(workload, inputs, oracles, work_dir)
    for probe in probes:
        run.record("probe", inputs[0], probe["problems"])

    _, warm_dir = run.one_op(0, keep=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "why": workload.why}
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        times = run.loop(args.seconds, warm_dir)
        tail_value, beyond = tail(times, workload.tail_percentile)
        metrics = {
            "setup_s": statistics.median(p["import_s"] + p["first_op_s"] for p in probes),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "op_tail_ms": 1000.0 * tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"{args.workload} seed {args.seed}: {len(times)} timed ops in "
              f"{sum(times):.3f} s, closed loop, 1 client")
        print(f"op_tail_ms is p{workload.tail_percentile} of {len(times)} ops "
              f"({beyond} ops beyond it)")
        result.update(op_times_s=times, tail_percentile=workload.tail_percentile,
                      probes=probes)
    else:
        metrics, units = traced_metrics(args, run, warm_dir, heatleak, probes, result)

    failed = len(run.failures)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_ratio = {failed}/{run.attempted} = {failed / run.attempted!r}")
    for line in run.failures:
        print(f"FAILED seed {args.seed} {line}")
    result.update(metrics=metrics, attempted=run.attempted, failures=run.failures)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(args, run, warm_dir, heatleak, probes, result):
    """Paired untraced and traced ops; per-layer figures per traced op."""
    tracer = spans.Tracer()
    untraced, traced = run.paired_loop(args.seconds, warm_dir, tracer, heatleak)

    metrics = spans.summarize(tracer, len(traced))
    units = {name: spans.unit_of(name) for name in metrics}
    op_s = sum(traced) / len(traced)
    # the pairs share an input and a moment, so their differences cancel
    # host speed drift that a difference of two means would pick up
    overhead_s = statistics.median(t - u for t, u in zip(traced, untraced))
    overhead_ratio = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    extra = {
        "import.heatleak_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "trace.untraced_ops_per_s": (len(untraced) / sum(untraced), "1/s"),
        "trace.traced_ops_per_s": (len(traced) / sum(traced), "1/s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.op_s": (op_s, "s/op"),
        "trace.unattributed_s": (op_s - self_sum, "s/op"),
    }
    for name, (value, unit) in extra.items():
        metrics[name], units[name] = value, unit

    shares = {layer: metrics[f"{layer}.self_s"] / op_s for layer in spans.LAYERS}
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced ops, closed loop, 1 client")
    print("self-time share of traced op: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()))
    within = abs(op_s - self_sum) <= abs(overhead_s)
    print(f"layer self times sum to {self_sum:.6f} s of {op_s:.6f} s per op; "
          f"difference {'within' if within else 'OUTSIDE'} the tracing overhead "
          f"of {overhead_s:.6f} s per op")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(spans_path)
    result.update(self_share=shares, spans_file=os.path.relpath(spans_path, checkout.ROOT),
                  untraced_op_times_s=untraced, traced_op_times_s=traced, probes=probes)
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
