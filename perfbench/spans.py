"""In-memory span tracing of heatleak's layers, installed from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``uninstall``; nothing under ``src/`` changes.  Python
resolves a call to ``f`` inside module ``m`` through ``m``'s globals, so a
wrapper set on ``m.f`` sees exactly the calls that ``m`` makes.  That gives
spans at layer boundaries:

* a public function is spanned where another heatleak module calls it
  (``pipeline`` calling ``shots.bootstrap_statistic``, ``cli`` calling
  ``pipeline.run_exact``, ...);
* ``pipeline``'s public functions are also spanned on calls from inside
  ``pipeline``, because they are the stages of an op
  (``pipeline.stage_distributions``);
* ``cli.main`` is spanned as the op's entry point.

Calls inside one layer (``shots.outcome_labels`` from ``ShotRecord``) are not
boundaries and stay unspanned; their time is self time of the caller.

A few boundaries also feed counters (records built, resamples drawn,
crossings found, bytes read and written).  Spans and counts stay in memory
until ``write_spans``.
"""

from __future__ import annotations

import gzip
import json
import os
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "pipeline", "circuits", "register", "passivity",
          "shots", "recordio")

# layers whose public functions are also spanned on calls from inside the layer
INTRA_LAYER_SPANS = ("pipeline",)


class Tracer:
    """Span recorder: name, start, end, parent span and op id per call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors: set[int] = set()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(args, kwargs, result)`` runs after a successful call and
        may update ``self.counts``.
        """
        name_id = self._name_id(name)
        tracer = self

        def span(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors.add(idx)
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _count_calls(self, key: str, fn, amount=None):
        """Counter-only wrapper for hot calls inside one layer."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installing into heatleak -----------------------------------------

    def install(self, heatleak) -> None:
        """Wrap heatleak's layer boundaries; ``uninstall`` restores them."""
        modules = {name: getattr(heatleak, name) for name in LAYERS}
        hooks = self._hooks()
        plan = []
        for consumer, module in modules.items():
            for attr, obj in vars(module).items():
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                if not obj.__module__.startswith("heatleak."):
                    continue
                layer = obj.__module__.split(".", 1)[1]
                if layer not in modules:
                    continue
                entry = consumer == "cli" and attr == "main"
                if layer == consumer and not entry and layer not in INTRA_LAYER_SPANS:
                    continue
                name = f"{layer}.{obj.__name__}"
                plan.append((module, attr, name, obj))
        for module, attr, name, obj in plan:
            self._patch(module, attr, self.wrap(name, obj, hooks.get(name)))

        shots, recordio = modules["shots"], modules["recordio"]
        self._patch(shots.ShotRecord, "with_counts",
                    self._count_calls("shots.records_built",
                                      shots.ShotRecord.with_counts))
        self._patch(recordio, "atomic_write_text",
                    self._count_calls("recordio.bytes_written",
                                      recordio.atomic_write_text,
                                      lambda a, k: len(a[1].encode("utf-8"))))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        counts = self.counts

        def bootstrap(args, kwargs, result):
            counts["shots.resamples"] += args[2].resamples

        def threshold(args, kwargs, result):
            counts["shots.resamples"] += args[3].resamples
            if result.found:
                counts["shots.no_crossing_base"] += result.resamples
                counts["shots.no_crossing"] += result.no_crossing_resamples

        def sweep(args, kwargs, result):
            counts["passivity.crossings_found"] += len(result.thresholds)

        def read(args, kwargs, result):
            counts["recordio.bytes_read"] += os.path.getsize(args[0])

        return {
            "shots.bootstrap_statistic": bootstrap,
            "shots.threshold_with_uncertainty": threshold,
            "passivity.alpha_sweep": sweep,
            "passivity.deformation_sweep": sweep,
            "recordio.read_records": read,
        }

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with duration and self time per span."""
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return {
            "name": np.array(self.name_of, dtype=np.int64),
            "parent": parent,
            "dur": dur,
            "self": self_times(dur, parent),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op, error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[k]], self.start[k],
                                     self.end[k], self.parent[k], self.op[k],
                                     k in self.errors]) + "\n")


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and the difference
    is the time covered by no child.
    """
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("recordio.bytes_"):
        return "B/op"
    return "count/op"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _has_ancestor(parent: np.ndarray, match) -> np.ndarray:
    """Per span: whether some ancestor ``p`` of span ``k`` has ``match(k, p)``."""
    found = np.zeros(len(parent), dtype=bool)
    for k in range(len(parent)):
        p = parent[k]
        while p >= 0 and not match(k, p):
            p = parent[p]
        found[k] = p >= 0
    return found


def summarize(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op layer and function figures from the recorded spans."""
    cols = tracer.arrays()
    span_names = np.array(tracer.names, dtype=object)[cols["name"]]
    layers = np.array([layer_of(n) for n in span_names], dtype=object)
    errors = np.zeros(len(layers), dtype=bool)
    errors[list(tracer.errors)] = True
    outermost = ~_has_ancestor(cols["parent"], lambda k, p: layers[p] == layers[k])
    under_threshold = _has_ancestor(
        cols["parent"], lambda k, p: span_names[p] == "shots.threshold_with_uncertainty")

    out: dict[str, float] = {}
    for layer in LAYERS:
        m = layers == layer
        out[f"{layer}.calls"] = m.sum() / n_ops
        out[f"{layer}.busy_s"] = cols["dur"][m & outermost].sum() / n_ops
        out[f"{layer}.self_s"] = cols["self"][m].sum() / n_ops
        out[f"{layer}.errors"] = (m & errors).sum() / n_ops

    def by_name(name):
        return span_names == name

    alpha = by_name("passivity.alpha_sweep")
    deform = by_name("passivity.deformation_sweep")
    out["cli.main.self_s"] = cols["self"][by_name("cli.main")].sum() / n_ops
    out["pipeline.stage_distributions.busy_s"] = (
        cols["dur"][by_name("pipeline.stage_distributions")].sum() / n_ops)
    out["passivity.alpha_sweep.busy_s"] = cols["dur"][alpha].sum() / n_ops
    out["passivity.alpha_sweep.in_threshold_busy_s"] = (
        cols["dur"][alpha & under_threshold].sum() / n_ops)
    out["passivity.deformation_sweep.calls"] = deform.sum() / n_ops
    out["passivity.deformation_sweep.busy_s"] = cols["dur"][deform].sum() / n_ops
    out["passivity.crossings_found"] = tracer.counts["passivity.crossings_found"] / n_ops
    out["shots.bootstrap_statistic.self_s"] = (
        cols["self"][by_name("shots.bootstrap_statistic")].sum() / n_ops)
    out["shots.threshold_with_uncertainty.self_s"] = (
        cols["self"][by_name("shots.threshold_with_uncertainty")].sum() / n_ops)
    out["shots.records_built"] = tracer.counts["shots.records_built"] / n_ops
    out["shots.resamples"] = tracer.counts["shots.resamples"] / n_ops
    base = tracer.counts["shots.no_crossing_base"]
    out["shots.no_crossing_ratio"] = tracer.counts["shots.no_crossing"] / base if base else 0.0
    out["shots.no_crossing_base"] = base / n_ops
    out["recordio.bytes_read"] = tracer.counts["recordio.bytes_read"] / n_ops
    out["recordio.bytes_written"] = tracer.counts["recordio.bytes_written"] / n_ops
    return {k: float(v) for k, v in out.items()}
