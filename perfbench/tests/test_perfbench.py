"""Fast checks of the benchmark itself.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import math
import os

import numpy as np
import pytest

import checkout
import spans
import workloads

checkout.pin_threads()
heatleak = checkout.import_heatleak()
ORACLES = checkout.load_oracles()


def _file_bytes(paths):
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_from_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    made = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        d = tmp_path / tag
        d.mkdir()
        inputs = wl.prepare(seed, str(d), ORACLES)
        files = sorted(os.listdir(d))
        made[tag] = ([i if isinstance(i, int) else None for i in inputs],
                     files, _file_bytes(os.path.join(d, f) for f in files))
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_self_time_is_duration_minus_direct_children():
    # root(0..10) -> a(1..4) -> b(2..3); root -> c(5..9)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    got = spans.self_times(end - start, parent)
    assert got.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert got.sum() == 10.0


def test_summary_layers_busy_and_self_per_op():
    tracer = spans.Tracer()
    rows = [  # name, start, end, parent, op
        ("cli.main", 0.0, 10.0, -1, 0),
        ("pipeline.analyze_records", 1.0, 9.0, 0, 0),
        ("shots.bootstrap_statistic", 2.0, 8.0, 1, 0),
        ("passivity.alpha_sweep", 3.0, 4.0, 2, 0),
        ("passivity.alpha_sweep", 5.0, 7.0, 2, 0),
        ("cli.main", 20.0, 22.0, -1, 1),
        ("shots.threshold_with_uncertainty", 20.5, 21.5, 5, 1),
        ("passivity.deformation_sweep", 20.6, 21.2, 6, 1),
        ("passivity.deformation_bounds", 20.7, 20.8, 7, 1),
    ]
    for name, t0, t1, parent, op in rows:
        tracer.name_of.append(tracer._name_id(name))
        tracer.start.append(t0)
        tracer.end.append(t1)
        tracer.parent.append(parent)
        tracer.op.append(op)
    s = spans.summarize(tracer, n_ops=2)
    approx = pytest.approx
    assert s["cli.self_s"] == approx((2.0 + 1.0) / 2)
    assert s["pipeline.self_s"] == approx(2.0 / 2)
    assert s["shots.bootstrap_statistic.self_s"] == approx(3.0 / 2)
    assert s["shots.threshold_with_uncertainty.self_s"] == approx(0.4 / 2)
    # the nested deformation_bounds span is inside passivity already
    assert s["passivity.busy_s"] == approx((3.0 + 0.6) / 2)
    assert s["passivity.self_s"] == approx((3.0 + 0.6) / 2)
    assert s["passivity.calls"] == approx(4 / 2)
    assert s["passivity.alpha_sweep.in_threshold_busy_s"] == 0.0
    assert s["passivity.deformation_sweep.busy_s"] == approx(0.6 / 2)
    total_self = sum(s[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total_self == approx((10.0 + 2.0) / 2)


def test_live_spans_nest_and_self_times_add_up(tmp_path):
    wl = workloads.WORKLOADS["exact-scan"]
    inp = wl.prepare(3, str(tmp_path), ORACLES)[1]
    tracer = spans.Tracer()
    original = heatleak.cli.main
    tracer.install(heatleak)
    try:
        tracer.op_id = 0
        assert wl.op(inp, str(tmp_path / "out")) == 0
    finally:
        tracer.uninstall()
    assert heatleak.cli.main is original
    cols = tracer.arrays()
    roots = cols["parent"] < 0
    assert [tracer.names[i] for i in cols["name"][roots]] == ["cli.main"]
    assert math.isclose(cols["self"].sum(), cols["dur"][roots].sum(), rel_tol=1e-9)
    assert "pipeline.stage_distributions" in tracer.names
    assert "register.apply_unitary" in tracer.names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_ops_write_identical_files(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    inp = wl.prepare(11, str(in_dir), ORACLES)[0]
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    assert wl.check(inp, plain, wl.op(inp, plain), ORACLES) == []
    tracer = spans.Tracer()
    tracer.install(heatleak)
    try:
        result = wl.op(inp, traced)
    finally:
        tracer.uninstall()
    assert wl.check(inp, traced, result, ORACLES) == []
    assert workloads.same_files(plain, traced) is None
    assert len(tracer.start) > 0


def _write_verdict(out_dir, verdict):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
        json.dump(verdict, fh)  # allow_nan: a tampered file may hold NaN


def _leak_verdict(channel, test, value):
    return {"detected": True, "channel": channel, "strength": 9.0,
            "thresholds": [{"test": test, "stage_pair": "i->iii", "found": True,
                            "value": value, "std_error": 0.05}]}


@pytest.mark.parametrize("name,channel,test,pin", [
    ("analyze-A", "global-passivity", "global-passivity", ORACLES.PIN_ALPHA_STAR_A),
    ("analyze-B", "deformation", "deformation", ORACLES.PIN_XI_STAR_B),
])
def test_analyze_check_rejects_tampered_verdicts(name, channel, test, pin, tmp_path):
    wl = workloads.WORKLOADS[name]
    good = _leak_verdict(channel, test, pin + 0.01)
    _write_verdict(tmp_path / "good", good)
    assert wl.check("x", str(tmp_path / "good"), 2, ORACLES) == []
    assert wl.check("x", str(tmp_path / "good"), 0, ORACLES) != []

    flipped = dict(good, channel="second-law")
    nan_strength = dict(good, strength=math.nan)
    far = _leak_verdict(channel, test, pin + 1.0)
    for k, bad in enumerate((flipped, nan_strength, far)):
        d = tmp_path / f"bad{k}"
        _write_verdict(d, bad)
        assert wl.check("x", str(d), 2, ORACLES) != [], bad


def test_null_check_rejects_a_leak_verdict(tmp_path):
    wl = workloads.WORKLOADS["null-calib"]
    _write_verdict(tmp_path, {"detected": False, "strength": 0.0})
    assert wl.check(1, str(tmp_path), (0, 0), ORACLES) == []
    _write_verdict(tmp_path, {"detected": True, "strength": 0.0})
    assert wl.check(1, str(tmp_path), (0, 0), ORACLES) != []
    _write_verdict(tmp_path, {"detected": False, "strength": math.inf})
    assert wl.check(1, str(tmp_path), (0, 0), ORACLES) != []


def test_exact_check_rejects_a_tampered_distribution(tmp_path):
    wl = workloads.WORKLOADS["exact-scan"]
    inp = wl.prepare(4, str(tmp_path), ORACLES)[0]
    out = str(tmp_path / "out")
    assert wl.check(inp, out, wl.op(inp, out), ORACLES) == []
    path = os.path.join(out, "stage_distributions.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["stages"]["iii"][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert wl.check(inp, out, 0, ORACLES) != []
