import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest

from heatleak import (
    DensityOperator,
    ExperimentConfig,
    HeatleakError,
    ProtocolConfig,
    ShotRecord,
    SpamModel,
    UnitaryOperator,
    apply_spam,
    build_B,
    deformation_bounds,
    energy_basis_values,
    measure_distribution,
    observable_table,
    partial_trace,
    phase_gate,
    reference_protocol,
    run_bounds,
    ry_gate,
    tensor,
    thermal_qubit,
)
from heatleak.cli import main
from heatleak.config import (
    REFERENCE_PARAMS,
    config_from_dict,
    default_alpha_grid,
    load_config,
)
from heatleak.passivity import sweep_crossings
from heatleak.recordio import (
    read_records,
    write_records,
    write_sweep_csv,
)

from conftest import samples
from oracles import (
    PIN_XI_STAR_B,
    oracle_delta_b_alpha,
    oracle_protocol_a,
    oracle_protocol_b,
)


# ----------------------------------------------------------------- records

def _sample_records():
    return [
        ShotRecord(stage="i", counts={"00": 5, "01": 3, "10": 1, "11": 1},
                   shots=10, qubits=("c", "h"), seed=7, meta={"variant": "A"}),
        ShotRecord(stage="ii", counts={"00": 4, "01": 4, "10": 1, "11": 1},
                   shots=10, qubits=("c", "h")),
    ]


def test_record_file_round_trip(tmp_path):
    path = str(tmp_path / "records.jsonl")
    cfg = ExperimentConfig()
    write_records(path, cfg.to_dict(), _sample_records())
    header, records = read_records(path)
    assert header == cfg.to_dict()
    assert len(records) == 2
    assert records[0].counts == {"00": 5, "01": 3, "10": 1, "11": 1}
    assert records[0].qubits == ("c", "h")
    assert records[0].seed == 7
    assert records[1].stage == "ii"


def test_record_file_field_names(tmp_path):
    path = str(tmp_path / "records.jsonl")
    write_records(path, {"x": 1}, _sample_records())
    with open(path) as fh:
        lines = fh.read().splitlines()
    first_record = json.loads(lines[1])
    assert set(first_record) >= {"stage", "qubits", "counts", "shots", "meta"}
    assert first_record["counts"] == {"00": 5, "01": 3, "10": 1, "11": 1}


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"stage": "i", "counts": {"0": 1}, "shots": 1}\n')
    with pytest.raises(HeatleakError, match=":1"):
        read_records(str(path))


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"config": {}}\n{"stage": "i", "counts": {"0": 1}, "shots": 1}\nnot json\n')
    with pytest.raises(HeatleakError, match=":3"):
        read_records(str(path))
    path.write_text('{"config": {}}\n{"stage": "i", "shots": 1}\n')
    with pytest.raises(HeatleakError, match=":2.*counts"):
        read_records(str(path))
    path.write_text('{"config": {}}\n{"stage": "i", "counts": {"0": 2}, "shots": 1}\n')
    with pytest.raises(HeatleakError, match=":2"):
        read_records(str(path))


@pytest.mark.parametrize("field, value", [
    ("stage", ["i"]),
    ("qubits", "ch"),
    ("qubits", {"c": 1, "h": 2}),
])
def test_read_rejects_mistyped_stage_and_qubits(tmp_path, field, value):
    """stage must be a JSON string and qubits a list of strings: a list stage
    is unhashable downstream, and a string or object of qubit labels would
    otherwise be read as its characters or keys."""
    path = tmp_path / "bad.jsonl"
    record = {"stage": "i", "qubits": ["c", "h"], "counts": {"00": 1}, "shots": 1}
    path.write_text('{"config": {}}\n' + json.dumps({**record, field: value}) + "\n")
    with pytest.raises(HeatleakError, match=f":2: {field} must be"):
        read_records(str(path))


# --------------------------------------------------------------------- CSV

def test_sweep_csv_format(tmp_path):
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(
        path,
        grid=np.array([0.5, 1.0]),
        lhs=np.array([-0.25, 0.5]),
        rhs=np.zeros(2),
        ci_low=np.array([-0.3, 0.4]),
        ci_high=np.array([-0.2, 0.6]),
    )
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "parameter,lhs,rhs,ci_low,ci_high,violated"
    assert lines[1] == "0.5,-0.25,0.0,-0.3,-0.2,true"
    assert lines[2] == "1.0,0.5,0.0,0.4,0.6,false"


def test_sweep_csv_without_ci(tmp_path):
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, np.array([0.1]), np.array([1.0]), np.array([2.0]))
    with open(path) as fh:
        assert fh.read().splitlines()[1] == "0.1,1.0,2.0,,,true"


# every float class the CSV must print as Python does: NaN, infinities,
# signed zeros, the smallest subnormal and a near-overflow magnitude
_CSV_CELLS = {
    "grid": [0.5, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, 0.1],
    "lhs": [math.nan, -0.0, 0.0, -math.inf, 1e300, 5e-324, 1.0, -1e300],
    "rhs": [0.0, 0.0, -0.0, math.inf, math.inf, 0.0, math.nan, -math.inf],
    "ci_low": [-math.inf, math.nan, -0.0, 5e-324, -1e300, 0.0, 1.0, 0.1],
    "ci_high": [math.inf, math.nan, 0.0, 1e300, -5e-324, -0.0, math.nan, 0.2],
}


def _reference_sweep_csv(grid, lhs, rhs, ci_low, ci_high) -> str:
    """The sweep CSV written cell by cell."""
    def cell(x):
        return repr(float(x))

    rows = ["parameter,lhs,rhs,ci_low,ci_high,violated"]
    for k in range(len(grid)):
        lo, hi = (("", "") if ci_low is None or ci_high is None
                  else (cell(ci_low[k]), cell(ci_high[k])))
        violated = "true" if float(lhs[k]) < float(rhs[k]) else "false"
        rows.append(",".join([cell(grid[k]), cell(lhs[k]), cell(rhs[k]), lo, hi, violated]))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("container", [np.array, list, tuple])
@pytest.mark.parametrize("rows", [8, 0])
@pytest.mark.parametrize("ci", ["both", "none", "low only"])
def test_sweep_csv_matches_per_cell_reference(tmp_path, container, rows, ci):
    """write_sweep_csv prints every cell as repr(float(x)) and violated iff
    float(lhs) < float(rhs), from arrays, lists or tuples, with or without
    the CI columns, and a zero-row grid as the header alone."""
    columns = {name: container(values[:rows]) for name, values in _CSV_CELLS.items()}
    if ci != "both":
        columns["ci_high"] = None
    if ci == "none":
        columns["ci_low"] = None
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), **columns)
    assert path.read_bytes() == _reference_sweep_csv(**columns).encode()


# ------------------------------------------------------------------- config

def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(
        protocol=reference_protocol("B"), shots_per_stage=3200, seed=5,
        spam=SpamModel(flip_0_to_1=0.01),
    )
    back = config_from_dict(cfg.to_dict())
    assert back == cfg


@pytest.mark.parametrize("data", [
    {},
    {"protocol": {"variant": "B", **REFERENCE_PARAMS["B"]}, "shots_per_stage": 3200},
    {"protocol": {"variant": "B", **REFERENCE_PARAMS["B"]},
     "xi_grid": [-1.0, 0.0, 0.5], "spam": {"flip_0_to_1": 0.01}},
    {"xi_grid": "auto"},
], ids=["default", "B", "xi-list", "xi-auto"])
def test_config_to_dict_equals_asdict_and_is_a_copy(data):
    cfg = config_from_dict(data)
    expected = dataclasses.asdict(cfg)
    out = cfg.to_dict()
    assert out == expected
    assert json.dumps(out) == json.dumps(expected)  # same key order in the echo
    # cli._with_flags edits the result in place
    out["alpha_grid"].append(9.0)
    if isinstance(out["xi_grid"], list):
        out["xi_grid"][0] = 7.0
    for name in ("protocol", "spam", "bootstrap"):
        out[name].clear()
    out["seed"] = 99
    assert dataclasses.asdict(cfg) == expected


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.protocol.variant == "A"
    assert cfg.epsilon == 1e-3
    assert len(cfg.alpha_grid) == 120  # 121 uniform points minus alpha = 0
    assert 0.0 not in cfg.alpha_grid
    assert cfg.bootstrap.resamples == 2000
    assert cfg.significance == 3.0


def test_config_rejects_unknown_fields():
    with pytest.raises(HeatleakError, match=r"^invalid config: unknown fields \['turbo'\]$"):
        config_from_dict({"turbo": True})


def test_config_rejects_zero_alpha():
    with pytest.raises(HeatleakError):
        ExperimentConfig(alpha_grid=[-1.0, 0.0, 1.0])


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 77, "shots_per_stage": 123}))
    cfg = load_config(str(path))
    assert cfg.seed == 77
    assert cfg.shots_per_stage == 123
    path.write_text("{broken")
    with pytest.raises(HeatleakError):
        load_config(str(path))


def test_config_auto_xi_grid():
    # the deformation test runs for variant B, or when a xi grid is configured
    assert ExperimentConfig().deformation_grid() is None
    for cfg in (ExperimentConfig(protocol=reference_protocol("B")),
                ExperimentConfig(protocol=reference_protocol("B"), xi_grid="auto"),
                ExperimentConfig(xi_grid="auto")):
        grid = cfg.deformation_grid()
        bounds = deformation_bounds(
            build_B({"c": cfg.protocol.beta_c, "h": cfg.protocol.beta_h},
                    cfg.epsilon).basis_values, [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(grid, np.linspace(bounds.xi_min, bounds.xi_max, 41))
    assert grid[0] == pytest.approx(-0.43) and grid[-1] == pytest.approx(1.8)
    grid = ExperimentConfig(protocol=reference_protocol("B")).deformation_grid()
    assert grid[0] == pytest.approx(-1.099)
    assert grid[-1] == pytest.approx(0.528)
    # beta_c == beta_h leaves the interval unbounded above: nothing to fill
    tie = ProtocolConfig(variant="B", beta_c=1.0, beta_h=1.0, beta_e=2.0)
    for xi_grid in (None, "auto"):
        with pytest.raises(HeatleakError, match="cannot auto-fill an unbounded"):
            ExperimentConfig(protocol=tie, xi_grid=xi_grid).deformation_grid()


def test_config_rejects_xi_grid_outside_bounds():
    for xi_grid in ([-2.0], [0.6], [-1.0, 0.0, 0.6]):
        with pytest.raises(HeatleakError, match="admissible interval"):
            ExperimentConfig(protocol=reference_protocol("B"), xi_grid=xi_grid)
    cfg = ExperimentConfig(protocol=reference_protocol("B"), xi_grid=[-1.0, 0.0, 0.5])
    assert np.array_equal(cfg.deformation_grid(), [-1.0, 0.0, 0.5])
    # the endpoints themselves are admissible, up to rounding
    cfg.xi_grid = [-1.099 * (1 + 1e-13), 0.528 * (1 + 1e-13)]
    assert cfg.deformation_grid().tolist() == cfg.xi_grid
    # the method checks the grid itself, not only the constructor
    for xi_grid, message in (([-2.0], r"xi grid point -2\.0 outside the admissible "
                                      r"interval \[-1\.099, 0\.528\]"),
                             ([0.6], "xi grid point 0.6 outside"),
                             ([float("nan")], "xi grid must be finite")):
        cfg.xi_grid = xi_grid
        with pytest.raises(HeatleakError, match=message):
            cfg.deformation_grid()


_XI = [-1.0, -0.5, 0.0, 0.5]
_ALPHA = default_alpha_grid()
NON_INCREASING_GRIDS = {
    # the crossing search pairs neighbouring points, lower first: a reversed
    # grid stops the refinement at once, a shuffled one crosses at every turn
    "alpha_grid-reversed": ("alpha_grid", _ALPHA[::-1]),
    "alpha_grid-shuffled": (
        "alpha_grid", [_ALPHA[k] for k in np.random.default_rng(0).permutation(120)]),
    "alpha_grid-repeated": ("alpha_grid", _ALPHA[:60] + _ALPHA[59:]),
    "xi_grid-reversed": ("xi_grid", _XI[::-1]),
    "xi_grid-shuffled": ("xi_grid", [_XI[k] for k in (1, 3, 0, 2)]),
    "xi_grid-repeated": ("xi_grid", [-1.0, -0.5, -0.5, 0.0]),
}


def _grid_config(name, grid):
    return {"protocol": {"variant": "B", **REFERENCE_PARAMS["B"]}, name: grid}


@pytest.mark.parametrize("name, grid", NON_INCREASING_GRIDS.values(),
                         ids=NON_INCREASING_GRIDS.keys())
def test_config_rejects_non_increasing_grid(name, grid):
    with pytest.raises(HeatleakError, match=f"'{name}' must be strictly increasing"):
        config_from_dict(_grid_config(name, grid))
    assert config_from_dict(_grid_config(name, sorted(set(grid))))


# ---------------------------------------------------------------------- CLI

def test_cli_bounds(capsys):
    rc = main(["bounds", "--beta-c", "1.627", "--beta-h", "1.099"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "xi_min = -1.099" in out
    assert "0.528" in out
    # two pairs bind xi_max at once, as equal ratios up to rounding
    assert main(["bounds", "--beta-c", "1", "--beta-h", "-0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "xi_max = 0.5", "binding pairs (xi_min): [(0, 3)]",
        "binding pairs (xi_max): [(1, 0), (3, 2)]"]


def test_cli_exact_variant_a(tmp_path, capsys):
    out = str(tmp_path / "exact")
    rc = main(["exact", "--variant", "A", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "alpha_sweep_i_to_iii.csv"))
    assert os.path.exists(os.path.join(out, "stage_distributions.json"))
    assert not os.path.exists(os.path.join(out, "xi_sweep_i_to_iii.csv"))


def test_cli_exact_variant_b_writes_xi(tmp_path):
    out = str(tmp_path / "exact")
    rc = main(["exact", "--variant", "B", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "xi_sweep_i_to_iii.csv")) as fh:
        csv = fh.read().splitlines()
    assert csv[0] == "parameter,lhs,rhs,ci_low,ci_high,violated"
    violated = [row.split(",")[-1] for row in csv[1:]]
    assert "true" in violated and "false" in violated


def test_cli_simulate_analyze_detects_leak(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["simulate", "--variant", "A", "--seed", "7",
               "--resamples", "300", "--out", out])
    assert rc == 0
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
    assert rc == 2
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["detected"] is True
    assert verdict["channel"] == "global-passivity"
    assert verdict["strength"] >= 3.0


def test_cli_analyze_no_swap_no_detection(tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--variant", "A", "--no-env-swap", "--seed", "7",
          "--resamples", "300", "--out", out])
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["detected"] is False
    assert verdict["channel"] is None


def test_cli_analyze_variant_b_detects_via_deformation(tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--variant", "B", "--seed", "7", "--shots-per-stage",
          "3200", "--resamples", "300", "--out", out])
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
    assert rc == 2
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["channel"] == "deformation"
    assert verdict["channel_strengths"]["global-passivity"] < 3.0
    xi_thresholds = [t for t in verdict["thresholds"] if t["test"] == "deformation"]
    assert xi_thresholds and abs(xi_thresholds[0]["value"] - PIN_XI_STAR_B) < 0.2
    # the CI columns bound the normal-form margin lhs - rhs, the point
    # estimate of the xi columns that the bootstrap resamples
    for stage in ("ii", "iii"):
        with open(os.path.join(out, f"xi_sweep_i_to_{stage}.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            lhs, rhs, lo, hi = (float(row[k]) for k in ("lhs", "rhs", "ci_low", "ci_high"))
            tol = 1e-12 * max(abs(lhs), abs(rhs), abs(lo), abs(hi))
            assert lo - tol <= lhs - rhs <= hi + tol, row


def test_cli_analyze_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    rc = main(["analyze", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("case", ["header", "meta", "config"])
def test_cli_deeply_nested_json_exit_one(tmp_path, capsys, case):
    """JSON nested past the parser's recursion limit is invalid JSON: exit
    1 with an error line, not a RecursionError, in a record file's header
    line or a record's meta, and in a config file."""
    header, record = '{"config": {}}', '{"stage": "i", "counts": {"00": 1}, "shots": 1'
    if case == "header":
        header = '{"config": ' + _NESTED + "}"
    records = tmp_path / "records.jsonl"
    records.write_text(header + "\n" + record
                       + (', "meta": ' + _NESTED if case == "meta" else "") + "}\n")
    config = tmp_path / "config.json"
    config.write_text('{"seed": ' + _NESTED + "}\n")
    if case == "config":
        argv = ["exact", "--config", str(config)]
        expected = f"error: config {config}: invalid JSON ("
    else:
        argv = ["analyze", str(records)]
        expected = f"error: {records}:{1 if case == 'header' else 2}: invalid JSON ("
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "out").exists()


def test_cli_analyze_missing_file_exit_one(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
    assert rc == 1


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "shots_per_stage": 50}))
    out = str(tmp_path / "run")
    rc = main(["simulate", "--config", str(cfg_path), "--seed", "42",
               "--out", out])
    assert rc == 0
    header, records = read_records(os.path.join(out, "records.jsonl"))
    assert header["seed"] == 42
    assert header["shots_per_stage"] == 50
    assert all(r.shots == 50 for r in records)


def test_cli_spam_flags_shift_counts(tmp_path):
    out_clean = str(tmp_path / "clean")
    out_noisy = str(tmp_path / "noisy")
    main(["simulate", "--variant", "A", "--seed", "3", "--out", out_clean])
    main(["simulate", "--variant", "A", "--seed", "3", "--out", out_noisy,
          "--spam-flip01", "0.4", "--spam-flip10", "0.4"])
    _, clean = read_records(os.path.join(out_clean, "records.jsonl"))
    _, noisy = read_records(os.path.join(out_noisy, "records.jsonl"))
    assert clean[0].counts != noisy[0].counts


def test_cli_exact_no_swap_alpha_never_negative(tmp_path):
    out = str(tmp_path / "exact0")
    rc = main(["exact", "--variant", "A", "--no-env-swap", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "alpha_sweep_i_to_iii.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    assert all(float(r.split(",")[1]) >= 0.0 for r in rows)
    assert all(r.split(",")[-1] == "false" for r in rows)


def _csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "parameter,lhs,rhs,ci_low,ci_high,violated"
    rows = [line.split(",") for line in lines[1:]]
    for *_, ci_low, ci_high, violated in rows:
        assert ci_low == ci_high == ""  # exact theory has no CI
    return [(float(x), float(lhs), float(rhs), violated) for x, lhs, rhs, *_, violated
            in rows]


@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("swap", [True, False], ids=["swap", "no-swap"])
def test_cli_exact_files_match_oracle(tmp_path, variant, swap):
    """Every row that exact writes, against the hand-built 8x8 oracle.

    Tolerances, not bytes, since BLAS rounding may differ between hosts:
    1e-12 on probabilities, grid points and the xi normal form; the alpha
    values are checked to 1e-9 of the scale of their terms, which reach
    1e9 at alpha = -3 (B's smallest eigenvalue is epsilon = 1e-3).
    """
    out = tmp_path / "exact"
    argv = ["exact", "--variant", variant, "--out", str(out)]
    assert main(argv + ([] if swap else ["--no-env-swap"])) == 0
    if variant == "A":
        beta_c, beta_h, oracle = 2.23, 0.43, oracle_protocol_a(swap)
    else:
        beta_c, beta_h, oracle = 1.627, 1.099, oracle_protocol_b(swap)
    dists = dict(zip(("i", "ii", "iii"), oracle))

    stages = json.loads((out / "stage_distributions.json").read_text())["stages"]
    assert sorted(stages) == ["i", "ii", "iii"]
    for stage, p in dists.items():
        assert np.max(np.abs(np.array(stages[stage]) - p)) < 1e-12

    b_values = np.array([0.0, beta_h, beta_c, beta_c + beta_h])
    b_values += 1e-3 - b_values.min()
    expected_files = {"stage_distributions.json"}
    for stage in ("ii", "iii"):
        p0, pf = dists["i"], dists[stage]
        name = f"alpha_sweep_i_to_{stage}.csv"
        expected_files.add(name)
        rows = _csv_rows(out / name)
        assert len(rows) == 120
        for (alpha, lhs, rhs, violated), want in zip(rows, default_alpha_grid()):
            assert abs(alpha - want) < 1e-12
            oracle_lhs = oracle_delta_b_alpha(p0, pf, beta_c, beta_h, 1e-3, alpha)
            scale = float(np.abs(pf - p0) @ b_values**alpha)
            assert abs(lhs - oracle_lhs) <= 1e-9 * scale, (stage, alpha)
            assert rhs == 0.0
            assert violated == str(lhs < rhs).lower()
        if variant == "A":
            continue
        name = f"xi_sweep_i_to_{stage}.csv"
        expected_files.add(name)
        rows = _csv_rows(out / name)
        d_hc = float((pf - p0) @ [0.0, 0.0, 1.0, 1.0])
        d_hh = float((pf - p0) @ [0.0, 1.0, 0.0, 1.0])
        assert len(rows) == 41
        for (xi, lhs, rhs, violated), want in zip(
                rows, np.linspace(-beta_h, beta_c - beta_h, 41)):
            assert abs(xi - want) < 1e-12
            assert abs(lhs - d_hc) < 1e-12
            assert abs(rhs - -((beta_h + xi) / beta_c) * d_hh) < 1e-12
            assert violated == str(lhs < rhs).lower()
    assert set(os.listdir(out)) == expected_files


def test_analyze_channels_track_exact_curve(tmp_path):
    # fixed-seed consistency: the exact theory curve stays inside the 1-sigma
    # bootstrap channel on at least 95% of grid points for both stage pairs
    import csv

    from heatleak.pipeline import run_analyze, run_simulate, stage_distributions

    cfg = ExperimentConfig(protocol=reference_protocol("A"), seed=3,
                           shots_per_stage=6700)
    dists = stage_distributions(cfg)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    grid = np.asarray(cfg.alpha_grid)
    out = str(tmp_path / "consistency")
    run_analyze(run_simulate(cfg, out), None, out)
    for stage in ("ii", "iii"):
        exact = (dists[stage] - dists["i"]) @ observable_table(B, grid)[:, : len(grid)]
        with open(os.path.join(out, f"alpha_sweep_i_to_{stage}.csv")) as fh:
            rows = list(csv.DictReader(fh))
        inside = sum(
            float(r["ci_low"]) <= e <= float(r["ci_high"])
            for r, e in zip(rows, exact)
        )
        assert inside / len(rows) >= 0.95


def test_full_pipeline_determinism(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        main(["simulate", "--variant", "B", "--seed", "11", "--shots-per-stage",
              "500", "--resamples", "200", "--out", out])
        main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
        outs.append(out)
    for fname in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], fname), "rb") as fa:
            a = fa.read()
        with open(os.path.join(outs[1], fname), "rb") as fb:
            b = fb.read()
        assert a == b, f"{fname} differs between identical runs"


# ------------------------------------------------------- hostile record files

def _edited_records(tmp_path, edit):
    """Simulate a small A run, pass its parsed lines through edit, return path."""
    out = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "A", "--seed", "5", "--shots-per-stage",
                 "400", "--resamples", "100", "--out", out]) == 0
    with open(os.path.join(out, "records.jsonl")) as fh:
        lines = [json.loads(t) for t in fh]
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in edit(lines)))
    return str(path)


@pytest.mark.parametrize("name, grid", NON_INCREASING_GRIDS.values(),
                         ids=NON_INCREASING_GRIDS.keys())
def test_cli_analyze_non_increasing_grid_exit_one(tmp_path, capsys, name, grid):
    """Such a grid gave a wrong threshold, or a note of many crossings."""
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "B", "--seed", "3", "--shots-per-stage",
                 "3200", "--out", sim]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_grid_config(name, grid)))
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(["analyze", os.path.join(sim, "records.jsonl"), "--config", str(cfg),
               "--resamples", "100", "--out", str(out)])
    assert rc == 1
    assert f"'{name}' must be strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_unknown_protocol_field_exit_one(tmp_path, capsys):
    def edit(lines):
        lines[0]["config"]["protocol"]["bogus"] = 1
        return lines

    rc = main(["analyze", _edited_records(tmp_path, edit), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "protocol" in err and "bogus" in err


def test_cli_analyze_unknown_stage_exit_one(tmp_path, capsys):
    def edit(lines):
        return lines + [dict(lines[-1], stage="iv")]

    out = tmp_path / "run"
    rc = main(["analyze", _edited_records(tmp_path, edit), "--out", str(out)])
    assert rc == 1
    assert "'iv'" in capsys.readouterr().err
    assert not out.exists()  # --out is created only once the inputs validate


def test_cli_analyze_wrong_qubit_labels_exit_one(tmp_path, capsys):
    def edit(lines):
        return lines[:1] + [dict(rec, qubits=["x", "y"]) for rec in lines[1:]]

    rc = main(["analyze", _edited_records(tmp_path, edit), "--out", str(tmp_path)])
    assert rc == 1
    assert "['x', 'y']" in capsys.readouterr().err


def test_cli_analyze_accepts_records_without_qubits(tmp_path):
    def edit(lines):
        return lines[:1] + [
            {k: v for k, v in rec.items() if k != "qubits"} for rec in lines[1:]
        ]

    out = str(tmp_path / "run")
    rc = main(["analyze", _edited_records(tmp_path, edit), "--out", out])
    assert rc in (0, 2)
    assert os.path.exists(os.path.join(out, "verdict.json"))


@pytest.mark.parametrize("stages", [("i", "ii", "iii"), ("i", "iii")],
                         ids=["i-ii-iii", "i-iii"])
def test_analyze_resamples_each_record_once(tmp_path, monkeypatch, stages):
    """analyze draws every record once: the CIs of a stage pair read one
    matrix of resampled changes, the difference of the pair's draws, and
    both pairs take stage i's from the same draw.  The CIs enclose the
    pair's values from _evaluate, bit for bit."""
    from heatleak import pipeline

    sim = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "A", "--out", sim]) == 0
    header, records = read_records(os.path.join(sim, "records.jsonl"))
    config = config_from_dict(header)
    draw, change = pipeline.resample, pipeline.bootstrap_change
    calls, drawn, changes, points = [], {}, [], []
    stage_of_seed = {  # a draw names its stage by its CI seed
        pipeline.derive_seed(config.seed, pipeline.CI_SEED_ROLE, role): stage
        for stage, role in pipeline.STAGE_SEED_ROLE.items()
    }

    def resample(sample, resamples, seed):
        stage = stage_of_seed[seed]
        calls.append(stage)
        drawn[stage] = draw(sample, resamples, seed)
        return drawn[stage]

    def bootstrap_change(point, diffs, *args):
        points.append(point)
        changes.append(diffs)
        return change(point, diffs, *args)

    monkeypatch.setattr(pipeline, "resample", resample)
    monkeypatch.setattr(pipeline, "bootstrap_change", bootstrap_change)
    verdict = pipeline.analyze_records(
        [rec for rec in records if rec.stage in stages], config, str(tmp_path / "run"))

    assert sorted(calls) == sorted(stages)  # one call per record
    assert "global-passivity" in {t["test"] for t in verdict.thresholds}
    pairs = [stage for stage in ("ii", "iii") if stage in stages]
    assert len(changes) == len(points) == len(pairs)
    table = pipeline._plan(config)[0]
    by_stage = {rec.stage: rec for rec in records}
    for stage, diffs, point in zip(pairs, changes, points):
        assert np.array_equal(diffs, drawn[stage] - drawn["i"])
        values, _, _ = pipeline._evaluate(*samples(by_stage["i"], by_stage[stage]), table)
        assert point.tobytes() == values.tobytes()


def test_config_rejects_malformed_sections():
    with pytest.raises(HeatleakError, match="'spam.turbo'"):
        config_from_dict({"spam": {"flip_0_to_1": 0.1, "turbo": 1}})
    with pytest.raises(HeatleakError, match="'bootstrap'"):
        config_from_dict({"bootstrap": 5})
    with pytest.raises(HeatleakError, match="invalid config"):
        config_from_dict({"shots_per_stage": "many"})


_BETAS = {"beta_c": 2.23, "beta_h": 0.43, "beta_e": 2.02}


@pytest.mark.parametrize("config, expected", [
    # a named variant does not fill in its reference betas; --variant does
    ({"protocol": {"variant": "A", "phi": 2.05}},
     "invalid config: missing fields "
     "['protocol.beta_c', 'protocol.beta_h', 'protocol.beta_e']"),
    ({"protocol": 5}, "invalid config: 'protocol' must be an object, got 5"),
    ({"protocol": {"variant": "A", **_BETAS, "foo": 1}},
     "invalid config: unknown fields ['protocol.foo']"),
    ({"spam": [0.1]}, "invalid config: 'spam' must be an object, got [0.1]"),
    ({"bootstrap": {"resamples": 100, "foo": 1}},
     "invalid config: unknown fields ['bootstrap.foo']"),
], ids=["protocol-missing", "protocol-int", "protocol-unknown", "spam-list",
        "bootstrap-unknown"])
def test_cli_config_section_names_bad_field(tmp_path, capsys, config, expected):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "exact"
    assert main(["exact", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_cli_shots_per_stage_beyond_int64_exit_one(tmp_path, capsys):
    """numpy draws int64 shot counts, and record files hold shot totals below
    2**63: a larger shots_per_stage is a config error, not a traceback."""
    out = tmp_path / "run"
    assert main(["simulate", "--shots-per-stage", str(2**63), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: shots_per_stage must be below 2**63, got 9223372036854775808\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"shots_per_stage": 2**64}))
    assert main(["exact", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: shots_per_stage must be below 2**63")
    assert not out.exists()
    assert main(["simulate", "--shots-per-stage", str(2**63 - 1), "--out", str(out)]) == 0
    _, records = read_records(str(out / "records.jsonl"))
    assert {rec.shots for rec in records} == {2**63 - 1}


MISTYPED_HEADER_FIELDS = [
    ("alpha_grid", ["a"]),
    ("seed", "x"),
    ("shots_per_stage", 1.5),
    ("epsilon", True),
    ("significance", float("nan")),
    ("xi_grid", 3),
    ("protocol.phi", "x"),
    ("protocol.theta", "x"),
    ("spam.flip_1_to_0", True),
    ("bootstrap.resamples", 150.5),
    ("bootstrap.seed", "x"),
    ("protocol.include_env_swap", "false"),
    ("protocol.variant", 1),
    ("protocol.beta_c", "x"),
    ("protocol.beta_h", None),
    ("protocol.beta_e", float("inf")),
    ("spam.flip_0_to_1", "0.1"),
    ("bootstrap.confidence", True),
]


@pytest.mark.parametrize("field, value", MISTYPED_HEADER_FIELDS,
                         ids=[field for field, _ in MISTYPED_HEADER_FIELDS])
def test_cli_analyze_mistyped_header_field_exit_one(tmp_path, capsys, field, value):
    def edit(lines):
        section = lines[0]["config"]
        *parents, name = field.split(".")
        for parent in parents:
            section = section.setdefault(parent, {})
        section[name] = value
        return lines

    rc = main(["analyze", _edited_records(tmp_path, edit), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


def test_cli_analyze_degenerate_records_finite_strength(tmp_path):
    """All shots in one outcome at stages i and iii: the bootstrap has zero
    width there, so sigma is floored at one shot's move per column."""
    def edit(lines):
        for rec in lines[1:]:
            if rec["stage"] in ("i", "iii"):
                label = "10" if rec["stage"] == "i" else "01"
                rec["counts"] = {k: (rec["shots"] if k == label else 0)
                                 for k in rec["counts"]}
        return lines

    path = _edited_records(tmp_path, edit)
    out = str(tmp_path / "run")
    assert main(["analyze", path, "--out", out]) in (0, 2)
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(
            fh, parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))
    header, records = read_records(path)
    config = config_from_dict(header)
    B = build_B({"c": config.protocol.beta_c, "h": config.protocol.beta_h},
                config.epsilon)
    table = observable_table(B, config.alpha_grid)
    by_stage = {rec.stage: rec for rec in records}
    bound = 0.0
    for stage in ("ii", "iii"):
        p0, pf = by_stage["i"], by_stage[stage]
        value = (pf.probabilities() - p0.probabilities()) @ table
        resolution = np.ptp(table, axis=0) / min(p0.shots, pf.shots)
        bound = max(bound, float(np.max(np.abs(value) / resolution)))
    assert np.isfinite(verdict["strength"])
    assert verdict["strength"] <= bound * (1 + 1e-12)


def _shots_placeholder(lines):
    lines[3]["shots"] = "SHOTS"  # replaced by raw JSON text after writing
    return lines


def _count_float(lines):
    lines[3]["counts"]["00"] += 0.9  # truncates back to a consistent record
    return lines


def _shots_float(lines):
    lines[3]["counts"]["00"] -= 1
    lines[3]["shots"] -= 0.3  # 399.7: truncates to the new count total, 399
    return lines


def _huge_count(lines):
    lines[3]["counts"]["00"] += 2**64  # a JSON integer beyond int64
    lines[3]["shots"] += 2**64
    return lines


NON_INTEGER_RECORDS = {
    "count-float": (_count_float, None, "count of '00'"),
    "shots-float": (_shots_float, None, "shots"),
    "shots-overflow": (_shots_placeholder, "1e400", "shots"),
    "count-beyond-int64": (_huge_count, None, "count of '00'"),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_RECORDS))
def test_cli_analyze_non_integer_record_number_exit_one(tmp_path, capsys, case):
    """Shot totals and counts must be JSON integers that int64 holds: a float
    is never truncated, and no value too large ends in a traceback."""
    edit, raw, name = NON_INTEGER_RECORDS[case]
    path = _edited_records(tmp_path, edit)
    if raw is not None:
        with open(path) as fh:
            text = fh.read().replace('"SHOTS"', raw)
        with open(path, "w") as fh:
            fh.write(text)
    rc = main(["analyze", path, "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: {name} must be a JSON integer")


BAD_COUNTS = {
    "list": ([1, 2], "counts must be a JSON object, got [1, 2]"),
    "empty": ({}, "a record needs at least one outcome"),
}


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_cli_analyze_bad_counts_exit_one(tmp_path, capsys, case):
    """counts that are no JSON object, or an empty one, get an error line
    naming the fault, not Python's internal text."""
    counts, expected = BAD_COUNTS[case]

    def edit(lines):
        lines[3]["counts"] = counts
        return lines

    path = _edited_records(tmp_path, edit)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["analyze", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:4: {expected}\n"
    assert not out.exists()


def _three_bit_stage_i(lines):
    lines[1].update(qubits=["c", "h", "e"],
                    counts={"0" + k: n for k, n in lines[1]["counts"].items()})
    return lines


# case -> edit of the parsed lines and the error line, {path} the file
REFUSED_RECORD_FILES = {
    "duplicate-stage": (lambda lines: lines + [lines[1]],
                        "error: duplicate records for stage i\n"),
    "three-bit-outcomes": (_three_bit_stage_i,
                           "error: analysis expects two measured qubits per record\n"),
    "no-stage-i": (lambda lines: lines[:1] + lines[2:],
                   "error: records must contain stage i and at least one of ii/iii\n"),
    "empty-file": (lambda lines: [], "error: {path}: empty file\n"),
    "list-line": (lambda lines: lines[:2] + [[1]] + lines[3:],
                  "error: {path}:3: expected a JSON object\n"),
    "zero-shots": (lambda lines: lines[:3] + [dict(lines[3], shots=0)],
                   "error: {path}:4: a record needs at least one shot\n"),
}


@pytest.mark.parametrize("case", list(REFUSED_RECORD_FILES))
def test_cli_analyze_refused_record_file_exit_one(tmp_path, capsys, case):
    """A record file that cannot be read, or whose records are not one
    stage i and at least one of ii/iii, each of two qubits, ends in its one
    error line before --out is created."""
    edit, expected = REFUSED_RECORD_FILES[case]
    path = _edited_records(tmp_path, edit)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["analyze", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected.format(path=path)
    assert not out.exists()


def test_cli_resamples_beyond_bound_exit_one(tmp_path, capsys, monkeypatch):
    """Each stage draws a (resamples, 4) matrix, so a record header that
    echoes 10**12 resamples is refused while its config is read, before any
    draw, and so is simulate --resamples 10**12; 10**6 is allowed."""
    from heatleak import pipeline

    monkeypatch.setattr(pipeline, "resample", lambda *args: pytest.fail("drew resamples"))
    expected = "error: at most 10**6 resamples allowed, got 1000000000000\n"

    def edit(lines):
        lines[0]["config"]["bootstrap"]["resamples"] = 10**12
        return lines

    path = _edited_records(tmp_path, edit)
    capsys.readouterr()
    out = tmp_path / "run"
    for argv in (["analyze", path], ["simulate", "--resamples", str(10**12)]):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()
    assert config_from_dict({"bootstrap": {"resamples": 10**6}}).bootstrap.resamples == 10**6


_SEED_ERROR = "seed must be a JSON integer in [0, 2**64), got "

# case -> (field, value) on the first record line and its error
BAD_RECORD_FIELDS = {
    "meta-list": ("meta", [1], "meta must be a JSON object, got [1]"),
    "meta-zero": ("meta", 0, "meta must be a JSON object, got 0"),
    "meta-empty-list": ("meta", [], "meta must be a JSON object, got []"),
    "meta-string": ("meta", "note", "meta must be a JSON object, got 'note'"),
    "seed-string": ("seed", "x", _SEED_ERROR + "'x'"),
    "seed-float": ("seed", 1.5, _SEED_ERROR + "1.5"),
    "seed-bool": ("seed", True, _SEED_ERROR + "True"),
    "seed-negative": ("seed", -1, _SEED_ERROR + "-1"),
    "seed-2**64": ("seed", 2**64, _SEED_ERROR + "18446744073709551616"),
}


@pytest.mark.parametrize("case", list(BAD_RECORD_FIELDS))
def test_cli_analyze_bad_meta_or_seed_exit_one(tmp_path, capsys, case):
    """A record's meta is a JSON object and its seed an integer that
    derive_seed can give (uint64); either one null or absent is allowed."""
    name, value, expected = BAD_RECORD_FIELDS[case]

    def edit(lines):
        lines[1][name] = value
        return lines

    path = _edited_records(tmp_path, edit)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["analyze", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("seed", 2**64 - 1), ("seed", None),
                                         ("meta", None), ("seed", ...), ("meta", ...)],
                         ids=["seed-max", "seed-null", "meta-null", "seed-absent",
                              "meta-absent"])
def test_cli_analyze_null_absent_or_uint64_meta_seed(tmp_path, name, value):
    """These analyze to the verdict of the file as simulate wrote it."""
    def edit(lines):
        for line in lines[1:]:
            if value is ...:
                del line[name]
            else:
                line[name] = value
        return lines

    path = _edited_records(tmp_path, edit)
    for src, out in ((path, "run"), (str(tmp_path / "sim" / "records.jsonl"), "ref")):
        assert main(["analyze", src, "--out", str(tmp_path / out)]) in (0, 2)
    assert ((tmp_path / "run" / "verdict.json").read_text()
            == (tmp_path / "ref" / "verdict.json").read_text())


def test_cli_simulate_config_string_boolean_exit_one(tmp_path, capsys):
    """A JSON string "false" is truthy; taken as a boolean it would switch
    the environment SWAP on."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {
        "variant": "B", "beta_c": 1.627, "beta_h": 1.099, "beta_e": 2.232,
        "include_env_swap": "false"}}))
    rc = main(["simulate", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "'protocol.include_env_swap'" in capsys.readouterr().err


def test_cli_flags_are_validated_like_config_fields(tmp_path, capsys):
    rc = main(["simulate", "--epsilon", "inf", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'epsilon'" in err and "finite" in err


def test_cli_analyze_header_with_removed_protocol_fields(tmp_path, capsys):
    """Headers written while ProtocolConfig had b_gate_order and
    env_swap_partner echo their defaults: such files analyze to the same
    outputs, and any other value of those fields is an error naming it."""
    def run(name, **fields):
        def edit(lines):
            lines[0]["config"]["protocol"].update(fields)
            return lines

        (tmp_path / name).mkdir()
        out = tmp_path / name / "out"
        rc = main(["analyze", _edited_records(tmp_path / name, edit), "--out", str(out)])
        return rc, out

    rc, plain = run("plain")
    legacy_rc, legacy = run("legacy", b_gate_order="swap_then_rotate",
                            env_swap_partner=None)
    assert rc in (0, 2) and legacy_rc == rc
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(legacy))
    for name in names:
        assert (plain / name).read_bytes() == (legacy / name).read_bytes(), name
    capsys.readouterr()
    for field, value in (("b_gate_order", "rotate_then_swap"),
                         ("env_swap_partner", "h")):
        assert run(field, **{field: value})[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'protocol.{field}'" in err


REMOVED_FLAGS = [
    ("exact", flag) for flag in ("--seed=3", "--significance=2", "--shots-per-stage=10",
                                 "--resamples=200", "--spam-flip01=0.1",
                                 "--spam-flip10=0.1")
] + [
    ("analyze", flag) for flag in ("--shots-per-stage=10", "--spam-flip01=0.1",
                                   "--spam-flip10=0.1", "--no-env-swap")
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f.split('=')[0]}" for c, f in REMOVED_FLAGS])
def test_cli_removed_flag_exits_one(tmp_path, capsys, command, flag):
    """Flags whose values reached no output of the subcommand are gone; an
    unknown flag is a usage error, exit 1 (2 would read as a leak)."""
    argv = [command, flag, "--out", str(tmp_path / "out")]
    if command == "analyze":
        argv.append(_edited_records(tmp_path, lambda lines: lines))
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [], ["analyze"], ["frobnicate"], ["simulate", "--seed", "x"],
    ["exact", "--variant", "C"], ["bounds", "--beta-c", "1"],
])
def test_cli_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0
    assert "records" in capsys.readouterr().out


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert main(["bounds", "--beta-c", "2.0", "--beta-h", "1.0"]) == 0
    assert built.count("heatleak") <= 1
    assert capsys.readouterr().out.count("xi") >= 2


def test_cli_constant_observables_carry_no_strength(tmp_path):
    """With beta_c = beta_h = 0 every observable is constant, so each
    column's change is float noise: a column of one-shot resolution 0
    carries strength 0 instead of noise over noise (3.2 sigma at seed 5)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {
        "variant": "A", "beta_c": 0.0, "beta_h": 0.0, "beta_e": 2.02}}))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", out]) == 0
    assert main(["analyze", os.path.join(out, "records.jsonl"), "--out", out]) == 0
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["strength"] == 0.0
    assert set(verdict["channel_strengths"].values()) == {0.0}


def test_tangent_threshold_writes_null_std_error(tmp_path):
    """A tangent crossing, here of the cubic margin dp11 * (x - 0.5)**3, has
    no delta-method std error: the verdict entry carries null there, never
    NaN, and a CI equal to the point."""
    from heatleak.pipeline import _threshold_entry
    from heatleak.recordio import write_json
    from heatleak.shots import threshold_estimate

    rec_i = ShotRecord(stage="i", counts={"00": 40, "01": 30, "10": 20, "11": 10},
                       shots=100)
    rec_f = ShotRecord(stage="iii", counts={"00": 10, "01": 20, "10": 30, "11": 40},
                       shots=100)
    e11 = np.array([0.0, 0.0, 0.0, 1.0])
    observable = lambda x: (np.asarray(x)[..., None] - 0.5) ** 3 * e11
    slope = lambda x: 3 * (np.asarray(x)[..., None] - 0.5) ** 2 * e11
    grid = np.linspace(0.0, 1.0, 5)
    (center,) = sweep_crossings(
        observable, rec_f.probabilities() - rec_i.probabilities(), grid)
    estimate = threshold_estimate(*samples(rec_i, rec_f), observable, slope,
                                  float(center), 0.6827)
    entry = _threshold_entry("global-passivity", "iii", estimate)
    assert entry["value"] == entry["ci_low"] == entry["ci_high"] == 0.5
    assert entry["std_error"] is None
    path = tmp_path / "entry.json"
    write_json(str(path), entry)
    parsed = json.loads(path.read_text(),
                        parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))
    assert parsed == {"test": "global-passivity", "stage_pair": "i->iii",
                      "found": True, "value": 0.5, "ci_low": 0.5, "ci_high": 0.5,
                      "std_error": None}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    from heatleak.recordio import write_json

    with pytest.raises(ValueError):
        write_json(str(tmp_path / "bad.json"), {"strength": value})


def test_config_rejects_xi_grid_outside_half_bounded_interval():
    # beta_c == beta_h leaves xi unbounded above; the bound below still holds
    protocol = {"variant": "B", "beta_c": 1.0, "beta_h": 1.0, "beta_e": 2.0}
    assert config_from_dict({"protocol": protocol, "xi_grid": [-1.0, 5.0]})
    with pytest.raises(HeatleakError, match="admissible interval"):
        config_from_dict({"protocol": protocol, "xi_grid": [-5.0]})


def test_cli_bounds_hc_observable(capsys):
    rc = main(["bounds", "--beta-c", "1.627", "--beta-h", "1.099",
               "--observable", "Hc"])
    assert rc == 0
    assert "xi_min = -0.528" in capsys.readouterr().out


def test_cli_exact_pure_environment_keeps_working(tmp_path, capsys):
    """Config numbers are finite, so every JSON output is strict: an infinite
    inverse temperature is a config error, while beta_e = 1000 already gives
    the exact pure environment state."""
    def run(beta_e):
        cfg = tmp_path / f"cfg_{beta_e}.json"
        cfg.write_text('{"protocol": {"variant": "A", "beta_c": 2.23, '
                       f'"beta_h": 0.43, "beta_e": {beta_e}}}}}')
        out = tmp_path / f"exact_{beta_e}"
        return main(["exact", "--config", str(cfg), "--out", str(out)]), out

    rc, out = run("Infinity")
    assert rc == 1
    err = capsys.readouterr().err
    assert "'protocol.beta_e'" in err and "finite" in err
    assert not out.exists()
    rc, out = run("1000")
    assert rc == 0
    json.loads((out / "stage_distributions.json").read_text(),
               parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))


def test_cli_exact_non_finite_table_exit_one(tmp_path, capsys, recwarn):
    """An epsilon this small overflows B^alpha for alpha < 0: the run stops
    with an error naming epsilon and alpha instead of writing -inf rows."""
    out = tmp_path / "exact"
    rc = main(["exact", "--variant", "A", "--epsilon", "1e-200", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: epsilon = 1e-200 makes B^alpha non-finite at alpha = -3.0\n")
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


SWAMPED_BETAS = ("error: epsilon = {} swamps the betas: the eigenvalues of B lose "
                 "the order of the outcome energies\n")


def test_cli_analyze_non_finite_table_exit_one(tmp_path, capsys, recwarn):
    """At epsilon = 1e200 every eigenvalue of B rounds to 1e200, which would
    also overflow B^alpha; the error names the rounding, which comes first."""
    out = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "A", "--seed", "5", "--shots-per-stage",
                 "400", "--resamples", "100", "--out", out]) == 0
    capsys.readouterr()
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--epsilon", "1e200",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == SWAMPED_BETAS.format("1e+200")
    assert not (tmp_path / "run").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_exact_swamped_betas_exit_one(tmp_path, capsys):
    """At epsilon = 1e200 B is constant, so its deformation interval is
    unbounded; the error blames epsilon, not the xi grid."""
    out = tmp_path / "exact"
    rc = main(["exact", "--variant", "B", "--epsilon", "1e200", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == SWAMPED_BETAS.format("1e+200")
    assert not out.exists()


def test_cli_analyze_swamped_betas_exit_one(tmp_path, capsys):
    """At epsilon = 1e17 the betas' energies (at most 2.66) vanish below the
    spacing of doubles near 1e17: B would be constant, every strength 0."""
    out = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "A", "--out", out]) == 0
    capsys.readouterr()
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--epsilon", "1e17",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == SWAMPED_BETAS.format("1e+17")
    assert not (tmp_path / "run").exists()


def test_cli_exact_overflowing_betas_exit_one(tmp_path, capsys, recwarn):
    """Finite betas whose energy sum overflows stop the run with an error
    naming the betas, before any numpy overflow warning or output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"protocol": {"variant": "A", "beta_c": 1e308, "beta_h": 1e308, '
                   '"beta_e": 2.02}}')
    out = tmp_path / "exact"
    rc = main(["exact", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: betas {'c': 1e+308, 'h': 1e+308} overflow")
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


REFUSED_CONFIGS = {
    "swamped-betas": (["--variant", "A", "--epsilon", "1e17"], None,
                      SWAMPED_BETAS.format("1e+17")),
    "non-finite-table": (["--variant", "A", "--epsilon", "1e-200"], None,
                         "error: epsilon = 1e-200 makes B^alpha non-finite at alpha = -3.0\n"),
    "overflowing-betas": ([], {"protocol": {"variant": "A", "beta_c": 1e308,
                                            "beta_h": 1e308, "beta_e": 2.02}},
                          "error: betas {'c': 1e+308, 'h': 1e+308} overflow: the outcome "
                          "energies sum_j beta_j E_j exceed the float range\n"),
    "unbounded-interval": ([], {"protocol": {"variant": "B", "beta_c": 1.0,
                                             "beta_h": 1.0, "beta_e": 2.232}},
                           "error: cannot auto-fill an unbounded deformation interval; "
                           "provide an explicit xi grid\n"),
    "negative-beta-c": ([], {"protocol": {"variant": "A", "beta_c": -0.5,
                                          "beta_h": 0.43, "beta_e": 2.02},
                             "xi_grid": [-0.2, 0.0]},
                        "error: the normal form divides by beta_c; need beta_c > 0\n"),
    "shots-per-stage-zero": (["--shots-per-stage", "0"], None,
                             "error: shots_per_stage must be positive\n"),
    "seed-negative": (["--seed", "-1"], None, "error: seed must be non-negative\n"),
    "significance-zero": (["--significance", "0"], None,
                          "error: significance must be positive\n"),
    "epsilon-negative": (["--epsilon", "-1"], None,
                         "error: epsilon must be positive and finite\n"),
    "config-list": ([], [1], "error: config must be a JSON object\n"),
}


@pytest.mark.parametrize("case", list(REFUSED_CONFIGS))
def test_cli_simulate_refuses_what_analyze_refuses(tmp_path, capsys, case):
    """simulate builds analyze's plan before it samples, so a config that
    analyze of its records would refuse never reaches a record file."""
    argv, config, expected = REFUSED_CONFIGS[case]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)]
    out = tmp_path / "sim"
    assert main(["simulate", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


# ------------------------------------------- thresholds, decided by analyze

@pytest.mark.parametrize("variant, shots_per_stage, analyze_calls", [
    ("A", "6700", 2),
    ("B", "3200", 4),
])
def test_crossings_are_searched_only_where_a_threshold_is_reported(
        tmp_path, monkeypatch, variant, shots_per_stage, analyze_calls):
    """exact writes no threshold, so it searches no crossings; analyze
    searches each point sweep once (alpha, plus xi for B, per stage pair)
    and no more: a threshold's std error is the delta method's at the point
    crossing, so no resample is searched.  Every module binding of
    passivity.sweep_crossings gets the counting wrapper."""
    from heatleak import passivity, pipeline

    calls, original = [], passivity.sweep_crossings

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (passivity, pipeline):
        monkeypatch.setattr(module, "sweep_crossings", counted)
    assert main(["exact", "--variant", variant, "--out", str(tmp_path / "exact")]) == 0
    assert calls == []
    out = str(tmp_path / "run")
    assert main(["simulate", "--variant", variant, "--seed", "7", "--shots-per-stage",
                 shots_per_stage, "--resamples", "100", "--out", out]) == 0
    assert main(["analyze", os.path.join(out, "records.jsonl"), "--out", out]) == 2
    assert len(calls) == analyze_calls


def test_cli_analyze_confidence_just_below_one_exit_two(tmp_path):
    """BootstrapConfig accepts a confidence c just below 1, where (1 + c)/2
    rounds to 1.0 and has no normal quantile: analyze of an A run at that
    confidence still exits 2 and reports a finite threshold CI about its
    crossing, about 8.3 std errors wide on either side."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"bootstrap": {"confidence": 0.9999999999999999}}))
    out = str(tmp_path / "run")
    assert main(["simulate", "--variant", "A", "--config", str(config),
                 "--out", out]) == 0
    assert main(["analyze", os.path.join(out, "records.jsonl"), "--out", out]) == 2
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
    (entry,) = verdict["thresholds"]
    assert entry["test"] == "global-passivity"
    assert math.isfinite(entry["ci_low"]) and math.isfinite(entry["ci_high"])
    assert entry["ci_low"] < entry["value"] < entry["ci_high"]
    assert entry["ci_high"] - entry["value"] > 8 * entry["std_error"]


def test_cli_analyze_b_reports_no_alpha_threshold(tmp_path):
    """Protocol B's alpha sweep never changes sign, so analyze writes no
    global-passivity threshold entry (and no note)."""
    out = str(tmp_path / "run")
    assert main(["simulate", "--variant", "B", "--seed", "7", "--shots-per-stage",
                 "3200", "--resamples", "100", "--out", out]) == 0
    assert main(["analyze", os.path.join(out, "records.jsonl"), "--out", out]) == 2
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
    assert [t["test"] for t in verdict["thresholds"]] == ["deformation"]
    assert verdict["notes"] == []


def test_cli_analyze_two_point_crossings_write_a_note(tmp_path):
    """A point alpha sweep that crosses twice has no single threshold: the
    verdict notes it and carries no entry for that stage pair.  The counts
    are one such 1000-shot pair of protocol A (crossings near 0.15 and 2.6)."""
    config = ExperimentConfig(protocol=reference_protocol("A"))
    records = [
        ShotRecord(stage=stage, shots=1000, qubits=("c", "h"),
                   counts=dict(zip(("00", "01", "10", "11"), counts)))
        for stage, counts in (("i", (105, 240, 116, 539)), ("iii", (139, 114, 363, 384)))
    ]
    path = str(tmp_path / "records.jsonl")
    write_records(path, config.to_dict(), records)
    out = tmp_path / "run"
    assert main(["analyze", path, "--resamples", "100", "--out", str(out)]) in (0, 2)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["notes"] == [
        "alpha sweep i->iii has 2 sign crossings; no threshold reported"]
    assert verdict["thresholds"] == []


# the count-change reproducers: a protocol, its shots per stage, and the
# stage-i and the stage-ii/iii counts of 00/01/10/11; each change is zero in
# exact arithmetic on the channels that the expected strengths name
EXACT_ZERO_CASES = {
    # one shot from each of 00 and 11 onto 01 and 10: d<H_c> = d<H_h> = 0,
    # so d<B> and the xi sweep are 0; the alpha sweep crosses at alpha = 1
    "B-6700": (reference_protocol("B"), 6700,
               (1675, 1675, 1675, 1675), (1674, 1676, 1676, 1674)),
    "B-3": (reference_protocol("B"), 3, (1, 1, 0, 1), (0, 2, 1, 0)),
    "B-7": (reference_protocol("B"), 7, (2, 2, 1, 2), (1, 3, 2, 1)),
    # 01 and 10 tie in B: D sums to 0 on each tie class
    "tied-betas": (ProtocolConfig("A", beta_c=1.3, beta_h=1.3, beta_e=2.0), 1200,
                   (300, 400, 200, 300), (300, 399, 201, 300)),
    # beta_h = 0: 00 ties 01 and 10 ties 11, and d<B> = beta_c * d<H_c> = 0
    "cold-h": (ProtocolConfig("A", beta_c=2.0, beta_h=0.0, beta_e=2.0), 10,
               (3, 2, 3, 2), (2, 3, 2, 3)),
}
EXACT_ZERO_EXPECTED = {
    "B-6700": ({"deformation", "second-law"}, [("global-passivity", 1.0)] * 2),
    "B-3": ({"deformation", "second-law"}, [("global-passivity", 1.0)] * 2),
    "B-7": ({"deformation", "second-law"}, [("global-passivity", 1.0)] * 2),
    "tied-betas": ({"deformation", "second-law", "global-passivity"}, []),
    "cold-h": ({"deformation", "second-law", "global-passivity"}, []),
}


@pytest.mark.parametrize("case", EXACT_ZERO_CASES)
def test_exact_zero_changes_carry_no_strength_or_crossing(tmp_path, case):
    """A change that is zero in exact arithmetic reads +-1e-17 in floats; analyze
    decides it from the integer count change, so its channels read exactly 0.0,
    its sweeps have no threshold and no note, and a genuine crossing stays.
    The parent read a deformation threshold at xi = 0.375 with std_error
    2.9e18 (B-6700), 13 and 7 xi crossings (B-3, B-7), two alpha thresholds
    at 0 with a null std_error (tied-betas) and strengths of 1e-20 to 1e-14."""
    protocol, shots, counts_i, counts_f = EXACT_ZERO_CASES[case]
    zero_channels, expected_thresholds = EXACT_ZERO_EXPECTED[case]
    config = ExperimentConfig(protocol=protocol, shots_per_stage=shots)
    records = [ShotRecord(stage=stage, shots=shots, qubits=("c", "h"),
                          counts=dict(zip(("00", "01", "10", "11"), counts)))
               for stage, counts in (("i", counts_i), ("ii", counts_f), ("iii", counts_f))]
    path = str(tmp_path / "records.jsonl")
    write_records(path, config.to_dict(), records)
    out = tmp_path / "run"
    assert main(["analyze", path, "--resamples", "100", "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    for channel in zero_channels:
        assert verdict["channel_strengths"][channel] == 0.0, channel
    assert verdict["notes"] == []
    thresholds = [(t["test"], t["value"]) for t in verdict["thresholds"]]
    assert [test for test, _ in thresholds] == [test for test, _ in expected_thresholds]
    for (_, value), (_, expected) in zip(thresholds, expected_thresholds):
        assert abs(value - expected) < 1e-12


# record pairs whose d<B> is 0 in exact arithmetic, with the xi grid of their
# B config: the 3-shot move of EXACT_ZERO_CASES (d<H_c> = d<H_h> = 0 too), and
# a 6700-shot move with d<H_c> = 1099 and d<H_h> = -1627 shots, so only the
# copies of B are level while the rest of the xi block changes
COPIES_OF_B_CASES = {
    "B-3": (3, (1, 1, 0, 1), (0, 2, 1, 0), None),
    "B-3-xi0": (3, (1, 1, 0, 1), (0, 2, 1, 0), [-0.5, 0.0, 0.5]),
    "B-level-xi0": (6700, (1000, 3000, 1000, 1700), (1528, 1373, 2099, 1700),
                    [-0.5, 0.0, 0.5]),
}


@pytest.mark.parametrize("case", COPIES_OF_B_CASES)
def test_exact_zeros_reach_every_copy_of_b(case):
    """The alpha = 1 column equals the B column bit for bit, and the xi = 0
    column is B over beta_c less a constant, so each reads d<B>'s exact zero.
    A rule that zeroes the alpha block only as a whole leaves alpha = 1 of
    the 3-shot move at -9.76e-17 with depth 1.07e-16, while B reads 0."""
    from heatleak.pipeline import _evaluate, _plan
    shots, counts_i, counts_f, xi_grid = COPIES_OF_B_CASES[case]
    config = ExperimentConfig(protocol=reference_protocol("B"), shots_per_stage=shots,
                              xi_grid=xi_grid)
    table, _, groups, exact_zeros = _plan(config)
    rec_i, rec_f = (ShotRecord(stage=stage, shots=shots,
                               counts=dict(zip(("00", "01", "10", "11"), counts)))
                    for stage, counts in (("i", counts_i), ("iii", counts_f)))
    values, _, depths = _evaluate((rec_i.probabilities(), shots),
                                  (rec_f.probabilities(), shots), table)
    zeros = exact_zeros(rec_i, rec_f)
    depths[zeros] = 0.0
    n_alpha = len(config.alpha_grid)
    copies = [config.alpha_grid.index(1.0), n_alpha]
    if xi_grid is not None:
        copies.append(n_alpha + 1 + xi_grid.index(0.0))
    assert zeros[copies].all() and (depths[copies] == 0.0).all()
    assert np.all(np.abs(values[copies]) < 1e-15)  # float noise, not a change
    assert not zeros[groups["global-passivity"]].all()
    if case == "B-level-xi0":
        assert zeros[groups["deformation"]].tolist() == [False, True, False]


def test_count_change_beyond_int64_keeps_every_strength(tmp_path):
    """At 2**62 shots per stage, 2**60 per outcome at stage i, the integer
    count change n_i*c_f - n_f*c_i reaches 2**71: in int64 it wraps to 0 and
    would rule every column exactly zero.  In Python ints it does not, and
    every channel keeps its small strength, about 3e-7."""
    big = 2**60
    config = ExperimentConfig(protocol=reference_protocol("B"), shots_per_stage=4 * big)
    records = [ShotRecord(stage=stage, shots=4 * big, qubits=("c", "h"),
                          counts=dict(zip(("00", "01", "10", "11"), counts)))
               for stage, counts in (("i", (big,) * 4),
                                     ("ii", (big + 512, big, big - 512, big)),
                                     ("iii", (big + 512, big, big - 512, big)))]
    path = str(tmp_path / "records.jsonl")
    write_records(path, config.to_dict(), records)
    out = tmp_path / "run"
    assert main(["analyze", path, "--resamples", "100", "--out", str(out)]) == 0
    strengths = json.loads((out / "verdict.json").read_text())["channel_strengths"]
    assert all(0.0 < strength < 1e-6 for strength in strengths.values()), strengths


def test_channel_strengths_read_their_column_groups(tmp_path):
    """Each channel's strength is the largest depth over its own column group
    and both stage pairs: second-law reads the B column alone,
    global-passivity the alpha columns, and deformation the normal-form xi
    columns of protocol B's auto-filled grid, or no column for protocol A
    without a xi grid.  The alpha grid lacks 1.0, so no alpha column equals
    B."""
    for variant in ("A", "B"):
        _check_channel_strengths(tmp_path / variant, variant)


def _check_channel_strengths(out, variant):
    from heatleak import pipeline, xi_observable

    config = ExperimentConfig(protocol=reference_protocol(variant),
                              alpha_grid=[-2.0, 0.5, 2.0])
    counts = {  # stage iii, and less so stage ii, shifted toward 00: <B> drops
        "i": [4000, 1200, 1000, 500],
        "ii": [4100, 1150, 970, 480],
        "iii": [4300, 1100, 900, 400],
    }
    records = {stage: ShotRecord(stage=stage, counts=dict(zip(["00", "01", "10", "11"], c)),
                                 shots=6700, qubits=("c", "h"))
               for stage, c in counts.items()}
    verdict = pipeline.analyze_records(list(records.values()), config, str(out))

    B = build_B({"c": config.protocol.beta_c, "h": config.protocol.beta_h},
                config.epsilon)
    b = B.basis_values
    groups = {
        "second-law": b[:, None],
        "global-passivity": np.stack([np.sign(a) * b**a for a in config.alpha_grid], axis=1),
    }
    xi_grid = config.deformation_grid()
    assert (xi_grid is None) == (variant == "A")
    if xi_grid is not None:
        groups["deformation"] = xi_observable(B)(xi_grid).T
    expected = {"second-law": 0.0, "global-passivity": 0.0, "deformation": 0.0}
    p_i = records["i"].probabilities()
    for stage in ("ii", "iii"):
        p_f = records[stage].probabilities()
        for name, table in groups.items():
            for v, r in zip(table.T, np.ptp(table, axis=0) / 6700):
                value = float((p_f - p_i) @ v)
                # the multinomial standard error of the change, from the counts
                sigma = math.sqrt(sum(float(p @ (v - p @ v) ** 2) / 6700
                                      for p in (p_i, p_f)))
                if value < 0:
                    expected[name] = max(expected[name], -value / max(sigma, r))
    assert expected["second-law"] > 3.0 and expected["global-passivity"] > 3.0
    assert (expected["deformation"] > 3.0) == (variant == "B")
    assert verdict.channel_strengths == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert verdict.channel == max(expected, key=expected.get)


def test_strengths_do_not_depend_on_resamples(tmp_path):
    """A depth's sigma is a closed form of the counts, so the strengths of
    simulated A and B records are equal at 100 and at 2000 resamples, while
    the CSVs' bootstrap CIs move."""
    from heatleak.pipeline import analyze_records, run_simulate
    from heatleak.shots import BootstrapConfig

    for variant, shots in (("A", 6700), ("B", 3200)):
        config = ExperimentConfig(protocol=reference_protocol(variant),
                                  shots_per_stage=shots, seed=3)
        _, records = read_records(run_simulate(config, str(tmp_path / variant)))
        verdicts, csvs = [], []
        for resamples in (100, 2000):
            out = tmp_path / f"{variant}-{resamples}"
            verdicts.append(analyze_records(records, dataclasses.replace(
                config, bootstrap=BootstrapConfig(resamples=resamples)), str(out)))
            csvs.append((out / "alpha_sweep_i_to_iii.csv").read_text())
        assert verdicts[0].detected and verdicts[0].channel == verdicts[1].channel
        assert verdicts[0].channel_strengths == verdicts[1].channel_strengths
        assert verdicts[0].strength == verdicts[1].strength
        assert csvs[0] != csvs[1]


def test_verdict_does_not_depend_on_resamples(tmp_path):
    """Strengths and thresholds, with their std errors and CIs, are closed
    forms of the counts: analyze of one simulated A file (alpha threshold)
    and one simulated B file (xi threshold) writes the same verdict.json
    bytes at 100 and at 2000 resamples, and at the analysis seed 4 in place
    of the file's 3, which does reach the CSV CIs."""
    for variant, shots in (("A", "6700"), ("B", "3200")):
        sim = str(tmp_path / variant)
        assert main(["simulate", "--variant", variant, "--seed", "3",
                     "--shots-per-stage", shots, "--out", sim]) == 0
        outs = []
        for flags in (["--resamples", "100"], ["--resamples", "2000"], ["--seed", "4"]):
            outs.append(tmp_path / f"{variant}{''.join(flags)}")
            assert main(["analyze", os.path.join(sim, "records.jsonl"),
                         *flags, "--out", str(outs[-1])]) == 2
        verdicts = [(out / "verdict.json").read_bytes() for out in outs]
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert json.loads(verdicts[0])["thresholds"]
        csv = "alpha_sweep_i_to_iii.csv"
        assert (outs[1] / csv).read_bytes() != (outs[2] / csv).read_bytes()


_HUGE = "9" * 401  # a JSON integer that no float holds
_LONG = "1" * 4301  # beyond Python's 4300-digit limit for int(str)
_REF_A = '"variant": "A", "beta_c": 2.23, "beta_h": 0.43, "beta_e": 2.02'

# case -> config file text (None: a record file) and the start of its error
HUGE_INTEGER_INPUTS = {
    "epsilon": (f'{{"epsilon": {_HUGE}}}',
                "invalid config: 'epsilon' must be a finite number, got 999"),
    "protocol.beta_c": (f'{{"protocol": {{{_REF_A.replace("2.23", _HUGE)}}}}}',
                        "invalid config: 'protocol.beta_c' must be a finite number"),
    "protocol.phi": (f'{{"protocol": {{{_REF_A}, "phi": {_HUGE}}}}}',
                     "invalid config: 'protocol.phi' must be a finite number"),
    "alpha_grid": (f'{{"alpha_grid": [1.0, {_HUGE}]}}',
                   "invalid config: 'alpha_grid' must be a non-empty list of finite"),
    "config-digits": (f'{{"epsilon": {_LONG}}}',
                      "config {path}: invalid JSON (Exceeds the limit (4300 digits)"),
    "record-digits": (None, "{path}:4: invalid JSON (Exceeds the limit (4300 digits)"),
}


def _count_placeholder(lines):
    lines[3]["counts"]["00"] = "COUNT"  # replaced by raw JSON text after writing
    return lines


@pytest.mark.parametrize("case", list(HUGE_INTEGER_INPUTS))
def test_cli_huge_json_integer_exit_one(tmp_path, capsys, case):
    """A JSON integer that no float holds, in a float field, or one with more
    digits than Python converts, in a config or record file, ends in one
    error line, not a traceback."""
    text, expected = HUGE_INTEGER_INPUTS[case]
    if text is None:
        path = _edited_records(tmp_path, _count_placeholder)
        with open(path) as fh:
            text = fh.read().replace('"COUNT"', _LONG)
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["analyze", path]
    else:
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["exact", "--config", path]
    capsys.readouterr()
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expected.format(path=path)}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _meta_placeholder(lines):
    assert lines[2]["stage"] == "ii"
    lines[2]["meta"]["note"] = "BYTE"  # replaced by a raw 0xff byte after writing
    return lines


def test_cli_non_utf8_record_file_exit_one(tmp_path, capsys):
    """A byte that is not UTF-8 ends in one error line naming its line, not a
    UnicodeDecodeError traceback."""
    path = _edited_records(tmp_path, _meta_placeholder)
    with open(path, "rb") as fh:
        data = fh.read().replace(b"BYTE", b"\xff")
    with open(path, "wb") as fh:
        fh.write(data)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["analyze", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: invalid UTF-8 (invalid start byte)\n"
    assert not out.exists()


def test_cli_record_line_with_raw_line_separator(tmp_path):
    """Record lines end at \\n alone: a raw U+2028 in a meta string, as
    json.dumps(..., ensure_ascii=False) writes it, reads like its escaped
    twin, and so does the same file with CRLF line ends."""
    def note(lines):
        lines[2]["meta"]["note"] = "a\u2028b"
        return lines

    escaped = _edited_records(tmp_path, note)
    with open(escaped, encoding="utf-8") as fh:
        raw = "".join(json.dumps(json.loads(t), ensure_ascii=False) + "\n" for t in fh)
    assert "\u2028" in raw
    paths = {"escaped": escaped}
    for name, text in (("raw", raw), ("crlf", raw.replace("\n", "\r\n"))):
        paths[name] = str(tmp_path / f"{name}.jsonl")
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    runs = {}
    for name, path in paths.items():
        out = tmp_path / f"run-{name}"
        rc = main(["analyze", path, "--out", str(out)])
        runs[name] = rc, {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert runs["escaped"][0] in (0, 2) and runs["escaped"][1]
    assert runs["raw"] == runs["escaped"] == runs["crlf"]


def _bad_json_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"config": {}}\nnot json\n')
    return read_records(str(path))


def _negative_diagonal_state():
    """A state that passes DensityOperator's checks (eigenvalues down to
    -1e-10) with a diagonal entry below measure_distribution's -1e-12."""
    return DensityOperator(np.diag([1.0 + 1e-11, -1e-11]))


# rejected inputs of every layer (register, circuits, passivity, shots,
# recordio, config and pipeline), each with its message; {tmp_path} is the
# test's directory
REJECTED_INPUTS = {
    "ry_gate-nan": (lambda tmp_path: ry_gate(float("nan")),
                    "rotation parameter must be finite"),
    "phase_gate-inf": (lambda tmp_path: phase_gate(math.inf), "phase must be finite"),
    "protocol-variant-C": (lambda tmp_path: ProtocolConfig("C", 1.0, 1.0, 1.0),
                           "unknown protocol variant 'C'"),
    "reference-variant-C": (lambda tmp_path: reference_protocol("C"),
                            "unknown protocol variant 'C'"),
    "build_B-inf": (lambda tmp_path: build_B({"c": math.inf}, 1e-3),
                    "beta['c'] must be finite, got inf"),
    "build_B-no-qubit": (lambda tmp_path: build_B({}, 1e-3), "at least one qubit required"),
    "energy-qubit-2": (lambda tmp_path: energy_basis_values(2, 2),
                       "qubit 2 outside 2-qubit outcome space"),
    "bounds-lengths": (lambda tmp_path: deformation_bounds([0.0, 1.0], [0.0, 1.0, 0.0]),
                       "b and a must have equal lengths"),
    "bounds-observable": (lambda tmp_path: run_bounds(1.627, 1.099, "Hx"),
                          "unknown deformation observable 'Hx'"),
    "operator-not-square": (lambda tmp_path: UnitaryOperator(np.ones(2)),
                            "expected a square matrix, got shape (2,)"),
    "operator-dimension-3": (lambda tmp_path: UnitaryOperator(np.eye(3)),
                             "matrix dimension 3 is not a power of two"),
    # a 2048 x 2048 complex copy (64 MB) that takes about 0.05 s
    "operator-11-qubits": (lambda tmp_path: DensityOperator(np.zeros((2048, 2048))),
                           "register of 11 qubits exceeds cap of 10"),
    "tensor-11-qubits": (lambda tmp_path: tensor(DensityOperator(np.eye(64) / 64),
                                                 DensityOperator(np.eye(32) / 32)),
                         "tensor product exceeds register cap"),
    "partial-trace-keep": (lambda tmp_path: partial_trace(thermal_qubit(1.0), [1]),
                           "keep set [1] outside register"),
    "measure-duplicate": (lambda tmp_path: measure_distribution(thermal_qubit(1.0), [0, 0]),
                          "duplicate qubits [0, 0]"),
    "measure-outside": (lambda tmp_path: measure_distribution(thermal_qubit(1.0), [1]),
                        "qubits [1] outside register"),
    "measure-negative": (lambda tmp_path: measure_distribution(_negative_diagonal_state(), [0]),
                         "negative outcome probability -1e-11"),
    "record-counts-sum": (lambda tmp_path: ShotRecord("i", {"00": 1}, 2),
                          "counts sum to 1, expected 2"),
    "record-qubit-width": (lambda tmp_path: ShotRecord("i", {"00": 1}, 1, qubits=("c",)),
                           "qubit labels do not match outcome width"),
    "spam-length-3": (lambda tmp_path: apply_spam([0.5, 0.3, 0.2], SpamModel()),
                      "distribution length 3 is not a power of two"),
    "record-bad-json": (_bad_json_records,
                        "{tmp_path}/bad.jsonl:2: invalid JSON (Expecting value)"),
    "config-unknown-field": (lambda tmp_path: config_from_dict({"turbo": 1}),
                             "invalid config: unknown fields ['turbo']"),
    "config-empty-alpha": (lambda tmp_path: ExperimentConfig(alpha_grid=[]),
                           "alpha grid must not be empty"),
    "config-xi-string": (lambda tmp_path: ExperimentConfig(xi_grid="x"),
                         'xi_grid must be a list, "auto" or null'),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUTS))
def test_every_rejected_input_is_a_heatleak_error(tmp_path, case):
    """Every layer rejects input with the one error type the CLI reports,
    and its message names what was wrong."""
    assert issubclass(HeatleakError, ValueError)
    call, message = REJECTED_INPUTS[case]
    with pytest.raises(HeatleakError) as exc:
        call(tmp_path)
    assert str(exc.value) == message.format(tmp_path=tmp_path)


# ----------------------------------------------- standing record-file fuzz

# the fuzz below: its seed, file count and shots per stage, and the values
# its mutations draw from; each mutation edits a file's parsed lines (header
# first), and _fuzz_raw_token also returns the raw JSON token that replaces
# its "RAW" placeholder in the written text
FUZZ_SEED, FUZZ_FILES, FUZZ_SHOTS = 2031, 200, 800
FUZZ_VALUES = [None, True, False, 0, -1, 1, 3, 2**63, 2**64, -2**63, 0.5, -0.0, 1e300,
               "", "i", "ii", "00", [], ["c", "h"], ["h", "c"], [1], {}, {"00": 1}]
FUZZ_FIELDS = ["stage", "qubits", "counts", "shots", "seed", "meta"]
FUZZ_LABELS = ["0", "000", "2", "ab", "", " 00", "0b1", "11", "01", "٠٠"]
FUZZ_RAW = ["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "1" * 4301, "-0",
            "1.0", "0.5", "1e2", "00", "0x1", "+1", "true", "null", '"7"']
FUZZ_LINES = ["[]", "1", '"s"', "null", "[{}]", "{", "}{", " ", "\t", "{}"]
FUZZ_CONFIG = {
    "seed": [-1, 0, 2**64, 1.5], "epsilon": [0.0, 1e-300, 1e300, 1e17, -1.0],
    "significance": [0.0, -3.0, 1e-300, 1e300], "shots_per_stage": [0, 2**63, 3],
    "alpha_grid": [[], [1.0], [-1.0, 1.0], [0.0, 1.0], [2.0, 1.0], [1e300]],
    "xi_grid": ["auto", None, [], [0.0], [-1e9, 0.0], "x"],
    "bootstrap.resamples": [10**12, 99], "bootstrap.confidence": [0.0, 1.0, 1 - 1e-16],
    "bootstrap.seed": [-1, 2**64], "protocol.variant": ["A", "C"],
    "protocol.beta_c": [0.0, -2.0, 1e300, 1e-300], "protocol.beta_h": [0.0, 2.5, 1e300],
    "protocol.beta_e": [-1e300], "protocol.phi": [1e300], "protocol.theta": [0.0],
    "protocol.include_env_swap": [False, 1], "spam.flip_0_to_1": [0.5, 1.0, 1.5],
    "spam.flip_1_to_0": [-0.1, 1.0],
}


def _fuzz_record(rng, lines):
    return lines[int(rng.integers(1, len(lines)))]


def _fuzz_value(rng, values=FUZZ_VALUES):
    return values[int(rng.integers(len(values)))]


def _fuzz_field_value(rng, lines):
    _fuzz_record(rng, lines)[str(rng.choice(FUZZ_FIELDS))] = _fuzz_value(rng)
    return lines


def _fuzz_field_delete(rng, lines):
    _fuzz_record(rng, lines).pop(str(rng.choice(FUZZ_FIELDS)), None)
    return lines


def _fuzz_count_value(rng, lines):
    counts = _fuzz_record(rng, lines)["counts"]
    counts[str(rng.choice(sorted(counts)))] = _fuzz_value(rng)
    return lines


def _fuzz_count_label(rng, lines):
    rec = _fuzz_record(rng, lines)
    label = str(rng.choice(sorted(rec["counts"])))
    count = rec["counts"].pop(label)
    if rng.integers(2):  # renamed, else dropped (with its shots)
        rec["counts"][str(rng.choice(FUZZ_LABELS))] = count
    else:
        rec["shots"] -= count
    return lines


def _fuzz_raw_token(rng, lines):
    rec = _fuzz_record(rng, lines)
    slot = int(rng.integers(3))
    if slot == 0:
        rec["shots"] = "RAW"
    elif slot == 1:
        rec["seed"] = "RAW"
    else:
        rec["counts"][str(rng.choice(sorted(rec["counts"])))] = "RAW"
    return lines, str(rng.choice(FUZZ_RAW))


def _fuzz_line_drop(rng, lines):
    del lines[int(rng.integers(len(lines)))]
    return lines


def _fuzz_line_duplicate(rng, lines):
    k = int(rng.integers(len(lines)))
    lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
    return lines


def _fuzz_line_text(rng, lines):
    # a blank, whitespace or non-object line, inserted or in place of one
    k = int(rng.integers(len(lines) + 1))
    text = str(rng.choice(FUZZ_LINES))
    if k < len(lines) and rng.integers(2):
        lines[k] = text
    else:
        lines.insert(k, text)
    return lines


def _fuzz_header_config(rng, lines):
    path = str(rng.choice(sorted(FUZZ_CONFIG)))
    *parents, name = path.split(".")
    section = lines[0]["config"]
    for parent in parents:
        section = section[parent]
    section[name] = _fuzz_value(rng, FUZZ_CONFIG[path] + FUZZ_VALUES)
    return lines


def _fuzz_count_move(rng, lines):
    """Later stages k shots from 00 and 11 onto 01 and 10 away from stage i
    (k < 0 the other way), so d<H_c> = d<H_h> = 0 exactly; at the file's
    shots or at 3 or 7, where the sweeps hold only float noise."""
    shots = int(rng.choice([FUZZ_SHOTS, 3, 7]))
    counts_i = rng.multinomial(shots, [0.25] * 4)
    for rec in lines[1:]:
        move = int(rng.integers(-3, 4)) if rec["stage"] != "i" else 0
        counts = counts_i + move * np.array([-1, 1, 1, -1])
        if counts.min() < 0:
            counts = counts_i
        rec.update(shots=shots, counts=dict(zip(("00", "01", "10", "11"),
                                                counts.tolist())))
    return lines


FUZZ_MUTATIONS = [_fuzz_field_value, _fuzz_field_delete, _fuzz_count_value,
                  _fuzz_count_label, _fuzz_raw_token, _fuzz_line_drop,
                  _fuzz_line_duplicate, _fuzz_line_text, _fuzz_header_config,
                  _fuzz_count_move]


def _fuzz_text(lines, raw=None):
    text = "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)
    return text if raw is None else text.replace('"RAW"', raw)


def _fuzz_analyze(capsys, path, out):
    """analyze of path into out at 100 resamples, every warning an error:
    the exit code, and stderr, which an exit 1 must hold as one error line
    with no out directory made."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["analyze", str(path), "--out", str(out), "--resamples", "100"])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
    else:
        assert err == "" and (out / "verdict.json").exists()
    return rc


def test_record_file_mutation_fuzz(tmp_path, capsys):
    """FUZZ_FILES mutations of one small simulated B record file, each kind
    of FUZZ_MUTATIONS in turn, draw from FUZZ_SEED: every analyze exits 0,
    1 or 2 with no exception and no warning, and an exit 1 is one error line
    and no --out.  A count move, whose d<H_c> and d<H_h> are exactly 0, reads
    deformation and second-law strengths of exactly 0.0, with no deformation
    threshold and no note.  Permuting the record lines of the file, or of a count
    move, leaves every output byte the same."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--variant", "B", "--seed", "5", "--shots-per-stage",
                 str(FUZZ_SHOTS), "--out", str(sim)]) == 0
    base = [json.loads(t) for t in (sim / "records.jsonl").read_text().splitlines()]
    rng = np.random.default_rng(FUZZ_SEED)
    codes = []
    for k in range(FUZZ_FILES):
        mutation = FUZZ_MUTATIONS[k % len(FUZZ_MUTATIONS)]
        mutated = mutation(rng, json.loads(json.dumps(base)))
        lines, raw = mutated if isinstance(mutated, tuple) else (mutated, None)
        path = tmp_path / f"fuzz{k}.jsonl"
        path.write_text(_fuzz_text(lines, raw), encoding="utf-8")
        out = tmp_path / f"out{k}"
        try:
            codes.append(_fuzz_analyze(capsys, path, out))
            if mutation is _fuzz_count_move and codes[-1] != 1:
                verdict = json.loads((out / "verdict.json").read_text())
                strengths = verdict["channel_strengths"]
                assert strengths["deformation"] == strengths["second-law"] == 0.0
                assert "deformation" not in [t["test"] for t in verdict["thresholds"]]
                assert verdict["notes"] == []
        except Exception as exc:
            raise AssertionError(f"file {k} ({mutation.__name__}): {exc!r}") from exc
    assert {0, 1, 2} <= set(codes)

    moved = _fuzz_count_move(np.random.default_rng(FUZZ_SEED),
                             json.loads(json.dumps(base)))
    for name, lines in (("base", base), ("moved", moved)):
        runs = set()
        for order in itertools.permutations(lines[1:]):
            path = tmp_path / f"{name}-{len(runs)}.jsonl"
            path.write_text(_fuzz_text([lines[0], *order]), encoding="utf-8")
            out = tmp_path / f"{name}-out{len(runs)}"
            rc = _fuzz_analyze(capsys, path, out)
            runs.add((rc, *((f, (out / f).read_bytes())
                            for f in sorted(os.listdir(out)))))
        assert len(runs) == 1, name
