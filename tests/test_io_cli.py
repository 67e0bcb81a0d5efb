import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

from heatleak import (
    ExperimentConfig,
    ShotRecord,
    ShotsError,
    SpamModel,
    build_B,
    observable_table,
    reference_protocol,
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
    RecordFormatError,
    read_records,
    write_records,
    write_sweep_csv,
)

from oracles import PIN_XI_STAR_B


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
    lines = open(path).read().splitlines()
    first_record = json.loads(lines[1])
    assert set(first_record) >= {"stage", "qubits", "counts", "shots", "meta"}
    assert first_record["counts"] == {"00": 5, "01": 3, "10": 1, "11": 1}


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"stage": "i", "counts": {"0": 1}, "shots": 1}\n')
    with pytest.raises(RecordFormatError, match=":1"):
        read_records(str(path))


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"config": {}}\n{"stage": "i", "counts": {"0": 1}, "shots": 1}\nnot json\n')
    with pytest.raises(RecordFormatError, match=":3"):
        read_records(str(path))
    path.write_text('{"config": {}}\n{"stage": "i", "shots": 1}\n')
    with pytest.raises(RecordFormatError, match=":2.*counts"):
        read_records(str(path))
    path.write_text('{"config": {}}\n{"stage": "i", "counts": {"0": 2}, "shots": 1}\n')
    with pytest.raises(RecordFormatError, match=":2"):
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
    with pytest.raises(RecordFormatError, match=f":2: {field} must be"):
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
    lines = open(path).read().splitlines()
    assert lines[0] == "parameter,lhs,rhs,ci_low,ci_high,violated"
    assert lines[1] == "0.5,-0.25,0.0,-0.3,-0.2,true"
    assert lines[2] == "1.0,0.5,0.0,0.4,0.6,false"


def test_sweep_csv_without_ci(tmp_path):
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, np.array([0.1]), np.array([1.0]), np.array([2.0]))
    assert open(path).read().splitlines()[1] == "0.1,1.0,2.0,,,true"


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
    with pytest.raises(ShotsError, match="unknown config fields"):
        config_from_dict({"turbo": True})


def test_config_rejects_zero_alpha():
    with pytest.raises(ShotsError):
        ExperimentConfig(alpha_grid=[-1.0, 0.0, 1.0])


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 77, "shots_per_stage": 123}))
    cfg = load_config(str(path))
    assert cfg.seed == 77
    assert cfg.shots_per_stage == 123
    path.write_text("{broken")
    with pytest.raises(ShotsError):
        load_config(str(path))


def test_config_auto_xi_grid():
    cfg = ExperimentConfig(protocol=reference_protocol("B"))
    grid = cfg.resolve_xi_grid(-1.099, 0.528)
    assert grid[0] == pytest.approx(-1.099)
    assert grid[-1] == pytest.approx(0.528)
    assert cfg.wants_deformation()
    assert not ExperimentConfig().wants_deformation()


def test_config_rejects_xi_grid_outside_bounds():
    with pytest.raises(ShotsError, match="admissible interval"):
        ExperimentConfig(protocol=reference_protocol("B"), xi_grid=[-2.0])
    cfg = ExperimentConfig(protocol=reference_protocol("B"), xi_grid=[-1.0, 0.0, 0.5])
    assert cfg.wants_deformation()


# ---------------------------------------------------------------------- CLI

def test_cli_bounds(capsys):
    rc = main(["bounds", "--beta-c", "1.627", "--beta-h", "1.099"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "xi_min = -1.099" in out
    assert "0.528" in out


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
    csv = open(os.path.join(out, "xi_sweep_i_to_iii.csv")).read().splitlines()
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
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["detected"] is True
    assert verdict["channel"] == "global-passivity"
    assert verdict["strength"] >= 3.0


def test_cli_analyze_no_swap_no_detection(tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--variant", "A", "--no-env-swap", "--seed", "7",
          "--resamples", "300", "--out", out])
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
    assert rc == 0
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["detected"] is False
    assert verdict["channel"] is None


def test_cli_analyze_variant_b_detects_via_deformation(tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--variant", "B", "--seed", "7", "--shots-per-stage",
          "3200", "--resamples", "300", "--out", out])
    rc = main(["analyze", os.path.join(out, "records.jsonl"), "--out", out])
    assert rc == 2
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["channel"] == "deformation"
    assert verdict["channel_strengths"]["global-passivity"] < 3.0
    xi_thresholds = [t for t in verdict["thresholds"] if t["test"] == "deformation"]
    assert xi_thresholds and abs(xi_thresholds[0]["value"] - PIN_XI_STAR_B) < 0.2


def test_cli_analyze_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    rc = main(["analyze", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
    rows = open(os.path.join(out, "alpha_sweep_i_to_iii.csv")).read().splitlines()[1:]
    assert all(float(r.split(",")[1]) >= 0.0 for r in rows)
    assert all(r.split(",")[-1] == "false" for r in rows)


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
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, f"{fname} differs between identical runs"


# ------------------------------------------------------- hostile record files

def _edited_records(tmp_path, edit):
    """Simulate a small A run, pass its parsed lines through edit, return path."""
    out = str(tmp_path / "sim")
    assert main(["simulate", "--variant", "A", "--seed", "5", "--shots-per-stage",
                 "400", "--resamples", "100", "--out", out]) == 0
    lines = [json.loads(t) for t in open(os.path.join(out, "records.jsonl"))]
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in edit(lines)))
    return str(path)


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


def test_config_rejects_malformed_sections():
    with pytest.raises(ShotsError, match="'spam'"):
        config_from_dict({"spam": {"flip_0_to_1": 0.1, "turbo": 1}})
    with pytest.raises(ShotsError, match="'bootstrap'"):
        config_from_dict({"bootstrap": 5})
    with pytest.raises(ShotsError, match="invalid config"):
        config_from_dict({"shots_per_stage": "many"})


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
    assert "'epsilon'" in capsys.readouterr().err


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


def test_threshold_without_resample_crossings_writes_null_std_error(tmp_path,
                                                                  monkeypatch):
    """A threshold found on the point sweep that no resample crosses has no
    std error; the verdict entry carries null there, never NaN."""
    from heatleak import shots
    from heatleak.pipeline import _threshold_entry
    from heatleak.recordio import write_json

    rec_i = ShotRecord(stage="i", counts={"00": 100, "01": 0, "10": 0, "11": 0},
                       shots=100)
    rec_f = ShotRecord(stage="iii", counts={"00": 0, "01": 0, "10": 0, "11": 100},
                       shots=100)
    # every resample redraws stage iii as stage i: no change, so no crossing
    monkeypatch.setattr(shots, "_resample_matrices", lambda records, config: [
        np.tile(records[0].counts_array(), (config.resamples, 1))] * 2)
    e11 = np.array([0.0, 0.0, 0.0, 1.0])
    observable = lambda x: (np.asarray(x)[..., None] - 0.5) * e11
    grid = np.linspace(0.0, 1.0, 5)
    (center,) = sweep_crossings(
        observable, rec_f.probabilities() - rec_i.probabilities(), grid)[1]
    result = shots.threshold_bootstrap(rec_i, rec_f, observable, grid, float(center),
                                       shots.BootstrapConfig(resamples=100, seed=2))
    assert result.no_crossing_resamples == 100
    entry = _threshold_entry("global-passivity", "iii", result)
    assert entry["value"] == 0.5 and entry["std_error"] is None
    path = tmp_path / "entry.json"
    write_json(str(path), entry)
    parsed = json.loads(path.read_text(),
                        parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))
    assert parsed["std_error"] is None


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    from heatleak.recordio import write_json

    with pytest.raises(ValueError):
        write_json(str(tmp_path / "bad.json"), {"strength": value})


def test_config_rejects_xi_grid_outside_half_bounded_interval():
    # beta_c == beta_h leaves xi unbounded above; the bound below still holds
    protocol = {"variant": "B", "beta_c": 1.0, "beta_h": 1.0, "beta_e": 2.0}
    assert config_from_dict({"protocol": protocol, "xi_grid": [-1.0, 5.0]})
    with pytest.raises(ShotsError, match="admissible interval"):
        config_from_dict({"protocol": protocol, "xi_grid": [-5.0]})


def test_cli_bounds_hc_observable(capsys):
    rc = main(["bounds", "--beta-c", "1.627", "--beta-h", "1.099",
               "--observable", "Hc"])
    assert rc == 0
    assert "xi_min = -0.528" in capsys.readouterr().out


def test_cli_exact_pure_environment_keeps_working(tmp_path):
    """An infinite inverse temperature (a pure state) has no strict JSON
    form; the config echo in stage_distributions.json keeps it as Infinity,
    as record headers do, while verdict.json stays strict."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"protocol": {"variant": "A", "beta_c": 2.23, "beta_h": 0.43, '
                   '"beta_e": Infinity}}')
    out = tmp_path / "exact"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stage_distributions.json").read_text())
    assert doc["config"]["protocol"]["beta_e"] == float("inf")


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


# ------------------------------------------- thresholds, decided by analyze

@pytest.mark.parametrize("variant, shots_per_stage, analyze_calls", [
    ("A", "6700", 3),
    ("B", "3200", 5),
])
def test_crossings_are_searched_only_where_a_threshold_is_reported(
        tmp_path, monkeypatch, variant, shots_per_stage, analyze_calls):
    """exact writes no threshold, so it searches no crossings; analyze
    searches each point sweep once (alpha, plus xi for B, per stage pair)
    and bootstraps the one i->iii threshold once.  Every module binding of
    passivity.sweep_crossings gets the counting wrapper."""
    from heatleak import passivity, pipeline, shots

    calls, original = [], passivity.sweep_crossings

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (passivity, pipeline, shots):
        monkeypatch.setattr(module, "sweep_crossings", counted)
    assert main(["exact", "--variant", variant, "--out", str(tmp_path / "exact")]) == 0
    assert calls == []
    out = str(tmp_path / "run")
    assert main(["simulate", "--variant", variant, "--seed", "7", "--shots-per-stage",
                 shots_per_stage, "--resamples", "100", "--out", out]) == 0
    assert main(["analyze", os.path.join(out, "records.jsonl"), "--out", out]) == 2
    assert len(calls) == analyze_calls


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
