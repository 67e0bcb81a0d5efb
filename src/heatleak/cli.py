"""Command-line interface.

Subcommands:

* ``exact``     write exact theory sweeps and stage distributions
* ``simulate``  sample shot records for stages i/ii/iii into a JSONL file
* ``analyze``   evaluate records and emit a heat-leak verdict
* ``bounds``    print the admissible deformation interval

Exit codes: 0 = success (no leak), 2 = leak detected, 1 = any error,
usage errors such as an unknown flag included.

Each subcommand takes only the flags whose config fields reach its outputs.
A flag overrides its field of the base config: the --config file, or else
the built-in defaults (exact, simulate) or the config echoed in the record
file's header (analyze).  The result is validated by config_from_dict, like
any config file.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import REFERENCE_PARAMS, ExperimentConfig, config_from_dict, load_config
from .pipeline import analyze_records, run_bounds, run_exact, run_simulate
from .recordio import read_records
from .register import HeatleakError

# config field (dotted path) -> flag that overrides it, its type and help;
# a flag without a type sets the field to False
_FIELD_FLAGS = {
    "seed": ("--seed", int, "root seed"),
    "epsilon": ("--epsilon", float, "positive eigenvalue floor of B"),
    "significance": ("--significance", float, "detection threshold in sigmas"),
    "spam.flip_0_to_1": ("--spam-flip01", float, "per-qubit readout 0->1 flip rate"),
    "spam.flip_1_to_0": ("--spam-flip10", float, "per-qubit readout 1->0 flip rate"),
    "shots_per_stage": ("--shots-per-stage", int, "shots per stage"),
    "bootstrap.resamples": ("--resamples", int, "bootstrap resamples"),
    "protocol.include_env_swap": ("--no-env-swap", None, "no environment SWAP"),
}

# subcommand -> help text and the fields it takes flags for (besides --variant)
_SUBCOMMANDS = {
    "exact": ("exact theory sweeps, no sampling",
              ("epsilon", "protocol.include_env_swap")),
    "simulate": ("sample shot records", tuple(_FIELD_FLAGS)),
    "analyze": ("analyze shot records and emit a verdict",
                ("seed", "epsilon", "significance", "bootstrap.resamples")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls
    (building it costs about a millisecond); callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="heatleak",
        description="Passivity-based heat-leak detection on small qubit registers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--variant", choices=("A", "B"),
                       help="protocol variant at its reference parameters")
        for field in fields:
            flag, kind, help_text = _FIELD_FLAGS[field]
            how = (dict(type=kind, metavar=flag[2:].upper().replace("-", "_")) if kind
                   else dict(action="store_const", const=False))
            p.add_argument(flag, dest=field, help=help_text, **how)
        if name == "analyze":
            p.add_argument("records", help="shot-record JSONL file")
    b = sub.add_parser("bounds", help="print deformation bounds")
    b.add_argument("--beta-c", type=float, required=True)
    b.add_argument("--beta-h", type=float, required=True)
    b.add_argument("--observable", choices=("Hh", "Hc"), default="Hh")
    return parser


def _with_flags(config: ExperimentConfig, args) -> ExperimentConfig:
    """config with the given flags applied: --variant resets the protocol to
    the variant's reference one, then each field flag sets its field."""
    fields = {name: value for name, value in vars(args).items()
              if name in _FIELD_FLAGS and value is not None}
    if args.variant is None and not fields:
        return config  # skips a second config_from_dict, 2-3% of an exact run
    data = config.to_dict()
    if args.variant is not None:
        data["protocol"] = {"variant": args.variant, **REFERENCE_PARAMS[args.variant]}
    for path, value in fields.items():
        *section, name = path.split(".")
        (data[section[0]] if section else data)[name] = value
    return config_from_dict(data)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, which here means a leak
        return 1 if exc.code else 0
    try:
        if args.command == "bounds":
            _, text = run_bounds(args.beta_c, args.beta_h, args.observable)
            print(text)
            return 0
        header, records = (read_records(args.records) if args.command == "analyze"
                           else ({}, None))
        base = load_config(args.config) if args.config else config_from_dict(header)
        config = _with_flags(base, args)
        if args.command == "exact":
            for path in run_exact(config, args.out).values():
                print(f"wrote {path}")
            return 0
        if args.command == "simulate":
            print(f"wrote {run_simulate(config, args.out)}")
            return 0
        verdict = analyze_records(records, config, args.out)
        print(f"wrote {args.out}/verdict.json")
        line = "LEAK DETECTED" if verdict.detected else "no leak detected"
        print(
            f"{line}: strength {verdict.strength:.2f} sigma "
            f"(significance {verdict.significance}) "
            f"channels {verdict.channel_strengths}"
        )
        return 2 if verdict.detected else 0
    except (HeatleakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
