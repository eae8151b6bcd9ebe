"""Command-line surface: it parses, applies the overrides, dispatches and prints.

Subcommands map one-to-one onto the package's artifacts:

  validate  check a config and its network, print all violations (exit 1 when invalid)
  run       Monte Carlo experiment -> trajectory + summary files
  sweep     parameter sweep -> phase curve + crossing/theory-root overlay
  predict   closed-form deception report only, no simulation
  attack    emit the configured forged likelihoods with full provenance

Every command takes ``--config PATH``; ``--seed/--horizon/--stride``
override the config in place, ``--out`` picks the output directory,
``--format`` selects tabular or structured files. ``--jobs N`` (N >= 1)
splits the stack a command simulates, the grid points of a sweep or the seeds
of a run, into at most N chunks, one worker process and one kernel call
each; the result files do not depend on N.

``validate`` checks the parse, the types and ranges, and the network, but
not the attack plan or the report: it prints ``ok`` for some configs that
``predict`` and ``attack`` refuse, e.g. ``nonseparable_askd`` with
``attack.epsilon: 0.2`` (``EpsilonTooLargeError``).

The simulator (and with it numpy) is imported by the handlers that use it, so
``--help``, a usage error or a refused config exits without loading either.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import (
    _FORMATS,
    ExperimentConfig,
    build_network,
    build_scenario,
    load_config,
    validate_config,
)
from .errors import ConfigParseError, ConfigValidationError, OutOfRangeError, SocialLearnError


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config at ``--config`` with the given overrides, validated again."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigParseError(f"cannot read config {args.config}: {reason}") from exc
    cfg = load_config(text)
    seeds = None if args.seed is None else (args.seed,)
    cfg = dataclasses.replace(
        cfg,
        experiment=_with(cfg.experiment, seeds=seeds, horizon=args.horizon, stride=args.stride),
        output=_with(cfg.output, directory=args.out, format=args.format),
    )
    violations = validate_config(cfg)  # an override such as --seed -1 is a value like any other
    if violations:
        raise ConfigValidationError(violations)
    return cfg


def _with(section, **values):
    """``section`` with the values that were given (not None) replaced."""
    return dataclasses.replace(section, **{k: v for k, v in values.items() if v is not None})


def cmd_validate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    build_network(cfg)  # refuses a network outside the theory, as every command does
    print(cfg.echo(), end="")
    print("ok")
    return 0


def cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .simulator import emit_results, run_experiment

    result = run_experiment(cfg, jobs=args.jobs)
    paths = emit_results(result, cfg.output.directory)
    for p in paths:
        print(p)
    theta = result.scenario.theta_true
    print(f"verdict[{theta.name.lower()}]: {result.report.verdict(theta).value}")
    for row in result.prediction_table():
        print(
            f"seed {row['seed']}: final true-state belief "
            f"{row['final_true_belief']:.6f} ({'agrees' if row['agrees'] else 'DISAGREES'})"
        )
    return 0


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .simulator import emit_sweep_results, run_sweep

    result = run_sweep(cfg, jobs=args.jobs)
    paths = emit_sweep_results(result, cfg.output.directory)
    for p in paths:
        print(p)
    print(f"empirical crossing: {result.empirical_crossing}")
    print(f"theory root:        {result.theory_root}")
    return 0


def cmd_predict(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .simulator import predict_document, render_json

    scenario = build_scenario(cfg)
    print(render_json(predict_document(cfg, scenario, scenario.report())), end="")
    return 0


def cmd_attack(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .simulator import attack_document, render_json, write_json

    scenario = build_scenario(cfg)
    if scenario.plan is None:
        print("no attack configured (strategy none or no malicious agents)", file=sys.stderr)
        return 1
    doc = attack_document(cfg, scenario)
    if args.out:
        print(write_json(doc, args.out, "attack.json"))
    else:
        print(render_json(doc), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sociallearn",
        description="Social learning under likelihood-poisoning attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_jobs in (
        ("validate", cmd_validate, False),
        ("run", cmd_run, True),
        ("sweep", cmd_sweep, True),
        ("predict", cmd_predict, False),
        ("attack", cmd_attack, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override: single seed")
        p.add_argument("--horizon", type=int, default=None, help="override horizon")
        p.add_argument("--stride", type=int, default=None, help="override record stride")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=_FORMATS, default=None, help="result file format")
        if needs_jobs:
            p.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes, each simulating one chunk of the grid points "
                "(sweep) or seeds (run); >= 1, same result files for any value",
            )
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise OutOfRangeError(f"--jobs must be >= 1, got {args.jobs}")
        return args.fn(_config(args), args)
    except (SocialLearnError, MemoryError) as exc:  # numpy's says what it could not allocate
        # validate reports a refusal as its result, so it prints it bare
        prefix = "" if args.command == "validate" else "error: "
        print(f"{prefix}{str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
