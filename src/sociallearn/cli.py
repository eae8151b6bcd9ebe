"""Command-line surface.

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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import (
    ExperimentConfig,
    build_network,
    build_scenario,
    load_config,
    validate_config,
)
from .errors import ConfigValidationError, SocialLearnError
from .simulator import (
    _report_dict,
    emit_results,
    emit_sweep_results,
    run_experiment,
    run_sweep,
    write_json,
)


def _load(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    e = cfg.experiment
    if getattr(args, "seed", None) is not None:
        e = dataclasses.replace(e, seeds=(args.seed,))
    if getattr(args, "horizon", None) is not None:
        e = dataclasses.replace(e, horizon=args.horizon)
    if getattr(args, "stride", None) is not None:
        e = dataclasses.replace(e, stride=args.stride)
    cfg = dataclasses.replace(cfg, experiment=e)
    o = cfg.output
    if getattr(args, "out", None) is not None:
        o = dataclasses.replace(o, directory=args.out)
    if getattr(args, "format", None) is not None:
        o = dataclasses.replace(o, format=args.format)
    cfg = dataclasses.replace(cfg, output=o)
    violations = validate_config(cfg)  # an override such as --seed -1 is a value like any other
    if violations:
        raise ConfigValidationError(violations)
    return cfg


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_overrides(_load(args.config), args)
        build_network(cfg)  # refuses a network outside the theory, as every command does
    except SocialLearnError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(cfg.echo(), end="")
    print("ok")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    result = run_sweep(cfg, jobs=args.jobs)
    paths = emit_sweep_results(result, cfg.output.directory)
    for p in paths:
        print(p)
    print(f"empirical crossing: {result.empirical_crossing}")
    print(f"theory root:        {result.theory_root}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    scenario = build_scenario(cfg)
    doc = {
        "config": cfg.to_dict(),
        "deception_report": _report_dict(scenario.report()),
        "scenario": scenario.report_inputs,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    scenario = build_scenario(cfg)
    if scenario.plan is None:
        print("no attack configured (strategy none or no malicious agents)", file=sys.stderr)
        return 1
    entries = []
    for agent_idx, entry in zip(scenario.net.malicious_indices, scenario.plan.entries):
        entries.append(
            {
                "agent": agent_idx,
                "strategy": entry.strategy,
                "epsilon": entry.eps,
                "theta1": [float(v) for v in entry.forged.given_theta1.mass],
                "theta2": [float(v) for v in entry.forged.given_theta2.mass],
                "params": entry.params,
            }
        )
    doc = {"strategy": scenario.plan.strategy, "epsilon": scenario.plan.eps, "forged": entries}
    if args.out:
        print(write_json(doc, args.out, "attack.json"))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


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
        p.add_argument(
            "--format", choices=("tabular", "structured"), default=None,
            help="result file format",
        )
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
    if getattr(args, "jobs", 1) < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except SocialLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
