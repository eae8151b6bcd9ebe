"""The three workloads: one timed pass each, and the checks on what a pass wrote.

``run_pass`` runs in the worker process. It times only the calls into the
program (CLI commands with ``--jobs 1``, and oracle calls), then hashes every
file and captured output. ``check`` runs in the parent process on the files
of the first pass: later passes are held to the same content by their hashes,
which keeps the parsing of result files out of the worker's peak memory.

An operation is one CLI command or one oracle call. Each is recorded as
``{"op", "code", "error", "files", "stdout"}``; ``files`` maps an output name
to its sha256, and ``stdout`` holds the captured text on the first pass only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback

import numpy as np

ORACLE_TOL = 1e-6  # acceptance criterion 2


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    """One in-process CLI command: (exit code or None if it raised, stdout, error)."""
    from sociallearn import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit):
        return None, buf.getvalue(), traceback.format_exc()
    return code, buf.getvalue(), None


def _files(directory: str) -> dict[str, str]:
    if not os.path.isdir(directory):
        return {}
    return {name: _sha256(os.path.join(directory, name)) for name in sorted(os.listdir(directory))}


def _label(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# --- worker side -----------------------------------------------------------------

def run_pass(workload: str, manifest: dict, pass_dir: str, keep_stdout: bool) -> dict:
    """Run one pass; returns its wall time (program calls only) and its operations."""
    commands: list[tuple[str, list[str], str | None]] = []  # (op, argv, output dir)
    if workload == "sweep":
        for cfg in manifest["sweeps"]:
            out = os.path.join(pass_dir, _label(cfg))
            commands.append((f"sweep {_label(cfg)}",
                             ["sweep", "--config", cfg, "--out", out, "--jobs", "1"], out))
    elif workload == "trajectories":
        for spec in manifest["runs"]:
            cfg = spec["config"]
            out = os.path.join(pass_dir, _label(cfg))
            commands.append((f"run {_label(cfg)}",
                             ["run", "--config", cfg, "--out", out, "--format", "tabular",
                              "--jobs", "1", *spec["args"]], out))
    cases = []
    if workload == "design":
        cases = _oracle_cases(manifest)
        for cfg in manifest["configs"]:
            name = _label(cfg)
            out = os.path.join(pass_dir, name)
            commands.append((f"validate {name}", ["validate", "--config", cfg], None))
            commands.append((f"predict {name}", ["predict", "--config", cfg], None))
            commands.append((f"attack {name}", ["attack", "--config", cfg, "--out", out], out))

    t0 = time.perf_counter()
    raw = [(op, out, *_cli(argv)) for op, argv, out in commands]
    oracle = [_oracle_op(i, *case) for i, case in enumerate(cases)]
    wall = time.perf_counter() - t0

    ops = []
    for op, out, code, stdout, error in raw:
        files = _files(out) if out else {}
        files["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        ops.append({"op": op, "code": code, "error": error, "files": files,
                    "stdout": stdout if keep_stdout else None})
    return {"wall_s": wall, "ops": ops + oracle}


def _oracle_cases(manifest: dict) -> list[tuple]:
    from sociallearn.probability import LikelihoodModel, make_pmf

    with open(manifest["oracle_cases"], "r", encoding="utf-8") as fh:
        cases = json.load(fh)
    return [
        (LikelihoodModel(make_pmf(c["theta1"]), make_pmf(c["theta2"])), c["epsilon"])
        for c in cases
    ]


def _oracle_op(index: int, model, eps: float) -> dict:
    """Closed form against the brute-force oracle; a FloorViolationError is allowed."""
    from sociallearn import attacks
    from sociallearn.errors import FloorViolationError

    op = f"oracle case {index} (alphabet {model.alphabet_size}, eps {eps:g})"
    rec = {"op": op, "code": 0, "error": None, "files": {}, "stdout": None}
    try:
        try:
            forged = attacks.unknown_divergence_attack(model, eps)
            closed = attacks.unknown_divergence_objective(model, forged)
        except FloorViolationError:
            closed = None
        _, oracle_value = attacks.oracle_optimal_attack(model, eps)
    except Exception:
        rec.update(code=None, error=traceback.format_exc())
        return rec
    rec["floor_raise"] = closed is None
    rec["gap"] = None if closed is None else abs(closed - oracle_value)
    if closed is not None and not rec["gap"] <= ORACLE_TOL:
        rec["error"] = f"closed form {closed!r} vs oracle {oracle_value!r}: gap > {ORACLE_TOL}"
    return rec


# --- parent side -----------------------------------------------------------------

def check(workload: str, first_pass: dict, pass_dir: str) -> tuple[dict, dict, dict]:
    """Content checks on the first pass.

    Returns ({op: failure detail}, paper-side numbers, {op: expected exit code}
    for the operations that should not exit 0).
    """
    if workload == "sweep":
        return (*_check_sweep(first_pass, pass_dir), {})
    if workload == "trajectories":
        return (*_check_trajectories(first_pass, pass_dir), {})
    return _check_design(first_pass, pass_dir)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_sweep(first: dict, pass_dir: str) -> tuple[dict, dict]:
    failures: dict[str, str] = {}
    paper: dict = {}
    for op in first["ops"]:
        name = op["op"].split(" ", 1)[1]
        path = os.path.join(pass_dir, name, "sweep.json")
        if not os.path.isfile(path):
            failures[op["op"]] = "no sweep.json written"
            continue
        doc = _load_json(path)
        points = doc["points"]
        axis = [p["adversary_centrality"] if doc["parameter"] == "adversary_centrality"
                else p["value"] for p in points]
        signs = [p["mean_final_true_belief"] - 0.5 for p in points]
        crossings = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0) and a != 0.0)
        crossing, root = doc["empirical_crossing"], doc["theory_root"]
        entry = {"crossings": crossings, "empirical_crossing": crossing, "theory_root": root}
        paper[name] = entry
        if crossings != 1 or crossing is None or root is None:
            failures[op["op"]] = f"{crossings} crossings, crossing {crossing}, root {root}"
            continue
        spacing = next((x1 - x0 for x0, x1 in zip(axis, axis[1:]) if x0 <= crossing <= x1), 0.0)
        entry.update(gap=crossing - root, grid_spacing=spacing)
        if not abs(crossing - root) <= spacing + 1e-9:
            failures[op["op"]] = f"|crossing - root| = {abs(crossing - root)} > spacing {spacing}"
    return failures, paper


def _logistic(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def _last_records(csv_path: str) -> dict[int, tuple[int, list[float]]]:
    """Per seed: (last recorded step, log ratio of every agent at that step)."""
    last: dict[int, tuple[int, list[float]]] = {}
    with open(csv_path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            step, _, _, _, lam, seed = line.rstrip("\n").split(",")
            step_i, seed_i = int(step), int(seed)
            cur = last.get(seed_i)
            if cur is None or step_i > cur[0]:
                last[seed_i] = (step_i, [float(lam)])
            elif step_i == cur[0]:
                cur[1].append(float(lam))
    return last


def _check_trajectories(first: dict, pass_dir: str) -> tuple[dict, dict]:
    failures: dict[str, str] = {}
    paper: dict = {}
    for op in first["ops"]:
        name = op["op"].split(" ", 1)[1]
        summary_path = os.path.join(pass_dir, name, "summary.json")
        csv_path = os.path.join(pass_dir, name, "trajectories.csv")
        if not (os.path.isfile(summary_path) and os.path.isfile(csv_path)):
            failures[op["op"]] = "summary.json or trajectories.csv missing"
            continue
        doc = _load_json(summary_path)
        theta = doc["config"]["experiment"]["theta_true"]
        horizon = doc["config"]["experiment"]["horizon"]
        margin = doc["deception_report"]["margin1" if theta == "theta1" else "margin2"]
        sign = 1.0 if theta == "theta1" else -1.0
        last = _last_records(csv_path)
        problems, rel_errors = [], {}
        for row in doc["per_seed"]:
            seed = row["seed"]
            if not row["agrees"]:
                problems.append(f"seed {seed} disagrees with the verdict")
            step, lam = last.get(seed, (None, []))
            lam = np.asarray(lam)
            belief = float(_logistic(sign * lam).mean())
            if step != horizon or not math.isclose(belief, row["final_true_belief"], rel_tol=1e-12):
                problems.append(f"seed {seed}: last record (step {step}) is not the final state")
                continue
            # empirical growth rate of ln(mu_wrong / mu_true), agent average
            rate = float(np.mean(-sign * lam)) / horizon
            rel_errors[str(seed)] = abs(rate - margin) / abs(margin)
        paper[name] = {"margin_true": margin, "rate_rel_error_per_seed": rel_errors}
        if problems:
            failures[op["op"]] = "; ".join(problems)
    return failures, paper


def _check_design(first: dict, pass_dir: str) -> tuple[dict, dict, dict]:
    failures: dict[str, str] = {}
    expected: dict[str, int] = {}
    misled_checked = 0
    for op in first["ops"]:
        kind, _, name = op["op"].partition(" ")
        if kind == "validate" and op["code"] == 0 and not op["stdout"].endswith("ok\n"):
            failures[op["op"]] = "validate did not end with 'ok'"
        if kind != "predict" or op["code"] != 0:
            continue
        try:
            doc = json.loads(op["stdout"])
        except json.JSONDecodeError:
            failures[op["op"]] = "predict did not print JSON"
            continue
        cfg = doc["config"]
        if cfg["attack"]["strategy"] == "none" or cfg["agents"]["n_malicious"] == 0:
            expected[f"attack {name}"] = 1  # the CLI refuses: no attack configured
            continue
        attack_path = os.path.join(pass_dir, name, "attack.json")
        forged = _load_json(attack_path)["forged"] if os.path.isfile(attack_path) else []
        if any(e["strategy"] == "known_divergences" and e["params"].get("floor_satisfied")
               for e in forged):
            misled_checked += 1
            report = doc["deception_report"]
            if report["verdict1"] != "misled" or report["verdict2"] != "misled":
                failures[op["op"]] = (
                    f"floor-satisfied known-divergence forgery, but verdicts "
                    f"{report['verdict1']}/{report['verdict2']}")
    gaps = [op["gap"] for op in first["ops"] if op.get("gap") is not None]
    paper = {
        "known_divergence_misled_checks": misled_checked,
        "oracle_compared": len(gaps),
        "oracle_worst_gap": max(gaps) if gaps else None,
        "oracle_floor_raises": sum(1 for op in first["ops"] if op.get("floor_raise")),
    }
    return failures, paper, expected
