"""sociallearn benchmark: one workload, timed end to end or traced per module.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep|trajectories|design --seed N --seconds S --trace 0|1

The seed generates the workload's inputs as YAML configs under
``.bench_work/``. A fresh worker process runs passes of the workload for S
seconds; the parent checks the outputs and prints every metric by name with
its unit, the paper-side numbers and an environment stamp, and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer ones. The
full result and, when traced, the spans of the last traced pass are written
under ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import inputs
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "trajectories", "design")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 175.0  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # single-threaded BLAS, like the single-process --jobs 1 runs it serves
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def measure_setup(configs: list[str], env: dict[str, str]) -> list[float]:
    """Wall time of fresh interpreters that import sociallearn and load the configs."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *configs]
    times = []
    for i in range(SETUP_PROBES + 1):  # the first fills the bytecode cache, untimed
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env)
        # a blocking wait; Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        if i:
            times.append(elapsed)
    return times


def git_commit() -> str:
    """HEAD commit read from .git, or a note when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def evaluate(workload: str, worker: dict, first_dir: str) -> dict:
    """Count attempted and failed operations over every pass."""
    passes = worker["passes"]
    failures, paper, expected = workloads.check(workload, passes[0], first_dir)
    reference = {op["op"]: op["files"] for op in passes[0]["ops"]}
    attempted, details = 0, []
    for index, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            name = op["op"]
            if op["code"] is None:
                why = "raised " + op["error"].strip().splitlines()[-1]
            elif op["code"] != expected.get(name, 0):
                why = f"exit code {op['code']}, expected {expected.get(name, 0)}"
            elif op["error"]:
                why = op["error"]
            elif name in failures:
                why = failures[name]
            elif op["files"] != reference[name]:
                why = "output bytes differ from the first pass"
            else:
                continue
            details.append(f"pass {index}, {name}: {why}")
    return {
        "attempted": attempted,
        "failed": len(details),
        "failures": details,
        "paper": paper,
        "sha256": reference,
    }


def quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def metrics_of(trace: int, worker: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metric values, timing distributions) for the requested mode."""
    untraced = [p["wall_s"] for p in worker["passes"][1:] if not p["traced"]]
    dists = {"wall_s": quartiles(untraced)}
    if not trace:
        dists["setup_s"] = quartiles(setup)
        values = {
            "setup_s": dists["setup_s"]["median"],
            "wall_s": dists["wall_s"]["median"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        return values, dists
    timed = worker["passes"][1:]
    traced = [p for p in timed if p["traced"]]
    dists["trace.traced_wall_s"] = quartiles([p["wall_s"] for p in traced])
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in tracing.per_layer_units()}
    # each round is one untraced and one traced pass, run back to back
    rounds = [timed[i:i + 2] for i in range(0, len(timed), 2)]
    over = statistics.median(
        sum(p["wall_s"] if p["traced"] else -p["wall_s"] for p in pair) for pair in rounds
    )
    base = dists["wall_s"]["median"]
    values.update({
        "trace.untraced_wall_s": base,
        "trace.traced_wall_s": dists["trace.traced_wall_s"]["median"],
        "trace.overhead_s": over,
        "trace.overhead_pct": 100.0 * over / base,
    })
    return values, dists


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "sociallearn", "__init__.py")) or not (
        os.path.isdir(os.path.join(ROOT, "configs"))
    ):
        print(f"error: {ROOT} holds no sociallearn source tree (src/sociallearn, configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env()
    try:
        manifest = inputs.generate(args.workload, args.seed, ROOT, os.path.join(work, "inputs"))
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        configs = (manifest.get("sweeps") or manifest.get("configs")
                   or [r["config"] for r in manifest["runs"]])
        setup = [] if args.trace else measure_setup(configs, env)

        result_path = os.path.join(work, "worker.json")
        spans_path = os.path.join(out_dir, f"{tag}-spans.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--manifest", manifest_path, "--work", work, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", result_path, "--spans", spans_path],
            env=env, check=True, timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
        )
        with open(result_path, "r", encoding="utf-8") as fh:
            worker = json.load(fh)
        verdict = evaluate(args.workload, worker, os.path.join(work, "first"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, dists = metrics_of(args.trace, worker, setup)
    units = dict(END_TO_END_UNITS) if not args.trace else {**tracing.per_layer_units(), **TRACE_UNITS}
    env_stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_threads": worker["blas_threads"],
        "git_commit": git_commit(),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    full = {"env": env_stamp, "metrics": metrics,
            "timings": dists, "setup_probes_s": setup,
            "pass_wall_s": [[p["wall_s"], p["traced"]] for p in worker["passes"]], **verdict}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print("env: " + " ".join(f"{k}={v}" for k, v in env_stamp.items()))
    print(f"passes: {len(worker['passes'])} (1 warm-up, untimed), "
          f"{len(worker['passes'][0]['ops'])} operations each")
    for name, d in dists.items():
        print(f"  {name}: median {d['median']:.6f} s over {d['n']} samples "
              f"(min {d['min']:.6f}, max {d['max']:.6f})")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print("paper: " + json.dumps(verdict["paper"], sort_keys=True))
    for op, files in verdict["sha256"].items():
        for fname, digest in files.items():
            if fname != "stdout" or op.startswith("predict "):
                print(f"sha256 {op} {fname} {digest}")
    print(f"operations: {verdict['attempted']} attempted, {verdict['failed']} failed")
    for line in verdict["failures"][:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
