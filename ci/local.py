"""Run the shell steps of the CI workflow on this machine, in order.

From the repository root (or anywhere):

    python ci/local.py

It loads ``.github/workflows/tests.yml`` with PyYAML and runs each step's
``run:`` block under ``bash -e`` from the repository root, with
``RUNNER_TEMP`` set to a fresh temporary directory and ``GITHUB_WORKSPACE``
to the root. Steps without a ``run:`` block (the ``uses:`` actions) and the
steps named in ``SKIPPED``, which need the network, do not run; the step that
installs the package does run, into a venv under ``RUNNER_TEMP``. Every job
runs under the interpreter that runs this script, whatever its matrix names.

It prints one line per step and a summary, and exits 1 when any step failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
#: steps that install packages from the network
SKIPPED = ("Install dependencies",)


def main() -> int:
    with open(WORKFLOW, encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    results: list[tuple[str, str]] = []
    with tempfile.TemporaryDirectory(prefix="ci-local-") as runner_temp:
        env = {**os.environ, "RUNNER_TEMP": runner_temp, "GITHUB_WORKSPACE": ROOT}
        for job_name, job in workflow["jobs"].items():
            for step in job["steps"]:
                name = f"{job_name}: {step.get('name', step.get('uses'))}"
                if "run" not in step or step.get("name") in SKIPPED:
                    results.append((name, "skipped"))
                    print(f"-- skip {name}", flush=True)
                    continue
                print(f"== run {name}", flush=True)
                start = time.perf_counter()
                status = subprocess.run(
                    ["bash", "-e", "-c", step["run"]], cwd=ROOT, env=env
                ).returncode
                outcome = "passed" if status == 0 else f"FAILED (exit {status})"
                results.append((name, f"{outcome} in {time.perf_counter() - start:.1f} s"))
                print(f"== {outcome}: {name}", flush=True)
    print("\nsummary:")
    for name, outcome in results:
        print(f"  {outcome:<24} {name}")
    return 1 if any(outcome.startswith("FAILED") for _, outcome in results) else 0


if __name__ == "__main__":
    sys.exit(main())
