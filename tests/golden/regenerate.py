"""Golden outputs of every bundled config: regenerate ``manifest.json`` beside this file.

For each config in ``configs/`` the manifest holds the sha256 of the result
files of ``run --format tabular`` as configured, of ``sweep`` for the sweep
configs, and of ``predict`` and ``attack`` stdout, plus the headline numbers
at full precision: the margins and verdicts, each seed's final true-state
belief and ``agrees``, and for a sweep each point's margin and finals, the
empirical crossing and the theory root. Every command writes under the same
relative ``--out`` (``out``), since ``summary.json`` and ``sweep.json`` echo
it. The digests hold only for the numpy and BLAS named in ``stamp``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites the manifest it compares the new record with the old
one and prints to stderr one line per digest that moved and per headline key
that changed, so the drift a change states is the drift it made.

``tests/test_golden.py`` collects the same record and compares it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "..", "configs")
MANIFEST = os.path.join(HERE, "manifest.json")


def blas_stamp() -> dict:
    """numpy's version and the loaded OpenBLAS's config and core name (None when unknown)."""
    import numpy as np

    stamp = {"numpy": np.__version__, "openblas_config": None, "openblas_core": None}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return stamp
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for key, names in (
            ("openblas_config", ("scipy_openblas_get_config64_", "openblas_get_config64_",
                                 "openblas_get_config")),
            ("openblas_core", ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                               "openblas_get_corename")),
        ):
            fn = next((getattr(handle, n) for n in names if hasattr(handle, n)), None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                stamp[key] = fn().decode()
    return stamp


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call (stderr is dropped)."""
    from sociallearn.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _config_record(path: str) -> dict:
    """The digests and headline numbers of one config, written under ``out`` in the cwd."""
    digests, headline = {}, {}
    code, _ = _cli(["run", "--config", path, "--format", "tabular", "--out", "out"])
    assert code == 0, f"run exited {code} on {path}"
    for name in ("trajectories.csv", "summary.json"):
        digests[f"run/{name}"] = _sha256(os.path.join("out", name))
    with open(os.path.join("out", "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    report = summary["deception_report"]
    headline.update({key: report[key] for key in ("margin1", "margin2", "verdict1", "verdict2")})
    headline["per_seed"] = [
        {key: row[key] for key in ("seed", "final_true_belief", "agrees")}
        for row in summary["per_seed"]
    ]
    for command in ("predict", "attack"):
        code, stdout = _cli([command, "--config", path])
        digests[command] = hashlib.sha256(stdout.encode()).hexdigest()
        headline[f"{command}_exit"] = code
    if os.path.basename(path).startswith("sweep_"):
        code, _ = _cli(["sweep", "--config", path, "--out", "out"])
        assert code == 0, f"sweep exited {code} on {path}"
        for name in ("sweep.csv", "sweep.json"):
            digests[f"sweep/{name}"] = _sha256(os.path.join("out", name))
        with open(os.path.join("out", "sweep.json"), "r", encoding="utf-8") as fh:
            sweep = json.load(fh)
        headline["sweep"] = {
            "empirical_crossing": sweep["empirical_crossing"],
            "theory_root": sweep["theory_root"],
            "points": [
                {key: p[key] for key in ("value", "margin_true", "per_seed_final")}
                for p in sweep["points"]
            ],
        }
    return {"digests": digests, "headline": headline}


def collect() -> dict:
    """The manifest of this checkout: stamp and one record per bundled config."""
    names = sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".yaml"))
    paths = {n[: -len(".yaml")]: os.path.abspath(os.path.join(CONFIG_DIR, n)) for n in names}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            configs = {name: _config_record(path) for name, path in paths.items()}
        finally:
            os.chdir(cwd)
    return {"stamp": blas_stamp(), "configs": configs}


def changes(old: dict, new: dict) -> list[str]:
    """One line per digest that moved and per headline key that changed, ``old`` to ``new``."""
    lines = []
    for name in sorted(old["configs"].keys() | new["configs"].keys()):
        before, after = old["configs"].get(name, {}), new["configs"].get(name, {})
        for part, verb in (("digests", "moved"), ("headline", "changed")):
            b, a = before.get(part, {}), after.get(part, {})
            keys = sorted(b.keys() | a.keys())
            lines.extend(f"{name} {key}: {verb}" for key in keys if b.get(key) != a.get(key))
    return lines


def main() -> None:
    manifest = collect()
    if os.path.exists(MANIFEST):
        with open(MANIFEST, "r", encoding="utf-8") as fh:
            moved = changes(json.load(fh), manifest)
        for line in moved or ["no digest moved and no headline key changed"]:
            print(line, file=sys.stderr)
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(MANIFEST, file=sys.stderr)


if __name__ == "__main__":
    main()
