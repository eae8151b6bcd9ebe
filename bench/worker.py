"""Worker process: runs one workload's passes for a fixed time, then reports them as JSON.

``run.py`` starts one fresh interpreter per run with ``PYTHONPATH`` at the
checkout's ``src`` and BLAS pinned to one thread. The first pass is a warm-up
whose outputs are kept, as ``first/``, for the parent's content checks; later
passes are timed and their outputs removed once hashed. With ``--trace 1``
each round runs an untraced and a traced pass, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import time

import numpy as np

import tracing
import workloads


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)

    # Result files echo the output path, so every pass writes under the same
    # relative one; that also keeps their hashes comparable across checkouts.
    os.chdir(args.work)
    out_dir = "out"

    def one_pass(keep: bool, tracer: tracing.Tracer | None) -> dict:
        undo = tracing.install(tracer) if tracer else None
        try:
            result = workloads.run_pass(args.workload, manifest, out_dir, keep_stdout=keep)
        finally:
            if undo:
                undo()
        if tracer:
            result["layers"] = tracer.summary()
        if keep:
            os.replace(out_dir, "first")
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        result["traced"] = tracer is not None
        return result

    passes = [one_pass(True, None)]
    last_tracer = None
    start, rounds = time.perf_counter(), 0
    while True:
        if not args.trace:
            passes.append(one_pass(False, None))
        else:
            # a traced and an untraced pass per round, in alternating order, so
            # that a drift in machine speed does not bias their difference
            last_tracer = tracing.Tracer()
            for tracer in (None, last_tracer) if rounds % 2 == 0 else (last_tracer, None):
                passes.append(one_pass(False, tracer))
        rounds += 1
        # stop before a round that would end past --seconds
        if (time.perf_counter() - start) * (rounds + 1) / rounds > args.seconds:
            break

    if last_tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in last_tracer.spans], fh)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "passes": passes,
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": blas_threads(),
            },
            fh,
        )


if __name__ == "__main__":
    main()
