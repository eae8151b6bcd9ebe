"""In-memory span tracing of sociallearn's public functions, from outside the package.

``install`` replaces each traced function with a timing wrapper at every
module attribute that holds it (``config.perron_vector`` and
``analysis.perron_vector`` as well as ``network.perron_vector``), so calls
made through any import binding are seen. ``uninstall`` puts the originals
back, which lets one process alternate traced and untraced passes.

A span holds name, start, end, parent id and whether the call raised. Spans
stay in memory; ``Tracer.summary`` aggregates them per function into calls,
total time, self time (duration minus the time child spans cover) and
failures, and adds the derived per-layer counts the benchmark reports.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

#: traced public functions per module, in report order
LAYERS: dict[str, tuple[str, ...]] = {
    "config": ("load_config", "build_scenario", "build_plan"),
    "network": ("perron_vector", "erdos_renyi_adjacency", "validate_network"),
    "attacks": ("unknown_divergence_attack", "multi_adversary_known", "oracle_optimal_attack"),
    "analysis": ("deception_verdict", "critical_parameter"),
    "learning": ("run", "run_finals"),
    "simulator": ("run_experiment", "run_sweep", "emit_results", "emit_sweep_results"),
    "cli": ("main",),
}

FUNCTION_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("failed", "count"))

#: derived per-layer metrics and their units, in report order
DERIVED_UNITS: dict[str, str] = {
    "network.perron_calls_per_scenario": "calls/scenario",
    "analysis.critical_parameter.evals": "count",
    "analysis.critical_parameter.evals_per_root": "evals/root",
    "learning.agent_steps": "count",
    "learning.flops_computed": "flop",
    "learning.bytes_computed": "B",
    "learning.gflops_computed": "GFLOP/s",
    "simulator.emit_rows": "count",
    "simulator.emit_bytes": "B",
    "simulator.emit_mb_per_s": "MB/s",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name a traced pass yields, with its unit."""
    units = {
        f"{module}.{fn}.{field}": unit
        for module, fns in LAYERS.items()
        for fn in fns
        for field, unit in FUNCTION_FIELDS
    }
    units.update(DERIVED_UNITS)
    return units


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    failed: bool = False


class Tracer:
    """Collects spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(
            ("learning.agent_steps", "learning.flops_computed", "learning.bytes_computed",
             "analysis.critical_parameter.evals", "simulator.emit_rows", "simulator.emit_bytes"),
            0,
        )

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        counts_evals = name == "analysis.critical_parameter"
        sig = inspect.signature(fn) if after or counts_evals else None
        layer = name.split(".")[0] + "."

        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                if counts_evals:
                    ba.arguments["margin_fn"] = self._counting(ba.arguments["margin_fn"])
                    args, kwargs = ba.args, ba.kwargs
                bound = ba.arguments
            outer = after is not None and not self._inside(layer)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if outer:
                after(self.counts, bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, margin_fn):
        def counted(x):
            self.counts["analysis.critical_parameter.evals"] += 1
            return margin_fn(x)

        return counted

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        agg = {
            f"{module}.{fn}": {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
            for module, fns in LAYERS.items()
            for fn in fns
        }
        for s in self.spans:
            a = agg[s.name]
            a["calls"] += 1
            a["total_s"] += s.end - s.start
            a["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
            a["failed"] += int(s.failed)
        out: dict[str, float] = {}
        for name, a in agg.items():
            for field, _ in FUNCTION_FIELDS:
                out[f"{name}.{field}"] = a[field]
        out.update(self.counts)
        scenarios = agg["config.build_scenario"]["calls"]
        roots = agg["analysis.critical_parameter"]["calls"]
        learn_self = agg["learning.run"]["self_s"] + agg["learning.run_finals"]["self_s"]
        emit_self = agg["simulator.emit_results"]["self_s"] + agg["simulator.emit_sweep_results"]["self_s"]
        out["network.perron_calls_per_scenario"] = _ratio(agg["network.perron_vector"]["calls"], scenarios)
        out["analysis.critical_parameter.evals_per_root"] = _ratio(out["analysis.critical_parameter.evals"], roots)
        out["learning.gflops_computed"] = _ratio(out["learning.flops_computed"], learn_self) / 1e9
        out["simulator.emit_mb_per_s"] = _ratio(out["simulator.emit_bytes"], emit_self) / 1e6
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num: float, base: float) -> float:
    """num / base, or 0 when the base is 0 (the layer did no such work)."""
    return num / base if base else 0.0


# --- derived counts ----------------------------------------------------------------

def _recursion_counts(counts, n: int, steps: int) -> None:
    # one step of lam <- A^T (lam + llr): n adds, then an n x n matvec
    # (2 n^2 flops) reading A (n^2 doubles) and three n-vectors, writing one
    counts["learning.agent_steps"] += n * steps
    counts["learning.flops_computed"] += (2 * n * n + n) * steps
    counts["learning.bytes_computed"] += 8 * (n * n + 4 * n) * steps


def _learning_run(counts, args, result) -> None:
    _recursion_counts(counts, args["net"].n_agents, int(args["horizon"]))


def _learning_run_finals(counts, args, result) -> None:
    _recursion_counts(counts, args["net"].n_agents, int(args["horizon"]) * len(args["seeds"]))


def _emitted(counts, args, paths) -> None:
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        counts["simulator.emit_bytes"] += len(data)
        if path.endswith(".csv"):
            counts["simulator.emit_rows"] += data.count(b"\n") - 1  # minus header


#: counts taken after the outermost span of a layer returns (nested calls, such
#: as ``run`` inside ``run_finals``, would count the same work twice)
_AFTER = {
    "learning.run": _learning_run,
    "learning.run_finals": _learning_run_finals,
    "simulator.emit_results": _emitted,
    "simulator.emit_sweep_results": _emitted,
}


def install(tracer: Tracer):
    """Wrap every traced function at all its sociallearn bindings; returns an undo."""
    import sociallearn

    modules = [m for n, m in list(sys.modules.items()) if n == "sociallearn" or n.startswith("sociallearn.")]
    undo: list[tuple[object, str, object]] = []
    for module_name, fns in LAYERS.items():
        home = getattr(sociallearn, module_name)
        for fn_name in fns:
            orig = getattr(home, fn_name)
            traced = tracer.wrap(f"{module_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, orig))

    def uninstall() -> None:
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)

    return uninstall
