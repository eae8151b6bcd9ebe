"""Experiment orchestration: Monte Carlo runs, sweeps, and result files.

Outputs are fully determined by (config, seeds): no timestamps, stable key
order, and floats rendered with shortest-round-trip precision, so repeated
runs produce byte-identical files. The config includes the output directory:
``summary.json``, ``sweep.json`` and the ``predict`` document echo
``output.directory``, so two ``--out`` values give files that differ in it.

Tabular trajectory format (CSV): one header row, then one row per
(recorded step, agent, seed) with columns

    step, agent_id, role, belief_theta1, log_ratio, seed

It is written a chunk of whole recorded steps at a time, each chunk at most
``_CSV_ROWS`` rows (one step when a step alone is more): the beliefs of just
that chunk are computed, each float column is rendered by one Ryu pass
(``orjson``) with ``repr`` only for the values orjson lays out differently
(see ``_render_floats``), and the chunk goes out in one write. The chunk's
text is assembled column by column (``_csv_chunk``): one list of six pieces
per row, each kind of piece set by one slice assignment, then one
``"".join``, so no Python code runs per row. Nothing is kept from one chunk or
seed to the next, so memory stays bounded whatever the horizon and the seed
count.

The four JSON documents are built here and rendered by ``render_json``: the
``predict`` output (``predict_document``), ``summary.json`` (that document plus
per-seed summaries), ``sweep.json`` and ``attack.json`` (``attack_document``).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from . import learning
from .analysis import DeceptionReport, critical_parameter, predicted_and_empirical_agree
from .config import (
    ExperimentConfig,
    ExperimentSpec,
    Scenario,
    apply_sweep_value,
    build_scenario,
    build_topology,
    sweep_scenarios,
)
from .errors import NoSignChangeError, OutputIOError
from .probability import Hypothesis

__all__ = [
    "ExperimentResult",
    "SweepPoint",
    "SweepResult",
    "run_experiment",
    "run_sweep",
    "emit_results",
    "emit_sweep_results",
    "predict_document",
    "attack_document",
    "render_json",
    "write_json",
]

#: Most rows of ``trajectories.csv`` formatted and written at once.
_CSV_ROWS = 1024


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    scenario: Scenario
    report: DeceptionReport
    trajectories: tuple[learning.Trajectory, ...]

    def final_true_beliefs(self) -> list[float]:
        return [t.final_network_average_true_belief() for t in self.trajectories]

    def prediction_table(self) -> list[dict]:
        """Side-by-side of the closed-form verdict and each seed's outcome."""
        theta = self.scenario.theta_true
        return [
            {
                "seed": t.seed,
                "final_true_belief": final,
                "predicted_verdict": self.report.verdict(theta).value,
                "agrees": predicted_and_empirical_agree(self.report, theta, final),
            }
            for t, final in zip(self.trajectories, self.final_true_beliefs())
        ]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every configured seed and attach the closed-form report.

    All seeds are one stack, stepped by one kernel call (one per chunk of
    seeds with ``jobs > 1``).
    """
    scenario = build_scenario(cfg)
    report = scenario.report()
    e = cfg.experiment
    one_chunk = partial(
        learning._trajectories, scenario.net, scenario.agents, scenario.theta_true, e.horizon,
        stride=e.stride, init=e.initial_belief_theta1,
    )
    runs = _in_chunks(one_chunk, e.seeds, jobs)
    return ExperimentResult(
        config=cfg, scenario=scenario, report=report, trajectories=tuple(chain(*runs))
    )


def _grid_finals(e: ExperimentSpec, scenarios: Sequence[Scenario]) -> np.ndarray:
    """One kernel call for a chunk of the grid, every seed: ``(G, S, n)`` finals."""
    _, _, finals = learning._simulate(
        [s.net for s in scenarios], [s.agents for s in scenarios], scenarios[0].theta_true,
        e.horizon, e.seeds, 0, e.initial_belief_theta1, None,
    )
    return finals


def _in_chunks(fn, items: Sequence, jobs: int) -> list:
    """``fn`` over at most ``jobs`` contiguous chunks of ``items``, in order.

    One chunk runs in this process; more run in a pool of worker processes,
    one chunk each. A chunk of grid points gives each point the same dgemm
    over the same seeds as the whole grid does. A chunk of seeds gives each
    seed a column of a narrower dgemm (a lone seed beside a zero column), the
    same bits given a BLAS that computes each output column on its own (see
    ``learning``). So the results do not depend on ``jobs``.
    """
    k = min(jobs, len(items))
    if k <= 1:
        return [fn(items)]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

    chunks = [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, chunks))


# --- sweeps -----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    value: float
    adversary_centrality: float
    margin_true: float
    per_seed_final: tuple[float, ...]

    @property
    def mean_final(self) -> float:
        return float(np.mean(self.per_seed_final))


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    parameter: str
    points: tuple[SweepPoint, ...]
    empirical_crossing: float | None
    theory_root: float | None

    def crossing_count(self) -> int:
        signs = [p.mean_final - 0.5 for p in self.points]
        return sum(
            1
            for a, b in zip(signs, signs[1:])
            if (a > 0) != (b > 0) and a != 0.0
        )


def _sweep_point(value: float, scenario: Scenario, finals: np.ndarray) -> SweepPoint:
    """A grid point from its scenario and its ``(S, n)`` final log ratios."""
    # the (n, S) layout ``run_finals`` returns, so the agent means sum in its order
    lam = np.ascontiguousarray(finals.T)
    beliefs = learning.network_average_true_belief(lam, scenario.theta_true)
    return SweepPoint(
        value=float(value),
        adversary_centrality=scenario.adversary_centrality,
        margin_true=scenario.report().margin(scenario.theta_true),
        per_seed_final=tuple(float(x) for x in beliefs),
    )


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Evaluate every grid point (all seeds each) plus the theory root.

    The grid points x seeds are one stack, stepped by one kernel call (one per
    chunk with ``jobs > 1``); each point's finals equal its own ``run_finals``.

    The empirical crossing is the linear interpolation of the mean final
    true-state belief through 0.5 at the first adjacent grid pair where it
    changes side; the theory root bisects the closed-form margin over
    the grid span. For ``adversary_centrality`` sweeps both the crossing
    and the root are expressed in aggregate-centrality units.
    """
    if cfg.sweep is None:
        raise NoSignChangeError("config has no sweep section")
    values = cfg.sweep.values
    scenario_at = sweep_scenarios(cfg)
    scenarios = [scenario_at(v) for v in values]
    finals = np.concatenate(_in_chunks(partial(_grid_finals, cfg.experiment), scenarios, jobs))
    points = tuple(map(_sweep_point, values, scenarios, finals))

    axis = [
        p.adversary_centrality if cfg.sweep.parameter == "adversary_centrality" else p.value
        for p in points
    ]
    crossing = _interp_crossing(axis, [p.mean_final for p in points])
    root = _theory_root(cfg, scenario_at)
    return SweepResult(
        config=cfg,
        parameter=cfg.sweep.parameter,
        points=points,
        empirical_crossing=crossing,
        theory_root=root,
    )


def _interp_crossing(xs: Sequence[float], means: Sequence[float]) -> float | None:
    for x0, x1, m0, m1 in zip(xs, xs[1:], means, means[1:]):
        lo, hi = m0 - 0.5, m1 - 0.5
        if lo == 0.0:
            return float(x0)
        if (lo > 0) != (hi > 0):
            return float(x0 + (x1 - x0) * (-lo) / (hi - lo))
    return None


def _theory_root(
    cfg: ExperimentConfig, scenario_at: Callable[[float], Scenario]
) -> float | None:
    """Bisection root of the closed-form margin along the sweep axis.

    Each step assembles the scenario at the trial value by ``scenario_at``
    (``config.sweep_scenarios``, the builder of the grid), so per-agent
    models and every sweep parameter take the one path, and only an
    ``adversary_centrality`` step rebuilds the network and its Perron vector.
    That root is found on the trust-weight axis the grid is written in, then
    reported as the aggregate centrality of the topology built at it.
    """
    sweep = cfg.sweep
    theta = Hypothesis.from_name(cfg.experiment.theta_true)

    def margin_of(value: float) -> float:
        return scenario_at(value).report().margin(theta)

    try:
        root = critical_parameter(margin_of, (min(sweep.values), max(sweep.values)))
    except NoSignChangeError:
        return None
    if sweep.parameter == "adversary_centrality":
        return build_topology(apply_sweep_value(cfg, root)).adversary_centrality
    return root


# --- result files ------------------------------------------------------------------


def predict_document(cfg: ExperimentConfig, scenario: Scenario, report: DeceptionReport) -> dict:
    """The ``predict`` document; ``summary.json`` extends it with ``per_seed``."""
    return {
        "config": cfg.to_dict(),
        "deception_report": {
            **asdict(report),
            "verdict1": report.verdict1.value,
            "verdict2": report.verdict2.value,
        },
        "scenario": {
            "adversary_centrality": scenario.adversary_centrality,
            "perron": scenario.perron.tolist(),
            "violations": [],  # kept for the result bytes; such a network is refused
        },
    }


def attack_document(cfg: ExperimentConfig, scenario: Scenario) -> dict:
    """The ``attack`` document of a scenario with an attack plan."""
    forged = [
        {
            "agent": k,
            "strategy": entry.strategy,
            "epsilon": entry.eps,
            "theta1": entry.forged.given_theta1.mass,
            "theta2": entry.forged.given_theta2.mass,
            "params": entry.params,
        }
        for k, entry in zip(scenario.net.malicious_indices, scenario.plan.entries)
    ]
    return {"strategy": cfg.attack.strategy, "epsilon": cfg.attack.epsilon, "forged": forged}


def render_json(doc: dict) -> str:
    """A result document as written: sorted keys, indent 2, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _result_file(out_dir: str, name: str):
    """Open ``out_dir/name`` for writing; any OS failure is an ``OutputIOError``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OutputIOError(f"cannot write results under {out_dir!r}: {exc}") from exc


def write_json(doc: dict, out_dir: str, name: str) -> str:
    """Write ``doc`` as ``out_dir/name`` by ``render_json``; returns the path."""
    with _result_file(out_dir, name) as fh:
        fh.write(render_json(doc))
    return os.path.join(out_dir, name)


def _render_floats(x: np.ndarray) -> list[str]:
    """``repr`` of every value of a non-empty, C-contiguous float64 vector.

    One ``orjson`` call renders the whole vector by Ryu (Adams, PLDI 2018): the
    shortest decimal that round-trips the exact double, the digits ``repr``
    prints. Only the layout differs, and only for |x| in [1e-9, 1e-4) and
    |x| >= 1e16 (orjson ``1e-9``, ``1e16``; ``repr`` ``1e-09``, ``1e+16``) and
    non-finite values (orjson ``null``). Those tokens are rendered by ``repr``.
    """
    import orjson  # only the tabular writer needs it

    tokens = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    a = np.abs(x)
    same_layout = (a < 1e-9) | ((a >= 1e-4) & (a < 1e16))
    for i in np.flatnonzero(~same_layout).tolist():
        tokens[i] = repr(float(x[i]))
    return tokens


def _write_trajectories(fh, result: ExperimentResult) -> None:
    """Every recorded row of every seed, in chunks of at most ``_CSV_ROWS`` rows."""
    net = result.scenario.net
    n = net.n_agents
    heads = [f",{k},{net.roles[k].value}," for k in range(n)]
    per_chunk = max(1, _CSV_ROWS // n)
    for traj in result.trajectories:
        tail = f",{traj.seed}\n"
        for r in range(0, len(traj.steps), per_chunk):
            chunk = slice(r, r + per_chunk)
            fh.write(_csv_chunk(traj.steps[chunk], traj.log_ratio[chunk], heads, tail))


def _csv_chunk(steps: np.ndarray, lam: np.ndarray, heads: list[str], tail: str) -> str:
    """The rows of ``len(steps)`` recorded steps, ``lam`` their ``(steps, n)`` log ratios.

    A row is six pieces: the step, its ``,agent,role,`` head, the belief, ``,``,
    the log ratio and the tail (``,seed`` and the newline). Each kind of piece
    is set into one list by one slice assignment and the list is joined once,
    so no Python code runs per row. Each float column is one ``_render_floats``
    call, so every float is written as the bytes of its ``repr``. The pieces
    are freed on return, before the write encodes its copy of the text.
    """
    rows = lam.size
    pieces = [","] * (6 * rows)
    pieces[0::6] = chain.from_iterable(repeat(s, len(heads)) for s in map(str, steps.tolist()))
    pieces[1::6] = heads * len(steps)
    pieces[2::6] = _render_floats(learning._sigmoid(lam).ravel())
    pieces[4::6] = _render_floats(lam.ravel())
    pieces[5::6] = [tail] * rows
    return "".join(pieces)


def emit_results(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write the result files of the configured ``output.format``; returns the
    created paths (deterministic bytes)."""
    written: list[str] = []
    if result.config.output.format == "tabular":
        with _result_file(out_dir, "trajectories.csv") as fh:
            fh.write("step,agent_id,role,belief_theta1,log_ratio,seed\n")
            _write_trajectories(fh, result)
        written.append(os.path.join(out_dir, "trajectories.csv"))
    doc = {
        **predict_document(result.config, result.scenario, result.report),
        "per_seed": result.prediction_table(),
    }
    written.append(write_json(doc, out_dir, "summary.json"))
    return written


def emit_sweep_results(result: SweepResult, out_dir: str) -> list[str]:
    with _result_file(out_dir, "sweep.csv") as fh:
        fh.write(
            "parameter,value,adversary_centrality,margin_true,seed,final_true_belief\n"
        )
        seeds = result.config.experiment.seeds
        for p in result.points:
            head = (
                f"{result.parameter},{float(p.value)!r},"
                f"{float(p.adversary_centrality)!r},{float(p.margin_true)!r}"
            )
            finals = map(repr, map(float, p.per_seed_final))
            fh.write("".join([f"{head},{seed},{final}\n" for seed, final in zip(seeds, finals)]))
    doc = {
        "config": result.config.to_dict(),
        "parameter": result.parameter,
        "empirical_crossing": result.empirical_crossing,
        "theory_root": result.theory_root,
        "points": [
            {
                "value": p.value,
                "adversary_centrality": p.adversary_centrality,
                "margin_true": p.margin_true,
                "mean_final_true_belief": p.mean_final,
                "per_seed_final": list(p.per_seed_final),
            }
            for p in result.points
        ],
    }
    return [os.path.join(out_dir, "sweep.csv"), write_json(doc, out_dir, "sweep.json")]
