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
# config.build_plan imports attacks at its first call. Imported here, with the
# run's other modules, it is not loaded in the middle of a run's first build,
# where its import (a compile, when no bytecode is cached) raised a sweep's peak
# RSS by about 0.4 MB on a 2-vCPU x86-64 Linux host.
from . import attacks  # noqa: F401
from .analysis import DeceptionReport, _reports, critical_parameter, predicted_and_empirical_agree
from .config import ExperimentConfig, ExperimentSpec, Scenario, build_scenario, sweep_scenarios
from .errors import ConfigValidationError, NoSignChangeError, OutputIOError

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


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """A run's scenario, its closed-form report, and the kernel's arrays for
    its seeds as ``learning._simulate`` lays them out: ``steps[r]`` is the time
    index of record ``r``, ``records[s, r, k]`` the log ratio of agent ``k``
    under seed ``s`` (``config.experiment.seeds[s]``) then, and ``finals[s, k]``
    its exact final state."""

    config: ExperimentConfig
    scenario: Scenario
    report: DeceptionReport
    steps: np.ndarray
    records: np.ndarray
    finals: np.ndarray

    def final_true_beliefs(self) -> list[float]:
        return learning.network_average_true_belief(self.finals, self.scenario.theta_true).tolist()

    def prediction_table(self) -> list[dict]:
        """Side-by-side of the closed-form verdict and each seed's outcome."""
        theta = self.scenario.theta_true
        return [
            {
                "seed": seed,
                "final_true_belief": final,
                "predicted_verdict": self.report.verdict(theta).value,
                "agrees": predicted_and_empirical_agree(self.report, theta, final),
            }
            for seed, final in zip(self.config.experiment.seeds, self.final_true_beliefs())
        ]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every configured seed and attach the closed-form report.

    All seeds are one stack on one log-ratio table, stepped by one kernel call
    (one per chunk of seeds with ``jobs > 1``, the chunks' arrays joined in
    seed order); one chunk's arrays are kept as the kernel returns them.
    """
    scenario = build_scenario(cfg)
    report = scenario.report()
    e = cfg.experiment
    one_chunk = partial(
        learning._simulate, [scenario.net], learning.log_ratio_table([scenario.agents]),
        scenario.theta_true, e.horizon, stride=e.stride, init=e.initial_belief_theta1,
    )
    steps, records, finals = zip(*_in_chunks(one_chunk, e.seeds, jobs))
    return ExperimentResult(
        config=cfg, scenario=scenario, report=report, steps=steps[0],
        records=_joined(records), finals=_joined(finals),
    )


def _joined(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The one-scenario ``(1, S, ...)`` kernel stacks of the seed chunks, as one
    ``(S, ...)`` array; a lone chunk's is a view, with no copy."""
    if len(stacks) == 1:
        return stacks[0][0]
    return np.concatenate([stack[0] for stack in stacks])


def _in_chunks(fn, items: Sequence, jobs: int) -> list:
    """``fn`` over at most ``jobs`` contiguous chunks of ``items``, in order.

    One chunk runs in this process; more run in a pool of worker processes,
    one chunk each. A chunk of grid points (one table, one kernel call) gives
    each point the same dgemm over the same seeds, and the same margin, as the
    whole grid does. A chunk of seeds gives each
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


def _grid_points(e: ExperimentSpec, grid: Sequence[tuple[float, Scenario]]) -> list[SweepPoint]:
    """The points of a chunk of ``(value, scenario)`` pairs, from one log-ratio table:
    the kernel steps them and ``analysis._reports`` reads their margins from it;
    each point's ``(S, n)`` finals are averaged over agents as the kernel gives them."""
    values, scenarios = zip(*grid)
    theta = scenarios[0].theta_true
    nets = [s.net for s in scenarios]
    table = learning.log_ratio_table([s.agents for s in scenarios])
    _, _, finals = learning._simulate(
        nets, table, theta, e.horizon, e.seeds, 0, e.initial_belief_theta1
    )
    reports = _reports(nets, table, np.stack([s.perron for s in scenarios]))
    return [
        SweepPoint(
            value=float(value),
            adversary_centrality=scenario.adversary_centrality,
            margin_true=report.margin(theta),
            per_seed_final=tuple(map(float, learning.network_average_true_belief(lam, theta))),
        )
        for value, scenario, report, lam in zip(values, scenarios, reports, finals)
    ]


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Evaluate every grid point (all seeds each) plus the theory root.

    The grid points x seeds are one stack: one log-ratio table, read by one kernel
    call and one ``analysis._reports`` call (per chunk with ``jobs > 1``); each point's
    finals and margin are its ``run_finals`` and ``deception_verdict`` ones, bit for bit.

    The empirical crossing is the linear interpolation of the mean final
    true-state belief through 0.5 at the first adjacent grid pair where it
    changes side; the theory root bisects the closed-form margin over
    the grid span. For ``adversary_centrality`` sweeps both the crossing
    and the root are expressed in aggregate-centrality units.
    """
    if cfg.sweep is None:
        raise ConfigValidationError(["sweep must be given to run a sweep"])
    scenario_at = sweep_scenarios(cfg)
    grid = [(v, scenario_at(v)) for v in cfg.sweep.values]
    points = tuple(chain(*_in_chunks(partial(_grid_points, cfg.experiment), grid, jobs)))

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
    ``adversary_centrality`` step rebuilds the network and its Perron vector
    (and its plan, under ``known_divergences``).
    That root is found on the trust-weight axis the grid is written in, then
    reported as the aggregate centrality of the scenario built at it.
    """
    sweep = cfg.sweep

    def margin_of(value: float) -> float:
        scenario = scenario_at(value)
        return scenario.report().margin(scenario.theta_true)

    try:
        root = critical_parameter(margin_of, (min(sweep.values), max(sweep.values)))
    except NoSignChangeError:
        return None
    if sweep.parameter == "adversary_centrality":
        return scenario_at(root).adversary_centrality
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
    for seed, lam in zip(result.config.experiment.seeds, result.records):
        tail = f",{seed}\n"
        for r in range(0, len(result.steps), per_chunk):
            chunk = slice(r, r + per_chunk)
            fh.write(_csv_chunk(result.steps[chunk], lam[chunk], heads, tail))


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
