"""The social-learning dynamical system.

Each synchronous round, every agent (i) performs a Bayesian *adapt* step on
its private observation and (ii) *combines* neighbors' intermediate beliefs
by a weighted geometric mean. Malicious agents run the identical arithmetic
but plug a forged likelihood model into the adapt step; their observations
are still drawn from their true model (only the inference model is faked,
never the data). So an agent is its true model plus, for an adversary, its
forged model; which agents are adversaries only ``Network.roles`` records.

The dynamics are implemented in the log domain only, as the exact linear
recursion ``lam_i = A^T (llr_i + lam_{i-1})`` on the per-agent log-belief
ratio ``lam = ln(mu(theta1)/mu(theta2))``; beliefs are a view through the
logistic map. (Beliefs themselves decay exponentially and underflow on long
horizons; the belief-domain adapt/combine/step survives only as the test
suite's reference.) One private kernel, ``_simulate``, runs that recursion
for a stack of G scenarios (networks with their agents, say the points of a
sweep grid) times S seeds and returns the records ``(G, S, R, n)`` and the
final states ``(G, S, n)``. The simulator hands it every seed of an experiment,
or a whole sweep grid, in one call (one per chunk of seeds or points with
``jobs > 1``) and reads those arrays as they are. ``run`` (one seed, as a
``Trajectory``) and ``run_finals`` (the ``(S, n)`` final states of a seed list)
are its public one-scenario calls; no command makes them.

The kernel steps the seeds in groups of at most ``_SEED_COLUMNS`` (64), its
outer loop, each as a lone run: a ``(G, n, w)`` state stack, one column per
seed, stepped by ``at @ (lam + llr_i)``, ``at`` being the ``(G, n, n)`` stack
of transposed combination matrices (one matrix, broadcast over the stack, when
every scenario has the same network), so one BLAS dgemm per scenario per step.
A lone seed is stepped beside a zero column, since numpy hands a one-column
product to gemv, whose bits differ from dgemm's. The bits promise two tiers:

* the same call gives the same bits, whatever the stack around it: a
  scenario's dgemm has the same operands in a sweep grid as in its own
  ``run_finals``, in any chunk of the grid and with any block length;
* a seed's column is bit-identical whatever other seeds share its product
  (``run`` against a row of ``run_finals``, a chunk of seeds against the
  whole list) only because dgemm computes each output column independently
  of the other columns. OpenBLAS 0.3.31 does so up to 64 columns for every n
  from 2 to 300, on 1 and 2 threads, but not for wider products: on one
  thread it fails from 193 columns for n >= 100 and from 245 at n = 64 (none
  up to 256 for n <= 50), on two threads from 101 columns at n = 100. Hence
  the 64-column groups; ``tests/test_learning.py`` checks widths 2 to 64 on
  the BLAS at hand.

Symbols are drawn and turned into log-likelihood ratios a block of steps at
a time, with two block lengths per seed group. Each seed owns one stream of
uniforms, which its agents read step-major: agent ``k`` at step ``t`` takes
uniform ``t * n + k``. A *draw block* takes ``(steps, n)`` uniforms from each
seed's stream by one generator call into a ``(steps, n, w)`` array; a *ratio
block*, a ``(G', steps, n, w)`` array of log-likelihood ratios, is mapped from
a slice of it, so each step's ratios are one contiguous slice. Each length
is at most ``_BLOCK_STEPS`` steps and at most ``_BLOCK_ELEMENTS`` values (one
step when a step alone is more), and a draw block is a whole number of ratio
blocks. So working memory is O(_BLOCK_ELEMENTS + G * n * _SEED_COLUMNS)
besides the returned records and finals, whatever the horizon and the seed
count. Every scenario maps the
uniforms through its own inverse CDF (``probability._inverse_cdf``, the one
``sample`` uses), which selects log-likelihood ratios out of the
``LogRatioTable`` bit for bit, without arithmetic, along whole (agent, seed)
rows. That table, built by the caller that assembles the stack, holds one row
per distinct (true, inference) model pair, with one index row for the whole
stack when every scenario's agents are equal (say, a grid that moves only the
network), so one ratio block then serves the whole stack by broadcasting; the
closed forms compared with the kernel's output (``analysis``) read the same
table. No block length changes the bits: a stream's uniforms are the same
however they are split, and whatever group or chunk its seed falls in. The
check for a realized symbol of zero likelihood scans each block only when
some table entry is infinite, since otherwise no realized ratio can be.

Sampling is reproducible: seed ``s`` draws from ``default_rng(SeedSequence(s,
spawn_key=(0,)))``, never the topology's or the attack's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroLikelihoodError
from .network import Network
from .probability import Hypothesis, LikelihoodModel, _inverse_cdf

__all__ = [
    "AgentConfig",
    "Trajectory",
    "run",
    "run_finals",
]

#: Most steps of symbols drawn per block.
_BLOCK_STEPS = 512
#: Most log-likelihood ratios per block, over a seed group's (scenario, seed, agent) stack.
_BLOCK_ELEMENTS = 1 << 16
#: Most seed columns one dgemm steps. OpenBLAS 0.3.31 stops computing output columns
#: independently from 193 columns for n >= 100, and from 101 at n = 100 on two threads.
_SEED_COLUMNS = 64


@dataclass(frozen=True)
class AgentConfig:
    """An agent's true observation model and, when it has one, the forged
    model it updates with. Who is an adversary is ``Network.roles``' to say."""

    true_model: LikelihoodModel
    forged_model: LikelihoodModel | None = None

    def __post_init__(self):
        if self.forged_model is not None:
            if self.forged_model.alphabet_size != self.true_model.alphabet_size:
                raise ValueError("forged model must share the true model's alphabet")

    @property
    def inference_model(self) -> LikelihoodModel:
        """Model used in the adapt step: the forged one whenever one is given."""
        return self.true_model if self.forged_model is None else self.forged_model


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Strided record of one run plus its exact final state.

    ``steps[r]`` is the time index of record ``r``; ``log_ratio[r, k]`` the
    log-belief ratio ln(mu(theta1)/mu(theta2)) of agent ``k`` then. The final
    state is stored separately so striding never loses the endpoint.
    """

    theta_true: Hypothesis
    seed: int
    steps: np.ndarray
    log_ratio: np.ndarray
    final_log_ratio: np.ndarray

    def belief_theta1(self) -> np.ndarray:
        return _sigmoid(self.log_ratio)

    def final_network_average_true_belief(self) -> float:
        return float(network_average_true_belief(self.final_log_ratio, self.theta_true))


@dataclass(frozen=True, eq=False)
class LogRatioTable:
    """Each distinct (true, inference) model pair of a stack of agent lists, once.

    ``index[g, k]`` is the pair of agent ``k`` of list ``g``, one row when every
    list is equal. Per pair ``p``, ``llr[p, x]`` = ln inference(x|theta1) -
    ln inference(x|theta2) is the step of ``lam`` on symbol ``x``, and
    ``pmf[i, p, x]`` the true mass of ``x`` in the state of value ``i``; both
    are 0 past the pair's ``sizes[p]`` symbols.
    """

    index: np.ndarray
    sizes: np.ndarray
    llr: np.ndarray
    pmf: np.ndarray

    def drifts(self) -> np.ndarray:
        """``[i, p]``: E[ln inference(x|theta') - ln inference(x|theta)] for true
        state ``theta`` of value ``i``, the mean step of ``lam`` toward the wrong
        state: -D(L(theta) || L(theta')) for an honest pair, an adversary's
        contribution per unit centrality. Infinite or nan where the true model
        emits a symbol whose ratio is infinite."""
        drifts = np.add.reduce(
            np.multiply(self.pmf, self.llr, out=np.zeros_like(self.pmf), where=self.pmf > 0.0),
            axis=-1,
        )
        drifts[0] = 0.0 - drifts[0]  # theta1's wrong state lies toward -lam
        return drifts


def log_ratio_table(agent_lists: Sequence[Sequence[AgentConfig]]) -> LogRatioTable:
    """The :class:`LogRatioTable` of a stack of agent lists."""
    if all(tuple(agents) == tuple(agent_lists[0]) for agents in agent_lists[1:]):
        agent_lists = agent_lists[:1]
    pairs: dict[tuple[LikelihoodModel, LikelihoodModel], int] = {}
    by_id: dict[tuple[int, int], int] = {}  # the same model objects, found without hashing them
    index = np.empty((len(agent_lists), len(agent_lists[0])), dtype=int)
    for g, agents in enumerate(agent_lists):
        for k, a in enumerate(agents):
            true, inference = a.true_model, a.inference_model
            key = (id(true), id(inference))
            if key not in by_id:
                by_id[key] = pairs.setdefault((true, inference), len(pairs))
            index[g, k] = by_id[key]
    sizes = [len(true.given_theta1.mass) for true, _ in pairs]
    width = max(sizes, default=2)

    def padded(models: Sequence[LikelihoodModel], fill: float) -> np.ndarray:  # (2, P, A)
        by_state = zip(*[(m.given_theta1.mass, m.given_theta2.mass) for m in models])
        return np.array([
            [mass + (fill,) * (width - len(mass)) for mass in masses] for masses in by_state
        ]).reshape(2, len(models), width)

    with np.errstate(divide="ignore", invalid="ignore"):  # a ratio of 1 past each alphabet
        logs = np.log(padded([m for _, m in pairs], 1.0))
        llr = logs[0] - logs[1]
    pmf = padded([true for true, _ in pairs], 0.0)
    return LogRatioTable(index=index, sizes=np.array(sizes, dtype=int), llr=llr, pmf=pmf)


def _symbol_tables(
    table: LogRatioTable, theta_true: Hypothesis, n_seeds: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Inverse-CDF inputs for the scenario stack of ``table``, symbols leading.

    Returns ``cum`` of shape ``(A - 1, G', 1, n, S)`` (each agent's cumulative
    true mass, ``inf`` past its alphabet), ``llr`` of shape ``(A, G', 1, n, S)``
    (its row of the table) with ``A`` the largest alphabet and ``G'`` the
    table's row count, and whether every table entry is finite. Every agent's
    entry is repeated for each of the ``S = n_seeds`` seeds, so that the
    inverse CDF compares along whole contiguous (agent, seed) rows.
    """
    cum = np.cumsum(table.pmf[theta_true.value], axis=-1)[:, :-1]
    cum[np.arange(cum.shape[1]) >= table.sizes[:, None] - 1] = np.inf

    def by_agent(per_pair: np.ndarray) -> np.ndarray:  # (G', n, A) -> (A, G', 1, n, S)
        per_symbol = np.moveaxis(per_pair[table.index], -1, 0)[:, :, None, :, None]
        per_seed = np.broadcast_to(per_symbol, per_symbol.shape[:-1] + (n_seeds,))
        return np.ascontiguousarray(per_seed)

    return by_agent(cum), by_agent(table.llr), bool(np.all(np.isfinite(table.llr)))


def _block_lengths(n_tables: int, per_step: int, horizon: int) -> tuple[int, int]:
    """``(ratio, draw)``: the steps of a ratio block and of a draw block.

    A step draws ``per_step`` uniforms (one per seed and agent) and maps them
    to ``n_tables`` times as many ratios. Each block is the longest within
    ``_BLOCK_STEPS``, ``_BLOCK_ELEMENTS`` values and the horizon (one step
    when a step alone is more), the draw block a whole number of ratio blocks.
    """
    ratio = max(1, min(_BLOCK_STEPS, _BLOCK_ELEMENTS // (n_tables * per_step), horizon))
    draw = ratio * max(1, min(_BLOCK_STEPS, _BLOCK_ELEMENTS // per_step, horizon) // ratio)
    return ratio, draw


def _simulate(
    nets: Sequence[Network],
    table: LogRatioTable,
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    stride: int,
    init: Sequence[float] | float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every (scenario, seed) pair through the log-ratio recursion, block by block.

    ``nets[g]`` and row ``g`` of ``table`` (its only row, if one) make scenario
    ``g``; all share the agent count, the true state, the initial beliefs and
    the seeds. Returns ``(steps, records, finals)``: the recorded time indices,
    the ``(G, S, len(steps), n)`` records and the ``(G, S, n)`` final states.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    n = nets[0].n_agents
    if any(net.n_agents != n for net in nets) or table.index.shape[1] != n:
        raise ValueError("agents list must match the network size")
    b = np.broadcast_to(np.asarray(init, dtype=float), (n,))
    if not np.all((b > 0.0) & (b < 1.0)):  # nan is refused too
        raise ValueError("initial beliefs must lie strictly inside (0, 1)")
    n_grid, n_seeds = len(nets), len(seeds)
    steps = np.arange(stride, horizon + 1, stride) if stride > 0 else np.empty(0, dtype=int)
    records = np.empty((n_grid, n_seeds, len(steps), n))
    finals = np.empty((n_grid, n_seeds, n))
    # strided as ``net.combination.T``, so each dgemm is a lone run's; one network held once
    shared = all(net is nets[0] for net in nets)
    at = np.stack([net.combination for net in (nets[:1] if shared else nets)]).swapaxes(-1, -2)
    for c in range(0, n_seeds, _SEED_COLUMNS):
        group = seeds[c : c + _SEED_COLUMNS]
        # the spawn key makes the entropy the seed's words, padded to four, then a zero
        # word; no integer's entropy ends so, so it is no topology's or attack's stream
        rngs = [np.random.default_rng(np.random.SeedSequence(s, spawn_key=(0,))) for s in group]
        w = len(rngs)
        cum, tables, finite = _symbol_tables(table, theta_true, w)
        # the group's columns, then a zero column beside a lone seed, so every product is a dgemm
        lam = np.zeros((n_grid, n, w + (w == 1)))
        cols = lam[..., :w]
        cols[...] = (np.log(b) - np.log1p(-b))[:, None]
        summed = np.zeros_like(lam)
        summed_cols = summed[..., :w]
        ratio, draw = _block_lengths(tables.shape[1], w * n, horizon)
        u = np.empty((draw, n))
        uniforms = np.empty((draw, n, w))
        llr = np.empty((tables.shape[1], ratio, n, w))
        for start in range(0, horizon, draw):
            drawn = min(draw, horizon - start)
            for s, rng in enumerate(rngs):
                rng.random(out=u[:drawn])
                uniforms[:drawn, :, s] = u[:drawn]
            for off in range(0, drawn, ratio):
                size = min(ratio, drawn - off)
                _inverse_cdf(cum, tables, uniforms[off : off + size], llr[:, :size])
                if not finite and not np.all(np.isfinite(llr[:, :size])):
                    raise ZeroLikelihoodError(
                        "an inference model assigns zero likelihood to a realized symbol"
                    )
                for j, i in enumerate(range(start + off + 1, start + off + size + 1)):
                    np.add(cols, llr[:, j], out=summed_cols)
                    np.matmul(at, summed, out=lam)
                    if stride > 0 and i % stride == 0:
                        records[:, c : c + w, i // stride - 1] = cols.swapaxes(-1, -2)
        finals[:, c : c + w] = cols.swapaxes(-1, -2)
    return steps, records, finals


def run(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seed: int,
    stride: int = 1,
    initial_belief_theta1: Sequence[float] | float = 0.5,
) -> Trajectory:
    """Simulate one seeded run in the log domain and record a strided trajectory.

    ``stride = 0`` records nothing (summary only); otherwise records land at
    steps stride, 2*stride, ... <= horizon. Initial beliefs default to
    uniform and must be strictly inside (0, 1).
    """
    table = log_ratio_table([agents])
    steps, records, finals = _simulate(
        [net], table, theta_true, horizon, [seed], stride, initial_belief_theta1
    )
    return Trajectory(
        theta_true=theta_true,
        seed=int(seed),
        steps=steps,
        log_ratio=records[0, 0],
        final_log_ratio=finals[0, 0],
    )


def run_finals(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    initial_belief_theta1: Sequence[float] | float = 0.5,
) -> np.ndarray:
    """Final log-ratio matrix (n_seeds, n_agents) for a batch of seeds, the
    kernel's layout as it returns it.

    The same call gives the same bits, in a sweep grid as alone. Row ``s``
    is bit-identical to ``run(..., seed=seeds[s]).final_log_ratio`` and to the
    row of any other seed list holding ``seeds[s]``: every seed is a column
    of one dgemm per step (a lone seed beside a zero column), and the BLAS
    computes each output column independently of the others (see the module
    docstring). The matrix is C-contiguous, so reductions over it sum in a
    fixed order.
    """
    _, _, finals = _simulate(
        [net], log_ratio_table([agents]), theta_true, horizon, seeds, 0, initial_belief_theta1
    )
    return finals[0]


def network_average_true_belief(
    lam: np.ndarray, theta_true: Hypothesis
) -> np.ndarray | float:
    """Agent-average belief in the true state from log ratios, over the last
    axis, the kernel's agents axis: one value for an ``(n,)`` state, one per
    row for an ``(S, n)`` stack of seed states (``run_finals``' matrix, or an
    experiment's finals), a ``(g, S)`` table for a sweep chunk's ``(g, S, n)``.

    The belief in theta2 is the logistic of ``-lam``, never ``1 - sigmoid(lam)``,
    so a deceived network's vanishing belief keeps its digits. The beliefs are
    laid out C-contiguous, so every row sums in the order a lone state does.
    """
    sign = 1.0 if theta_true is Hypothesis.THETA1 else -1.0
    b = _sigmoid(sign * np.asarray(lam, dtype=float))
    return np.ascontiguousarray(b).mean(axis=-1)
