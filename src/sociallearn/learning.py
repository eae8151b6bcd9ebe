"""The social-learning dynamical system.

Each synchronous round, every agent (i) performs a Bayesian *adapt* step on
its private observation and (ii) *combines* neighbors' intermediate beliefs
by a weighted geometric mean. Malicious agents run the identical arithmetic
but plug a forged likelihood model into the adapt step; their observations
are still drawn from their true model (only the inference model is faked,
never the data).

The dynamics are implemented in the log domain only, as the exact linear
recursion ``lam_i = A^T (llr_i + lam_{i-1})`` on the per-agent log-belief
ratio ``lam = ln(mu(theta1)/mu(theta2))``; beliefs are a view through the
logistic map. (Beliefs themselves decay exponentially and underflow on long
horizons; the belief-domain adapt/combine/step survives only as the test
suite's reference.) One private kernel, ``_simulate``, runs that recursion
for a stack of G scenarios (networks with their agents, say the points of a
sweep grid) times S seeds: ``run`` and ``run_finals`` are its one-scenario
calls, and the simulator hands it a whole sweep grid, or every seed of an
experiment, in one call.

The kernel holds the state as a ``(G, n, S)`` stack, one column per seed,
and steps it with ``at @ (lam + llr_i)``, ``at`` being the ``(G, n, n)``
stack of transposed combination matrices: numpy makes one BLAS dgemm per
scenario over all its seeds. A lone seed is stepped beside a zero column,
since numpy hands a one-column product to gemv, whose bits differ from
dgemm's. The bits promise two tiers:

* the same call gives the same bits, whatever the stack around it: a
  scenario's dgemm has the same operands in a sweep grid as in its own
  ``run_finals``, in any chunk of the grid and with any block length;
* a seed's column is bit-identical whatever other seeds share its product
  (``run`` against a column of ``run_finals``, a chunk of seeds against the
  whole list) only because dgemm computes each output column independently
  of the other columns. OpenBLAS does (checked from n = 2 to 300 with 2 to
  40 columns, on 1 and 2 threads); ``tests/test_learning.py`` checks it on
  the BLAS at hand.

Symbols are drawn and turned into log-likelihood ratios a block of steps at
a time, with two block lengths. A *draw block* of each (seed, agent) stream's
uniforms is drawn by one generator call per stream into a ``(steps, n, S)``
array; a *ratio block*, a ``(G', steps, n, S)`` array of log-likelihood
ratios, is mapped from a slice of it, so each step's ratios are one
contiguous slice. Each length is at most ``_BLOCK_STEPS`` steps and at most
``_BLOCK_ELEMENTS`` values (one step when a step alone is more), and a draw
block is a whole number of ratio blocks, so memory stays
O(_BLOCK_ELEMENTS + G * S * n) whatever the horizon. Every scenario maps the
uniforms through its own inverse CDF (``probability._inverse_cdf``, the one
``sample`` uses), which selects log-likelihood ratios out of per-agent
tables bit for bit, without arithmetic, along whole (agent, seed) rows. The
tables hold one row per distinct (true, inference) model pair, and their
scenario axis ``G'`` is 1 when every scenario's agents are equal (say, a
grid that moves only the network), so one ratio block then serves the whole
stack by broadcasting. No block length changes the bits: a stream's
uniforms are the same however they are split. The check for a realized
symbol of zero likelihood scans each block only when some table entry is
infinite, since otherwise no realized ratio can be.

Sampling is reproducible: agent ``k`` of a run draws from
``default_rng((seed, agent_key[k]))``, so permuting agents together with
their keys permutes trajectories identically. The kernel hands that entropy
to ``default_rng`` as the ``uint32`` words ``SeedSequence`` reads from the
tuple (``_stream_entropy``), which draws the same and skips the coercion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroLikelihoodError
from .network import Network, Role
from .probability import Hypothesis, LikelihoodModel, _inverse_cdf

__all__ = [
    "AgentConfig",
    "Trajectory",
    "run",
    "run_finals",
]

#: Most steps of symbols drawn per block.
_BLOCK_STEPS = 512
#: Most log-likelihood ratios per block, over the whole (scenario, seed, agent) stack.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class AgentConfig:
    """Role, true observation model, and (for malicious agents) forged model."""

    role: Role
    true_model: LikelihoodModel
    forged_model: LikelihoodModel | None = None

    def __post_init__(self):
        if self.role is Role.MALICIOUS and self.forged_model is not None:
            if self.forged_model.alphabet_size != self.true_model.alphabet_size:
                raise ValueError("forged model must share the true model's alphabet")

    @property
    def inference_model(self) -> LikelihoodModel:
        """Model actually used in the adapt step (forged one for adversaries)."""
        if self.role is Role.MALICIOUS and self.forged_model is not None:
            return self.forged_model
        return self.true_model


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
        return network_average_true_belief(self.final_log_ratio, self.theta_true)


def _symbol_tables(
    agent_lists: Sequence[Sequence[AgentConfig]], theta_true: Hypothesis, n_seeds: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Inverse-CDF inputs for a stack of scenarios, symbols on the leading axis.

    Returns ``cum`` of shape ``(A - 1, G', 1, n, S)`` (each agent's cumulative
    true mass, ``inf`` past its alphabet), ``llr`` of shape ``(A, G', 1, n, S)``
    (symbol -> ln(inference(theta1)/inference(theta2))) with ``A`` the
    largest alphabet, and whether every table entry is finite. ``G'`` is 1
    when every scenario's agents are equal, else the scenario count; each
    distinct (true, inference) model pair is tabulated once. Every agent's
    entry is repeated for each of the ``S = n_seeds`` seeds, so that the
    inverse CDF compares along whole contiguous (agent, seed) rows.
    """
    if all(tuple(agents) == tuple(agent_lists[0]) for agents in agent_lists[1:]):
        agent_lists = agent_lists[:1]
    pairs: dict[tuple[LikelihoodModel, LikelihoodModel], int] = {}
    rows = np.array([
        [pairs.setdefault((a.true_model, a.inference_model), len(pairs)) for a in agents]
        for agents in agent_lists
    ])
    width = max(true.alphabet_size for true, _ in pairs)
    cum = np.full((len(pairs), width - 1), np.inf)
    llr = np.zeros((len(pairs), width))
    for p, (true, m) in enumerate(pairs):
        with np.errstate(divide="ignore"):
            table = np.log(m.given_theta1.as_array()) - np.log(m.given_theta2.as_array())
        pmf = true.given(theta_true).as_array()
        llr[p, : len(table)] = table
        cum[p, : len(pmf) - 1] = np.cumsum(pmf)[:-1]

    def by_agent(per_pair: np.ndarray) -> np.ndarray:  # (G', n, A) -> (A, G', 1, n, S)
        per_symbol = np.moveaxis(per_pair[rows], -1, 0)[:, :, None, :, None]
        per_seed = np.broadcast_to(per_symbol, per_symbol.shape[:-1] + (n_seeds,))
        return np.ascontiguousarray(per_seed)

    return by_agent(cum), by_agent(llr), bool(np.all(np.isfinite(llr)))


def _stream_entropy(seed: int, key: int) -> np.ndarray:
    """The ``uint32`` words ``SeedSequence`` reads from ``(seed, key)``.

    Each non-negative int is its little-endian 32-bit words (0 is ``[0]``),
    ``seed``'s first. ``default_rng`` draws the same from them as from the
    tuple, without coercing the tuple.
    """
    words = []
    for x in (int(seed), int(key)):
        if x < 0:
            raise ValueError(f"a stream seed must be a non-negative integer, got {x}")
        words.append(x & 0xFFFFFFFF)
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


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
    agent_lists: Sequence[Sequence[AgentConfig]],
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    stride: int,
    init: Sequence[float] | float,
    agent_keys: Sequence[int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every (scenario, seed) pair through the log-ratio recursion, block by block.

    ``nets[g]`` and ``agent_lists[g]`` make scenario ``g``; all share the
    agent count, the true state, the initial beliefs and the seeds. Returns
    ``(steps, records, finals)``: the recorded time indices, the
    ``(G, S, len(steps), n)`` records and the ``(G, S, n)`` final states.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = nets[0].n_agents
    if any(net.n_agents != n for net in nets) or any(len(a) != n for a in agent_lists):
        raise ValueError("agents list must match the network size")
    keys = range(n) if agent_keys is None else agent_keys
    rngs = [[np.random.default_rng(_stream_entropy(seed, key)) for key in keys] for seed in seeds]
    cum, tables, finite = _symbol_tables(agent_lists, theta_true, len(rngs))
    b = np.broadcast_to(np.asarray(init, dtype=float), (n,))
    if not np.all((b > 0.0) & (b < 1.0)):  # nan is refused too
        raise ValueError("initial beliefs must lie strictly inside (0, 1)")
    n_grid, n_seeds = len(nets), len(rngs)
    # the seeds' columns, then a zero column when there is one seed, so that
    # every product is a dgemm
    lam = np.zeros((n_grid, n, max(n_seeds, 2)))
    seed_cols = lam[..., :n_seeds]
    seed_cols[...] = (np.log(b) - np.log1p(-b))[:, None]
    summed = np.zeros_like(lam)
    summed_cols = summed[..., :n_seeds]

    steps = np.arange(stride, horizon + 1, stride) if stride > 0 else np.empty(0, dtype=int)
    records = np.empty((n_grid, n_seeds, len(steps), n))
    # each matrix keeps the strides of ``net.combination.T``, so each dgemm is a lone run's
    at = np.stack([net.combination for net in nets]).swapaxes(-1, -2)
    ratio, draw = _block_lengths(tables.shape[1], n_seeds * n, horizon)
    u = np.empty((n, draw))
    uniforms = np.empty((draw, n, n_seeds))
    llr = np.empty((tables.shape[1], ratio, n, n_seeds))
    for start in range(0, horizon, draw):
        drawn = min(draw, horizon - start)
        for s, seed_rngs in enumerate(rngs):
            for k, rng in enumerate(seed_rngs):
                rng.random(out=u[k, :drawn])
            uniforms[:drawn, :, s] = u[:, :drawn].T
        for off in range(0, drawn, ratio):
            size = min(ratio, drawn - off)
            _inverse_cdf(cum, tables, uniforms[off : off + size], llr[:, :size])
            if not finite and not np.all(np.isfinite(llr[:, :size])):
                raise ZeroLikelihoodError(
                    "an inference model assigns zero likelihood to a realized symbol"
                )
            for j, i in enumerate(range(start + off + 1, start + off + size + 1)):
                np.add(seed_cols, llr[:, j], out=summed_cols)
                np.matmul(at, summed, out=lam)
                if stride > 0 and i % stride == 0:
                    records[:, :, i // stride - 1] = seed_cols.swapaxes(-1, -2)
    return steps, records, np.ascontiguousarray(seed_cols.swapaxes(-1, -2))


def _trajectories(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    stride: int,
    init: Sequence[float] | float,
    agent_keys: Sequence[int] | None = None,
) -> list[Trajectory]:
    """One kernel call for all ``seeds`` of one scenario, one record each."""
    steps, records, finals = _simulate(
        [net], [agents], theta_true, horizon, seeds, stride, init, agent_keys
    )
    return [
        Trajectory(
            theta_true=theta_true,
            seed=int(seed),
            steps=steps,
            log_ratio=records[0, s],
            final_log_ratio=finals[0, s],
        )
        for s, seed in enumerate(seeds)
    ]


def run(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seed: int,
    stride: int = 1,
    initial_belief_theta1: Sequence[float] | float = 0.5,
    agent_keys: Sequence[int] | None = None,
) -> Trajectory:
    """Simulate one seeded run in the log domain and record a strided trajectory.

    ``stride = 0`` records nothing (summary only); otherwise records land at
    steps stride, 2*stride, ... <= horizon. Initial beliefs default to
    uniform and must be strictly inside (0, 1).
    """
    return _trajectories(
        net, agents, theta_true, horizon, [seed], stride, initial_belief_theta1, agent_keys
    )[0]


def run_finals(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    initial_belief_theta1: Sequence[float] | float = 0.5,
) -> np.ndarray:
    """Final log-ratio matrix (n_agents, n_seeds) for a batch of seeds.

    The same call gives the same bits, in a sweep grid as alone. Column ``s``
    is bit-identical to ``run(..., seed=seeds[s]).final_log_ratio`` and to the
    column of any other seed list holding ``seeds[s]``: every seed is a column
    of one dgemm per step (a lone seed beside a zero column), and the BLAS
    computes each output column independently of the others (see the module
    docstring). The matrix is C-contiguous, so reductions over it sum in a
    fixed order.
    """
    _, _, finals = _simulate(
        [net], [agents], theta_true, horizon, seeds, 0, initial_belief_theta1, None
    )
    return np.ascontiguousarray(finals[0].T)


def network_average_true_belief(
    lam: np.ndarray, theta_true: Hypothesis
) -> np.ndarray | float:
    """Agent-average belief in the true state from log ratios (vector or matrix).

    The belief in theta2 is the logistic of ``-lam``, never ``1 - sigmoid(lam)``,
    so a deceived network's vanishing belief keeps its digits.
    """
    sign = 1.0 if theta_true is Hypothesis.THETA1 else -1.0
    b = _sigmoid(sign * np.asarray(lam, dtype=float))
    if b.ndim == 1:
        return float(b.mean())
    # one contiguous row per seed sums in the order a lone seed's vector does
    return np.ascontiguousarray(b.T).mean(axis=1)
