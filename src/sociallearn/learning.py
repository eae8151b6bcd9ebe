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

The kernel holds the state as a ``(G, S, n, 1)`` stack and steps it with
``at @ (lam + llr_i)``, ``at`` being the ``(G, 1, n, n)`` stack of transposed
combination matrices. numpy makes one BLAS matrix-vector product per
(scenario, seed) for that, the same call a lone run gets, so every column is
bit-identical whatever stack it runs in. (Neither ``einsum`` nor one
``(n, seeds)`` matrix product keeps those bits.)

Symbols are drawn and turned into log-likelihood ratios a block of steps at
a time, with two block lengths. A *draw block* of each (seed, agent) stream's
uniforms, an ``(S, n, steps)`` array, is drawn by one generator call per
stream; a *ratio block*, a ``(G', S, n, steps)`` array of log-likelihood
ratios, is mapped from a slice of it. Each length is at most
``_BLOCK_STEPS`` steps and at most ``_BLOCK_ELEMENTS`` values (one step when
a step alone is more), and a draw block is a whole number of ratio blocks,
so memory stays O(_BLOCK_ELEMENTS + G * S * n) whatever the horizon. Every
scenario maps the uniforms through its own inverse CDF
(``probability._inverse_cdf``, the one ``sample`` uses), which selects
log-likelihood ratios out of per-agent tables bit for bit, without
arithmetic. The tables hold one row per distinct (true, inference) model
pair, and their scenario axis ``G'`` is 1 when every scenario's agents are
equal (say, a grid that moves only the network), so one ratio block then
serves the whole stack by broadcasting. No block length changes the bits: a
stream's uniforms are the same however they are split. The check for a
realized symbol of zero likelihood scans each block only when some table
entry is infinite, since otherwise no realized ratio can be.

Sampling is reproducible: agent ``k`` of a run draws from
``default_rng((seed, agent_key[k]))``, so permuting agents together with
their keys permutes trajectories identically.
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
    agent_lists: Sequence[Sequence[AgentConfig]], theta_true: Hypothesis
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Inverse-CDF inputs for a stack of scenarios, symbols on the leading axis.

    Returns ``cum`` of shape ``(A - 1, G', 1, n, 1)`` (each agent's cumulative
    true mass, ``inf`` past its alphabet), ``llr`` of shape ``(A, G', 1, n, 1)``
    (symbol -> ln(inference(theta1)/inference(theta2))) with ``A`` the
    largest alphabet, and whether every table entry is finite. ``G'`` is 1
    when every scenario's agents are equal, else the scenario count; each
    distinct (true, inference) model pair is tabulated once.
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

    def by_agent(per_pair: np.ndarray) -> np.ndarray:  # (G', n, A) -> (A, G', 1, n, 1)
        return np.ascontiguousarray(np.moveaxis(per_pair[rows], -1, 0)[:, :, None, :, None])

    return by_agent(cum), by_agent(llr), bool(np.all(np.isfinite(llr)))


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
    cum, tables, finite = _symbol_tables(agent_lists, theta_true)
    rngs = [[np.random.default_rng((int(seed), int(key))) for key in keys] for seed in seeds]
    b = np.broadcast_to(np.asarray(init, dtype=float), (n,))
    if not np.all((b > 0.0) & (b < 1.0)):  # nan is refused too
        raise ValueError("initial beliefs must lie strictly inside (0, 1)")
    n_grid, n_seeds = len(nets), len(rngs)
    lam = np.tile((np.log(b) - np.log1p(-b))[:, None], (n_grid, n_seeds, 1, 1))

    steps = np.arange(stride, horizon + 1, stride) if stride > 0 else np.empty(0, dtype=int)
    records = np.empty((n_grid, n_seeds, len(steps), n))
    # each matrix keeps the strides of ``net.combination.T``, so each gemv is a lone run's
    at = np.stack([net.combination for net in nets])[:, None].swapaxes(-1, -2)
    ratio, draw = _block_lengths(tables.shape[1], n_seeds * n, horizon)
    u = np.empty((n_seeds, n, draw))
    llr = np.empty((tables.shape[1], n_seeds, n, ratio))
    for start in range(0, horizon, draw):
        drawn = min(draw, horizon - start)
        for s, seed_rngs in enumerate(rngs):
            for k, rng in enumerate(seed_rngs):
                rng.random(out=u[s, k, :drawn])
        for off in range(0, drawn, ratio):
            size = min(ratio, drawn - off)
            _inverse_cdf(cum, tables, u[..., off : off + size], llr[..., :size])
            if not finite and not np.all(np.isfinite(llr[..., :size])):
                raise ZeroLikelihoodError(
                    "an inference model assigns zero likelihood to a realized symbol"
                )
            for j, i in enumerate(range(start + off + 1, start + off + size + 1)):
                lam = at @ (lam + llr[..., j : j + 1])
                if stride > 0 and i % stride == 0:
                    records[:, :, i // stride - 1] = lam[..., 0]
    return steps, records, lam[..., 0]


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

    Column ``s`` is bit-identical to ``run(..., seed=seeds[s]).final_log_ratio``:
    both are the same kernel, and each seed of the stack gets its own gemv.
    The matrix is C-contiguous, so reductions over it sum in a fixed order.
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
