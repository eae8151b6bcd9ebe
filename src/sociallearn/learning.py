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
for every seed at once: ``run`` is its one-seed call and ``run_finals`` its
many-seed call without records.

The kernel holds the state as a ``(seeds, n, 1)`` stack and steps it with
``at @ (lam + llr_i)``. numpy makes one BLAS matrix-vector product per seed
for that, the same call a lone seed gets, so every seed's column is
bit-identical whatever batch it runs in. (Neither ``einsum`` nor one
``(n, seeds)`` matrix product keeps those bits.) Symbols are drawn and turned
into log-likelihood ratios ``_BLOCK_STEPS`` steps at a time, so memory is
O(_BLOCK_STEPS * seeds * n) whatever the horizon.

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
from .probability import Hypothesis, LikelihoodModel, sample

__all__ = [
    "AgentConfig",
    "BeliefState",
    "Trajectory",
    "run",
    "run_finals",
]

#: Steps of symbols drawn per block; bounds the LLR block to this many steps.
_BLOCK_STEPS = 512


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


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Per-agent beliefs stored as log ratios lam_k = ln(mu_k(theta1)/mu_k(theta2))."""

    log_ratio: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.log_ratio, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "log_ratio", arr)

    @staticmethod
    def uniform(n_agents: int) -> "BeliefState":
        return BeliefState(np.zeros(n_agents))

    @staticmethod
    def from_belief_theta1(beliefs: Sequence[float]) -> "BeliefState":
        b = np.asarray(beliefs, dtype=float)
        if np.any(b <= 0.0) or np.any(b >= 1.0):
            raise ValueError("initial beliefs must lie strictly inside (0, 1)")
        return BeliefState(np.log(b) - np.log1p(-b))

    def beliefs(self) -> np.ndarray:
        """(n, 2) array of (mu(theta1), mu(theta2)) pairs.

        Both components are evaluated as logistic values of +/- lam so each
        keeps full relative precision even when one is vanishingly small.
        """
        return np.column_stack([_sigmoid(self.log_ratio), _sigmoid(-self.log_ratio)])

    def belief_in(self, theta: Hypothesis) -> np.ndarray:
        sign = 1.0 if theta is Hypothesis.THETA1 else -1.0
        return _sigmoid(sign * self.log_ratio)


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
    horizon: int
    steps: np.ndarray
    log_ratio: np.ndarray
    final_log_ratio: np.ndarray

    def belief_theta1(self) -> np.ndarray:
        return _sigmoid(self.log_ratio)

    def network_average_true_belief(self) -> np.ndarray:
        """Average over agents of the belief in the true state, per record."""
        return network_average_true_belief(self.log_ratio.T, self.theta_true)

    def final_network_average_true_belief(self) -> float:
        return network_average_true_belief(self.final_log_ratio, self.theta_true)

    def empirical_rate(self) -> np.ndarray:
        """Per-agent (1/horizon) * ln(mu(theta_wrong)/mu(theta_true)) at the end."""
        sign = -1.0 if self.theta_true is Hypothesis.THETA1 else 1.0
        return sign * self.final_log_ratio / float(self.horizon)


def _llr_tables(agents: Sequence[AgentConfig]) -> list[np.ndarray]:
    """Per-agent lookup: symbol -> ln(inference(theta1)/inference(theta2))."""
    tables = []
    for agent in agents:
        m = agent.inference_model
        t1 = m.given_theta1.as_array()
        t2 = m.given_theta2.as_array()
        with np.errstate(divide="ignore"):
            tables.append(np.log(t1) - np.log(t2))
    return tables


def _simulate(
    net: Network,
    agents: Sequence[AgentConfig],
    theta_true: Hypothesis,
    horizon: int,
    seeds: Sequence[int],
    stride: int,
    init: Sequence[float] | float,
    agent_keys: Sequence[int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every seed through the log-ratio recursion, ``_BLOCK_STEPS`` steps at a time.

    Returns ``(steps, records, finals)``: the recorded time indices, the
    ``(seeds, len(steps), n)`` records and the ``(seeds, n)`` final states.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = net.n_agents
    if len(agents) != n:
        raise ValueError("agents list must match the network size")
    keys = range(n) if agent_keys is None else agent_keys
    tables = _llr_tables(agents)
    pmfs = [agent.true_model.given(theta_true) for agent in agents]
    rngs = [[np.random.default_rng((int(seed), int(key))) for key in keys] for seed in seeds]
    init = np.broadcast_to(np.asarray(init, dtype=float), (n,))
    lam = np.tile(BeliefState.from_belief_theta1(init).log_ratio[:, None], (len(rngs), 1, 1))

    steps = np.arange(stride, horizon + 1, stride) if stride > 0 else np.empty(0, dtype=int)
    records = np.empty((len(rngs), len(steps), n))
    at = net.combination.T
    llr = np.empty((_BLOCK_STEPS, len(rngs), n, 1))
    for start in range(0, horizon, _BLOCK_STEPS):
        size = min(_BLOCK_STEPS, horizon - start)
        for s, seed_rngs in enumerate(rngs):
            for k, (table, pmf, rng) in enumerate(zip(tables, pmfs, seed_rngs)):
                llr[:size, s, k, 0] = table[sample(pmf, rng, size)]
        if not np.all(np.isfinite(llr[:size])):
            raise ZeroLikelihoodError(
                "an inference model assigns zero likelihood to a realized symbol"
            )
        for i in range(start + 1, start + size + 1):
            lam = at @ (lam + llr[i - start - 1])
            if stride > 0 and i % stride == 0:
                records[:, i // stride - 1] = lam[..., 0]
    return steps, records, lam[..., 0]


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
    steps, records, finals = _simulate(
        net, agents, theta_true, horizon, [seed], stride, initial_belief_theta1, agent_keys
    )
    return Trajectory(
        theta_true=theta_true,
        seed=int(seed),
        horizon=int(horizon),
        steps=steps,
        log_ratio=records[0],
        final_log_ratio=finals[0],
    )


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
        net, agents, theta_true, horizon, seeds, 0, initial_belief_theta1, None
    )
    return np.ascontiguousarray(finals.T)


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
