"""Shared generators for randomized property tests (seeded, no hypothesis dep),
the references the log-domain kernel is checked against (the belief-domain
state and adapt/combine/step, a per-step log-domain loop), the per-column
uniform combination and the per-row CSV writer the array versions are checked
against, the per-adversary known-divergence plan the forge-once plan is
checked against, the closed-form margin of the shared-model centrality
family, used as an oracle, and a grid search over the floored simplex that the
agnostic forgery's exact oracle is checked against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from sociallearn import (
    AgentConfig,
    AttackPlan,
    AttackPlanEntry,
    Hypothesis,
    LikelihoodModel,
    Network,
    erdos_renyi_adjacency,
    expected_log_ratio,
    is_informative,
    kl_divergence,
    known_divergence_attack,
    make_network,
    make_pmf,
    sample,
    uniform_combination,
)
from sociallearn.errors import ZeroLikelihoodError
from sociallearn.learning import _sigmoid


def random_pmf(rng: np.random.Generator, n: int, floor: float = 0.0):
    w = rng.dirichlet(np.ones(n))
    if floor > 0.0:
        w = floor + (1.0 - n * floor) * w
    return make_pmf(w)


def random_model(
    rng: np.random.Generator,
    n: int,
    floor: float = 0.02,
    min_gap: float = 1e-3,
) -> LikelihoodModel:
    """Random informative model with all entries bounded away from zero."""
    while True:
        m = LikelihoodModel(random_pmf(rng, n, floor), random_pmf(rng, n, floor))
        gap = np.max(
            np.abs(m.given_theta1.as_array() - m.given_theta2.as_array())
        )
        if is_informative(m) and gap >= min_gap:
            return m


def random_uninformative_model(rng: np.random.Generator, n: int) -> LikelihoodModel:
    p = random_pmf(rng, n, floor=0.01)
    return LikelihoodModel(p, p)


def random_network(rng: np.random.Generator, n: int, n_malicious: int = 0):
    """Connected seeded ER network with uniform weights and self-loops."""
    seed = int(rng.integers(0, 2**31 - 1))
    adj = erdos_renyi_adjacency(n, 0.5, seed)
    return make_network(uniform_combination(adj), n_malicious)


def agents_for(net, models, forged=None) -> tuple[AgentConfig, ...]:
    forged = forged or {}
    return tuple(AgentConfig(models[k], forged.get(k)) for k in range(net.n_agents))


def seed_stream(seed) -> np.random.Generator:
    """A Monte Carlo seed's one observation stream: entropy ``seed``, spawn key ``(0,)``."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(0,)))


def draw_symbols(agents, theta_true, horizon, seed) -> list[np.ndarray]:
    """Whole-horizon observation block per agent, one ``sample`` call per (step,
    agent) in step-major order from ``seed_stream(seed)``: agent ``k`` at step
    ``t`` takes the stream's uniform ``t * n + k``."""
    rng = seed_stream(seed)
    pmfs = [a.true_model.given(theta_true) for a in agents]
    symbols = [[sample(p, rng) for p in pmfs] for _ in range(horizon)]
    return list(np.array(symbols, dtype=np.int64).reshape(horizon, len(pmfs)).T)


def reference_run(net, agents, theta_true, horizon, seed, stride):
    """Per-step log-domain loop over whole-horizon draws: (records, final state)."""
    tables = [
        np.log(a.inference_model.given_theta1.as_array())
        - np.log(a.inference_model.given_theta2.as_array())
        for a in agents
    ]
    blocks = draw_symbols(agents, theta_true, horizon, seed)
    llr = np.column_stack([tab[blk] for tab, blk in zip(tables, blocks)])
    at = net.combination.T
    lam = BeliefState.from_belief_theta1(np.full(net.n_agents, 0.5)).log_ratio.copy()
    records = []
    for i in range(1, horizon + 1):
        lam = (at @ np.column_stack([lam + llr[i - 1], np.zeros_like(lam)]))[:, 0]
        if i % stride == 0:
            records.append(lam)
    return np.array(records), lam


# --- belief-domain reference ------------------------------------------------------

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


def adapt(prior: Sequence[float], likelihood_row: Sequence[float]) -> np.ndarray:
    """Bayesian update of a 2-state belief pair with one likelihood row.

    ``likelihood_row`` holds the likelihood of the realized symbol under
    (theta1, theta2); malicious agents pass their forged row, normal agents
    the true one -- the arithmetic is identical.
    """
    prior = np.asarray(prior, dtype=float)
    row = np.asarray(likelihood_row, dtype=float)
    unnorm = row * prior
    z = unnorm.sum()
    if z == 0.0:
        raise ZeroLikelihoodError(
            "likelihood row is zero under both hypotheses for the realized symbol"
        )
    return unnorm / z


def combine(neighbor_psis: Sequence[Sequence[float]], weights: Sequence[float]) -> np.ndarray:
    """Weighted geometric-mean fusion of neighbors' intermediate beliefs.

    Computed in the log domain: ln mu(theta) = sum_l w_l ln psi_l(theta),
    then normalized.
    """
    psis = np.asarray(neighbor_psis, dtype=float)
    w = np.asarray(weights, dtype=float)
    log_mu = w @ np.log(psis)
    log_mu -= log_mu.max()
    mu = np.exp(log_mu)
    return mu / mu.sum()


def step(
    state: BeliefState,
    net: Network,
    agents: Sequence[AgentConfig],
    observations: Sequence[int],
) -> BeliefState:
    """One synchronous round in the belief domain: all adapt, then all combine.

    Observations must have been drawn from each agent's *true* model under
    the true state; this function only consumes them.
    """
    pairs = state.beliefs()
    psis = np.empty_like(pairs)
    for k, (agent, symbol) in enumerate(zip(agents, observations)):
        psis[k] = adapt(pairs[k], agent.inference_model.row(int(symbol)))
    a = net.combination
    new_pairs = np.empty_like(pairs)
    for k in range(net.n_agents):
        nbrs = np.flatnonzero(a[:, k] > 0.0)
        new_pairs[k] = combine(psis[nbrs], a[nbrs, k])
    return BeliefState(np.log(new_pairs[:, 0]) - np.log(new_pairs[:, 1]))


# --- per-column combination reference ----------------------------------------------

def reference_uniform_combination(adjacency) -> np.ndarray:
    """``uniform_combination`` one column at a time: 1/deg(k) on each neighbor, self included."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    a = np.zeros((n, n), dtype=float)
    for k in range(n):
        nbrs = set(np.flatnonzero(adj[:, k]).tolist()) | {k}
        a[sorted(nbrs), k] = 1.0 / len(nbrs)
    return a


# --- per-row CSV reference -------------------------------------------------------

def reference_trajectories_csv(result) -> str:
    """``trajectories.csv`` of an ``ExperimentResult``, one f-string per row."""

    def _fmt(x: float) -> str:
        return repr(float(x))

    rows = ["step,agent_id,role,belief_theta1,log_ratio,seed\n"]
    for s, seed in enumerate(result.config.experiment.seeds):
        lam = result.records[s]
        beliefs = _sigmoid(lam)
        for r, step_idx in enumerate(result.steps):
            for k in range(result.scenario.net.n_agents):
                role = result.scenario.net.roles[k].value
                rows.append(
                    f"{int(step_idx)},{k},{role},"
                    f"{_fmt(beliefs[r, k])},{_fmt(lam[r, k])},"
                    f"{int(seed)}\n"
                )
    return "".join(rows)


# --- per-adversary known-divergence plan ------------------------------------------

def reference_known_plan(models, centralities, s1, s2, eps, aggregate_centrality):
    """``multi_adversary_known`` with one construction per adversary, in order."""
    u_total = float(sum(centralities))
    entries = []
    for m, u_k in zip(models, centralities):
        if not is_informative(m):
            entries.append(AttackPlanEntry(
                forged=m, strategy="unmodified_uninformative", eps=eps,
                params={"floor_satisfied": True},
            ))
            continue
        u_eff = u_total if aggregate_centrality else float(u_k)
        entries.append(known_divergence_attack(m, u_eff, s1, s2, eps))
    return AttackPlan(entries=tuple(entries))


# --- closed-form oracle -----------------------------------------------------------

def state_pmfs(model: LikelihoodModel, j: int):
    """``(L(.|theta_j), L(.|theta_j'))``: a model's PMF in state j, then in the other."""
    theta = Hypothesis(j - 1)
    return model.given(theta), model.given(theta.other)


def homogeneous_centrality_margin(
    true_model: LikelihoodModel, forged_model: LikelihoodModel, j: int
) -> Callable[[float], float]:
    """Margin for state j as a function of aggregate adversary centrality.

    Valid when every agent shares one observation model and all adversaries
    one forged model: the margin is then linear in the aggregate centrality
    U, namely ``U * r_unit - (1 - U) * kl_j``, which makes the critical
    centrality a clean bisection target.
    """
    p, q = state_pmfs(true_model, j)
    f_j, f_other = state_pmfs(forged_model, j)
    kl_j = kl_divergence(p, q)
    r_unit = expected_log_ratio(p, f_other, f_j)

    def margin(u_total: float) -> float:
        return u_total * r_unit - (1.0 - u_total) * kl_j

    return margin


# --- grid-search reference for the agnostic forgery ---------------------------

#: grid points per simplex axis, then window-halving rounds
_GRID_AXIS_POINTS = 13
_GRID_ROUNDS = 48


def _grid_simplex_minimize(z: np.ndarray, eps: float, sign: float) -> np.ndarray:
    """Min of sign * sum z ln(x) over the eps-floored simplex by pure search.

    A dense grid over the first n-1 coordinates, then geometric window
    shrinking around the incumbent; no stationarity conditions. The cost
    grows as 13^(n-1), so it is meant for n <= 4.
    """
    n = len(z)
    lo, hi = eps, 1.0 - (n - 1) * eps

    def best_of(cands: np.ndarray) -> tuple[np.ndarray | None, float]:
        last = 1.0 - cands.sum(axis=1)
        ok = last >= eps  # only floor-feasible points compete
        if not ok.any():
            return None, np.inf
        full = np.column_stack([cands[ok], last[ok]])
        vals = sign * (np.log(full) @ z)
        k = int(np.argmin(vals))
        return full[k], float(vals[k])

    def grid(axes: list[np.ndarray]) -> np.ndarray:
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n - 1)

    x, v = best_of(grid([np.linspace(lo, hi, _GRID_AXIS_POINTS)] * (n - 1)))
    width = hi - lo
    for _ in range(_GRID_ROUNDS):
        width *= 0.5
        axes = [
            np.linspace(max(lo, c - width / 2.0), min(hi, c + width / 2.0), _GRID_AXIS_POINTS)
            for c in x[: n - 1]
        ]
        x2, v2 = best_of(grid(axes))
        if x2 is not None and v2 < v:
            x, v = x2, v2
    return x


def grid_oracle(model: LikelihoodModel, eps: float) -> LikelihoodModel:
    """The forged model that grid search finds for the network-agnostic
    objective, one column at a time."""
    z = model.given_theta1.as_array() - model.given_theta2.as_array()
    return LikelihoodModel(
        make_pmf(_grid_simplex_minimize(z, eps, +1.0)),
        make_pmf(_grid_simplex_minimize(z, eps, -1.0)),
    )
