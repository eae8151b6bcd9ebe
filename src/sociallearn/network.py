"""Graph topology, combination matrices, and Perron centrality.

The combination matrix ``A`` is left-stochastic with ``A[l, k]`` the trust
weight agent ``k`` assigns to neighbor ``l`` (columns sum to one). For a
strongly connected topology with at least one self-loop, ``(A^T)^i``
converges to ``1 u^T`` where ``u`` is the positive, sum-one Perron vector;
``u[k]`` measures agent ``k``'s long-run influence (centrality).

Topology builders return boolean adjacency matrices without self-loops;
``uniform_combination`` adds every agent's self-loop and turns that into the
uniform-trust combination matrix used throughout the experiments.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergenceError, NoPerronVectorError

COLUMN_SUM_TOL = 1e-9
#: rejection draws ``erdos_renyi_adjacency`` makes before giving up
_ER_MAX_TRIES = 1000
#: max-norm bound on ``A u - u`` that every returned Perron vector meets.
PERRON_RESIDUAL_TOL = 1e-12


class Role(enum.Enum):
    NORMAL = "normal"
    MALICIOUS = "malicious"


@dataclass(frozen=True, eq=False)
class Network:
    """Combination matrix plus per-agent roles.

    ``roles`` is the one record of which agents are adversaries: an agent
    (``learning.AgentConfig``) holds only its models. By convention the
    builders list malicious agents first; nothing in the analysis depends on
    the ordering.
    """

    combination: np.ndarray
    roles: tuple[Role, ...]

    def __post_init__(self):
        a = np.asarray(self.combination, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"combination matrix must be square, got {a.shape}")
        if a.shape[0] != len(self.roles):
            raise ValueError("roles length must match matrix size")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "combination", a)

    @property
    def n_agents(self) -> int:
        return self.combination.shape[0]

    @functools.cached_property
    def malicious_indices(self) -> tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.roles) if r is Role.MALICIOUS)

    @functools.cached_property
    def strongly_connected(self) -> bool:
        """Does every agent reach every other along positive weights?"""
        support = self.combination > 0.0
        return _reaches_all(support) and _reaches_all(support.T)


@dataclass(frozen=True)
class Violation:
    """One validation failure; ``code`` is stable, ``detail`` is for humans."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# --- adjacency builders -------------------------------------------------------

def complete_adjacency(n: int) -> np.ndarray:
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def star_adjacency(n: int, hub: int = 0) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[hub, :] = True
    adj[:, hub] = True
    adj[hub, hub] = False
    return adj


def ring_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for k in range(n):
        adj[k, (k + 1) % n] = adj[(k + 1) % n, k] = True
    return adj


def edge_list_adjacency(n: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    i, j = np.asarray(edges, dtype=np.intp).reshape(len(edges), 2).T
    off = i != j  # every agent's self-loop comes from uniform_combination, not edges
    adj[i[off], j[off]] = adj[j[off], i[off]] = True
    return adj


def erdos_renyi_adjacency(n: int, edge_prob: float, seed: int) -> np.ndarray:
    """Seeded Erdos-Renyi topology, rejected until connected.

    ``uniform_combination`` gives every agent a self-loop, so connectivity of
    the undirected graph is exactly strong connectivity of the combination
    matrix, and rejection here guarantees a valid network.
    """
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)  # row-major, so draw k decides the k-th pair (i < j)
    for _ in range(_ER_MAX_TRIES):
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = rng.random(iu[0].size) < edge_prob
        adj |= adj.T
        if _reaches_all(adj):
            return adj
    raise NoConvergenceError(
        f"no connected Erdos-Renyi draw in {_ER_MAX_TRIES} tries (p={edge_prob})"
    )


# --- combination matrices -------------------------------------------------------

def uniform_combination(adjacency: np.ndarray) -> np.ndarray:
    """Uniform trust weights: column k puts 1/deg(k) on each in-neighbor.

    Every agent includes itself in its own neighborhood, so ``deg(k) >= 1``.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric (undirected links)")
    support = adj | np.eye(adj.shape[0], dtype=bool)
    return np.where(support, 1.0 / support.sum(axis=0), 0.0)


def trust_weighted_complete(
    n_agents: int, n_malicious: int, trust_weight: float
) -> np.ndarray:
    """One-parameter complete-graph family whose adversary centrality sweeps (0, 1).

    Every agent assigns weight ``trust_weight`` to each malicious agent
    (indices 0..n_malicious-1) and splits the remainder uniformly over the
    normal agents (self included). Aggregate malicious centrality increases
    continuously from ~0 to ~1 as ``trust_weight`` goes from 0 to
    1/n_malicious, which makes this the documented builder for
    centrality-parameterized sweeps and root finding.
    """
    if not 0 < n_malicious < n_agents:
        raise ValueError("need 0 < n_malicious < n_agents")
    if not 0.0 < trust_weight < 1.0 / n_malicious:
        raise ValueError(f"trust_weight must lie in (0, 1/{n_malicious})")
    n_normal = n_agents - n_malicious
    a = np.zeros((n_agents, n_agents), dtype=float)
    a[:n_malicious, :] = trust_weight
    a[n_malicious:, :] = (1.0 - n_malicious * trust_weight) / n_normal
    return a


def make_network(combination: np.ndarray, n_malicious: int) -> Network:
    """Wrap a combination matrix with the malicious-first role convention."""
    n = np.asarray(combination).shape[0]
    roles = tuple(
        Role.MALICIOUS if k < n_malicious else Role.NORMAL for k in range(n)
    )
    return Network(np.asarray(combination, dtype=float), roles)


# --- validation -----------------------------------------------------------------

def validate_network(net: Network) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: callers (and the CLI) report all
    of them at once.
    """
    out: list[Violation] = []
    a = net.combination

    if np.any(a < -1e-15) or np.any(a > 1.0 + 1e-12):
        out.append(Violation("EntryOutOfRange", "weights must lie in [0, 1]"))
    sums = a.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
    for k in bad[:8]:
        out.append(
            Violation("NotLeftStochastic", f"column {k} sums to {sums[k]!r}")
        )
    if not np.any(np.diag(a) > 0.0):
        out.append(Violation("NoSelfLoop", "no agent trusts itself (a_kk > 0)"))
    if not net.strongly_connected:
        out.append(
            Violation("NotStronglyConnected", "some agent pair has no positive path")
        )
    if all(r is Role.MALICIOUS for r in net.roles):
        out.append(Violation("NoNormalAgent", "at least one normal agent required"))
    return out


def _reaches_all(support: np.ndarray) -> bool:
    """Does agent 0 reach every agent, stepping from ``v`` to ``w`` where ``support[w, v]``?"""
    seen = np.zeros(support.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = support[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen.all())


# --- Perron centrality ------------------------------------------------------------

def perron_vector(net: Network) -> np.ndarray:
    """Positive fixed vector of A (eigenvalue 1), normalized to sum one.

    One bordered linear solve: the rows of ``(A - I) u = 0`` with the last
    one replaced by ``1^T u = 1``. The result is checked, not trusted: a
    matrix without a unique positive fixed vector raises
    :class:`NoPerronVectorError`, as does ``|A u - u|`` above
    ``PERRON_RESIDUAL_TOL`` anywhere. Strong connectivity is checked on the
    support, because rounding can leave the zero entries of a reducible
    matrix's fixed vector slightly positive. Returns a read-only array.
    """
    a = net.combination
    if not net.strongly_connected:
        raise NoPerronVectorError("network is not strongly connected")
    bordered = a - np.eye(net.n_agents)
    bordered[-1] = 1.0
    rhs = np.zeros(net.n_agents)
    rhs[-1] = 1.0
    try:
        u = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoPerronVectorError(f"no unique fixed vector: {exc}") from exc
    if not np.all(u > 0.0):
        raise NoPerronVectorError("fixed vector is not positive")
    residual = float(np.max(np.abs(a @ u - u)))
    if not residual <= PERRON_RESIDUAL_TOL:
        raise NoPerronVectorError(
            f"fixed-vector residual {residual!r} exceeds {PERRON_RESIDUAL_TOL!r}"
        )
    u.setflags(write=False)
    return u


def adversary_centrality(u: np.ndarray, roles: Sequence[Role]) -> float:
    """Aggregate centrality of the malicious agents, sum of their u entries."""
    if len(u) != len(roles):
        raise ValueError("centrality vector and roles must have equal length")
    return float(sum(u[k] for k, r in enumerate(roles) if r is Role.MALICIOUS))
