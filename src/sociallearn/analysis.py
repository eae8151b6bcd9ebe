"""Closed-form deception predictions, read from the kernel's log-ratio table.

Each agent k has one row of a ``learning.LogRatioTable``:
``llr_k(x) = ln inf_k(x|theta1) - ln inf_k(x|theta2)``, the step a symbol x
adds to its log-belief ratio (``inf_k`` is the forged model whenever agent
k has one), and its true PMF ``L_k``. Its drift toward the wrong state
theta_j' when theta_j is true is

    c_kj = -/+ sum_x L_k(x|theta_j) llr_k(x)     (- for theta1, + for theta2),

which is ``-D(L_k(.|theta_j) || L_k(.|theta_j'))`` for an agent without a
forged model and ``r_kj / u_k`` for an adversary. With ``u`` the Perron
vector (passed in by the caller) and ``Network.roles`` splitting the agents,

    s_j      = -(sum over normal agents of u_k c_kj)
    r_kj     = u_k c_kj for each adversary
    margin_j = u^T c_j = sum_k r_kj - s_j.

All beliefs converge almost surely to the wrong state when ``margin_j > 0``
and to the truth when ``< 0``. As ``lam_t = A^T (lam_{t-1} + llr_t)`` and
``A u = u``, ``u^T lam_t`` is a random walk whose mean step is the margin
(toward the wrong state), the almost-sure limit of the per-step
log-belief-ratio growth rate that the simulator cross-checks. The
adversary-side cost is ``cost_j = -margin_j``.

``_reports`` builds every report, for a stack of scenarios as the kernel
steps them: ``deception_verdict`` is its one-scenario call, on its agents'
one-row table, and a sweep hands it the table its grid was stepped with.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InfiniteDivergenceError, NoSignChangeError
from .learning import AgentConfig, LogRatioTable, log_ratio_table
from .network import Network, Role
from .probability import Hypothesis, LikelihoodModel

__all__ = [
    "Verdict",
    "DeceptionReport",
    "normal_divergence",
    "adversary_contribution",
    "deception_verdict",
    "critical_parameter",
]

#: |margin| below which the threshold comparison is reported as Boundary.
BOUNDARY_TOL = 1e-9
#: bisection stops: |margin| below, bracket width below, or midpoints tried
_ROOT_MARGIN_TOL = 1e-10
_ROOT_WIDTH_TOL = 1e-9
_ROOT_MAX_ITER = 200


class Verdict(enum.Enum):
    MISLED = "misled"
    LEARNS_TRUTH = "learns_truth"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class DeceptionReport:
    """Threshold comparison for both candidate true states.

    ``r1``/``r2`` hold one contribution per adversary (aligned with
    ``adversary_indices``); ``margin_j = sum(r_j) - s_j``;
    ``cost_j = -margin_j`` is the adversary-side cost whose negativity is
    equivalent to deception.
    """

    s1: float
    s2: float
    adversary_indices: tuple[int, ...]
    r1: tuple[float, ...]
    r2: tuple[float, ...]
    margin1: float
    margin2: float
    verdict1: Verdict
    verdict2: Verdict
    cost1: float
    cost2: float

    def margin(self, theta: Hypothesis) -> float:
        return self.margin1 if theta is Hypothesis.THETA1 else self.margin2

    def verdict(self, theta: Hypothesis) -> Verdict:
        return self.verdict1 if theta is Hypothesis.THETA1 else self.verdict2


def _weighted_drifts(
    table: LogRatioTable, u: np.ndarray, theta: Hypothesis | None = None
) -> np.ndarray:
    """``[j - 1, g, k]``: ``u[g, k] c_kj`` of agent ``k`` of stack row ``g`` in
    state j, read from ``table`` (see the module docstring) with ``u`` the
    ``(G, n)`` stack of Perron vectors; only ``theta``'s ``[g, k]`` when it is
    given. An infinite entry raises :class:`InfiniteDivergenceError`."""
    drifts = table.drifts()[:, table.index]
    weighted = np.asarray(u) * (drifts if theta is None else drifts[theta.value])
    if not np.isfinite(weighted).all():
        raise InfiniteDivergenceError(
            "expected log ratio infinite: zero likelihood at a symbol the true model emits"
        )
    return weighted


def normal_divergence(
    net: Network, models: Sequence[LikelihoodModel], j: int, u: np.ndarray
) -> float:
    """Centrality-weighted KL divergence of the normal sub-network for state j,
    the agents that ``net.roles`` tags normal, agent ``k``'s true model being
    ``models[k]``, with ``u`` the Perron vector."""
    normal = [k for k, r in enumerate(net.roles) if r is Role.NORMAL]
    table = log_ratio_table([[AgentConfig(models[k]) for k in normal]])
    return 0.0 - math.fsum(_weighted_drifts(table, u[normal], Hypothesis(j - 1))[0].tolist())


def adversary_contribution(
    u_k: float, true_model: LikelihoodModel, forged_model: LikelihoodModel, j: int
) -> float:
    """u_k * E_{true, theta_j} [ ln( forged(.|theta_j') / forged(.|theta_j) ) ]."""
    adversary = AgentConfig(true_model, forged_model)
    return float(_weighted_drifts(log_ratio_table([[adversary]]), u_k, Hypothesis(j - 1))[0, 0])


def _verdict(margin: float) -> Verdict:
    if margin > BOUNDARY_TOL:
        return Verdict.MISLED
    if margin < -BOUNDARY_TOL:
        return Verdict.LEARNS_TRUTH
    return Verdict.BOUNDARY


def _reports(
    nets: Sequence[Network], table: LogRatioTable, u: np.ndarray
) -> list[DeceptionReport]:
    """The report of each scenario of a stack: ``nets[g]``, row ``g`` of
    ``table`` (its only row, if one) and Perron vector ``u[g]``, the stack
    ``learning._simulate`` steps. The one place ``s_j``, ``r_kj``, ``margin_j``
    and the verdicts are computed; both states' drifts are checked finite."""
    reports = []
    for net, *weighted in zip(nets, *_weighted_drifts(table, u).tolist()):
        adv = net.malicious_indices
        normal = [k for k, r in enumerate(net.roles) if r is Role.NORMAL]
        s = [0.0 - math.fsum(w[k] for k in normal) for w in weighted]
        r = [tuple(w[k] for k in adv) for w in weighted]
        m = [math.fsum(w) for w in weighted]
        reports.append(DeceptionReport(
            s1=s[0], s2=s[1], adversary_indices=adv, r1=r[0], r2=r[1],
            margin1=m[0], margin2=m[1], verdict1=_verdict(m[0]), verdict2=_verdict(m[1]),
            cost1=-m[0], cost2=-m[1],
        ))
    return reports


def deception_verdict(
    net: Network, agents: Sequence[AgentConfig], u: np.ndarray
) -> DeceptionReport:
    """Full threshold report for both states, with ``u`` the Perron vector of
    ``net``: the one-scenario call of ``_reports``. Every agent contributes
    ``u_k c_kj``, its centrality times the drift of its (true, inference) pair
    in the log-ratio table, the inference model being the forged one whenever
    the agent has one. ``net.roles`` splits the contributions: the normal
    agents' make ``s_j``, the adversaries' ``r_j``."""
    return _reports([net], log_ratio_table([agents]), np.asarray(u)[None])[0]


def critical_parameter(
    margin_fn: Callable[[float], float], bracket: tuple[float, float]
) -> float:
    """Bisection root of a continuous scalar margin function.

    Stops when |margin| < ``_ROOT_MARGIN_TOL``, the bracket width falls below
    ``_ROOT_WIDTH_TOL`` or ``_ROOT_MAX_ITER`` midpoints were tried. Raises
    :class:`NoSignChangeError` when the endpoints do not straddle zero.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo, f_hi = margin_fn(lo), margin_fn(hi)
    if abs(f_lo) < _ROOT_MARGIN_TOL:
        return lo
    if abs(f_hi) < _ROOT_MARGIN_TOL:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoSignChangeError(
            f"margin has the same sign at both ends: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = margin_fn(mid)
        if abs(f_mid) < _ROOT_MARGIN_TOL or (hi - lo) < _ROOT_WIDTH_TOL:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predicted_and_empirical_agree(
    report: DeceptionReport, theta_true: Hypothesis, final_true_belief: float
) -> bool:
    """Does a final network-average belief agree with the closed-form verdict?"""
    verdict = report.verdict(theta_true)
    if verdict is Verdict.MISLED:
        return final_true_belief < 0.5
    if verdict is Verdict.LEARNS_TRUTH:
        return final_true_belief > 0.5
    return True
