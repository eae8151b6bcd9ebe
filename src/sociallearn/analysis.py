"""Closed-form deception predictions.

The asymptotic fate of the network is decided by a scalar comparison per
candidate true state theta_j:

    s_j  = sum over normal agents of u_k D(L_k(.|theta_j) || L_k(.|theta_j'))
    r_kj = u_k E_{true theta_j}[ ln( forged_k(.|theta_j') / forged_k(.|theta_j) ) ]

All beliefs converge almost surely to the wrong state when
``sum_k r_kj > s_j`` and to the truth when ``<``; the margin
``sum r_kj - s_j`` is also the exact almost-sure limit of the per-step
log-belief-ratio growth rate, which is what the simulator cross-checks.
The adversary-side cost function is the same margin with flipped sign, so
``cost_j = -margin_j`` holds identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoSignChangeError
from .learning import AgentConfig
from .network import Network, Role, perron_vector
from .probability import (
    Hypothesis,
    LikelihoodModel,
    expected_log_ratio,
    kl_divergence,
)

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


def _state_pmfs(model: LikelihoodModel, j: int):
    if j == 1:
        return model.given_theta1, model.given_theta2
    if j == 2:
        return model.given_theta2, model.given_theta1
    raise ValueError(f"state index must be 1 or 2, got {j}")


def normal_divergence(
    net: Network,
    agents: Sequence[AgentConfig],
    j: int,
    u: np.ndarray | None = None,
) -> float:
    """Centrality-weighted KL divergence of the normal sub-network for state j."""
    u = u if u is not None else perron_vector(net)
    total = 0.0
    for k, agent in enumerate(agents):
        if agent.role is not Role.NORMAL:
            continue
        p, q = _state_pmfs(agent.true_model, j)
        total += float(u[k]) * kl_divergence(p, q)
    return total


def adversary_contribution(
    u_k: float, true_model: LikelihoodModel, forged_model: LikelihoodModel, j: int
) -> float:
    """u_k * E_{true, theta_j} [ ln( forged(.|theta_j') / forged(.|theta_j) ) ]."""
    weights, _ = _state_pmfs(true_model, j)
    f_j, f_other = _state_pmfs(forged_model, j)
    return u_k * expected_log_ratio(weights, f_other, f_j)


def deception_verdict(
    net: Network,
    agents: Sequence[AgentConfig],
    u: np.ndarray | None = None,
) -> DeceptionReport:
    """Full threshold report for both candidate true states.

    Each adversary contributes through ``inference_model``, the forged model
    its update uses (its true model when it has none).
    """
    u = u if u is not None else perron_vector(net)
    adv = tuple(k for k, a in enumerate(agents) if a.role is Role.MALICIOUS)
    s = {j: normal_divergence(net, agents, j, u) for j in (1, 2)}
    r: dict[int, list[float]] = {1: [], 2: []}
    for k in adv:
        u_k = float(u[k])
        true, forged = agents[k].true_model, agents[k].inference_model
        for j in (1, 2):
            r[j].append(adversary_contribution(u_k, true, forged, j))

    def decide(margin: float) -> Verdict:
        if margin > BOUNDARY_TOL:
            return Verdict.MISLED
        if margin < -BOUNDARY_TOL:
            return Verdict.LEARNS_TRUTH
        return Verdict.BOUNDARY

    m1 = math.fsum(r[1]) - s[1]
    m2 = math.fsum(r[2]) - s[2]
    return DeceptionReport(
        s1=s[1],
        s2=s[2],
        adversary_indices=adv,
        r1=tuple(r[1]),
        r2=tuple(r[2]),
        margin1=m1,
        margin2=m2,
        verdict1=decide(m1),
        verdict2=decide(m2),
        cost1=-m1,
        cost2=-m2,
    )


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
