"""Constructive adversarial likelihood strategies and their oracles.

Two constructions are implemented, plus a random baseline:

**Known-divergence construction.** Given the normal sub-network divergences
(s1, s2), the adversary's centrality u, and a support pair of symbols, the
deception conditions become linear in the transformed coordinates
``x1 = ln(p1/(alpha - p2))``, ``x2 = ln((alpha - p1)/p2)``. The admissible
set is an open wedge bounded by two negative-slope lines meeting at

    x1' = n2 / (u d),    x2' = -n1 / (u d)

with ``n_j = L(z_j|theta2) s1 + L(z_j|theta1) s2`` and
``d = L(z2|theta2) L(z1|theta1) - L(z2|theta1) L(z1|theta2)``. Any wedge
point yields forged PMFs that mislead the network for *both* candidate true
states. The epsilon floor on forged masses further restricts (x1, x2) to a
region that is strictly smaller than the naive box |x| <= ln((alpha-eps)/eps);
for a fixed x1 the floor constraints are linear in e^{x2}, one of them binds
per side, and the feasible x2 interval is computed exactly in the log
domain. Its slack (upper minus lower end) is concave in x1, so the
floor-feasible x1 set is one interval and its point of largest slack is
found by bracketing to 1e-12. Each pair's :class:`DistortionRegion` records
the inputs it was built from, so the search and the mapping back to forged
PMFs read the region alone. The constructor scans candidate support pairs
by decreasing |d| and takes the first pair with positive slack, x2 at the
middle of its interval; only when no pair has any (the wedge may meet the
box only where the floor fails) does it fall back to the classical
wedge-midpoint choice, which still satisfies both deception inequalities
but places a forged mass below the floor -- flagged on the returned entry.
Both paths build their entry through one function.

**Unknown-divergence construction.** Without network knowledge the
adversary minimizes the expected-cost objective assuming equally likely
states; the minimizer floors every symbol of the confidence-aligned set and
water-fills the remaining mass in proportion to the confidence gap
``z(s) = L(s|theta1) - L(s|theta2)``, flooring any symbol whose share
would fall below the floor. An oracle (`oracle_optimal_attack`) that
enumerates every face of the floored simplex independently verifies
optimality for alphabets of up to 12 symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllUninformativeError,
    DegeneratePairError,
    EpsilonTooLargeError,
    OutOfRangeError,
    UninformativeModelError,
)
from .probability import LikelihoodModel, Pmf, make_pmf, is_informative

__all__ = [
    "ConfidencePartition",
    "SeparabilityReport",
    "DistortionRegion",
    "AttackPlanEntry",
    "AttackPlan",
    "confidence_partition",
    "separability",
    "unknown_divergence_attack",
    "unknown_divergence_objective",
    "oracle_optimal_attack",
    "select_support_pair",
    "distortion_region",
    "known_divergence_attack",
    "multi_adversary_known",
    "forge_once",
    "one_variable_feasibility",
    "random_attack",
]

_STRICT_MARGIN = 1e-9
#: slack samples per search round; they set only the search's speed
_SLACK_SAMPLES = 257
#: the oracle enumerates 2^A faces per column
_FACES_MAX_ALPHABET = 12


# =============================================================================
# Confidence partition and separability
# =============================================================================

@dataclass(frozen=True, eq=False)
class ConfidencePartition:
    """Split of the alphabet by the sign of z(s) = L(s|theta1) - L(s|theta2).

    ``d1`` holds symbols more (or equally) likely under theta1, ``d2`` the
    strictly-theta2-leaning rest. Ties (z = 0) go to ``d1``.
    """

    z: np.ndarray
    d1: tuple[int, ...]
    d2: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.z, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "z", arr)


def confidence_partition(model: LikelihoodModel) -> ConfidencePartition:
    z = model.given_theta1.as_array() - model.given_theta2.as_array()
    d1 = tuple(int(s) for s in np.flatnonzero(z >= 0.0))
    d2 = tuple(int(s) for s in np.flatnonzero(z < 0.0))
    return ConfidencePartition(z=z, d1=d1, d2=d2)


@dataclass(frozen=True)
class SeparabilityReport:
    """Masses and log-weighted constants of the confidence partition.

    ``xi_j`` / ``sigma_j`` are the masses of d1 / d2 under theta_j. The
    observations are separable when d1 carries the majority of mass under
    theta1 and the minority under theta2, which is exactly the condition
    under which the unknown-divergence attack deceives for both states at
    small epsilon.
    """

    xi1: float
    xi2: float
    sigma1: float
    sigma2: float
    c1: float
    c2: float
    b1: float
    b2: float
    separable: bool


def separability(model: LikelihoodModel) -> SeparabilityReport:
    if not is_informative(model):
        raise UninformativeModelError("separability needs an informative model")
    part = confidence_partition(model)
    t = (model.given_theta1.as_array(), model.given_theta2.as_array())
    d1 = list(part.d1)
    d2 = list(part.d2)
    z = part.z

    def mass(tj: np.ndarray, idx: list[int]) -> float:
        return float(tj[idx].sum()) if idx else 0.0

    def logw(tj: np.ndarray, idx: list[int]) -> float:
        # sum_{s in idx} L(s|theta_j) ln( z(s) / sum_{s' in idx} z(s') )
        if not idx:
            return 0.0
        zs = z[idx]
        zsum = float(zs.sum())
        total = 0.0
        for s, zv in zip(idx, zs):
            w = float(tj[s])
            if w == 0.0:
                continue
            ratio = zv / zsum
            total += w * (math.log(ratio) if ratio > 0.0 else -math.inf)
        return total

    xi1, xi2 = mass(t[0], d1), mass(t[1], d1)
    sigma1, sigma2 = mass(t[0], d2), mass(t[1], d2)
    return SeparabilityReport(
        xi1=xi1,
        xi2=xi2,
        sigma1=sigma1,
        sigma2=sigma2,
        c1=logw(t[0], d1),
        c2=logw(t[1], d1),
        b1=logw(t[0], d2),
        b2=logw(t[1], d2),
        separable=bool(sigma1 < xi1 and sigma2 > xi2),
    )


# =============================================================================
# Unknown-divergence (network-agnostic) attack
# =============================================================================

def _check_epsilon(eps: float, alphabet_size: int) -> None:
    if not 0.0 < eps < 1.0 / alphabet_size:
        raise OutOfRangeError(
            f"epsilon must lie in (0, 1/{alphabet_size}), got {eps!r}"
        )


def unknown_divergence_attack(model: LikelihoodModel, eps: float) -> LikelihoodModel:
    """Exact optimal forged model for a network-agnostic adversary.

    Column theta_j maximizes ``sum_s w_s ln x_s`` over the epsilon-floored
    simplex, with ``w = -z`` for theta1 and ``w = z`` for theta2. It floors
    every symbol of the confidence set aligned with theta_j and water-fills
    the rest: each remaining symbol gets mass proportional to its
    confidence gap |z(s)|, except those whose share would fall below the
    floor, which are floored too. Tie symbols (z = 0) carry zero objective
    weight; they are floored in both columns, which leaves the objective
    value untouched while keeping the full-support floor valid.
    """
    if not is_informative(model):
        raise UninformativeModelError(
            "the objective is identically zero for an uninformative model"
        )
    _check_epsilon(eps, model.alphabet_size)
    z = model.given_theta1.as_array() - model.given_theta2.as_array()
    f1 = _closed_form_column(z, z < 0.0, eps)
    f2 = _closed_form_column(z, z > 0.0, eps)
    return LikelihoodModel(make_pmf(f1), make_pmf(f2))


def _closed_form_column(z: np.ndarray, free: np.ndarray, eps: float) -> np.ndarray:
    """One forged column: the floor off ``free``, mass proportional to z on it.

    theta1 takes ``free = z < 0`` and theta2 ``free = z > 0``; tie symbols
    are off ``free`` in both, so both columns floor them. While a
    proportional mass falls below the floor, the free symbol with the
    smallest |z| joins the floor and the mass is shared again. This is the
    water-filling solution of the KKT conditions (Boyd & Vandenberghe,
    *Convex Optimization*, 5.5.3): ``x_s = max(eps, |z_s| / nu)``, so the
    floored symbols are exactly those with ``|z_s| <= nu eps``.
    """
    free = free.copy()
    while True:
        mass = z[free] / z[free].sum() * (1.0 - float(np.count_nonzero(~free)) * eps)
        if not np.any(mass < eps):
            column = np.full(len(z), eps)
            column[free] = mass
            return column
        on = np.flatnonzero(free)
        free[on[np.argmin(np.abs(z[on]))]] = False


def unknown_divergence_objective(model: LikelihoodModel, forged: LikelihoodModel) -> float:
    """Per-agent cost sum_s z(s) (ln forged(s|theta1) - ln forged(s|theta2)).

    The network-agnostic attack minimizes exactly this (centrality scales
    every candidate equally, so it drops out).
    """
    z = model.given_theta1.as_array() - model.given_theta2.as_array()
    lf1 = np.log(forged.given_theta1.as_array())
    lf2 = np.log(forged.given_theta2.as_array())
    return float(np.sum(z * (lf1 - lf2)))


def _face_maximum(w: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Max of ``sum_s w_s ln x_s`` over the eps-floored simplex, by faces.

    A face is a set of floored symbols (x = eps); the free rest C shares
    ``R = 1 - (n - |C|) eps``. The maximum lies in the relative interior of
    some face, where it is stationary: ``x_C = w_C R / sum(w_C)``, a point
    of the face only when the free weights share a sign. A face whose free
    weights are all zero is flat, so its vertices carry its value. Every
    face's stationary point and every vertex is a candidate; the best
    feasible one wins. Nothing here assumes which symbols the optimum floors.
    """
    n = len(w)
    free = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1 == 1  # every non-empty C
    size = free.sum(axis=1)
    share = 1.0 - (n - size) * eps
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(free, w * (share / (free @ w))[:, None], eps)
    vertex = size == 1  # the only point of its face, whatever its weight
    x[vertex] = np.where(free[vertex], share[vertex, None], eps)
    x = x[np.all(x >= eps, axis=1)]  # NaN rows (all-zero weights) drop out too
    values = np.log(x) @ w
    k = int(np.argmax(values))
    return x[k], float(values[k])


def oracle_optimal_attack(model: LikelihoodModel, eps: float) -> tuple[LikelihoodModel, float]:
    """Exact minimizer of the network-agnostic objective by face enumeration.

    Each forged column is maximized independently over every face of the
    epsilon-floored simplex (:func:`_face_maximum`), which makes this an
    optimality check on :func:`unknown_divergence_attack` that shares none
    of its reasoning. The cost is 2^A faces per column, so alphabets are
    capped at ``_FACES_MAX_ALPHABET`` symbols. Returns the forged model and
    its objective value.
    """
    if model.alphabet_size > _FACES_MAX_ALPHABET:
        raise OutOfRangeError(
            f"oracle is restricted to alphabets of size <= {_FACES_MAX_ALPHABET}"
        )
    _check_epsilon(eps, model.alphabet_size)
    z = model.given_theta1.as_array() - model.given_theta2.as_array()
    x1, v1 = _face_maximum(-z, eps)
    x2, v2 = _face_maximum(z, eps)
    return LikelihoodModel(make_pmf(x1), make_pmf(x2)), -v1 - v2


# =============================================================================
# Known-divergence construction
# =============================================================================

@dataclass(frozen=True)
class DistortionRegion:
    """Geometry of the transformed feasibility wedge for one support pair.

    ``x1_prime``/``x2_prime`` are the intersection point of the two
    boundary lines; ``x_minus``/``x_plus`` the symmetric box induced by the
    epsilon floor on the transformed coordinates; ``epsilon_bound`` the
    largest floor for which the intersection stays strictly inside the box
    (the construction's feasibility condition).

    The region also records the inputs it was built from, which every later
    step of the construction reads: ``l11``, ``l21``, ``l12``, ``l22`` are
    L(z1|theta1), L(z2|theta1), L(z1|theta2), L(z2|theta2) on the pair.
    """

    support_pair: tuple[int, int]
    d_k: float
    n1: float
    n2: float
    x1_prime: float
    x2_prime: float
    x_minus: float
    x_plus: float
    alpha_k: float
    epsilon_bound: float
    empty: bool
    l11: float
    l21: float
    l12: float
    l22: float
    u_k: float
    s1: float
    s2: float
    eps: float
    alphabet_size: int


def select_support_pair(model: LikelihoodModel) -> tuple[int, int]:
    """Deterministic support pair: the first of ``_candidate_pairs``, maximal
    |determinant|, then lexicographic.

    The determinant ``d = L(z2|t2) L(z1|t1) - L(z2|t1) L(z1|t2)`` must be
    nonzero for the pair to support the construction, and ``z2`` needs mass
    in both states; :class:`DegeneratePairError` when no pair qualifies.
    """
    if not is_informative(model):
        raise UninformativeModelError("support pair needs an informative model")
    pairs = _candidate_pairs(model)
    if not pairs:
        raise DegeneratePairError("no pair with nonzero determinant and mass at z2 in both states")
    return pairs[0]


def _candidate_pairs(model: LikelihoodModel) -> list[tuple[int, int]]:
    """Pairs (i, j) with d != 0 and mass at j in both states, by decreasing |d|, then (i, j)."""
    t1 = model.given_theta1.as_array()
    t2 = model.given_theta2.as_array()
    n = model.alphabet_size
    cands = []
    for i in range(n):
        for j in range(n):
            if i == j or t1[j] == 0.0 or t2[j] == 0.0:
                continue
            d = t2[j] * t1[i] - t1[j] * t2[i]
            if d != 0.0:
                cands.append((-abs(d), i, j))
    cands.sort()
    return [(i, j) for _, i, j in cands]


def _pair_geometry(
    model: LikelihoodModel,
    u_k: float,
    s1: float,
    s2: float,
    eps: float,
    pair: tuple[int, int],
) -> DistortionRegion:
    i, j = pair
    t1 = model.given_theta1.as_array()
    t2 = model.given_theta2.as_array()
    l11, l21 = float(t1[i]), float(t1[j])
    l12, l22 = float(t2[i]), float(t2[j])
    d = l22 * l11 - l21 * l12
    if d == 0.0:
        raise DegeneratePairError(f"support pair {pair} has zero determinant")
    n1 = l12 * s1 + l11 * s2
    n2 = l22 * s1 + l21 * s2
    x1p = n2 / (u_k * d)
    x2p = -n1 / (u_k * d)
    size = model.alphabet_size
    alpha = 1.0 - (size - 2) * eps
    x_plus = math.log(alpha - eps) - math.log(eps)

    def invbound(xp: float) -> float:
        # 1 / (e^|xp| + size - 1), flushing to 0 instead of overflowing
        return 0.0 if abs(xp) > 700.0 else 1.0 / (math.exp(abs(xp)) + size - 1)

    bound = min(invbound(x1p), invbound(x2p))
    return DistortionRegion(
        support_pair=(i, j),
        d_k=d,
        n1=n1,
        n2=n2,
        x1_prime=x1p,
        x2_prime=x2p,
        x_minus=-x_plus,
        x_plus=x_plus,
        alpha_k=alpha,
        epsilon_bound=bound,
        empty=not eps < bound,
        l11=l11, l21=l21, l12=l12, l22=l22,
        u_k=u_k, s1=s1, s2=s2, eps=eps, alphabet_size=size,
    )


def _check_region_inputs(u_k: float, s1: float, s2: float, eps: float, size: int) -> None:
    if not 0.0 < u_k < 1.0:
        raise OutOfRangeError(f"centrality must lie in (0, 1), got {u_k!r}")
    if not (math.isfinite(s1) and math.isfinite(s2) and s1 >= 0.0 and s2 >= 0.0):
        raise OutOfRangeError("sub-network divergences must be finite and >= 0")
    _check_epsilon(eps, size)


def distortion_region(
    model: LikelihoodModel,
    u_k: float,
    s1: float,
    s2: float,
    eps: float,
    pair: tuple[int, int] | None = None,
) -> DistortionRegion:
    """Region geometry for ``pair`` (default: :func:`select_support_pair`).

    Raises :class:`OutOfRangeError` for a pair index outside the alphabet and
    :class:`DegeneratePairError` for a pair with a zero determinant (``i == j``)
    or, by default, when no pair qualifies.
    """
    _check_region_inputs(u_k, s1, s2, eps, model.alphabet_size)
    if pair is None:
        pair = select_support_pair(model)
    elif not all(0 <= x < model.alphabet_size for x in pair):
        raise OutOfRangeError(
            f"support pair {pair} outside the alphabet 0..{model.alphabet_size - 1}"
        )
    return _pair_geometry(model, u_k, s1, s2, eps, pair)


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) for x < 0, vectorized and stable."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            x < -math.log(2.0), np.log1p(-np.exp(x)), np.log(-np.expm1(x))
        )


def _logsubexp(a, b):
    """log(e^a - e^b) where a > b elementwise; -inf when a <= b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = np.where(a > b, b - a, -1.0)
    return np.where(a > b, a + _log1mexp(diff), -np.inf)


def _floor_x2_interval(
    region: DistortionRegion, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact feasible x2 interval (lo, hi) per x1: wedge, box, and floor.

    The wedge lies between the two deception lines, x2 above
    ``(s1 - u l11 x1) / (u l21)`` and below ``-(s2 + u l12 x1) / (u l22)``.
    With E = e^{x2} the four floor constraints are linear in E for fixed
    x1, so the interval endpoints are closed-form in the log domain. Only
    one floor bound per side can bind. Write c = x1, a = alpha and

        F1 = ln(a - (a-eps) e^c) - ln eps,   F2 = ln eps + c - ln(a e^c - (a-eps)),
        G1 = ln(a - eps e^c) - ln(a-eps),    G2 = ln(a-eps) + c - ln(a e^c - eps).

    For beta in {eps, a - eps}, ``(a - beta e^c)(a - beta e^{-c}) <= (a -
    beta)^2`` since ``e^c + e^{-c} >= 2``; beta = a - eps gives F1 <= F2
    and beta = eps gives G1 <= G2; a log of a non-positive argument makes F1
    or G1 -inf, or F2 or G2 +inf, which keeps both. For d_k > 0 the floor
    bounds x2 below by F1 and F2 and above by G1 and G2, so only F2 and G1
    bind; for d_k < 0 the roles swap (F1, F2 above, G1, G2 below) and only
    G2 and F1 bind.
    """
    x1 = np.asarray(x1, dtype=float)
    u, eps = region.u_k, region.eps
    leps = math.log(eps)
    lal = math.log(region.alpha_k)
    lame = math.log(region.alpha_k - eps)
    lo = np.maximum((region.s1 - u * region.l11 * x1) / (u * region.l21), -region.x_plus)
    hi = np.minimum(-(region.s2 + u * region.l12 * x1) / (u * region.l22), region.x_plus)
    if region.d_k > 0:
        lo = np.maximum(lo, leps + x1 - _logsubexp(lal + x1, lame))  # F2
        hi = np.minimum(hi, _logsubexp(lal, leps + x1) - lame)  # G1
    else:
        lo = np.maximum(lo, lame + x1 - _logsubexp(lal + x1, leps))  # G2
        hi = np.minimum(hi, _logsubexp(lal, lame + x1) - leps)  # F1
    return lo, hi


def _masses_from_x(
    region: DistortionRegion, x1: float, x2: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Map (x1, x2) back to (p1, p2) and assemble both forged columns.

    Each of the four pair masses is evaluated from its own log-domain
    expression so that tiny masses keep full relative precision instead of
    being recovered by catastrophic subtraction from alpha.
    """
    i, j = region.support_pair
    lal = math.log(region.alpha_k)
    lden = float(_logsubexp(max(x1, x2), min(x1, x2)))
    l1me1 = float(_logsubexp(x1, 0.0)) if x1 > 0 else float(_log1mexp(np.asarray(x1)))
    l1me2 = float(_logsubexp(x2, 0.0)) if x2 > 0 else float(_log1mexp(np.asarray(x2)))
    p1 = math.exp(lal + x1 + l1me2 - lden)          # forged(z1 | theta2)
    q1 = math.exp(lal + x2 + l1me1 - lden)          # forged(z2 | theta2) = alpha - p1
    p2 = math.exp(lal + l1me1 - lden)               # forged(z2 | theta1)
    q2 = math.exp(lal + l1me2 - lden)               # forged(z1 | theta1) = alpha - p2
    f1 = np.full(region.alphabet_size, region.eps)
    f2 = np.full(region.alphabet_size, region.eps)
    f1[i] = q2
    f1[j] = p2
    f2[i] = p1
    f2[j] = q1
    return p1, p2, f1, f2


@dataclass(frozen=True)
class AttackPlanEntry:
    """One adversary's forged model plus full construction provenance."""

    forged: LikelihoodModel
    strategy: str
    eps: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AttackPlan:
    """Per-adversary forged models; index aligned with the adversary list."""

    entries: tuple[AttackPlanEntry, ...]


def known_divergence_attack(
    model: LikelihoodModel, u_k: float, s1: float, s2: float, eps: float
) -> AttackPlanEntry:
    """Forged model guaranteed to mislead for both candidate true states.

    Scans support pairs by decreasing |determinant|. For each admissible
    pair (epsilon below that pair's feasibility bound)
    :func:`_floor_feasible_point` finds the floor-feasible point of largest
    slack, exactly up to 1e-12, or that there is none. When no pair admits
    one, the first admissible pair's wedge midpoint is returned instead:
    both deception inequalities still hold strictly, but a forged mass sits
    below the floor; ``params['floor_satisfied']`` records which path was
    taken.

    Raises :class:`OutOfRangeError` for a centrality outside (0, 1), a
    divergence that is negative or not finite, or an epsilon outside
    (0, 1/alphabet size); :class:`EpsilonTooLargeError` when epsilon fails
    the bound for every support pair; and :class:`UninformativeModelError`
    for a model with identical per-hypothesis PMFs.
    """
    if not is_informative(model):
        raise UninformativeModelError("deceiving both states needs an informative model")
    _check_region_inputs(u_k, s1, s2, eps, model.alphabet_size)

    first: DistortionRegion | None = None
    for i, j in _candidate_pairs(model):
        region = _pair_geometry(model, u_k, s1, s2, eps, (i, j))
        if region.empty:
            continue
        if first is None:
            first = region
        point = _floor_feasible_point(region)
        if point is not None:
            entry = _entry(region, *point, floor_satisfied=True)
            if entry is not None:
                return entry
            # numeric edge: a mass fell below the floor; try the next pair

    if first is None:
        raise EpsilonTooLargeError(
            "epsilon exceeds the feasibility bound of every support pair"
        )
    return _entry(first, *_wedge_midpoint(first), floor_satisfied=False)


def _wedge_midpoint(region: DistortionRegion) -> tuple[float, float]:
    """Classical construction point: slope-interval midpoint line, box-clipped."""
    slopes = sorted((-region.l11 / region.l21, -region.l12 / region.l22))
    beta = 0.5 * (slopes[0] + slopes[1])
    y0 = region.x2_prime
    if region.d_k > 0:
        dmax = min(region.x_plus - region.x1_prime, (region.x_plus + y0) / (-beta))
        delta = 0.5 * dmax
    else:
        dmin = max(-region.x_plus - region.x1_prime, (region.x_plus - y0) / beta)
        delta = 0.5 * dmin
    return region.x1_prime + delta, beta * delta + y0


def _floor_feasible_point(region: DistortionRegion) -> tuple[float, float] | None:
    """Floor-feasible (x1, x2) of largest slack on the wedge's side of the apex, or None.

    The slack ``hi - lo`` of :func:`_floor_x2_interval` is concave in x1:
    lo is a max of linear, constant and convex terms (F2 and G2 are convex),
    hi a min of linear, constant and concave ones (G1 and F1 are concave).
    So the floor-feasible x1 set is one interval, and the slack's maximum
    lies between the neighbours of the best of any even sample. Each round
    samples the bracket ``_SLACK_SAMPLES`` times and keeps those neighbours,
    until the bracket is 1e-12 wide relative to x1. The pair is
    floor-feasible exactly when the best slack exceeds 1e-12; x1 is then
    the best point and x2 the middle of its interval.
    """
    if region.d_k > 0:
        a, b = region.x1_prime, region.x_plus
    else:
        a, b = -region.x_plus, region.x1_prime
    while True:
        grid = np.linspace(a, b, _SLACK_SAMPLES)
        lo, hi = _floor_x2_interval(region, grid)
        m = int(np.argmax(hi - lo))
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        a, b = grid[max(m - 1, 0)], grid[min(m + 1, _SLACK_SAMPLES - 1)]
    if not hi[m] - lo[m] > 1e-12:
        return None
    return float(grid[m]), 0.5 * (float(lo[m]) + float(hi[m]))


def _entry(
    region: DistortionRegion, x1: float, x2: float, floor_satisfied: bool
) -> AttackPlanEntry | None:
    """The forgery at (x1, x2) with its provenance; None when it was meant to
    satisfy the floor and a mass falls below it."""
    p1, p2, f1, f2 = _masses_from_x(region, x1, x2)
    floor = region.eps * (1.0 - 1e-9)
    if floor_satisfied and (np.any(f1 < floor) or np.any(f2 < floor)):
        return None
    return AttackPlanEntry(
        forged=LikelihoodModel(make_pmf(f1), make_pmf(f2)),
        strategy="known_divergences",
        eps=region.eps,
        params={
            "support_pair": region.support_pair,
            "d_k": region.d_k,
            "x1": x1,
            "x2": x2,
            "beta": (x2 - region.x2_prime) / (x1 - region.x1_prime),
            "p1": p1,
            "p2": p2,
            "alpha": region.alpha_k,
            "u_k": region.u_k,
            "s1": region.s1,
            "s2": region.s2,
            "epsilon_bound": region.epsilon_bound,
            "floor_satisfied": floor_satisfied,
        },
    )


def forge_once(keys: Sequence[tuple], forge: Callable) -> list:
    """``[forge(*key) for key in keys]``, calling ``forge`` once per distinct key.

    A forgery is a pure function of its inputs, so adversaries whose inputs
    are equal get the same result object; the calls run in the order each
    key first appears, so the first failing adversary raises as before.
    """
    once = {key: forge(*key) for key in dict.fromkeys(keys)}
    return [once[key] for key in keys]


def multi_adversary_known(
    models: Sequence[LikelihoodModel],
    centralities: Sequence[float],
    s1: float,
    s2: float,
    eps: float,
    aggregate_centrality: bool = False,
) -> AttackPlan:
    """Known-divergence plan for several adversaries.

    Informative adversaries each get the single-adversary construction;
    uninformative ones keep their true models (their contribution is zero
    either way, and no forged pair could help them deceive both states).
    With ``aggregate_centrality`` every informative construction uses the
    summed adversary centrality in place of the individual one -- useful
    when all adversaries share one observation model and would otherwise
    need a much smaller epsilon.

    Every adversary goes through one :func:`forge_once` call, which forges
    once per distinct (true model, effective centrality): under
    ``aggregate_centrality`` adversaries sharing a model share one
    construction. Each adversary's entry equals a lone
    :func:`known_divergence_attack` call and holds its own ``params`` dict.
    """
    if len(models) != len(centralities):
        raise ValueError("one centrality per adversary model required")
    if not any(map(is_informative, models)):
        raise AllUninformativeError(
            "no forged models can deceive both states: every adversary is uninformative"
        )

    def forge(m: LikelihoodModel, u_eff: float) -> AttackPlanEntry:
        if not is_informative(m):
            return AttackPlanEntry(
                forged=m, strategy="unmodified_uninformative", eps=eps,
                params={"floor_satisfied": True},
            )
        return known_divergence_attack(m, u_eff, s1, s2, eps)

    u_total = float(sum(centralities))
    keys = [
        (m, u_total if aggregate_centrality else float(u_k))
        for m, u_k in zip(models, centralities)
    ]
    # an entry is shared by equal keys; its params dict is not
    entries = forge_once(keys, forge)
    return AttackPlan(entries=tuple(replace(e, params=dict(e.params)) for e in entries))


def one_variable_feasibility(
    model: LikelihoodModel,
    u_k: float,
    s1: float,
    s2: float,
    eps: float,
    pair: tuple[int, int] | None = None,
) -> bool:
    """Can a single free parameter (p1 = p2) deceive for both states?

    Tying the two masses restricts the transformed coordinates to the
    anti-diagonal x2 = -x1; the answer is whether that line crosses the
    wedge inside the epsilon box. Solved exactly by interval intersection
    of the three linear conditions in x1.
    """
    region = distortion_region(model, u_k, s1, s2, eps, pair)
    if region.l21 == 0.0 or region.l22 == 0.0:
        raise DegeneratePairError("zero likelihood at the second pair symbol")
    if region.empty:
        return False

    lo, hi = -region.x_plus, region.x_plus
    # side constraint relative to the wedge apex
    if region.d_k > 0:
        lo = max(lo, region.x1_prime)
    else:
        hi = min(hi, region.x1_prime)

    def clip(a_coeff: float, b_const: float, lo: float, hi: float) -> tuple[float, float]:
        # a_coeff * x1 < b_const
        if a_coeff > 0.0:
            return lo, min(hi, b_const / a_coeff)
        if a_coeff < 0.0:
            return max(lo, b_const / a_coeff), hi
        return (lo, hi) if b_const > 0.0 else (1.0, 0.0)

    u = region.u_k
    # r1(x1) < -x1  <=>  u(l11 - l21) x1 > s1
    lo, hi = clip(-(u * (region.l11 - region.l21)), -region.s1, lo, hi)
    # -x1 < r2(x1)  <=>  u(l12 - l22) x1 < -s2
    lo, hi = clip(u * (region.l12 - region.l22), -region.s2, lo, hi)
    return lo < hi - _STRICT_MARGIN


def random_attack(
    model: LikelihoodModel, eps: float, rng: np.random.Generator
) -> LikelihoodModel:
    """Baseline: two independent draws from the epsilon-floored simplex.

    A uniform Dirichlet draw is shrunk onto the floored simplex
    (``eps + (1 - n*eps) * w``); crude but sufficient for the qualitative
    point that undirected forgeries rarely deceive.
    """
    _check_epsilon(eps, model.alphabet_size)
    n = model.alphabet_size
    scale = 1.0 - n * eps

    def draw() -> Pmf:
        w = rng.dirichlet(np.ones(n))
        return make_pmf(eps + scale * w)

    return LikelihoodModel(draw(), draw())
