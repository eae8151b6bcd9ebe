"""Finite-alphabet probability primitives.

PMFs over a finite observation alphabet are the atom of the whole system:
an agent observes symbols drawn i.i.d. from one of two per-hypothesis
PMFs (its likelihood model), and every closed-form quantity downstream is
an expectation or KL divergence between such PMFs.

Conventions:
  * natural logarithms everywhere (all divergences and rates are in nats);
  * a PMF is validated at construction and never silently renormalized;
  * true likelihood models may contain zeros, but KL raises
    :class:`InfiniteDivergenceError` instead of returning a sentinel when
    the divergence is infinite.

Everything here but the array makers (``Pmf.as_array``, ``sample`` and
``_inverse_cdf``) is pure Python over the mass tuples, and numpy is imported
only inside those three, so parsing and validating a config never loads it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import (
    AlphabetMismatchError,
    AlphabetTooSmallError,
    InfiniteDivergenceError,
    NegativeMassError,
    NotNormalizedError,
    OutOfRangeError,
)

if TYPE_CHECKING:
    import numpy as np

#: |sum(mass) - 1| accepted on input (accommodates text round-tripping).
INPUT_NORMALIZATION_TOL = 1e-9
#: tolerance used by derived predicates such as informativeness.
INTERNAL_TOL = 1e-12


class Hypothesis(enum.Enum):
    """One of the two candidate states of the world."""

    THETA1 = 0
    THETA2 = 1

    @property
    def other(self) -> "Hypothesis":
        return Hypothesis.THETA2 if self is Hypothesis.THETA1 else Hypothesis.THETA1

    @staticmethod
    def from_name(name: str) -> "Hypothesis":
        """``theta1`` or ``theta2``, spelled exactly so; nothing else is a name."""
        if name == "theta1":
            return Hypothesis.THETA1
        if name == "theta2":
            return Hypothesis.THETA2
        raise OutOfRangeError(f"unknown hypothesis name: {name!r}")


@dataclass(frozen=True)
class Pmf:
    """Validated probability mass function over a finite alphabet.

    ``mass`` is stored as a tuple so instances are immutable and safe to
    share across threads.
    """

    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.mass) < 2:
            raise AlphabetTooSmallError(
                f"alphabet needs >= 2 symbols, got {len(self.mass)}"
            )
        for v in self.mass:
            if not math.isfinite(v):
                raise NegativeMassError(f"non-finite mass entry {v!r}")
            if v < 0.0:
                raise NegativeMassError(f"negative mass entry {v!r}")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > INPUT_NORMALIZATION_TOL:
            raise NotNormalizedError(f"mass sums to {total!r}, not 1")

    @property
    def alphabet_size(self) -> int:
        return len(self.mass)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.mass, dtype=float)

    def __getitem__(self, symbol: int) -> float:
        return self.mass[symbol]


def make_pmf(mass: Sequence[float]) -> Pmf:
    """Validate ``mass`` as a PMF. Normalization is never applied silently."""
    return Pmf(tuple(float(v) for v in mass))


@dataclass(frozen=True)
class LikelihoodModel:
    """Per-agent pair of PMFs over a shared alphabet, one per hypothesis.

    ``given_theta1[s]`` is the probability of observing symbol ``s`` when
    the true state is theta1. Forged (attack) models use the same type.
    """

    given_theta1: Pmf
    given_theta2: Pmf

    def __post_init__(self):
        if self.given_theta1.alphabet_size != self.given_theta2.alphabet_size:
            raise AlphabetMismatchError(
                "per-hypothesis PMFs must share one alphabet: "
                f"{self.given_theta1.alphabet_size} vs {self.given_theta2.alphabet_size}"
            )

    @property
    def alphabet_size(self) -> int:
        return self.given_theta1.alphabet_size

    def given(self, theta: Hypothesis) -> Pmf:
        return self.given_theta1 if theta is Hypothesis.THETA1 else self.given_theta2

    def row(self, symbol: int) -> tuple[float, float]:
        """Likelihood of ``symbol`` under (theta1, theta2)."""
        return (self.given_theta1[symbol], self.given_theta2[symbol])


def make_model(theta1_mass: Sequence[float], theta2_mass: Sequence[float]) -> LikelihoodModel:
    return LikelihoodModel(make_pmf(theta1_mass), make_pmf(theta2_mass))


def bsc_model(p: float) -> LikelihoodModel:
    """Binary symmetric channel: the symbol matches the state with prob ``p``."""
    if not 0.0 < p < 1.0:
        raise OutOfRangeError(f"BSC probability must lie in (0, 1), got {p!r}")
    return LikelihoodModel(make_pmf([p, 1.0 - p]), make_pmf([1.0 - p, p]))


def is_informative(model: LikelihoodModel) -> bool:
    """False iff the two per-hypothesis PMFs are identical (tol 1e-12).

    An uninformative model cannot discriminate the states: observations
    carry no evidence either way.
    """
    a, b = model.given_theta1.mass, model.given_theta2.mass
    return max(abs(x - y) for x, y in zip(a, b)) > INTERNAL_TOL


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """KL divergence D(p || q) in nats; terms with p[s] = 0 contribute 0.

    Raises :class:`InfiniteDivergenceError` when some symbol has p[s] > 0
    but q[s] = 0, which makes the divergence infinite.
    """
    if p.alphabet_size != q.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    total = 0.0
    for ps, qs in zip(p.mass, q.mass):
        if ps == 0.0:
            continue
        if qs == 0.0:
            raise InfiniteDivergenceError(
                "D(p||q) infinite: p has mass on a symbol where q has none"
            )
        total += ps * math.log(ps / qs)
    return total


def expected_log_ratio(weights: Pmf, numerator: Pmf, denominator: Pmf) -> float:
    """E_{s ~ weights}[ ln(numerator[s] / denominator[s]) ].

    The workhorse behind adversary contributions and asymptotic rates.
    Symbols with zero weight contribute 0 even if the ratio is degenerate
    there; a zero in numerator or denominator at a weighted symbol raises
    :class:`InfiniteDivergenceError`.
    """
    if not (weights.alphabet_size == numerator.alphabet_size == denominator.alphabet_size):
        raise AlphabetMismatchError("weights/numerator/denominator alphabets differ")
    total = 0.0
    for w, n, d in zip(weights.mass, numerator.mass, denominator.mass):
        if w == 0.0:
            continue
        if n == 0.0 or d == 0.0:
            raise InfiniteDivergenceError(
                "expected log ratio infinite: zero likelihood at a weighted symbol"
            )
        total += w * (math.log(n) - math.log(d))
    return total


def sample(p: Pmf, rng: np.random.Generator, size: int | None = None):
    """Draw symbol indices i.i.d. from ``p`` using ``rng``.

    Deterministic for a fixed generator state and call sequence. Returns a
    single ``int`` when ``size`` is None, else an int array of that length.
    """
    import numpy as np

    u = np.asarray(rng.random(size))
    cum = np.cumsum(p.as_array())[:-1]
    symbols = np.arange(p.alphabet_size, dtype=np.int64)
    idx = _inverse_cdf(cum, symbols, u, np.empty(u.shape, dtype=np.int64))
    return int(idx) if size is None else idx


def _inverse_cdf(
    cum: np.ndarray, values: np.ndarray, u: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write into ``out`` the value of the symbol each uniform ``u`` falls on.

    ``cum[c]`` is the cumulative mass of symbols ``0..c`` for ``c < A - 1``
    (``np.cumsum(pmf)[:-1]``), ``inf`` past the end of a shorter alphabet;
    ``values[c]`` is what symbol ``c`` maps to. The leading axis indexes symbols;
    the rest broadcast against ``u`` and ``out``. Symbol ``c + 1`` is taken
    wherever ``cum[c] <= u``: as ``cum`` never decreases, that is exactly
    ``min(searchsorted(cum, u, side="right"), A - 1)``, so any mass lost to
    rounding goes to the last symbol.

    Values (any 8-byte dtype) are selected bit for bit, never computed: from
    symbol 0's bits, every threshold passed XORs in the bits in which symbols
    ``c`` and ``c + 1`` differ, and those telescope to the taken symbol's
    bits. (An integer multiply-and-XOR runs about twice as fast as a masked
    copy.)
    """
    import numpy as np

    bits = values.view(np.int64)
    flips = bits[:-1] ^ bits[1:]
    acc = out.view(np.int64)
    acc[...] = bits[0]
    for c in range(len(cum)):
        np.bitwise_xor(acc, flips[c] * (cum[c] <= u), out=acc)
    return out
