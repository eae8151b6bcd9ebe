"""Semantic exception hierarchy for the sociallearn package.

Every public function raises subclasses of :class:`SocialLearnError` for
contract violations instead of bare ``ValueError``; callers can catch the
base class to handle any domain failure.
"""

from __future__ import annotations


class SocialLearnError(Exception):
    """Base class for all errors raised by this package."""


# --- probability primitives -------------------------------------------------

class NegativeMassError(SocialLearnError):
    """A probability mass entry is negative."""


class NotNormalizedError(SocialLearnError):
    """Mass entries do not sum to one within the input tolerance."""


class AlphabetTooSmallError(SocialLearnError):
    """An observation alphabet needs at least two symbols."""


class AlphabetMismatchError(SocialLearnError):
    """Two PMFs that must share an alphabet have different sizes."""


class OutOfRangeError(SocialLearnError):
    """A scalar parameter lies outside its admissible open interval."""


class InfiniteDivergenceError(SocialLearnError):
    """A divergence or expected log ratio is infinite: a weighted symbol has zero likelihood."""


# --- network ------------------------------------------------------------------

class NoConvergenceError(SocialLearnError):
    """A rejection sampler found no acceptable draw within its try cap."""


class NoPerronVectorError(SocialLearnError):
    """The combination matrix has no unique positive fixed vector within tolerance."""


# --- learning -----------------------------------------------------------------

class ZeroLikelihoodError(SocialLearnError):
    """The realized symbol has zero likelihood under every hypothesis."""


# --- attacks ------------------------------------------------------------------

class UninformativeModelError(SocialLearnError):
    """The operation requires an informative observation model."""


class FloorViolationError(SocialLearnError):
    """A forged mass would fall below the epsilon floor.

    Nothing in the package raises it: the network-agnostic forgery
    water-fills, so every mass it returns is at least epsilon. The class
    stays so that callers that catch it keep importing.
    """


class DegeneratePairError(SocialLearnError):
    """The selected symbol pair has a vanishing likelihood determinant."""


class EpsilonTooLargeError(SocialLearnError):
    """Epsilon exceeds the feasibility bound of the construction."""


class AllUninformativeError(SocialLearnError):
    """Every adversary is uninformative; no deceptive plan exists."""


# --- analysis -----------------------------------------------------------------

class NoSignChangeError(SocialLearnError):
    """Bisection bracket endpoints have the same margin sign."""


# --- simulator ----------------------------------------------------------------

class ConfigParseError(SocialLearnError):
    """Configuration text is not well-formed."""


class ConfigValidationError(SocialLearnError):
    """Configuration parsed but violates the schema contract."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


class OutputIOError(SocialLearnError):
    """A result file could not be written."""
