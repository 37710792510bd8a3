"""Exception hierarchy for domain errors.

Everything the library raises for *invalid mathematical input* derives from
:class:`SemigroupError`, so callers (and the CLI) can catch one type.
Internal consistency failures are deliberately plain ``RuntimeError``s: they
indicate a bug, not bad input.
"""


class SemigroupError(Exception):
    """Base class for all domain errors raised by sgdouble."""


class EmptyGenerators(SemigroupError):
    """No generators were supplied."""


class NonCoprimeGenerators(SemigroupError):
    """gcd of the generators exceeds 1, so the complement is infinite."""


class MissingZero(SemigroupError):
    """A numerical semigroup must contain 0."""


class FrobeniusInSet(SemigroupError):
    """conductor - 1 was listed as an element, so the conductor is not minimal."""


class _Witnessed(SemigroupError):
    """A domain error that carries the offending pair as ``witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotClosed(_Witnessed):
    """Additive closure fails; ``witness`` is a pair (a, b) with a + b missing."""


class NotAnIdeal(_Witnessed):
    """E + S is not contained in E; ``witness`` is a pair (e, s) escaping E."""


class AmbientMismatch(SemigroupError):
    """Two ideals (or an ideal and a spec) live over different semigroups."""


class InvalidB(SemigroupError):
    """The duplication offset b is even, nonpositive, or not available."""


class SumNotInS(_Witnessed):
    """E + E + b escapes S; ``witness`` is a pair (e, e') with e + e' + b not in S."""


class HypothesisViolated(SemigroupError):
    """A checker was called outside the hypotheses it is valid under."""


class NotAlmostSymmetric(SemigroupError):
    """The operation requires an almost symmetric semigroup."""


class IsNaturals(SemigroupError):
    """The operation is undefined for the full set of naturals."""


class BoundTooSmall(SemigroupError):
    """An enumeration bound is below the smallest admissible target."""


class BoundTooLarge(SemigroupError):
    """A brute-force bound exceeds the configured hard limit."""


class InvalidFrobenius(SemigroupError):
    """No ideal containing 0 can have Frobenius number 0."""
