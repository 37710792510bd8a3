"""Relative ideals of a numerical semigroup and their calculus.

A relative ideal of S is a set E of integers, possibly with negative
members, such that E + S stays inside E and E is bounded below.  Like
semigroups, ideals are stored canonically, on the semigroups' set core: the
smallest member, a Python-int mask of the members from it up to the
conductor, and the conductor.  They compute on it: E <= F is one mask
test, E + F an OR of shifts of F, E - F an AND over F's Apery set, the
reflection dual E's complement mirrored.  All operations are pure; every
set-valued result is computed over a finite window that provably contains
all behaviour (both operands are upper sets past their conductors, so each
operation's result is constant outside the window used).

Ideals remember the semigroup they live over.  Mixing ideals of different
semigroups raises :class:`AmbientMismatch` instead of silently re-ambienting:
the difference E - F only depends on the underlying sets, but validity and
the derived quantities (tilde shift, canonical comparisons) do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, lt
from typing import Callable, Iterable, Optional

from .errors import AmbientMismatch, BoundTooLarge, NotAnIdeal
from .semigroup import (
    _CACHE_SIZE,
    CONDUCTOR_LIMIT,
    NumericalSemigroup,
    _bits,
    _from_mask,
    _mask_of,
    _minus,
    _pair_violation,
    _reverse,
    _UpSet,
)


@dataclass(frozen=True, init=False, repr=False)
class RelativeIdeal(_UpSet):
    """Canonical, immutable relative ideal over ``ambient``.

    Direct construction validates structure only (sorted, conductor
    minimal, span c(E) - m(E) within ``semigroup.CONDUCTOR_LIMIT``), so it
    may carry a set that is not an ideal, but ``E - F`` assumes both
    operands closed under adding m(S) and is undefined on such a set.  Use
    :func:`relative_ideal` to validate the ideal property E + S <= E for
    untrusted input.  Ideals the kernel computes itself are canonical by
    construction and skip both checks.  Besides the set core, an ideal
    stores only ``ambient``, set right after the core.
    """

    ambient: NumericalSemigroup

    def __init__(self, ambient: NumericalSemigroup, elements_below: Iterable[int],
                 ideal_conductor: int):
        elems, c = tuple(elements_below), ideal_conductor
        if not all(map(lt, elems, elems[1:])):
            raise ValueError("ideal elements must be strictly increasing")
        if elems:
            if elems[-1] == c - 1:
                raise ValueError("conductor is not minimal: its predecessor is listed")
            if elems[-1] >= c:
                raise ValueError("listed elements must lie strictly below the conductor")
        lo = elems[0] if elems else c
        _check_span(lo, c)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_mask", _mask_of(elems, lo))
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "ambient", ambient)

    # -- basic queries ------------------------------------------------------

    elements_below = property(attrgetter("_listed"))
    ideal_conductor = property(attrgetter("_c"))
    min_element = property(attrgetter("_lo"), doc="Smallest member m(E).")
    _shown = ("ambient", "elements_below", "ideal_conductor")  # the fields repr lists

    def _require_same_ambient(self, other: "RelativeIdeal") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("ideals live over different semigroups")

    def __le__(self, other: "RelativeIdeal") -> bool:
        """Subset test (same ambient required)."""
        self._require_same_ambient(other)
        # members of E from c(F) on are members of F
        lo, hi = self._lo, other._c
        return lo >= other._lo and self._window(lo, hi) & ~other._window(lo, hi) == 0

    # -- arithmetic ----------------------------------------------------------

    def translate(self, x: int) -> "RelativeIdeal":
        """The shifted ideal E + x."""
        e = RelativeIdeal._of(self._lo + x, self._mask, self._c + x)
        object.__setattr__(e, "ambient", self.ambient)
        return e

    def __add__(self, other):
        """Ideal sum {e + f}; an integer operand translates instead."""
        if isinstance(other, int):
            return self.translate(other)
        self._require_same_ambient(other)
        # every x >= c(E) + m(F) or >= m(E) + c(F) is a sum, and a smaller
        # sum takes both of its terms from the listed members
        bound = min(self._c + other._lo, self._lo + other._c)
        sums = 0
        for i in _bits(self._mask):
            sums |= other._mask << i
        return _build(self.ambient, sums, self._lo + other._lo, bound)

    __radd__ = __add__

    def __sub__(self, other):
        """Ideal difference {x : x + F <= E} of ideals; an integer operand translates by -x."""
        if isinstance(other, int):
            return self.translate(-other)
        self._require_same_ambient(other)
        # x + F <= E: below lo, x + m(F) < m(E); from lo + span on,
        # x + F >= c(E); in between, x - lo is in the difference of E and F
        # shifted to smallest member 0, both closed under adding m(S)
        lo, span = self._lo - other._lo, self._c - self._lo
        diff = _minus(self._mask | -1 << span, other._mask | -1 << other._c - other._lo,
                      self.ambient.multiplicity)
        return _build(self.ambient, diff, lo, lo + span)

    def tilde(self) -> "RelativeIdeal":
        """Normalizing shift making the ideal's Frobenius number match the ambient one."""
        return self.translate(self.ambient.frobenius - self.frobenius)

    def canonical_shift(self) -> Optional[int]:
        """The x with E = K + x over the standard canonical ideal K, or None."""
        k = canonical_ideal(self.ambient)
        x = self.min_element - k.min_element
        return x if self == k.translate(x) else None

    def is_canonical(self) -> bool:
        """True if E is a translate of the standard canonical ideal."""
        return self.canonical_shift() is not None

    def reflection_dual(self) -> "RelativeIdeal":
        """The set {x : f - x not in E}, f the ambient Frobenius number.

        This equals the difference K - E of the standard canonical ideal by
        E, but is computed directly from the reflection predicate; the two
        routes cross-validate each other in the test suite.
        """
        # x in [f - c(E) + 1, f - m(E)] is a member iff f - x is one of the
        # non-members of E in [m(E), c(E)): E's complement mirrored
        f, span = self.ambient.frobenius, self._c - self._lo
        holes = ~self._mask & ((1 << span) - 1)
        return _build(self.ambient, _reverse(holes, span), f - self._c + 1, f - self._lo + 1)


def _check_span(lo: int, c: int) -> None:
    # E + F, E - F, a translate and a dual span at most an operand's
    # [m, c), so capping the ideals built from input caps every ideal
    if c - lo > CONDUCTOR_LIMIT:
        raise BoundTooLarge(
            f"ideal span c(E) - m(E) = {c - lo} exceeds the limit {CONDUCTOR_LIMIT}")


def _build(ambient: NumericalSemigroup, mask: int, lo: int, bound: int) -> RelativeIdeal:
    """The ideal {lo + i : bit i of ``mask``} | [bound, oo), canonical.

    For results known to be ideals.
    """
    e = RelativeIdeal._of(*_from_mask(mask, lo, bound))
    object.__setattr__(e, "ambient", ambient)
    return e


def _ideal_reader(ambient: NumericalSemigroup) -> Callable[[Iterable[int], int], RelativeIdeal]:
    """``read(elems, conductor)``, which is ``relative_ideal(ambient, elems, conductor)``.

    The ambient's minimal generators, which the ideal check reads, are
    listed once here, for every ideal read over ``ambient``.
    """
    gens = ambient.minimal_generators

    def read(elems: Iterable[int], conductor: int) -> RelativeIdeal:
        below = {e for e in elems if e < conductor}
        lo = min(below, default=conductor)
        _check_span(lo, conductor)
        ideal = _build(ambient, _mask_of(below, lo), lo, conductor)
        # Checking the minimal generators of the ambient semigroup against
        # the listed elements is complete: sums involving the tail of either
        # set land past the ideal's conductor, and closure under the
        # generators implies closure under every element they generate.  One
        # mask test per generator g: the listed e with e + g outside the
        # ideal.
        lo, c = ideal._lo, ideal._c
        escapes = [(lo + (bad & -bad).bit_length() - 1, g) for g in gens
                   if (bad := ideal._mask & ~ideal._window(lo + g, c + g))]
        if escapes:
            e, g = min(escapes)
            raise NotAnIdeal(f"{e} + {g} = {e + g} escapes the set", witness=(e, g))
        return ideal

    return read


def relative_ideal(ambient: NumericalSemigroup, elems: Iterable[int],
                   conductor: int) -> RelativeIdeal:
    """Validating constructor from a raw member list plus conductor.

    The represented set is ``set(elems) | [conductor, oo)``; it is
    canonicalized (listed members at or past the conductor are absorbed, the
    conductor is shrunk to its minimal value) and the ideal property
    E + S <= E is verified, raising :class:`NotAnIdeal` with a witness pair
    otherwise.  A span c(E) - m(E) past ``semigroup.CONDUCTOR_LIMIT`` raises
    :class:`BoundTooLarge`.
    """
    return _ideal_reader(ambient)(elems, conductor)


def maximal_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The ideal of nonzero elements, S \\ {0}."""
    # the naturals (conductor 0) give {1->}
    return _build(s, s._mask & ~1, 0, max(s.conductor, 1))


@lru_cache(maxsize=_CACHE_SIZE)
def canonical_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The standard canonical ideal {x : f - x not in S}: the gaps mirrored."""
    return _build(s, _reverse(s._gap_mask, s.conductor), 0, s.conductor)


def naturals_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The naturals viewed as a relative ideal of ``s``."""
    return _build(s, 0, 0, 0)


def is_numerical_semigroup_set(e: RelativeIdeal) -> bool:
    """True if the member set of ``e`` is itself a numerical semigroup.

    Requires members inside the naturals, 0 present, and additive closure;
    the ambient semigroup plays no role.
    """
    if e.min_element < 0 or 0 not in e:
        return False
    # 0 is the smallest member: pairs of the nonzero listed members
    return _pair_violation(e._mask & ~1, 0, 0, e) is None
