"""Relative ideals of a numerical semigroup and their calculus.

A relative ideal of S is a set E of integers, possibly with negative
members, such that E + S stays inside E and E is bounded below.  Like
semigroups, ideals are stored canonically: the sorted members strictly below
the ideal's conductor plus the conductor.  All operations are pure; every
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
from typing import Iterable, Optional

from .errors import AmbientMismatch, NotAnIdeal
from .semigroup import NumericalSemigroup, _canonical, _pair_violation


@dataclass(frozen=True)
class RelativeIdeal:
    """Canonical, immutable relative ideal over ``ambient``.

    Direct construction validates structure only (sorted, conductor
    minimal); use :func:`relative_ideal` to validate the ideal property
    E + S <= E for untrusted input.  Ideals the kernel computes itself are
    canonical by construction and skip both checks.
    """

    ambient: NumericalSemigroup
    elements_below: tuple[int, ...]
    ideal_conductor: int

    def __post_init__(self):
        object.__setattr__(self, "elements_below", tuple(self.elements_below))
        elems, c = self.elements_below, self.ideal_conductor
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("ideal elements must be strictly increasing")
        if elems:
            if elems[-1] == c - 1:
                raise ValueError("conductor is not minimal: its predecessor is listed")
            if elems[-1] >= c:
                raise ValueError("listed elements must lie strictly below the conductor")
        # cache membership once; the dataclass is frozen
        object.__setattr__(self, "_below_set", frozenset(elems))

    @classmethod
    def _of(cls, ambient: NumericalSemigroup, elements_below: tuple[int, ...],
            ideal_conductor: int) -> "RelativeIdeal":
        """Unchecked construction from a pair already in canonical form."""
        e = object.__new__(cls)
        object.__setattr__(e, "ambient", ambient)
        object.__setattr__(e, "elements_below", elements_below)
        object.__setattr__(e, "ideal_conductor", ideal_conductor)
        object.__setattr__(e, "_below_set", frozenset(elements_below))
        return e

    # -- basic queries ------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x >= self.ideal_conductor or x in self._below_set

    @property
    def min_element(self) -> int:
        """Smallest member m(E)."""
        return self.elements_below[0] if self.elements_below else self.ideal_conductor

    @property
    def frobenius(self) -> int:
        """Largest integer not in the ideal."""
        return self.ideal_conductor - 1

    def members_below(self, hi: int) -> list[int]:
        """Sorted members in [m(E), hi)."""
        out = [e for e in self.elements_below if e < hi]
        out.extend(range(self.ideal_conductor, hi))
        return out

    def _require_same_ambient(self, other: "RelativeIdeal") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("ideals live over different semigroups")

    def __le__(self, other: "RelativeIdeal") -> bool:
        """Subset test (same ambient required)."""
        self._require_same_ambient(other)
        hi = max(self.ideal_conductor, other.ideal_conductor)
        return all(x in other for x in self.members_below(hi))

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.elements_below + (self.ideal_conductor,)))
        return "{" + inner + "->}"

    # -- arithmetic ----------------------------------------------------------

    def translate(self, x: int) -> "RelativeIdeal":
        """The shifted ideal E + x."""
        return RelativeIdeal._of(
            self.ambient,
            tuple(e + x for e in self.elements_below),
            self.ideal_conductor + x,
        )

    def __add__(self, other):
        """Ideal sum {e + f}; an integer operand translates instead."""
        if isinstance(other, int):
            return self.translate(other)
        self._require_same_ambient(other)
        # everything past c(E) + c(F) is a sum of two tail elements
        bound = self.ideal_conductor + other.ideal_conductor
        mine = self.members_below(bound - other.min_element)
        theirs = other.members_below(bound - self.min_element)
        members = {a + b for a in mine for b in theirs if a + b < bound}
        return _build(self.ambient, members, bound)

    __radd__ = __add__

    def __sub__(self, other):
        """Ideal difference {x : x + F <= E}; an integer operand translates by -x."""
        if isinstance(other, int):
            return self.translate(-other)
        self._require_same_ambient(other)
        lo = self.min_element - other.min_element  # below lo, x + m(F) < m(E)
        hi = self.ideal_conductor - other.min_element  # from hi on, x + F >= c(E)
        fmem = other.members_below(max(self.ideal_conductor - lo, other.min_element))
        members = set()
        for x in range(lo, hi):
            cut = self.ideal_conductor - x  # x + f >= c(E) holds automatically
            if all((x + f) in self for f in fmem if f < cut):
                members.add(x)
        return _build(self.ambient, members, hi)

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
        f = self.ambient.frobenius
        lo = f - self.ideal_conductor + 1
        hi = f - self.min_element + 1
        members = {x for x in range(lo, hi) if (f - x) not in self}
        return _build(self.ambient, members, hi)


def _build(ambient: NumericalSemigroup, members: set[int], bound: int) -> RelativeIdeal:
    """The ideal ``members | [bound, oo)`` in canonical form, for results known to be ideals."""
    return RelativeIdeal._of(ambient, *_canonical(members, bound))


def relative_ideal(ambient: NumericalSemigroup, elems: Iterable[int],
                   conductor: int) -> RelativeIdeal:
    """Validating constructor from a raw member list plus conductor.

    The represented set is ``set(elems) | [conductor, oo)``; it is
    canonicalized (listed members at or past the conductor are absorbed, the
    conductor is shrunk to its minimal value) and the ideal property
    E + S <= E is verified, raising :class:`NotAnIdeal` with a witness pair
    otherwise.
    """
    ideal = _build(ambient, {e for e in elems if e < conductor}, conductor)
    # Checking the minimal generators of the ambient semigroup against the
    # listed elements is complete: sums involving the tail of either set land
    # past the ideal's conductor, and closure under the generators implies
    # closure under every element they generate.
    for e in ideal.elements_below:
        for g in ambient.minimal_generators:
            if (e + g) not in ideal:
                raise NotAnIdeal(f"{e} + {g} = {e + g} escapes the set", witness=(e, g))
    return ideal


def maximal_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The ideal of nonzero elements, S \\ {0}."""
    # the naturals (conductor 0) give {1->}
    return RelativeIdeal._of(s, s.small_elements[1:], max(s.conductor, 1))


@lru_cache(maxsize=None)
def canonical_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The standard canonical ideal {x : f - x not in S}."""
    f = s.frobenius
    members = {f - g for g in s.gaps}
    return _build(s, members, f + 1)


def naturals_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The naturals viewed as a relative ideal of ``s``."""
    return RelativeIdeal._of(s, (), 0)


def unit_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """``s`` viewed as a relative ideal of itself."""
    return RelativeIdeal._of(s, s.small_elements, s.conductor)


def is_numerical_semigroup_set(e: RelativeIdeal) -> bool:
    """True if the member set of ``e`` is itself a numerical semigroup.

    Requires members inside the naturals, 0 present, and additive closure;
    the ambient semigroup plays no role.
    """
    if e.min_element < 0 or 0 not in e:
        return False
    # 0 in e and nothing negative: the listed elements start with 0, if any
    return _pair_violation(e.elements_below[1:], 0, e.ideal_conductor, e._below_set) is None
