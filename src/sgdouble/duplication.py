"""Numerical duplication with respect to a relative ideal, and its inverse.

The duplication of a semigroup S by a relative ideal E at an odd element b
of S is the semigroup whose even members are 2*S and whose odd members are
2*E + b; it is a numerical semigroup whenever E + E + b lands inside S.
Conversely every semigroup T arises this way from its half S = T/2, for any
odd b with 2b in T, with E read off the odd members of T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbientMismatch, InvalidB, SumNotInS
from .ideals import RelativeIdeal, _build
from .semigroup import NumericalSemigroup, _canonical, _pair_violation


@dataclass(frozen=True)
class DuplicationSpec:
    """A validated duplication triple (base semigroup, ideal, odd offset).

    Construction enforces the invariants: the ideal lives over ``base``,
    ``odd_offset`` is an odd member of ``base``, and ideal + ideal + offset
    stays inside ``base`` (raising :class:`SumNotInS` with a witness pair
    otherwise).
    """

    base: NumericalSemigroup
    ideal: RelativeIdeal
    odd_offset: int

    def __post_init__(self):
        if self.ideal.ambient != self.base:
            raise AmbientMismatch("spec ideal must live over the spec base")
        b = self.odd_offset
        if b % 2 == 0 or b < 0 or b not in self.base:
            raise InvalidB(f"offset {b} must be an odd element of the base semigroup")
        witness = sum_violation(self.base, self.ideal, b)
        if witness is not None:
            e, e2 = witness
            raise SumNotInS(
                f"{e} + {e2} + {b} = {e + e2 + b} is not in the base semigroup",
                witness=witness,
            )


def sum_violation(s: NumericalSemigroup, e: RelativeIdeal, b: int):
    """A pair (e1, e2) of ideal members with e1 + e2 + b outside s, or None.

    Only sums below the conductor of s can fail, which bounds both factors.
    """
    hi = s.conductor - b - e.min_element
    mem = e.members_below(max(hi, e.min_element))
    return _pair_violation(mem, b, s.conductor, s._small_set)


def duplicate(spec: DuplicationSpec) -> NumericalSemigroup:
    """The duplication 2*S union (2*E + offset) as a canonical semigroup."""
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    f_t = max(2 * s.frobenius, 2 * e.frobenius + b)
    c_t = f_t + 1
    small = sorted(
        {2 * x for x in s.members_below((c_t + 1) // 2)}
        | {2 * x + b for x in e.members_below((c_t - b + 1) // 2)}
    )
    return NumericalSemigroup._of(tuple(small), c_t)


def half(t: NumericalSemigroup) -> NumericalSemigroup:
    """One half of ``t``: the naturals s with 2s in t."""
    bound = (t.conductor + 1) // 2
    members = {x for x in range(bound + 1) if 2 * x in t}
    return NumericalSemigroup._of(*_canonical(members, bound))


def _least_odd_member(t: NumericalSemigroup) -> int:
    # every odd integer >= conductor is a member, so the scan terminates
    x = 1
    while x not in t:
        x += 2
    return x


def decompose(t: NumericalSemigroup, b: int) -> DuplicationSpec:
    """Realize ``t`` as a duplication of its half, using odd offset ``b``.

    ``b`` must be odd with 2b in t (equivalently, b a member of half(t)).
    The ideal of the returned spec collects the odd members of t shifted
    back: {x : 2x + b in t}; it may contain negative integers once b exceeds
    the smallest odd member of t.
    """
    if b % 2 == 0 or b < 0 or (2 * b) not in t:
        raise InvalidB(f"offset {b} must be odd with its double in the semigroup")
    s = half(t)
    lo = (_least_odd_member(t) - b) // 2
    hi = (t.conductor - b + 1) // 2
    members = {x for x in range(lo, hi) if (2 * x + b) in t}
    return DuplicationSpec(s, _build(s, members, max(hi, lo)), b)


def duplication_frobenius(spec: DuplicationSpec) -> int:
    """Frobenius number of the duplication: max(2 f(S), 2 f(E) + offset)."""
    return max(2 * spec.base.frobenius, 2 * spec.ideal.frobenius + spec.odd_offset)


def duplication_canonical_ideal(spec: DuplicationSpec) -> RelativeIdeal:
    """Standard canonical ideal of the duplication, from the parity formula.

    A member is f(T) - a where a is even with a/2 outside S, or odd with
    (a - offset)/2 outside E.  This route never reflects the gaps of T
    itself, so it can be cross-checked against the direct computation.
    """
    t = duplicate(spec)
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    f_t = t.frobenius
    members = set()
    for z in range(0, f_t + 1):
        a = f_t - z
        if a % 2 == 0:
            if (a // 2) not in s:
                members.add(z)
        else:
            if ((a - b) // 2) not in e:
                members.add(z)
    return _build(t, members, f_t + 1)


def normalize_params(spec: DuplicationSpec) -> DuplicationSpec:
    """Equivalent spec whose ideal has smallest element zero.

    Shifting the ideal down by its minimum and raising the offset by twice
    that amount leaves the duplication unchanged.
    """
    m = spec.ideal.min_element
    if m == 0:
        return spec
    return DuplicationSpec(spec.base, spec.ideal.translate(-m), spec.odd_offset + 2 * m)
