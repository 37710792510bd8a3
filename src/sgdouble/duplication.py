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
from .semigroup import NumericalSemigroup, _bits, _from_mask, _pair_violation


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
    lo = e.min_element
    return _pair_violation(e._window(lo, s.conductor - b - lo), lo, b, s)


def _spread(mask: int) -> int:
    """``mask`` with bit x moved to 2x."""
    return int("0".join(bin(mask)[2:]), 2)


def duplicate(spec: DuplicationSpec) -> NumericalSemigroup:
    """The duplication 2*S union (2*E + offset) as a canonical semigroup."""
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    c_t = duplication_frobenius(spec) + 1
    # the members below c_t: 2x for x in S, 2x + b for x in E
    lo = e.min_element
    mask = (_spread(s._window(0, (c_t + 1) // 2))
            | _spread(e._window(lo, (c_t - b + 1) // 2)) << (2 * lo + b))
    return NumericalSemigroup._of(_bits(mask), c_t, mask)


def half(t: NumericalSemigroup) -> NumericalSemigroup:
    """One half of ``t``: the naturals s with 2s in t."""
    bound = (t.conductor + 1) // 2
    members = sum(1 << x for x in range(bound) if 2 * x in t)
    return NumericalSemigroup._of(*_from_mask(members, 0, bound))


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
    # {y : 2y + 1 in t}, which holds every y from c(t) // 2 on, shifted by
    # (1 - b) / 2
    bound = t.conductor // 2
    odd_half = _build(s, sum(1 << y for y in range(bound) if 2 * y + 1 in t), 0, bound)
    return DuplicationSpec(s, odd_half.translate((1 - b) // 2), b)


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
    members = 0
    for z in range(0, f_t + 1):
        a = f_t - z
        if a % 2 == 0:
            if (a // 2) not in s:
                members |= 1 << z
        else:
            if ((a - b) // 2) not in e:
                members |= 1 << z
    return _build(t, members, 0, f_t + 1)


def normalize_params(spec: DuplicationSpec) -> DuplicationSpec:
    """Equivalent spec whose ideal has smallest element zero.

    Shifting the ideal down by its minimum and raising the offset by twice
    that amount leaves the duplication unchanged.
    """
    m = spec.ideal.min_element
    if m == 0:
        return spec
    return DuplicationSpec(spec.base, spec.ideal.translate(-m), spec.odd_offset + 2 * m)
