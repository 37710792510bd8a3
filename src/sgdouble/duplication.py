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
from .semigroup import NumericalSemigroup, _check_conductor, _from_mask, _pair_violation


@dataclass(frozen=True)
class DuplicationSpec:
    """A validated duplication triple (base semigroup, ideal, odd offset).

    Construction enforces the invariants: the ideal lives over ``base``,
    ``odd_offset`` is an odd member of ``base``, and ideal + ideal + offset
    stays inside ``base`` (raising :class:`SumNotInS` with a witness pair
    otherwise).  Specs the kernel builds itself meet them by construction
    and skip the checks, through ``_of``.
    """

    base: NumericalSemigroup
    ideal: RelativeIdeal
    odd_offset: int

    @classmethod
    def _of(cls, base: NumericalSemigroup, ideal: RelativeIdeal, odd_offset: int):
        """Unchecked construction from a triple known to be valid."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "base", base)
        object.__setattr__(spec, "ideal", ideal)
        object.__setattr__(spec, "odd_offset", odd_offset)
        return spec

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
    if 2 * lo + b < 0:  # the least sum is negative: the scan's first pair, without a mask
        return lo, lo
    return _pair_violation(e._window(lo, s.conductor - b - lo), lo, b, s)


# Tables for bytes.translate: the ASCII hex digit of each 4-bit d to d with
# bit x moved to 2x, and each byte to its even bits, bit 2x moved to x.
_SPREAD_DIGIT = bytes.maketrans(
    b"0123456789abcdef",
    bytes(d & 1 | (d & 2) << 1 | (d & 4) << 2 | (d & 8) << 3 for d in range(16)))
_EVENS = bytes(i & 1 | i >> 1 & 2 | i >> 2 & 4 | i >> 3 & 8 for i in range(256))


def _spread(mask: int) -> int:
    """A nonnegative ``mask`` with bit x moved to 2x."""
    # each hex digit of the mask, most significant first, becomes a byte
    return int.from_bytes((b"%x" % mask).translate(_SPREAD_DIGIT), "big")


def _unspread(mask: int) -> int:
    """The even bits of a nonnegative ``mask``, bit 2x moved to x: the inverse of _spread."""
    # byte k of the mask gives bits 4k to 4k + 3 of the result, as the one
    # byte d: in hex "0d", and the digits d, most significant first, are
    # the result's
    octets = mask.to_bytes(mask.bit_length() // 8 + 1, "little")
    return int(octets.translate(_EVENS).hex()[::-2], 16)


def duplicate(spec: DuplicationSpec) -> NumericalSemigroup:
    """The duplication 2*S union (2*E + offset) as a canonical semigroup."""
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    c_s, lo, c_e = s._c, e._lo, e._c
    # f(T) + 1 for f(T) = max(2 f(S), 2 f(E) + b), about 2 f(E) + b, and b is unbounded
    c_t = max(2 * c_s - 1, 2 * c_e + b - 1)
    _check_conductor(c_t)
    # the members below c_t: 2x for x in S below (c_t + 1) // 2 and 2y + b
    # for y in E below (c_t - b + 1) // 2, both bounds at least the set's
    # conductor, so each core gains its all-ones tail up to the bound
    h_s, h_e = (c_t + 1) // 2, (c_t - b + 1) // 2 - lo
    mask = (_spread(s._mask | (1 << h_s) - (1 << c_s))
            | _spread(e._mask | (1 << h_e) - (1 << c_e - lo)) << 2 * lo + b)
    return NumericalSemigroup._of(0, mask, c_t)


def half(t: NumericalSemigroup) -> NumericalSemigroup:
    """One half of ``t``: the naturals s with 2s in t."""
    # 2s < c(t) for each s below the bound: read it off the even bits of t
    return NumericalSemigroup._of(*_from_mask(_unspread(t._mask), 0, (t._c + 1) // 2))


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
    # {y : 2y + 1 in t}, the odd bits of t, which holds every y from
    # c(t) // 2 on, shifted by (1 - b) / 2
    odd_half = _build(s, _unspread(t._mask >> 1), 0, t._c // 2)
    # x + y + b is in s for x, y in E: 2(x + y + b) = (2x + b) + (2y + b) is in t
    return DuplicationSpec._of(s, odd_half.translate((1 - b) // 2), b)


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
    # the same sums E + E + b, and the new offset m + m + b is one of them
    return DuplicationSpec._of(spec.base, spec.ideal.translate(-m), spec.odd_offset + 2 * m)
