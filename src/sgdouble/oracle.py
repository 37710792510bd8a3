"""Brute-force reference implementations, for cross-validation and `verify`.

Everything here recomputes from first principles with naive loops over plain
integer sets, deliberately sharing no set algebra with the kernel modules;
agreement between the two routes is what the test suite and
``sgdouble.verify`` establish.  Each search decides the integers up to its
bound in increasing order, forcing and rejecting as it goes, so its cost
grows with the number of sets it returns times the bound.  Those numbers grow
exponentially, so hard limits keep the searches at desk scale: Frobenius
numbers up to SEMIGROUP_LIMIT for semigroups and ideals, and up to
DOUBLE_LIMIT for doubles.
"""

from __future__ import annotations

from .errors import BoundTooLarge, InvalidFrobenius
from .ideals import RelativeIdeal, naturals_ideal, relative_ideal
from .semigroup import (
    ALMOST_SYMMETRIC_PROPER,
    NATURALS,
    NOT_ALMOST_SYMMETRIC,
    PSEUDO_SYMMETRIC,
    SYMMETRIC,
    ClassificationReport,
    NumericalSemigroup,
    canonical_key,
)

SEMIGROUP_LIMIT = 20
DOUBLE_LIMIT = 40


def _members(s: NumericalSemigroup, hi: int) -> list[int]:
    # local membership loop over the raw representation
    small = set(s.small_elements)
    return [x for x in range(hi) if x in small or x >= s.conductor]


def enum_semigroups_with_frobenius(frob: int) -> list[NumericalSemigroup]:
    """All numerical semigroups with the given Frobenius number.

    Depth-first search over the integers between 1 and frob - 1: an integer
    is forced in once it is a sum of two chosen ones, a choice is rejected
    once it would force frob itself in.  Every result is passed back through
    the validating constructor as a safety net.
    """
    if frob == -1:
        return [NATURALS]
    if frob < 1:
        raise ValueError("the Frobenius number of a semigroup is -1 or positive")
    if frob > SEMIGROUP_LIMIT:
        raise BoundTooLarge(f"Frobenius bound {frob} exceeds the limit {SEMIGROUP_LIMIT}")

    results: list[NumericalSemigroup] = []
    chosen: list[int] = []

    def place(x: int) -> None:
        if x == frob:
            results.append(
                NumericalSemigroup.from_small_elements([0, *chosen], frob + 1)
            )
            return
        pairs = {a + b for i, a in enumerate(chosen) for b in chosen[i:]}
        if all(x + a != frob for a in chosen) and x + x != frob:
            chosen.append(x)
            place(x + 1)
            chosen.pop()
        if x not in pairs:  # excluding x is allowed only if no sum forces it
            place(x + 1)

    place(1)
    return sorted(results, key=canonical_key)


def enum_relative_ideals(s: NumericalSemigroup, fe: int) -> list[RelativeIdeal]:
    """All relative ideals of ``s`` with smallest element 0 and Frobenius ``fe``.

    Depth-first search over the integers between 1 and fe - 1, with 0
    already chosen, in the manner of the semigroup census.  E is such an
    ideal exactly when e + m, for every member e of E and every nonzero m
    of ``s``, is in E when below fe and is not fe itself.  Each such
    condition is decided at the larger integer it names: x may join only
    if fe - x is not in ``s``, and may stay out only if no chosen e has
    x - e in ``s``.  The leaves are therefore exactly the ideals, and cost
    grows with their number times fe.  Results are rebuilt through the
    validating constructor.
    """
    if fe == 0:
        raise InvalidFrobenius("an ideal containing 0 cannot have Frobenius number 0")
    if fe < -1:
        raise ValueError("ideal Frobenius numbers start at -1")
    if fe == -1:
        return [naturals_ideal(s)]
    if fe > SEMIGROUP_LIMIT:
        raise BoundTooLarge(f"Frobenius bound {fe} exceeds the limit {SEMIGROUP_LIMIT}")

    smem = {x for x in _members(s, fe + 1) if x > 0}
    if fe in smem:
        return []  # 0 + fe would have to be a member
    out: list[RelativeIdeal] = []
    chosen = [0]

    def place(x: int) -> None:
        if x == fe:
            out.append(relative_ideal(s, list(chosen), fe + 1))
            return
        if fe - x not in smem:
            chosen.append(x)
            place(x + 1)
            chosen.pop()
        if all(x - e not in smem for e in chosen):  # else some e + m forces x
            place(x + 1)

    place(1)
    out.sort(key=lambda e: e.elements_below)
    return out


def brute_classify(s: NumericalSemigroup) -> ClassificationReport:
    """Definitional classification with naive loops; no kernel set algebra.

    Follows the same conventions as the kernel for the naturals.
    """
    if s.conductor == 0:
        return ClassificationReport(-1, (), (), (-1,), 1, SYMMETRIC)
    c = s.conductor
    f = c - 1
    mem = set(_members(s, 2 * c + 2))
    gaps = tuple(x for x in range(c) if x not in mem)
    nonzero = [m for m in mem if 0 < m <= c]
    pf = tuple(x for x in gaps if all((x + m) in mem for m in nonzero))
    ell = tuple(x for x in gaps if (f - x) not in mem)
    almost = set(ell) <= set(pf)
    if not ell:
        cls = SYMMETRIC
    elif f % 2 == 0 and ell == (f // 2,):
        cls = PSEUDO_SYMMETRIC
    elif almost:
        cls = ALMOST_SYMMETRIC_PROPER
    else:
        cls = NOT_ALMOST_SYMMETRIC
    return ClassificationReport(f, gaps, ell, pf, len(pf), cls)


def _iter_doubles(s: NumericalSemigroup, max_frobenius: int) -> list[NumericalSemigroup]:
    """Every semigroup T with half exactly ``s`` and f(T) <= the bound, unsorted.

    The even members of such a T are exactly the doubled members of ``s``;
    the search decides its odd members up to the bound (every odd integer
    past it belongs to T) in increasing order, in the manner of the
    semigroup census.  A set O of odd integers is the odd part of such a T
    exactly when (o + o') / 2 is in ``s`` for all o, o' in O, and o + 2m is
    in O for every o in O and nonzero m in ``s`` with o + 2m <= the bound.
    Each such condition is decided at the larger integer it names: x may
    join only if (x + o) / 2 is in ``s`` for o = x and every chosen o, and
    may stay out only if no chosen o has (x - o) / 2 in ``s``.  The leaves
    are therefore exactly the odd parts, and cost grows with their number
    times the bound.  Membership is read with naive loops.
    """
    hi = max_frobenius
    if max(2 * s.frobenius, -1) > hi:
        return []  # f(T) >= 2 f(S), and f(T) >= -1, already exceeds the bound
    half_sorted = _members(s, hi + 1)
    half_members = set(half_sorted)
    evens = [2 * m for m in half_sorted]
    out: list[NumericalSemigroup] = []
    chosen: list[int] = []

    def place(x: int, last_missing: int) -> None:
        if x > hi:
            f_t = max(2 * s.frobenius, last_missing)
            small = sorted([n for n in evens if n <= f_t] + [o for o in chosen if o <= f_t])
            out.append(NumericalSemigroup.from_small_elements(small, f_t + 1))
            return
        if x in half_members and all((x + o) // 2 in half_members for o in chosen):
            chosen.append(x)
            place(x + 2, last_missing)
            chosen.pop()
        if all((x - o) // 2 not in half_members for o in chosen):  # else o + 2m forces x
            place(x + 2, x)

    place(1, -1)
    return out


def brute_all_doubles(s: NumericalSemigroup, max_frobenius: int) -> list[NumericalSemigroup]:
    """Every double of ``s`` with Frobenius number at most the bound."""
    if max_frobenius > DOUBLE_LIMIT:
        raise BoundTooLarge(f"double bound {max_frobenius} exceeds the limit {DOUBLE_LIMIT}")
    return sorted(_iter_doubles(s, max_frobenius), key=canonical_key)


def brute_doubles(s: NumericalSemigroup, parity: str,
                  max_frobenius: int) -> list[NumericalSemigroup]:
    """Almost symmetric doubles of ``s`` with the requested Frobenius parity.

    ``parity`` is "even", "odd", or "any".  No duplication machinery is
    used: candidates come from the direct odd-part search and are filtered
    by the definitional classifier.
    """
    if parity not in ("even", "odd", "any"):
        raise ValueError(f"parity must be even, odd, or any, got {parity!r}")
    if max_frobenius > DOUBLE_LIMIT:
        raise BoundTooLarge(f"double bound {max_frobenius} exceeds the limit {DOUBLE_LIMIT}")
    wanted = {"even": (0,), "odd": (1,), "any": (0, 1)}[parity]
    out = []
    for t in _iter_doubles(s, max_frobenius):
        if t.frobenius % 2 not in wanted:
            continue
        if brute_classify(t).almost_symmetric:
            out.append(t)
    return sorted(out, key=canonical_key)
