"""Brute-force reference implementations, for cross-validation and `verify`.

Everything here recomputes from first principles with naive loops over plain
integer sets, deliberately sharing no set algebra with the kernel modules;
agreement between the two routes is what the test suite and the CLI verify
command establish.  The searches are exponential, so hard limits keep them
at desk scale; the environment variable SGDOUBLE_LIMIT, a positive
integer, overrides both limits at once (intended for tests only).
"""

from __future__ import annotations

import os
from itertools import combinations

from .errors import BoundTooLarge, InvalidFrobenius, SemigroupError
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


def _limit(default: int) -> int:
    env = os.environ.get("SGDOUBLE_LIMIT")
    if not env:
        return default
    try:
        limit = int(env)
    except ValueError:
        pass
    else:
        if limit >= 1:
            return limit
    raise SemigroupError(f"SGDOUBLE_LIMIT must be a positive integer, got {env!r}")


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
    if frob > _limit(SEMIGROUP_LIMIT):
        raise BoundTooLarge(f"Frobenius bound {frob} exceeds the configured limit")

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

    Subset search over the integers strictly between 0 and fe, filtered by a
    naive translation-invariance loop; results are rebuilt through the
    validating constructor.
    """
    if fe == 0:
        raise InvalidFrobenius("an ideal containing 0 cannot have Frobenius number 0")
    if fe < -1:
        raise ValueError("ideal Frobenius numbers start at -1")
    if fe == -1:
        return [naturals_ideal(s)]
    if fe > _limit(SEMIGROUP_LIMIT):
        raise BoundTooLarge(f"Frobenius bound {fe} exceeds the configured limit")

    smem = [x for x in _members(s, fe + 1) if x > 0]
    out = []
    for r in range(fe):
        for extra in combinations(range(1, fe), r):
            mem = {0, *extra}
            ok = True
            for e in mem:
                for m in smem:
                    t = e + m
                    if t > fe:
                        break
                    if t not in mem:  # covers t == fe, which is never a member
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(relative_ideal(s, sorted(mem), fe + 1))
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


def _iter_doubles(s: NumericalSemigroup, max_frobenius: int):
    """Yield every semigroup T with half exactly ``s`` and f(T) <= the bound.

    The even members of such a T are exactly the doubled members of ``s``;
    the search runs over the sets of odd members up to the bound (every odd
    integer past it belongs to T).  Closure is checked with naive loops.
    """
    hi = max_frobenius
    if 2 * s.frobenius > hi:
        return  # the even part already misses 2 f(S) beyond the window
    half_sorted = _members(s, hi + 1)
    half_members = set(half_sorted)
    odd_pool = list(range(1, hi + 1, 2))
    for r in range(len(odd_pool) + 1):
        for chosen in combinations(odd_pool, r):
            odds = set(chosen)
            ok = True
            # odd + odd must land on a doubled member of s
            for i, o in enumerate(chosen):
                for o2 in chosen[i:]:
                    if (o + o2) // 2 not in half_members:
                        ok = False
                        break
                if not ok:
                    break
            # odd + even must stay among the odd members
            if ok:
                for o in chosen:
                    for m in half_sorted:
                        t = o + 2 * m
                        if t > hi:
                            break
                        if m > 0 and t not in odds:
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                continue
            missing_odd = [x for x in odd_pool if x not in odds]
            f_t = max(2 * s.frobenius, missing_odd[-1] if missing_odd else -1)
            small = sorted(
                {2 * m for m in half_members if 2 * m <= f_t}
                | {o for o in odds if o <= f_t}
            )
            yield NumericalSemigroup.from_small_elements(small, f_t + 1)


def brute_all_doubles(s: NumericalSemigroup, max_frobenius: int) -> list[NumericalSemigroup]:
    """Every double of ``s`` with Frobenius number at most the bound."""
    if max_frobenius > _limit(DOUBLE_LIMIT):
        raise BoundTooLarge(f"double bound {max_frobenius} exceeds the configured limit")
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
    if max_frobenius > _limit(DOUBLE_LIMIT):
        raise BoundTooLarge(f"double bound {max_frobenius} exceeds the configured limit")
    wanted = {"even": (0,), "odd": (1,), "any": (0, 1)}[parity]
    out = []
    for t in _iter_doubles(s, max_frobenius):
        if t.frobenius % 2 not in wanted:
            continue
        if brute_classify(t).almost_symmetric:
            out.append(t)
    return sorted(out, key=canonical_key)
