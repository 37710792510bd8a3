"""Shared fixture values used across the test modules.

Names follow the worked examples the suite reproduces: S1 is the
pseudo-symmetric semigroup {0,3,5->} whose even-type doubles are D1, D2, D3;
S2/F2/T2 is the counterexample triple showing the necessary odd-type
conditions are not sufficient; T1 is the semigroup that admits no
decomposition with a proper ideal.
"""

from itertools import combinations

from sgdouble import NumericalSemigroup, naturals_ideal, relative_ideal
from sgdouble.ideals import canonical_ideal, is_numerical_semigroup_set, maximal_ideal
from sgdouble.semigroup import (
    ALMOST_SYMMETRIC_PROPER,
    NOT_ALMOST_SYMMETRIC,
    PSEUDO_SYMMETRIC,
    SYMMETRIC,
    ClassificationReport,
    _reverse,
)

S1 = NumericalSemigroup.from_generators([3, 5, 7])                 # {0, 3, 5->}
S2 = NumericalSemigroup.from_small_elements([0, 4, 5, 6], 8)       # symmetric
T1 = NumericalSemigroup.from_generators([9, 10, 14, 15])           # f = 31
ST1 = NumericalSemigroup.from_small_elements([0, 5, 7, 9, 10, 12], 14)  # T1 / 2
T2 = NumericalSemigroup.from_small_elements([0, 8, 9, 10, 11, 12, 13], 16)

D1 = NumericalSemigroup.from_small_elements([0, 3, 6, 7], 9)
D2 = NumericalSemigroup.from_small_elements([0, 5, 6, 7], 9)
D3 = NumericalSemigroup.from_small_elements([0, 6, 7], 9)

E1 = naturals_ideal(S1)                 # the naturals over S1
E2 = relative_ideal(S1, [0], 2)         # {0, 2->}
E3 = relative_ideal(S1, [0], 3)         # {0, 3->}
E4 = relative_ideal(S1, [0, 1], 3)      # {0, 1, 3->}
K1 = relative_ideal(S1, [0, 2, 3], 5)   # standard canonical ideal of S1
F2 = relative_ideal(S2, [2, 3, 4], 6)   # {2, 3, 4, 6->} over S2


def slots_along_mro(v):
    """The slot names that ``v``'s type and its bases declare.

    With no instance dict, these are all that ``v`` can store.
    """
    return {name for k in type(v).__mro__ for name in vars(k).get("__slots__", ())}


def unit_ideal(s):
    """``s`` viewed as a relative ideal of itself."""
    return relative_ideal(s, s.small_elements, s.conductor)


# Two more characterizations of almost symmetry, equivalent to the definition
# that semigroup._symmetry_class tests: the reference implementations the
# tests hold it to.  Each reads S and its PF mask ``pf``.
def _almost_symmetric_by_reflection(s, pf: int) -> bool:
    # x in S  <=>  f - x not in S union PF(S), for every nonzero integer x.
    # Outside [1, f] both sides agree: for x < 0, x is not in S while f - x
    # > f is; for x > f, x is in S while f - x < 0 is neither in S nor in
    # PF(S), whose members are gaps (the naturals' PF = (-1,) would need
    # x = 0).  On [1, f] the right side is the complement of the mirror
    # image of S union PF(S) on [0, f], so S and that mirror image must
    # split [1, f] between them.
    c = s.conductor
    mirror = _reverse(s._mask | pf, c)
    window = ((1 << c) - 1) & ~1
    return (s._mask ^ mirror) & window == window


def _almost_symmetric_by_pairing(s, pf: int) -> bool:
    # with PF = {f_1 < ... < f_{t-1} < f}: f_i + f_{t-i} == f for all i, that
    # is, the mirror x -> f - x on [0, f] maps PF \ {f} onto itself, and so
    # PF | {0}, as 0 and f pair up.  The naturals (PF mask 0) pass.
    return not pf or _reverse(pf | 1, s.conductor) == pf | 1


def criteria(s):
    """Almost symmetry of ``s`` by the reflection and by the pairing characterization.

    ``classify`` decides it by the definition, L(S) inside PF(S); the tests
    hold these two reference implementations equal to it.
    """
    pf = s._pf_mask
    return {c.__name__: c(s, pf)
            for c in (_almost_symmetric_by_reflection, _almost_symmetric_by_pairing)}


def even_offsets_by_composition(s, e, bs):
    """The offsets b of ``bs`` that pass the even-type test of E, m(E) = 0, by ideal operations.

    -b in (E - M) - (M - E) is the condition M - E <= (E - M) + b, and b in
    S - (E + E) the sum condition: the reference the tests hold
    ``doubles._even_ideal_part``'s mask tests to.
    """
    m = maximal_ideal(s)
    offsets = (e - m) - (m - e)
    sums = unit_ideal(s) - (e + e)
    return [b for b in bs if -b in offsets and b in sums]


def odd_offsets_by_composition(s, e, bs):
    """The offsets b of ``bs`` that pass the odd-type test of E, m(E) = 0, by ideal operations.

    E inside (M - K) + f(S) - f(E) - b is the offset condition
    b + f(E) - f(S) + E + K <= M, and K - tilde(E), the reflection dual of
    tilde(E), must be a numerical semigroup once some b passes: the
    reference the tests hold ``doubles._odd_ideal_part``'s mask tests to.
    """
    mk = maximal_ideal(s) - canonical_ideal(s)
    accepted = [b for b in bs if e <= mk.translate(s.frobenius - e.frobenius - b)]
    return accepted if accepted and is_numerical_semigroup_set(e.tilde().reflection_dual()) else []


def additive_closure(ideal):
    """Every sum of members of ``ideal``, a relative ideal with smallest member 0, naively.

    The listed members are closed under addition one round of pairwise sums
    at a time; sums from the conductor on are members already.  The
    reference the tests give the even walk for the closure of K, which the
    even enumerator computes with the kernel's ``+``.
    """
    c = ideal.ideal_conductor
    members = set(ideal.elements_below)
    while grown := {x + y for x in members for y in members if x + y < c} - members:
        members |= grown
    return relative_ideal(ideal.ambient, sorted(members), c)


def m_minus_e_by_definition(s, elements, c):
    """The members below max(c(S), 1) of M - E = {y >= 0 : y + E inside M}, naively.

    E is the listed ``elements`` plus every integer from ``c`` on, and M is
    S minus {0}.  Every integer from max(c(S), 1) on is in M, so only the
    members of E below it are read: the reference the tests hold the ideal
    walk's carried M - E to.
    """
    top = max(s.conductor, 1)
    small = set(s.small_elements)
    read = [*elements, *range(c, top)]
    return [y for y in range(top)
            if all(y + x >= top or y + x != 0 and y + x in small for x in read)]


def semigroup_by_generators(gens):
    """The numerical semigroup generated by ``gens`` (gcd 1), naively.

    x is a member exactly when x = 0 or x - g is a member for some generator
    g <= x, decided for every x below Schur's bound (m - 1)(max g - 1) + m,
    m the least generator: the conductor is at most (m - 1)(max g - 1), so
    that range holds it and m members past it.  The reference the tests
    hold ``NumericalSemigroup.from_generators`` to.
    """
    m = min(gens)
    member = [True]
    for x in range(1, (m - 1) * (max(gens) - 1) + m):
        member.append(any(g <= x and member[x - g] for g in gens))
    c = len(member) - member[::-1].index(False) if False in member else 0
    return NumericalSemigroup([x for x in range(c) if member[x]], c)


def duplicate_by_definition(spec):
    """The duplication {2x : x in S} | {2y + b : y in E} of ``spec``, naively.

    n is a member exactly when it is even with n / 2 in S, or odd with
    (n - b) / 2 in E, each read from the listed members and the conductor.
    Every n from max(2 c(S), 2 c(E) + b) on is a member, so the last
    non-member below that bound is the Frobenius number: the reference the
    tests hold ``duplicate`` to.
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    small, below = set(s.small_elements), set(e.elements_below)
    member = [x // 2 >= s.conductor or x // 2 in small if x % 2 == 0
              else (x - b) // 2 >= e.ideal_conductor or (x - b) // 2 in below
              for x in range(max(2 * s.conductor, 2 * e.ideal_conductor + b))]
    c = len(member) - member[::-1].index(False) if False in member else 0
    return NumericalSemigroup([x for x in range(c) if member[x]], c)


def _members_below(s, hi):
    small = set(s.small_elements)
    return [x for x in range(hi) if x in small or x >= s.conductor]


def classify_by_loops(s):
    """The definitional classification, each membership test one integer at a time.

    The same definitions as ``oracle.brute_classify``, which tests the PF
    condition as one set operation: the reference the tests hold it to.
    """
    if s.conductor == 0:
        return ClassificationReport(-1, (), (), (-1,), 1, SYMMETRIC)
    c = s.conductor
    f = c - 1
    mem = set(_members_below(s, 2 * c + 2))
    gaps = tuple(x for x in range(c) if x not in mem)
    nonzero = [m for m in mem if 0 < m <= c]
    pf = tuple(x for x in gaps if all((x + m) in mem for m in nonzero))
    ell = tuple(x for x in gaps if (f - x) not in mem)
    if not ell:
        cls = SYMMETRIC
    elif f % 2 == 0 and ell == (f // 2,):
        cls = PSEUDO_SYMMETRIC
    elif set(ell) <= set(pf):
        cls = ALMOST_SYMMETRIC_PROPER
    else:
        cls = NOT_ALMOST_SYMMETRIC
    return ClassificationReport(f, gaps, ell, pf, len(pf), cls)


def ideals_by_subsets(s, fe):
    """The relative ideals of ``s`` with smallest element 0 and Frobenius ``fe``, by subsets.

    Tries every set of integers strictly between 0 and fe, filtered by a
    naive translation-invariance loop, and sorts as the oracle does: the
    reference the tests hold ``oracle.enum_relative_ideals``' ordered
    search to.  fe is -1 or positive.
    """
    if fe == -1:
        return [naturals_ideal(s)]
    smem = [x for x in _members_below(s, fe + 1) if x > 0]
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


def doubles_by_subsets(s, max_frobenius):
    """Every semigroup T with half exactly ``s`` and f(T) <= the bound, by subsets.

    Tries every set of odd integers up to the bound as the odd part of T,
    filtered by naive closure loops: the reference the tests hold
    ``oracle._iter_doubles``' ordered search to.  Unsorted.
    """
    hi = max_frobenius
    if max(2 * s.frobenius, -1) > hi:
        return []  # f(T) >= 2 f(S), and f(T) >= -1, already exceeds the bound
    half_sorted = _members_below(s, hi + 1)
    half_members = set(half_sorted)
    odd_pool = list(range(1, hi + 1, 2))
    out = []
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
            out.append(NumericalSemigroup.from_small_elements(small, f_t + 1))
    return out
