"""Cross-validation of the kernel against the brute-force oracle.

``run`` enumerates the semigroups with small Frobenius number once, through
the oracle, and holds five checks of the kernel against them in turn: the
classifier, ideal duality, the duplication round trips and formulas, the
three double checks against the classification of each double, and the
three families against the oracle's double search.  ``sgdouble verify``
prints what it yields.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import doubles as doubles_mod
from . import oracle
from .duplication import (
    decompose,
    duplicate,
    duplication_canonical_ideal,
    duplication_frobenius,
    half,
    normalize_params,
)
from .ideals import _build, canonical_ideal, maximal_ideal, relative_ideal
from .semigroup import NumericalSemigroup, classify

#: One check's outcome: it ran on the semigroups with f at most ``bound``,
#: counted ``cases`` and, if not ``ok``, stopped at the case ``detail`` names.
CheckResult = namedtuple("CheckResult", "name bound cases ok detail")


def _check_classifiers(census, rng):
    n = 0
    for s in census:
        n += 1
        mine = classify(s)
        ref = oracle.brute_classify(s)
        if mine != ref:
            return n, False, f"classifier mismatch on {s}"
        if NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) != s:
            return n, False, f"round trip failed on {s}"
        if not (set(mine.pseudo_frobenius) - {mine.frobenius} <= set(mine.second_type_gaps)):
            return n, False, f"PF outside L on {s}"
        if mine.almost_symmetric and (mine.type % 2) != (mine.frobenius % 2):
            return n, False, f"type/frobenius parity failed on {s}"
    return n, True, ""


def _sampled_ideals(s: NumericalSemigroup, rng: random.Random) -> list:
    """Up to 8 ideals drawn by ``rng`` from those of ``ideals_with_frobenius(s, fe)``
    over fe = -1 and the gaps of ``s``, listed in that order.

    The draw is made among their masks, and only the drawn ideals are built.
    """
    pool = [(fe, x) for fe in (-1, *s.gaps) for x, _ in doubles_mod._ideal_masks(s, fe)]
    return [_build(s, x, 0, fe + 1) for fe, x in rng.sample(pool, min(len(pool), 8))]


def _check_ideal_duality(census, rng):
    n = 0
    for s in census:
        m = maximal_ideal(s)
        k = canonical_ideal(s)
        # union with the definitional PF set, which is empty for the naturals
        # (the -1 convention marker is not a member of anything)
        pf = () if s.is_naturals else s.pseudo_frobenius
        expected = relative_ideal(s, [*s.small_elements, *pf], s.conductor)
        if (m - m) != expected:
            return n, False, f"M - M mismatch on {s}"
        for e in _sampled_ideals(s, rng):
            n += 1
            dual = k - e
            if e.reflection_dual() != dual:
                return n, False, f"dual mismatch for {e} over {s}"
            if (k - dual) != e:
                return n, False, f"double dual failed for {e} over {s}"
    return n, True, ""


def _check_duplication(census, rng):
    n = 0
    for t in census:
        for b in range(1, t.frobenius + 3, 2):
            if (2 * b) not in t:
                continue
            n += 1
            spec = decompose(t, b)
            if duplicate(spec) != t or half(t) != spec.base:
                return n, False, f"round trip failed on {t} at b={b}"
            if duplication_frobenius(spec) != t.frobenius:
                return n, False, f"frobenius formula failed on {t} at b={b}"
            if duplication_canonical_ideal(spec) != canonical_ideal(t):
                return n, False, f"canonical formula failed on {t} at b={b}"
            norm = normalize_params(spec)
            if norm.ideal.min_element != 0 or duplicate(norm) != t:
                return n, False, f"normalization failed on {t} at b={b}"
    return n, True, ""


def _check_theorems(census, rng):
    n = 0
    for s in census:
        f = s.frobenius
        for spec in doubles_mod.candidate_specs(s, 2 * f + 5):
            n += 1
            rep = classify(duplicate(spec))
            odd = rep.almost_symmetric and rep.frobenius % 2 != 0
            if doubles_mod.odd_double_check(spec) != odd:
                return n, False, f"odd-type checker mismatch on {spec}"
            if doubles_mod.symmetric_double_check(spec) != rep.symmetric:
                return n, False, f"symmetric checker mismatch on {spec}"
            if 2 * f > 2 * spec.ideal.frobenius + spec.odd_offset:
                if doubles_mod.even_double_check(spec) != rep.almost_symmetric:
                    return n, False, f"even-type checker mismatch on {spec}"
    return n, True, ""


def _check_families(census, rng):
    n = 0
    for s in census:
        n += 1
        f = s.frobenius
        # one oracle search, split by the parity of f(T): T's even members
        # are 2S, so an even f(T) is 2 f(S)
        found = oracle.brute_doubles(s, "any", 2 * f + 5)
        even = [c.double for c in doubles_mod.enumerate_even_doubles(s).members]
        if even != [t for t in found if t.frobenius % 2 == 0]:
            return n, False, f"even family mismatch on {s}"
        odd = [c.double for c in doubles_mod.enumerate_odd_doubles(s, 2 * f + 5).members]
        if odd != [t for t in found if t.frobenius % 2 != 0]:
            return n, False, f"odd family mismatch on {s}"
        for t in even + odd:
            r = doubles_mod.half_type_report(t)
            if not (r.bound_ok and r.count_ok and r.even_pf_bound_ok and r.half_frobenius_ok):
                return n, False, f"half-type relation failed on {t}"
        nonempty = bool(even)
        expected = (not s.is_naturals) and classify(s).almost_symmetric
        if nonempty != expected:
            return n, False, f"even-family emptiness wrong on {s}"
    return n, True, ""


#: (name, check, cap): each check runs on the semigroups with f at most
#: min(max_frobenius, cap), in order of f.
_CHECKS = [
    ("classifier-agreement", _check_classifiers, 12),
    ("ideal-duality", _check_ideal_duality, 9),
    ("duplication-roundtrip", _check_duplication, 9),
    ("theorem-checkers", _check_theorems, 6),
    ("families-vs-oracle", _check_families, 6),
]


def run(max_frobenius: int = 9, seed: int = 0):
    """Run the checks in order, yielding a :class:`CheckResult` as each one ends.

    The semigroups with f at most ``max_frobenius``, or the largest cap, are
    enumerated once; ``seed`` seeds the sampled ideal-duality check.
    """
    rng = random.Random(seed)
    top = min(max_frobenius, max(cap for _, _, cap in _CHECKS))
    census = [s for f in (-1, *range(1, top + 1)) for s in oracle.enum_semigroups_with_frobenius(f)]
    for name, fn, cap in _CHECKS:
        bound = min(max_frobenius, cap)
        yield CheckResult(name, bound, *fn([s for s in census if s.frobenius <= bound], rng))
