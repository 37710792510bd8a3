"""Property-based and small-exhaustive invariant tests."""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

from sgdouble import (
    NumericalSemigroup,
    RelativeIdeal,
    canonical_ideal,
    classify,
    decompose,
    duplicate,
    duplication_canonical_ideal,
    duplication_frobenius,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    half,
    is_numerical_semigroup_set,
    maximal_ideal,
    naturals_ideal,
    normalize_params,
    relative_ideal,
    witness_even_double,
)
import sgdouble
from sgdouble import oracle
from sgdouble.doubles import candidate_specs, ideals_with_frobenius
from sgdouble.duplication import DuplicationSpec, sum_violation

from cases import ST1, T1, criteria, unit_ideal


# two consecutive generators force gcd 1
semigroups = st.builds(
    lambda xs, m: NumericalSemigroup.from_generators(sorted(set(xs + [m, m + 1]))),
    st.lists(st.integers(2, 24), min_size=0, max_size=3),
    st.integers(2, 14),
)


@given(semigroups)
def test_canonical_roundtrip(s):
    assert NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) == s


@given(semigroups)
def test_minimal_generators_regenerate(s):
    assert NumericalSemigroup.from_generators(s.minimal_generators) == s


@given(semigroups)
def test_pf_inside_second_type_gaps_plus_frobenius(s):
    pf = set(s.pseudo_frobenius)
    assert pf - {s.frobenius} <= set(s.second_type_gaps)
    assert max(pf) == s.frobenius


@given(semigroups)
def test_classification_criteria_agree(s):
    rep = classify(s)
    assert set(criteria(s).values()) == {rep.almost_symmetric}, (s, criteria(s))
    if rep.almost_symmetric:
        assert (rep.type % 2) == (rep.frobenius % 2)


@given(semigroups, st.integers(0, 30))
def test_membership_matches_gap_list(s, x):
    assert (x in s) == (x not in set(s.gaps))


@given(semigroups, st.integers(1, 25))
def test_decompose_duplicate_roundtrip(t, k):
    b = 2 * k - 1
    if (2 * b) not in t:
        return
    spec = decompose(t, b)
    assert duplicate(spec) == t
    assert spec.base == half(t)
    assert duplication_frobenius(spec) == t.frobenius
    assert duplication_canonical_ideal(spec) == canonical_ideal(t)
    norm = normalize_params(spec)
    assert norm.ideal.min_element == 0
    assert duplicate(norm) == t


@given(semigroups, st.integers(1, 25))
@settings(max_examples=60)
def test_reflection_duality(t, k):
    b = 2 * k - 1
    if (2 * b) not in t:
        return
    e = decompose(t, b).ideal
    s = e.ambient
    kan = canonical_ideal(s)
    assert e.reflection_dual() == (kan - e)
    assert (kan - (kan - e)) == e


def _small_semigroups(max_f):
    out = list(oracle.enum_semigroups_with_frobenius(-1))
    for f in range(1, max_f + 1):
        out.extend(oracle.enum_semigroups_with_frobenius(f))
    return out


def test_sandwich_consequences_for_non_members():
    # whenever K - (M - M) <= tilde(E): f(E) - x lands in M - M for x outside E,
    # and in E - E once K - tilde(E) is a numerical semigroup
    checked = 0
    for s in _small_semigroups(7):
        k = canonical_ideal(s)
        m = maximal_ideal(s)
        mm = m - m
        kmm = k - mm
        for fe in (-1, *s.gaps):
            for e in ideals_with_frobenius(s, fe):
                if not kmm <= e.tilde():
                    continue
                strong = is_numerical_semigroup_set(k - e.tilde())
                ee = e - e
                lo = e.min_element - s.conductor - 2
                for x in range(lo, e.ideal_conductor + 2):
                    if x in e:
                        continue
                    checked += 1
                    assert (e.frobenius - x) in mm
                    if strong:
                        assert (e.frobenius - x) in ee
    assert checked > 1000


def test_containment_equivalences_under_even_hypotheses():
    # with S almost symmetric, E + E + b inside S, and 2f >= 2 f(E) + b:
    # PF(S) <= E - E  <=>  M - M <= E - E  <=>  K <= E - E,
    # and when these hold, M - E == K - E.  Note the weak and strict forms
    # of the hypothesis coincide: b is odd, so 2f never equals 2 f(E) + b.
    checked = 0
    for s in _small_semigroups(7):
        if s.is_naturals or not classify(s).almost_symmetric:
            continue
        f = s.frobenius
        k = canonical_ideal(s)
        m = maximal_ideal(s)
        mm = m - m
        for fe in (-1, *s.gaps):
            for e in ideals_with_frobenius(s, fe):
                ee = e - e
                for b in range(1, 2 * (f - fe) + 1, 2):
                    if 2 * f < 2 * fe + b:
                        continue
                    assert 2 * f != 2 * fe + b  # parity: the bound is strict
                    if b not in s or sum_violation(s, e, b) is not None:
                        continue
                    checked += 1
                    cond_pf = all(p in ee for p in s.pseudo_frobenius)
                    cond_mm = mm <= ee
                    cond_k = k <= ee
                    assert cond_pf == cond_mm == cond_k
                    if cond_k:
                        assert (m - e) == (k - e)
    assert checked > 100


def test_criterion_equivalence_is_exhaustive_up_to_12():
    for s in _small_semigroups(12):
        assert set(criteria(s).values()) == {classify(s).almost_symmetric}, (s, criteria(s))


def test_report_type_characterizations():
    found_type_two_not_pseudo_symmetric = False
    for s in _small_semigroups(12):
        rep = classify(s)
        assert rep.symmetric == (rep.type == 1)
        assert rep.pseudo_symmetric == (rep.type == 2 and rep.almost_symmetric)
        assert max(rep.pseudo_frobenius) == rep.frobenius
        if rep.type == 2 and not rep.pseudo_symmetric:
            found_type_two_not_pseudo_symmetric = True
    # such semigroups exist; the suite finds one instead of hard-coding it
    assert found_type_two_not_pseudo_symmetric


def test_reflection_duality_exhaustive_up_to_12():
    for s in _small_semigroups(12):
        k = canonical_ideal(s)
        for fe in (-1, *s.gaps):
            for e in ideals_with_frobenius(s, fe):
                assert e.reflection_dual() == (k - e), (s, e)
                assert (k - (k - e)) == e, (s, e)


def test_pairing_of_pseudo_frobenius_numbers():
    for s in _small_semigroups(10):
        rep = classify(s)
        if not rep.almost_symmetric or s.is_naturals:
            continue
        pf, f, t = rep.pseudo_frobenius, rep.frobenius, rep.type
        for i in range(1, t):
            assert pf[i - 1] + pf[t - 1 - i] == f


def test_maximal_ideal_self_difference_identity():
    for s in _small_semigroups(9):
        m = maximal_ideal(s)
        pf = () if s.is_naturals else s.pseudo_frobenius
        members = sorted(set(s.small_elements) | set(pf))
        assert (m - m) == relative_ideal(s, members, s.conductor)
        assert is_numerical_semigroup_set(m - m)


def _kernel_built_values(s):
    """The values the kernel builds over ``s`` without validating them."""
    k, m = canonical_ideal(s), maximal_ideal(s)
    yield from (NumericalSemigroup.from_generators(s.minimal_generators),
                k, m, unit_ideal(s), naturals_ideal(s))
    for fe in (-1, *s.gaps):
        for e in ideals_with_frobenius(s, fe):
            yield from (e, e.translate(-2), e + e, e + k, e - e, k - e, m - e, e - m,
                        e.reflection_dual(), e.tilde())
    for spec in candidate_specs(s, 2 * s.frobenius + 3):
        t = duplicate(spec)
        # at the spec's own offset, and at an odd offset past the conductor,
        # which mostly gives ideals with negative members
        own, past = decompose(t, spec.odd_offset), decompose(t, t.conductor | 1)
        yield from (spec, t, half(t), own, own.ideal, past, past.ideal,
                    normalize_params(own), normalize_params(past))
    f = s.frobenius
    for fam in (enumerate_even_doubles(s), enumerate_odd_doubles(s, 2 * f + 9),
                enumerate_symmetric_doubles(s, 2 * f + 9)):
        yield from (c.spec for c in fam.members)
    if not s.is_naturals and classify(s).almost_symmetric:
        yield witness_even_double(s)


def test_kernel_built_values_are_canonical():
    # kernel results skip the constructors' checks; they must come out in
    # exactly the form the validating constructors produce
    checked = 0
    for s in _small_semigroups(9) + [T1, ST1]:
        for v in _kernel_built_values(s):
            checked += 1
            # the member mask a kernel value carries must be the one its
            # validated rebuild computes from the element list
            if isinstance(v, NumericalSemigroup):
                assert type(v.small_elements) is tuple, v
                rebuilt = NumericalSemigroup.from_small_elements(v.small_elements, v.conductor)
                assert v == rebuilt and v._mask == rebuilt._mask, v
            elif isinstance(v, DuplicationSpec):
                # the validating constructor accepts the spec and equals it
                assert DuplicationSpec(v.base, v.ideal, v.odd_offset) == v, v
            else:
                assert type(v.elements_below) is tuple, v
                rebuilt = RelativeIdeal(v.ambient, v.elements_below, v.ideal_conductor)
                assert v == rebuilt and (v._lo, v._mask) == (rebuilt._lo, rebuilt._mask), v
                assert v == relative_ideal(v.ambient, v.elements_below, v.ideal_conductor)
    assert checked > 10000


def test_every_cache_is_bounded():
    # a sweep over many semigroups must not grow a memo cache without limit
    cached = set()
    for info in pkgutil.iter_modules(sgdouble.__path__):
        module = importlib.import_module(f"sgdouble.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                cached.add(name)
                assert fn.cache_parameters()["maxsize"] is not None, name
    assert {"classify", "canonical_ideal", "_base_context"} <= cached


def _canonical_form(members, hi):
    """(sorted members below c, c) of ``members`` | [hi, oo), c the least conductor."""
    c = hi
    while c - 1 in members:
        c -= 1
    return tuple(sorted(x for x in members if x < c)), c


def test_ideal_arithmetic_matches_definitions():
    # membership, inclusion, sum, difference and the reflection dual against
    # their plain-set definitions, read off the ideals' fields only
    checked = 0
    for s in _small_semigroups(8):
        f = s.frobenius
        anchors = [canonical_ideal(s), maximal_ideal(s), unit_ideal(s), naturals_ideal(s)]
        pool = list(anchors)
        for fe in (-1, *s.gaps):
            for e in ideals_with_frobenius(s, fe):
                pool += [e, e.translate(-3), e.translate(2)]
        plain = {e: (set(e.elements_below), e.min_element, e.ideal_conductor) for e in pool}
        for e in pool:
            listed, lo, c = plain[e]
            for x in range(lo - 3, c + 3):
                assert (x in e) == (x in listed or x >= c), (e, x)
            dual = {x for x in range(f - c - 2, f - lo + 4)
                    if not (f - x in listed or f - x >= c)}
            want = _canonical_form(dual, f - lo + 4)
            got = e.reflection_dual()
            assert (got.elements_below, got.ideal_conductor) == want, e
        pairs = [(e, a) for e in pool for a in anchors]
        pairs += [(a, e) for e in pool for a in anchors] + [(e, e) for e in pool]
        for e, g in pairs:
            checked += 1
            (el, elo, ec), (gl, glo, gc) = plain[e], plain[g]
            hi = max(ec, gc) + 3
            e_mem = [x for x in range(elo, hi) if x in el or x >= ec]
            assert (e <= g) == all(x in gl or x >= gc for x in e_mem), (e, g)
            # every x >= c(E) + c(G) is a sum of two tail members
            hi = ec + gc + 3
            a_mem = [x for x in range(elo, hi - glo) if x in el or x >= ec]
            b_mem = [x for x in range(glo, hi - elo) if x in gl or x >= gc]
            sums = {a + b for a in a_mem for b in b_mem if a + b < hi}
            got = e + g
            assert (got.elements_below, got.ideal_conductor) == _canonical_form(sums, hi), (e, g)
            # x + m(G) >= c(E) puts x + G inside E; below m(E) - m(G) nothing fits
            hi = ec - glo + 3
            g_mem = [y for y in range(glo, ec - elo + glo + 4) if y in gl or y >= gc]
            diff = {x for x in range(elo - glo - 3, hi)
                    if all(x + y in el or x + y >= ec for y in g_mem)}
            got = e - g
            assert (got.elements_below, got.ideal_conductor) == _canonical_form(diff, hi), (e, g)
    assert checked > 20000
