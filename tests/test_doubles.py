import copy
import dataclasses
import pickle

import pytest

from sgdouble import (
    NATURALS,
    DoubleCertificate,
    DuplicationSpec,
    NumericalSemigroup,
    classify,
    decompose,
    duplicate,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    even_double_check,
    half,
    half_type_report,
    naturals_ideal,
    odd_double_check,
    odd_necessary_conditions,
    symmetric_double_check,
    witness_even_double,
)
from sgdouble import doubles, oracle
from sgdouble.doubles import KIND_EVEN, candidate_specs, ideals_with_frobenius
from sgdouble.duplication import sum_violation
from sgdouble.errors import (
    BoundTooLarge,
    BoundTooSmall,
    HypothesisViolated,
    IsNaturals,
    NotAlmostSymmetric,
)
from sgdouble.ideals import (
    _build,
    canonical_ideal,
    is_numerical_semigroup_set,
    maximal_ideal,
    relative_ideal,
)
from sgdouble.semigroup import canonical_key

from cases import (D1, D2, D3, E1, E2, F2, S1, S2, ST1, T1, T2, additive_closure,
                   even_offsets_by_composition, m_minus_e_by_definition,
                   odd_offsets_by_composition, slots_along_mro, unit_ideal)

NAT_SPEC = DuplicationSpec(NATURALS, naturals_ideal(NATURALS), 1)


class TestSymmetricCheck:
    def test_shifted_canonical_ideal_gives_symmetric_double(self):
        # shift by 2 so the sum condition holds: E + E + 5 = S2 + 9, 9 in S2
        e = canonical_ideal(S2).translate(2)
        spec = DuplicationSpec(S2, e, 5)
        assert symmetric_double_check(spec)
        assert classify(duplicate(spec)).symmetric

    def test_pseudo_symmetric_double_is_not_symmetric(self):
        assert not symmetric_double_check(DuplicationSpec(S1, E2, 3))

    def test_naturals(self):
        assert symmetric_double_check(NAT_SPEC)

    def test_frobenius_clause_is_implied_by_canonicity(self):
        # the check is canonicity alone: 2 f(E) + b > 2 f(S) holds on every
        # valid spec with canonical E.  Checked on every normalized spec of
        # each S with f <= 9 up to f(T) = 2 f(S) + 21, and on the specs
        # decompose(T, b) of each T with f <= 9 at each odd b <= f(T) + 2
        # with 2b in T, 152 of them not normalized
        bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
        normalized = [spec for s in bases for spec in candidate_specs(s, 2 * s.frobenius + 21)]
        decomposed = [decompose(t, b) for t in bases
                      for b in range(1, t.frobenius + 3, 2) if 2 * b in t]
        canonical = 0
        for spec in normalized + decomposed:
            s, e, b = spec.base, spec.ideal, spec.odd_offset
            clause = 2 * e.frobenius + b > 2 * s.frobenius
            assert symmetric_double_check(spec) == (clause and e.is_canonical()), spec
            if e.is_canonical():
                assert clause, spec
                canonical += 1
        shifted = sum(spec.ideal.min_element != 0 for spec in decomposed)
        assert (len(bases), len(normalized), len(decomposed), shifted, canonical) == (
            58, 24031, 210, 152, 479)


class TestOddConditions:
    def test_counterexample_passes_necessary_conditions(self):
        rep = odd_necessary_conditions(DuplicationSpec(S2, F2, 5))
        assert rep.frobenius_matches and rep.sandwich and rep.dual_is_semigroup
        assert rep.all_hold

    def test_even_type_spec_fails_frobenius_condition(self):
        rep = odd_necessary_conditions(DuplicationSpec(S1, E1, 7))
        assert not rep.frobenius_matches  # f(T) = 8 but 2 f(E) + b = 5
        assert not rep.sandwich
        assert rep.dual_is_semigroup
        assert not rep.all_hold

    def test_naturals(self):
        assert odd_necessary_conditions(NAT_SPEC).all_hold


class TestOddCheck:
    def test_counterexample_rejected(self):
        spec = DuplicationSpec(S2, F2, 5)
        assert not odd_double_check(spec)
        assert not classify(duplicate(spec)).almost_symmetric

    def test_symmetric_double_accepted(self):
        e = canonical_ideal(S1).translate(1)
        spec = DuplicationSpec(S1, e, 5)
        rep = classify(duplicate(spec))
        assert rep.symmetric and rep.frobenius % 2 == 1
        assert odd_double_check(spec)

    def test_naturals(self):
        assert odd_double_check(NAT_SPEC)


class TestEvenCheck:
    def test_example_grid(self):
        assert even_double_check(DuplicationSpec(S1, E2, 3))
        assert not even_double_check(DuplicationSpec(S1, E2, 5))
        assert not even_double_check(DuplicationSpec(S1, E1, 9))

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            even_double_check(DuplicationSpec(S2, F2, 5))  # 2 f(E) + b > 2 f(S)


class TestEnumerateEven:
    def test_reference_family(self):
        fam = enumerate_even_doubles(S1)
        assert fam.exhaustive
        assert [c.double for c in fam.members] == [D1, D2, D3]
        assert [c.report.symmetry_class for c in fam.members] == [
            "pseudo-symmetric", "pseudo-symmetric", "almost-symmetric-proper",
        ]
        assert [c.spec.odd_offset for c in fam.members] == [3, 5, 7]
        assert all(c.kind == KIND_EVEN for c in fam.members)
        assert all(half(c.double) == S1 for c in fam.members)
        assert all(c.double.frobenius == 2 * S1.frobenius for c in fam.members)

    def test_naturals_empty(self):
        fam = enumerate_even_doubles(NATURALS)
        assert fam.members == () and fam.exhaustive

    def test_non_almost_symmetric_empty(self):
        s = T2  # not almost symmetric
        assert enumerate_even_doubles(s).members == ()
        assert oracle.brute_doubles(s, "even", 2 * s.frobenius) == []


class TestEnumerateOdd:
    def test_small_family_matches_oracle_and_type_bound(self):
        fam = enumerate_odd_doubles(S1, 17)
        got = [c.double for c in fam.members]
        assert got == oracle.brute_doubles(S1, "odd", 17)
        assert any(c.report.symmetric for c in fam.members)
        limit = 2 * S1.type + 1
        assert all(c.report.type % 2 == 1 and c.report.type <= limit for c in fam.members)
        # observed coverage: every odd type up to the bound is attained here
        assert {c.report.type for c in fam.members} == {1, 3, 5}
        assert not fam.exhaustive

    def test_t1_is_an_odd_type_double_of_its_half(self):
        fam = enumerate_odd_doubles(ST1, 31)
        got = [c.double for c in fam.members]
        assert got == oracle.brute_doubles(ST1, "odd", 31)
        rep = classify(T1)
        assert (T1 in got) == (rep.almost_symmetric and rep.frobenius % 2 == 1)
        assert T1 in got  # type 3: PF(T1) pairs as 5 + 26 = 31

    def test_doubles_of_naturals(self):
        fam = enumerate_odd_doubles(NATURALS, 3)
        got = [c.double for c in fam.members]
        assert got == oracle.brute_doubles(NATURALS, "odd", 3)
        assert len(got) == 3
        assert all(c.report.symmetric for c in fam.members)

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            enumerate_odd_doubles(S1, 8)


class TestEnumerateSymmetric:
    def test_family_of_s1(self):
        fam = enumerate_symmetric_doubles(S1, 30)
        assert fam.members
        assert all(c.report.symmetric for c in fam.members)
        assert all(half(c.double) == S1 for c in fam.members)
        brute_sym = [
            t for t in oracle.brute_doubles(S1, "odd", 30)
            if oracle.brute_classify(t).symmetric
        ]
        assert [c.double for c in fam.members] == brute_sym

    def test_family_of_naturals(self):
        fam = enumerate_symmetric_doubles(NATURALS, 5)
        assert NATURALS in [c.double for c in fam.members]
        assert [c.double.frobenius for c in fam.members] == [-1, 1, 3, 5]

    def test_all_frobenius_numbers_odd(self):
        fam = enumerate_symmetric_doubles(S2, 40)
        assert all(c.double.frobenius % 2 == 1 for c in fam.members)

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            enumerate_symmetric_doubles(S2, 2)


@pytest.mark.parametrize("enumerate_family", [enumerate_odd_doubles, enumerate_symmetric_doubles])
def test_bound_past_the_conductor_limit_is_rejected(monkeypatch, enumerate_family):
    # c(T) = f(T) + 1, so the largest bound allowed is the limit - 1; a small
    # limit keeps the family at that bound small
    monkeypatch.setattr(doubles, "CONDUCTOR_LIMIT", 40)
    assert enumerate_family(S1, 39).members[-1].double.frobenius == 39
    with pytest.raises(BoundTooLarge):
        enumerate_family(S1, 40)


class TestWitnessEvenDouble:
    def test_pseudo_symmetric_base(self):
        spec = witness_even_double(S1)
        assert spec.odd_offset == 5 and spec.ideal == E1
        assert duplicate(spec) == D2

    def test_symmetric_base(self):
        spec = witness_even_double(S2)
        assert spec.odd_offset == 9
        t = duplicate(spec)
        rep = classify(t)
        assert t.frobenius == 14
        assert rep.pseudo_symmetric and rep.pseudo_frobenius == (7, 14)

    def test_errors(self):
        with pytest.raises(IsNaturals):
            witness_even_double(NATURALS)
        with pytest.raises(NotAlmostSymmetric):
            witness_even_double(T2)


class TestHalfTypeReport:
    def test_even_type_double(self):
        rep = half_type_report(D3)
        assert rep.double_type == 4 and rep.half_type == 2
        assert rep.even_pf_count == 2  # PF(D3) = {3,4,5,8}, evens {4,8}
        assert rep.count_ok and rep.bound_ok
        assert rep.even_pf_bound_ok and rep.half_frobenius_ok

    def test_not_almost_symmetric_vacuous(self):
        rep = half_type_report(T2)
        assert rep.bound_ok and rep.count_ok  # vacuous
        assert rep.even_pf_bound_ok

    def test_odd_type_double(self):
        rep = half_type_report(T1)
        assert rep.double_type == 3
        assert rep.bound_ok  # t(T1/2) >= 1

    def test_naturals(self):
        rep = half_type_report(NATURALS)
        assert rep.bound_ok and rep.count_ok and rep.half_frobenius_ok


def test_ideals_with_frobenius_matches_oracle():
    # every S with f(S) <= 9, plus ST1 (f = 13), at every gap and at the
    # non-gaps below f(S), where both sides must be empty
    bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
    assert len(bases) == 58
    bases.append(ST1)
    for s in bases:
        for fe in (-1, *range(1, s.frobenius + 1)):
            kernel = list(ideals_with_frobenius(s, fe))
            assert kernel == oracle.enum_relative_ideals(s, fe), (s, fe)


def _walk(s, kind):
    """For each f(E), the (mask, M - E) pairs of the ideals the ``kind`` search walks.

    Each is ``_ideal_masks_between`` at the bounds its search passes: for
    "odd" the sandwich's lower bound K - (M - M) + f(E) - f(S), closed under
    S; for "even" the additive closure of K, built naively, closed under K;
    for "all", as ``candidate_specs`` walks, S closed under S.
    """
    walk = doubles._ideal_masks_between
    if kind == "odd":
        kmm, f = _sandwich_bound(s), s.frobenius
        return lambda fe: walk(s, fe, kmm.translate(fe - f), s)
    if kind == "even":
        k = canonical_ideal(s)
        closure = additive_closure(k)
        return lambda fe: walk(s, fe, closure, k)
    return lambda fe: walk(s, fe, s, s)


def test_enumerators_walk_only_ideals_inside_their_check_bounds():
    # every S with f(S) <= 11, at every fe: the odd enumerator walks exactly
    # the ideals inside K - (M - M) <= tilde(E) <= K, the even one exactly
    # those with K <= E - E, the E-only part of its check; the odd check
    # rejects every spec of an ideal the odd walk drops, and the sandwich's
    # upper half tilde(E) <= K holds for every ideal, so the walk bounds only
    # the lower one.  On the walked ideals, each offset membership test
    # agrees with the inclusion it replaces, at every odd b the enumerators
    # could try, and every offset the odd part accepts meets the sum condition;
    # the odd part accepts none when K - tilde(E) is not a numerical semigroup
    bases = [s for f in (-1, *range(1, 12)) for s in oracle.enum_semigroups_with_frobenius(f)]
    assert len(bases) == 131
    walked = total = tried = dropped = 0
    for s in bases:
        f = s.frobenius
        k = canonical_ideal(s)
        m = maximal_ideal(s)
        kmm = k - (m - m)
        even_ideals, even_part = _walk(s, "even"), doubles._even_ideal_part(s)
        odd_ideals, odd_part = _walk(s, "odd"), doubles._odd_ideal_part(s)
        for fe in (-1, *range(1, f + 1)):
            pool = ideals_with_frobenius(s, fe)
            total += 2 * len(pool)
            assert all(e.tilde() <= k for e in pool), (s, fe)
            odd = [(_build(s, x, 0, fe + 1), m_e) for x, m_e in odd_ideals(fe)]
            assert sorted((e for e, _ in odd), key=lambda e: e.elements_below) == [
                e for e in pool if kmm <= e.tilde() <= k], (s, fe)
            offsets = range(max(1, 2 * f + 1 - 2 * fe), 2 * f + 10 - 2 * fe, 2)
            for e in pool:
                if kmm <= e.tilde():
                    continue
                for b in offsets:
                    if b in s and sum_violation(s, e, b) is None:
                        assert not odd_double_check(DuplicationSpec(s, e, b)), (s, e, b)
                        dropped += 1
            for e, m_e in odd:
                accepted = odd_part(e._mask, fe + 1, m_e, offsets)
                if not is_numerical_semigroup_set(k - e.tilde()):
                    assert accepted == [], (s, e)
                    continue
                shifted_sum = (e + k).translate(e.frobenius - f)
                for b in offsets:
                    assert (b in accepted) == (shifted_sum.translate(b) <= m), (s, e, b)
                    assert b not in accepted or sum_violation(s, e, b) is None, (s, e, b)
                    tried += 1
            even_offsets = range(1, 2 * f - 2 * fe, 2)
            even = [(_build(s, x, 0, fe + 1), even_part(x, fe + 1, m_e, even_offsets))
                    for x, m_e in even_ideals(fe)]
            assert sorted(e.elements_below for e, _ in even) == [
                e.elements_below for e in pool if k <= e - e], (s, fe)
            for e, accepted in even:
                for b in even_offsets:
                    offset_old = m - e <= (e - m).translate(b)
                    sum_old = sum_violation(s, e, b) is None
                    assert (b in accepted) == (offset_old and sum_old), (s, e, b)
                    assert (-b in (e - m) - (m - e)) == offset_old
                    assert (b in unit_ideal(s) - (e + e)) == sum_old
                    tried += 1
            walked += len(odd) + len(even)
    assert 0 < walked < total / 2
    assert tried == 13818 and dropped > 0


def test_walk_carries_m_minus_e():
    # every (mask, M - E) pair of the three walks, over every ideal, over the
    # odd sandwich and over the ideals closed under adding K, at every f(E):
    # below max(c(S), 1) the carried M - E is {y >= 0 : y + E inside M}, read
    # naively, and from there on it holds every integer; on T1, <7,9>,
    # <11,13,15,17,19,21> and every S with f(S) <= 9
    named = [(9, 10, 14, 15), (7, 9), (11, 13, 15, 17, 19, 21)]
    bases = [NumericalSemigroup.from_generators(gens) for gens in named]
    bases += [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
    pairs = 0
    for s in bases:
        top = max(s.conductor, 1)
        walks = [_walk(s, kind) for kind in ("all", "odd", "even")]
        for fe in (-1, *s.gaps):
            for walk in walks:
                for x, m_e in walk(fe):
                    e = _build(s, x, 0, fe + 1)
                    expected = m_minus_e_by_definition(s, e.elements_below, fe + 1)
                    assert [y for y in range(top) if m_e >> y & 1] == expected, (s, e)
                    assert m_e >> top == -1, (s, e)
                    pairs += 1
    assert pairs == 10924


def test_even_offset_kernel_matches_the_ideal_composition():
    # on every ideal the even walk visits, at every f(E), over the whole
    # Frobenius window 1 <= b < 2 (f(S) - f(E)): the kernel's two mask tests
    # against -b in (E - M) - (M - E) and b in S - (E + E), and the offsets
    # the enumerator tries there, its per-f(E) window, hold every offset the
    # composition accepts, so an f(E) left with none is not walked; on T1,
    # <7,9>, <9,10>, the two genus-20 bases and every almost symmetric S
    # with f(S) <= 11
    named = [(9, 10, 14, 15), (7, 9), (9, 10), (11, 13, 15, 17, 19, 21), (13, 14, 15, 17, 19, 23)]
    bases = [NumericalSemigroup.from_generators(gens) for gens in named]
    bases += [s for f in range(1, 12) for s in oracle.enum_semigroups_with_frobenius(f)
              if classify(s).almost_symmetric]
    walked = accepted = 0
    for s in bases:
        f = s.frobenius
        ideals, part = _walk(s, "even"), doubles._even_ideal_part(s)
        offsets = doubles._even_offsets(s)

        def walk(fe, bs):
            return {x: part(x, fe + 1, m_e, bs) for x, m_e in ideals(fe)}

        for fe in (-1, *s.gaps):
            window = range(1, 2 * f - 2 * fe, 2)
            full = walk(fe, window)
            for x, kernel in full.items():
                e = _build(s, x, 0, fe + 1)
                assert kernel == even_offsets_by_composition(s, e, window), (s, e)
            bs = offsets(fe)
            tried = walk(fe, bs) if bs else {}
            assert (tried == full) if bs else not any(full.values()), (s, fe)
            walked += len(tried)
            accepted += sum(map(len, tried.values()))
    assert (walked, accepted) == (6775, 1331)


def test_even_windows_hold_every_oracle_even_type_double():
    # the oracle's even-type doubles of every almost symmetric S != N with
    # f(S) <= 9, each read naively: b its least odd member,
    # E = {x >= 0 : 2x + b in T}, and m(M - E), the least y >= 0 with
    # y + E inside M = S minus {0}.  b lies in both windows the even
    # enumerator's offsets are drawn from, f(S) - f(E) <= b <= f(S) - f(E) + m
    # and m(M - E) <= b <= m(M - E) + m, and the two are one window:
    # m(M - E) = f(S) - f(E)
    bases = [s for f in range(1, 10) for s in oracle.enum_semigroups_with_frobenius(f)
             if classify(s).almost_symmetric]
    found = 0
    for s in bases:
        f, m, c = s.frobenius, s.multiplicity, s.conductor
        for t in oracle.brute_doubles(s, "even", 2 * f):
            b = next(x for x in range(1, t.conductor + 2, 2) if x in t)
            e = [x for x in range(c + 1) if 2 * x + b in t]  # and every x > c
            fe = max((x for x in range(c + 1) if x not in e), default=-1)
            least = next(y for y in range(c + 1) if all(y + x != 0 and y + x in s for x in e))
            assert f - fe <= b <= f - fe + m, (s, t)
            assert least <= b <= least + m, (s, t)
            assert least == f - fe, (s, t)
            found += 1
    assert found == 160


def test_odd_offset_kernel_matches_the_ideal_composition(monkeypatch):
    # on every ideal the odd walk visits, at the offsets the enumerator tries
    # there up to f(T) = 2 f(S) + 41: the kernel's mask tests, with K
    # shifted against the walk's M - E, against E <= (M - K) + f(S) - f(E) - b
    # and K - tilde(E) a numerical semigroup by ideal operations, on T1, <9,11,12,16,17>, <4,6,7,9>, the two
    # genus-20 bases and every S with f(S) <= 11
    named = [(9, 10, 14, 15), (9, 11, 12, 16, 17), (4, 6, 7, 9), (11, 13, 15, 17, 19, 21),
             (13, 14, 15, 17, 19, 23)]
    bases = [NumericalSemigroup.from_generators(gens) for gens in named]
    bases += [s for f in (-1, *range(1, 12)) for s in oracle.enum_semigroups_with_frobenius(f)]
    odd_ideal_part = doubles._odd_ideal_part
    walked = accepted = 0

    def checked(s):
        part = odd_ideal_part(s)

        def compared(x, c, m_e, bs):
            nonlocal walked, accepted
            kernel = part(x, c, m_e, bs)
            e = _build(s, x, 0, c)
            assert kernel == odd_offsets_by_composition(s, e, bs), (s, e, bs)
            walked += 1
            accepted += len(kernel)
            return kernel

        return compared

    monkeypatch.setattr(doubles, "_odd_ideal_part", checked)
    for s in bases:
        enumerate_odd_doubles(s, 2 * s.frobenius + 41)
    assert (walked, accepted) == (7545, 34445)


def test_even_check_is_unchanged_by_translating_the_spec():
    # (E, b) and (E + mu, b - 2 mu) give the same double, and the checks,
    # which normalize to m(E) = 0, give all of them one answer: every
    # candidate spec up to f(T) = 2 f(S) + 9 for each S with f(S) <= 7, at
    # each mu with b - 2 mu an odd member of S, up to past its conductor;
    # the even check on the specs under its hypothesis, the odd check and
    # the odd necessary conditions on all of them
    checked = odd_checked = 0
    found, odd_found = set(), set()
    for s in [s for f in range(1, 8) for s in oracle.enum_semigroups_with_frobenius(f)]:
        f = s.frobenius
        for spec in candidate_specs(s, 2 * f + 9):
            e, b = spec.ideal, spec.odd_offset
            even = 2 * f > 2 * e.frobenius + b
            expected = even and even_double_check(spec)
            odd_expected = odd_double_check(spec), odd_necessary_conditions(spec)
            for mu in range(-s.conductor, (b - 1) // 2 + 1):
                if b - 2 * mu in s:
                    moved = DuplicationSpec(s, e.translate(mu), b - 2 * mu)
                    if even:
                        assert even_double_check(moved) == expected, (spec, mu)
                        checked += 1
                    moved_odd = odd_double_check(moved), odd_necessary_conditions(moved)
                    assert moved_odd == odd_expected, (spec, mu)
                    odd_checked += 1
            if even:
                found.add(expected)
            odd_found.add(odd_expected[0])
    assert found == odd_found == {True, False}
    assert (checked, odd_checked) == (1686, 18677)


def _sandwich_bound(s):
    # K - (M - M), the lower half of the odd check's sandwich
    k, m = canonical_ideal(s), maximal_ideal(s)
    return k - (m - m)


def _odd_window(s):
    # M - (K + (K - (M - M))), computed here from its definition
    k, m = canonical_ideal(s), maximal_ideal(s)
    return m - (k + (k - (m - m)))


@pytest.mark.slow
def test_odd_window_drops_no_odd_type_double_at_frobenius_up_to_11():
    # every spec the odd check accepts, among all valid specs up to
    # f(T) = 2 f(S) + 41, has f(T) - 2 f(S) in the window the enumerator
    # keeps, for every S with f(S) <= 11
    bases = [s for f in (-1, *range(1, 12)) for s in oracle.enum_semigroups_with_frobenius(f)]
    found = 0
    for s in bases:
        f = s.frobenius
        window = _odd_window(s)
        assert doubles._base_context(s).window == window, s
        for spec in candidate_specs(s, 2 * f + 41):
            if odd_double_check(spec):
                t = 2 * spec.ideal.frobenius + spec.odd_offset
                assert t - 2 * f in window, spec
                found += 1
    assert found == 33719


def test_odd_window_holds_every_oracle_odd_type_double():
    # the oracle's odd-type doubles up to f(T) = 2 f(S) + 9, every S with
    # f(S) <= 7: 448, and 5 of the naturals
    bases = [s for f in (-1, *range(1, 8)) for s in oracle.enum_semigroups_with_frobenius(f)]
    found = 0
    for s in bases:
        window = _odd_window(s)
        for t in oracle.brute_doubles(s, "odd", 2 * s.frobenius + 9):
            assert t.frobenius - 2 * s.frobenius in window, (s, t)
            found += 1
    assert found == 453


@pytest.mark.parametrize("gens, sizes", [
    ((9, 10, 14, 15), {"odd": (9, 90), "even": 59}),
    ((11, 13, 15, 17, 19, 21), {"odd": (0, 201), "even": 0}),
    ((13, 14, 15, 17, 19, 23), {"odd": (0, 90), "even": 0}),
    ((7, 9), {"odd": (4, 20), "even": 129}),
])
def test_odd_enumerator_matches_odd_check_on_midgenus_bases(gens, sizes):
    # past the oracle's reach, f(S) = 31, 31, 35 and 47, each kind's family
    # is every valid spec its check accepts, in canonical order: the odd one
    # up to 2 f(S) + 9 and 2 f(S) + 41, where the window prunes whole f(T)
    # targets, and the even one under the even check's hypothesis
    s = NumericalSemigroup.from_generators(gens)
    f = s.frobenius

    def expected(specs):
        return sorted(((duplicate(spec), spec) for spec in specs),
                      key=lambda pair: canonical_key(pair[0]))

    found = []
    for bound in (2 * f + 9, 2 * f + 41):
        specs = [spec for spec in candidate_specs(s, bound) if odd_double_check(spec)]
        members = enumerate_odd_doubles(s, bound).members
        assert [(c.double, c.spec) for c in members] == expected(specs), bound
        found.append(len(members))
    assert tuple(found) == sizes["odd"]
    specs = [spec for spec in candidate_specs(s, 2 * f)
             if 2 * spec.ideal.frobenius + spec.odd_offset < 2 * f and even_double_check(spec)]
    members = enumerate_even_doubles(s).members
    assert [(c.double, c.spec) for c in members] == expected(specs)
    assert len(members) == sizes["even"]


@pytest.mark.parametrize("gens, kind, window, walked", [
    pytest.param((9, 10, 14, 15), "even", None, 138, id="T1-even"),
    pytest.param((9, 10, 14, 15), "odd", ((0, 5, 9, 10, 14, 15, 18, 19, 20), 23), 8, id="T1-odd"),
    pytest.param((10, 11), "even", None, 16795, id="10_11-even"),
    # no f(T) <= 2 f(S) + 9 = 27 survives the window
    pytest.param((11, 13, 15, 17, 19, 21), "odd", ((11, 13, 15, 17, 19), 21), 0,
                 id="11_13_15_17_19_21-odd"),
    # the window leaves f(T) = 2 f(S) + 9 = 47, and M - K one f(E) there:
    # test_odd_offsets_in_m_minus_k_leave_one_ideal_to_walk_on_9_11_12_16_17
    pytest.param((9, 11, 12, 16, 17), "odd", ((9,), 11), 1, id="9_11_12_16_17-odd"),
])
def test_enumerators_walk_pinned_ideal_counts(monkeypatch, gens, kind, window, walked):
    # the ideals _ideal_masks_between returns over one enumeration: the even
    # family, or the odd one up to 2 f(S) + 9, whose targets f(T) - 2 f(S)
    # lie in the window W, pinned here from its definition
    s = NumericalSemigroup.from_generators(gens)
    if window:
        assert _odd_window(s) == relative_ideal(s, *window)
    walk = doubles._ideal_masks_between
    pairs = []
    monkeypatch.setattr(doubles, "_ideal_masks_between",
                        lambda *args: pairs.extend(found := walk(*args)) or found)
    if kind == "even":
        enumerate_even_doubles(s)
    else:
        enumerate_odd_doubles(s, 2 * s.frobenius + 9)
    assert len(pairs) == walked


def test_odd_offsets_in_m_minus_k_leave_one_ideal_to_walk_on_9_11_12_16_17(monkeypatch):
    # W = {9, 11->} leaves the target f(T) = 2 f(S) + 9 = 47, so the window
    # alone walks 14 ideals at f(E) = 10, 13, 15 and 19; only at f(E) = 10
    # is b + f(E) - f(S) in M - K, and no f(E) below f(S) - m(K - (M - M)) = 10
    # is tried
    s = NumericalSemigroup.from_generators((9, 11, 12, 16, 17))
    f = s.frobenius
    k, m = canonical_ideal(s), maximal_ideal(s)
    assert _sandwich_bound(s).min_element == 9
    odd_ideals = _walk(s, "odd")
    tried = []
    walk = doubles._ideal_masks_between
    monkeypatch.setattr(doubles, "_ideal_masks_between",
                        lambda s, fe, *bounds: tried.append(fe) or walk(s, fe, *bounds))
    members = enumerate_odd_doubles(s, 2 * f + 9).members
    assert tried == [10]
    assert [c.spec for c in members] == [
        spec for spec in candidate_specs(s, 2 * f + 9) if odd_double_check(spec)]
    assert len(members) == 1
    without = sum(len(odd_ideals(fe)) for fe in (10, 13, 15, 19))
    assert without == 14
    for fe in (13, 15, 19):
        b = 2 * f + 9 - 2 * fe
        assert b + fe - f not in m - k
    # on every S with f(S) <= 9, no f(E) is walked where the walk's lower
    # bound K - (M - M) + f(E) - f(S) has a negative member
    for s in [s for f in range(1, 10) for s in oracle.enum_semigroups_with_frobenius(f)]:
        tried.clear()
        enumerate_odd_doubles(s, 2 * s.frobenius + 41)
        low = s.frobenius - _sandwich_bound(s).min_element
        assert all(fe >= low for fe in tried), s


@pytest.mark.slow
def test_kernel_matches_oracle_at_frobenius_10_to_13():
    # the ideal walk against the subset search at every fe for the 219 S
    # with 10 <= f(S) <= 13, and both enumerators against the odd-part
    # search for the 73 S with f(S) = 10 or 11
    bases = [s for f in range(10, 14) for s in oracle.enum_semigroups_with_frobenius(f)]
    assert len(bases) == 219
    doubles = 0
    for s in bases:
        for fe in (-1, *range(1, s.frobenius + 1)):
            kernel = list(ideals_with_frobenius(s, fe))
            assert kernel == oracle.enum_relative_ideals(s, fe), (s, fe)
        if s.frobenius > 11:
            continue
        f = s.frobenius
        even = [c.double for c in enumerate_even_doubles(s).members]
        assert even == oracle.brute_doubles(s, "even", 2 * f), s
        odd = [c.double for c in enumerate_odd_doubles(s, 2 * f + 5).members]
        assert odd == oracle.brute_doubles(s, "odd", 2 * f + 5), s
        doubles += len(even) + len(odd)
    assert doubles > 100


@pytest.mark.slow
def test_families_match_oracle_at_its_double_cap():
    # the three enumerators against one odd-part search at f(T) <= 40,
    # oracle.DOUBLE_LIMIT, split by the parity of f(T) and by symmetry, on
    # every S with f(S) <= 9
    bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
    bound = oracle.DOUBLE_LIMIT
    doubles = 0
    for s in bases:
        found = oracle.brute_doubles(s, "any", bound)
        even = [c.double for c in enumerate_even_doubles(s).members]
        assert even == [t for t in found if t.frobenius % 2 == 0], s
        odd = [c.double for c in enumerate_odd_doubles(s, bound).members]
        assert odd == [t for t in found if t.frobenius % 2 != 0], s
        sym = [c.double for c in enumerate_symmetric_doubles(s, bound).members]
        assert sym == [t for t in found if oracle.brute_classify(t).symmetric], s
        doubles += len(found)
    assert (len(bases), doubles) == (58, 5337)


@pytest.mark.slow
def test_even_family_matches_oracle_at_frobenius_12_to_15():
    # the K-closed walk and the kernel's mask offset and sum tests against the
    # oracle's brute search, on all 118 almost symmetric S with 12 <= f(S) <= 15
    bases = [s for f in range(12, 16) for s in oracle.enum_semigroups_with_frobenius(f)
             if classify(s).almost_symmetric]
    assert len(bases) == 118
    doubles = 0
    for s in bases:
        even = [c.double for c in enumerate_even_doubles(s).members]
        assert even == oracle.brute_doubles(s, "even", 2 * s.frobenius), s
        doubles += len(even)
    assert doubles == 2031


def test_each_double_has_exactly_one_normalized_spec():
    # a normalized spec is read off its double T: b is the least odd member
    # of T and the spec is decompose(T, b).  So the specs give pairwise
    # distinct doubles, which are all the doubles the odd-part search finds,
    # for every S with f <= 9 up to f(T) = 2 f(S) + 9
    bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
    specs = 0
    for s in bases:
        bound = 2 * s.frobenius + 9
        found = []
        for spec in candidate_specs(s, bound):
            t = duplicate(spec)
            b = next(x for x in range(1, t.conductor + 2, 2) if x in t)
            assert spec.odd_offset == b and decompose(t, b) == spec, spec
            found.append(t)
        assert len(set(found)) == len(found), s
        assert sorted(found, key=canonical_key) == oracle.brute_all_doubles(s, bound), s
        specs += len(found)
    assert (len(bases), specs) == (58, 7609)


def test_certificates_are_consistent():
    for fam in (enumerate_even_doubles(S1), enumerate_odd_doubles(S1, 15),
                enumerate_symmetric_doubles(S1, 15)):
        for cert in fam.members:
            assert duplicate(cert.spec) == cert.double
            assert half(cert.double) == fam.base
            assert cert.report == classify(cert.double)
            # kind parity matches the double's Frobenius parity
            if cert.kind == KIND_EVEN:
                assert cert.double.frobenius % 2 == 0
            else:
                assert cert.double.frobenius % 2 == 1
    # the type and class a certificate reads from the masks are classify's,
    # whose three almost-symmetry criteria cross-check each other, on every
    # member of the three families of every S with f(S) <= 9
    bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
    members = 0
    for s in bases:
        f = s.frobenius
        for fam in (enumerate_even_doubles(s), enumerate_odd_doubles(s, 2 * f + 9),
                    enumerate_symmetric_doubles(s, 2 * f + 41)):
            for cert in fam.members:
                # the type and class are read from the masks, and no
                # invariant is kept on a member
                assert not hasattr(cert.double, "__dict__"), cert
                assert slots_along_mro(cert.double) == {"_lo", "_mask", "_c"}, cert
                # a certificate is the one its fields construct
                built = DoubleCertificate(*(getattr(cert, f.name) for f in dataclasses.fields(cert)))
                assert cert == built and hash(cert) == hash(built), cert
                rep = classify(cert.double)
                assert (cert.type, cert.symmetry_class) == (rep.type, rep.symmetry_class), cert
                members += 1
    assert members == 2227


def test_values_pickle_copy_and_stay_frozen():
    # every value and record is a slotted frozen dataclass: it comes back
    # equal, with an equal hash, through each pickle protocol and deepcopy,
    # and refuses assignment to each of its fields
    fam = enumerate_odd_doubles(S1, 2 * S1.frobenius + 9)
    cert = fam.members[-1]
    values = [NATURALS, cert.double, cert.spec.ideal, canonical_ideal(S1).translate(-3),
              cert.spec, cert, fam, classify(cert.double), half_type_report(cert.double),
              odd_necessary_conditions(cert.spec)]
    assert {type(v).__name__ for v in values} == {
        "NumericalSemigroup", "RelativeIdeal", "DuplicationSpec", "DoubleCertificate",
        "DoubleFamily", "ClassificationReport", "HalfTypeReport", "OddConditionReport"}
    for v in values:
        copies = [pickle.loads(pickle.dumps(v, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in (*copies, copy.deepcopy(v)):
            assert type(back) is type(v) and back == v and hash(back) == hash(v), v
        for field in dataclasses.fields(v):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, field.name, getattr(v, field.name))
