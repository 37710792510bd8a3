import random

import pytest

from sgdouble import (
    NATURALS,
    DuplicationSpec,
    NumericalSemigroup,
    canonical_ideal,
    decompose,
    duplicate,
    duplication_canonical_ideal,
    duplication_frobenius,
    half,
    naturals_ideal,
    normalize_params,
    oracle,
    relative_ideal,
)
from sgdouble.doubles import candidate_specs, ideals_with_frobenius
from sgdouble.duplication import sum_violation
from sgdouble.errors import AmbientMismatch, InvalidB, SumNotInS
from sgdouble.ideals import RelativeIdeal
from sgdouble.semigroup import _pair_violation

from cases import D1, D2, D3, E1, E2, E4, F2, S1, S2, ST1, T1, T2, duplicate_by_definition

NAT_SPEC = DuplicationSpec(NATURALS, naturals_ideal(NATURALS), 1)


class TestSpecValidation:
    def test_even_offset_rejected(self):
        with pytest.raises(InvalidB):
            DuplicationSpec(S1, E2, 6)

    def test_offset_outside_base_rejected(self):
        with pytest.raises(InvalidB):
            DuplicationSpec(S1, E2, 1)

    def test_sum_violation_witness(self):
        with pytest.raises(SumNotInS) as exc:
            DuplicationSpec(S1, E1, 3)
        assert exc.value.witness == (0, 1)
        with pytest.raises(SumNotInS):
            DuplicationSpec(S1, E4, 3)
        # the scan tries only first terms e1 with e1 - m outside E, m the
        # multiplicity of S: on seeded random sets E, ideals or not, with
        # smallest member -3 to 3, and odd b in S up to 2 f(S) + 5, it
        # reports the least failing pair of a loop over all pairs
        rng = random.Random(14)
        bases = [s for f in (-1, *range(1, 10)) for s in oracle.enum_semigroups_with_frobenius(f)]
        outcomes = set()
        for _ in range(4000):
            s = rng.choice(bases)
            lo, density = rng.randint(-3, 3), rng.random()
            c = lo + rng.randint(2, 16)
            e = RelativeIdeal(s, [lo, *(x for x in range(lo + 1, c - 1) if rng.random() < density)], c)
            b = rng.choice([x for x in range(1, 2 * s.frobenius + 6, 2) if x in s])
            members = [x for x in range(lo, s.conductor - b - lo + 1) if x in e]
            naive = next(((x, y) for x in members for y in members
                          if x <= y and x + y + b not in s), None)
            assert sum_violation(s, e, b) == naive, (s, e, b)
            try:
                DuplicationSpec(s, e, b)
                witness = None
            except SumNotInS as exc:
                witness, message = exc.witness, str(exc)
            assert witness == naive
            if naive is not None:
                x, y = naive
                assert message == f"{x} + {y} + {b} = {x + y + b} is not in the base semigroup"
            outcomes.add(naive is None)
        assert outcomes == {True, False}

    def test_negative_least_sum_witness_matches_the_scan(self):
        # 2 m(E) + b < 0 is answered (m(E), m(E)) without a mask: the pair
        # the full scan over E's members reports first
        checked = 0
        for s in (S1, S2, T1):
            for fe in (-1, *s.gaps):
                for e in ideals_with_frobenius(s, fe):
                    for lo in range(-12, 0):
                        shifted = e.translate(lo)
                        for b in range(1, -2 * lo, 2):
                            scan = _pair_violation(
                                shifted._window(lo, s.conductor - b - lo), lo, b, s)
                            assert sum_violation(s, shifted, b) == scan == (lo, lo)
                            checked += 1
        assert checked > 0

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            DuplicationSpec(S2, E2, 5)


class TestDuplicate:
    def test_worked_examples(self):
        assert duplicate(DuplicationSpec(S1, E2, 3)) == D1
        assert duplicate(DuplicationSpec(S1, E1, 7)) == D3
        assert duplicate(DuplicationSpec(S2, F2, 5)) == T2

    def test_naturals_edge(self):
        assert duplicate(NAT_SPEC) == NATURALS

    def test_parity_split(self):
        t = duplicate(DuplicationSpec(S2, F2, 5))
        for x in range(40):
            if x % 2 == 0:
                assert (x in t) == (x // 2 in S2)
            else:
                assert (x in t) == ((x - 5) // 2 in F2)


def test_half():
    assert half(T1) == ST1
    assert half(NATURALS) == NATURALS
    assert half(D2) == S1
    assert half(duplicate(DuplicationSpec(S1, E2, 3))) == S1


class TestDecompose:
    @pytest.mark.parametrize("b,expected_below,expected_conductor", [
        (5, (2, 5, 7, 9, 10, 11, 12), 14),
        (7, (1, 4, 6, 8, 9, 10, 11), 13),
        (9, (0, 3, 5, 7, 8, 9, 10), 12),
    ])
    def test_fixture_table(self, b, expected_below, expected_conductor):
        spec = decompose(T1, b)
        assert spec.base == ST1
        assert spec.ideal == RelativeIdeal(ST1, expected_below, expected_conductor)
        assert duplicate(spec) == T1

    def test_negative_elements_past_the_table(self):
        # the next valid offset after 9 is 15 (11 and 13 are not in T1/2)
        spec = decompose(T1, 15)
        assert spec.ideal.min_element == -3
        assert duplicate(spec) == T1

    def test_offset_must_have_double_in_t(self):
        with pytest.raises(InvalidB):
            decompose(T1, 11)
        with pytest.raises(InvalidB):
            decompose(T1, 3)
        with pytest.raises(InvalidB):
            decompose(T1, 10)

    def test_naturals(self):
        assert decompose(NATURALS, 1) == NAT_SPEC

    def test_roundtrip_over_fixtures(self):
        for t in (T1, T2, D1, D2, D3):
            for b in range(1, t.frobenius + 3, 2):
                if 2 * b not in t:
                    continue
                spec = decompose(t, b)
                assert duplicate(spec) == t
                assert spec.base == half(t)


def test_duplicate_matches_the_definition():
    # every valid normalized spec over each S with f(S) <= 7 up to
    # f(T) = 2 f(S) + 21, the naturals' up to 41; then every decomposition
    # of those doubles whose ideal reaches below 0, b past T's least odd
    # member
    bases = [s for f in (-1, *range(1, 8)) for s in oracle.enum_semigroups_with_frobenius(f)]
    assert bases[0] == NATURALS
    specs = [spec for s in bases
             for spec in candidate_specs(s, 41 if s.is_naturals else 2 * s.frobenius + 21)]
    assert len(specs) == 5084
    assert sum(spec.base == NATURALS for spec in specs) == 22
    for spec in specs:
        assert duplicate(spec) == duplicate_by_definition(spec), spec
    below_zero = [spec for t in {duplicate(spec) for spec in specs}
                  for b in range(1, t.frobenius + 3, 2) if 2 * b in t
                  if (spec := decompose(t, b)).ideal.min_element < 0]
    assert len(below_zero) == 25692
    for spec in below_zero:
        assert duplicate(spec) == duplicate_by_definition(spec), spec


def test_duplication_frobenius():
    assert duplication_frobenius(DuplicationSpec(S1, E2, 3)) == 8
    assert duplication_frobenius(DuplicationSpec(S2, F2, 5)) == 15
    spec = DuplicationSpec(S1, E1, 5)
    assert duplication_frobenius(spec) == 8 == duplicate(spec).frobenius


def test_duplication_canonical_ideal():
    k = duplication_canonical_ideal(DuplicationSpec(S1, E2, 3))
    assert k == RelativeIdeal(D1, (0, 3, 4, 6, 7), 9)
    assert k == canonical_ideal(D1)

    spec = DuplicationSpec(S1, E1, 7)
    assert duplication_canonical_ideal(spec) == canonical_ideal(D3)

    assert duplication_canonical_ideal(NAT_SPEC) == canonical_ideal(NATURALS)


class TestNormalizeParams:
    def test_fixed_point(self):
        spec = DuplicationSpec(S1, E2, 3)
        assert normalize_params(spec) is spec

    def test_counterexample_spec(self):
        norm = normalize_params(DuplicationSpec(S2, F2, 5))
        assert norm.odd_offset == 9
        assert norm.ideal == F2.translate(-2)
        assert norm.ideal.min_element == 0
        assert duplicate(norm) == T2

    def test_shifted_ideal(self):
        spec = DuplicationSpec(S1, E2.translate(1), 3)
        norm = normalize_params(spec)
        assert norm == DuplicationSpec(S1, E2, 5)
        assert duplicate(norm) == duplicate(spec)


def test_reprs_list_the_shown_fields():
    # failure messages print these
    s = NumericalSemigroup.from_generators([3, 5])
    e = relative_ideal(s, [0, 3], 5)
    s_repr = "NumericalSemigroup(small_elements=(0, 3, 5, 6), conductor=8)"
    e_repr = f"RelativeIdeal(ambient={s_repr}, elements_below=(0, 3), ideal_conductor=5)"
    assert repr(s) == s_repr
    assert repr(e) == e_repr
    spec_repr = f"DuplicationSpec(base={s_repr}, ideal={e_repr}, odd_offset=3)"
    assert repr(DuplicationSpec(s, e, 3)) == spec_repr
