import pytest

from sgdouble import (
    NATURALS,
    DuplicationSpec,
    classify,
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
from sgdouble import oracle
from sgdouble.doubles import KIND_EVEN, ideals_with_frobenius
from sgdouble.errors import (
    BoundTooSmall,
    HypothesisViolated,
    IsNaturals,
    NotAlmostSymmetric,
)
from sgdouble.ideals import canonical_ideal, unit_ideal

from cases import D1, D2, D3, E1, E2, F2, S1, S2, ST1, T1, T2

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
