import pytest

from sgdouble import (
    NATURALS,
    NumericalSemigroup,
    classify,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    oracle,
)
from sgdouble.errors import (
    EmptyGenerators,
    FrobeniusInSet,
    MissingZero,
    NonCoprimeGenerators,
    NotClosed,
)

from cases import D3, S1, S2, T1, T2


class TestFromGenerators:
    def test_four_generator_fixture(self):
        assert T1.small_elements == (
            0, 9, 10, 14, 15, 18, 19, 20, 23, 24, 25, 27, 28, 29, 30,
        )
        assert T1.conductor == 32

    def test_generator_containing_one_gives_naturals(self):
        assert NumericalSemigroup.from_generators([1]) == NATURALS
        assert NumericalSemigroup.from_generators([1, 6]) == NATURALS

    def test_three_generator_fixture(self):
        assert S1.small_elements == (0, 3)
        assert S1.conductor == 5

    def test_pairwise_noncoprime_but_globally_coprime(self):
        s = NumericalSemigroup.from_generators([6, 10, 15])
        assert s.frobenius == 29

    def test_duplicate_generators_collapse(self):
        assert NumericalSemigroup.from_generators([5, 3, 3, 7, 5]) == S1

    def test_errors(self):
        with pytest.raises(EmptyGenerators):
            NumericalSemigroup.from_generators([])
        with pytest.raises(NonCoprimeGenerators):
            NumericalSemigroup.from_generators([4, 6])
        with pytest.raises(ValueError):
            NumericalSemigroup.from_generators([0, 3])


class TestFromSmallElements:
    def test_fixtures(self):
        assert NumericalSemigroup.from_small_elements([0, 3], 5) == S1
        assert NumericalSemigroup.from_small_elements([0, 4, 5, 6], 8) == S2

    def test_not_closed_witness(self):
        with pytest.raises(NotClosed) as exc:
            NumericalSemigroup.from_small_elements([0, 2], 5)
        assert exc.value.witness == (2, 2)

    def test_missing_zero(self):
        with pytest.raises(MissingZero):
            NumericalSemigroup.from_small_elements([3, 5], 7)

    def test_frobenius_listed(self):
        # {0,4,5->} has conductor 4, so listing 4 under conductor 5 is rejected
        with pytest.raises(FrobeniusInSet):
            NumericalSemigroup.from_small_elements([0, 4], 5)

    def test_naturals_form(self):
        assert NumericalSemigroup.from_small_elements([], 0) == NATURALS
        with pytest.raises(ValueError):
            NumericalSemigroup([0], 0)

    def test_roundtrip(self):
        for s in (S1, S2, T1, T2, NATURALS):
            assert NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) == s


class TestMembership:
    def test_fixture_values(self):
        assert 31 not in T1
        assert 30 in T1 and 32 in T1 and 10 ** 9 in T1
        assert 4 not in S1

    @pytest.mark.parametrize("s", [NATURALS, S1, S2, T1, T2])
    def test_zero_and_negatives(self, s):
        assert 0 in s
        assert -1 not in s and -100 not in s


def test_frobenius():
    assert S1.frobenius == 4
    assert NATURALS.frobenius == -1
    assert T1.frobenius == 31


def test_gaps_and_second_type():
    assert S1.gaps == (1, 2, 4)
    assert S1.second_type_gaps == (2,)
    assert NATURALS.gaps == ()
    assert 1 in T2.second_type_gaps
    assert set(T2.second_type_gaps) <= set(T2.gaps)


def test_pseudo_frobenius():
    assert S2.pseudo_frobenius == (7,)
    assert D3.pseudo_frobenius == (3, 4, 5, 8)
    assert NATURALS.pseudo_frobenius == (-1,)
    assert T1.pseudo_frobenius == (5, 26, 31)


def test_type():
    assert S1.type == 2
    assert D3.type == 4
    assert S2.type == 1  # symmetric
    assert NATURALS.type == 1


def test_minimal_generators():
    assert T1.minimal_generators == (9, 10, 14, 15)
    assert NATURALS.minimal_generators == (1,)
    assert S1.minimal_generators == (3, 5, 7)
    assert NumericalSemigroup.from_small_elements([0], 2).minimal_generators == (2, 3)


@pytest.mark.parametrize("method", ["definition", "reflection", "pairing", "all"])
def test_classify_methods_agree_on_fixtures(method):
    assert classify(S1, method).symmetry_class == "pseudo-symmetric"
    assert classify(D3, method).symmetry_class == "almost-symmetric-proper"
    assert classify(T2, method).symmetry_class == "none"
    assert classify(NATURALS, method).symmetry_class == "symmetric"


def test_classify_report_fields():
    rep = classify(S1)
    assert rep.type == 2
    assert rep.frobenius == 4
    assert rep.almost_symmetric and rep.pseudo_symmetric and not rep.symmetric

    rep3 = classify(D3)
    assert rep3.type == 4 and rep3.almost_symmetric

    assert not classify(T2).almost_symmetric
    assert classify(S2).symmetric


def test_classify_rejects_unknown_method():
    with pytest.raises(ValueError):
        classify(S1, "magic")


def test_str_notation():
    assert str(S1) == "{0, 3, 5->}"
    assert str(NATURALS) == "{0->}"


# -- bitmask invariants against the definitions --------------------------------


@pytest.fixture(scope="module")
def bitmask_cases():
    """Every S with f <= 14, the symmetric and odd doubles of three bases up
    to f(T) = 300, and {0, 6, 7, 9->}, whose largest minimal generator 11
    puts x + g for the gap x = 8 at 2c + 1."""
    cases = [
        s for f in (-1, *range(1, 15)) for s in oracle.enum_semigroups_with_frobenius(f)
    ]
    for gens in ((3, 4), (3, 5), (3, 7, 8)):
        base = NumericalSemigroup.from_generators(gens)
        for fam in (enumerate_symmetric_doubles(base, 300), enumerate_odd_doubles(base, 300)):
            cases += [cert.double for cert in fam.members]
    cases.append(NumericalSemigroup.from_small_elements([0, 6, 7], 9))
    return cases


def _naive_minimal_generators(s):
    """Nonzero members that are not a sum of two nonzero members.

    Every x > c + m is m + (x - m) with x - m > c a member, so the
    candidates stop at c + m.
    """
    c = s.conductor
    members = set(s.small_elements) | set(range(c, 2 * c + 2))
    m = min(members - {0})
    nonzero = sorted(x for x in members if 0 < x <= c + m)
    gens = []
    for x in nonzero:
        for a in nonzero:
            if 2 * a > x:
                gens.append(x)
                break
            if x - a in members:
                break
    return tuple(gens)


def test_bitmask_invariants_match_definitions(bitmask_cases):
    assert len(bitmask_cases) > 1000
    for s in bitmask_cases:
        ref = oracle.brute_classify(s)
        for method in ("definition", "reflection", "pairing", "all"):
            assert classify(s, method) == ref, (str(s), method)
        assert s.minimal_generators == _naive_minimal_generators(s), str(s)


def test_pseudo_frobenius_window_reaches_largest_generator():
    s = NumericalSemigroup.from_small_elements([0, 6, 7], 9)
    assert s.minimal_generators == (6, 7, 9, 10, 11)
    assert s.pseudo_frobenius == (3, 4, 5, 8)
    assert classify(s) == oracle.brute_classify(s)
