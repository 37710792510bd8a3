import pytest

from sgdouble import NATURALS, NumericalSemigroup, classify, duplicate, half, witness_even_double
from sgdouble import oracle
from sgdouble.doubles import candidate_specs
from sgdouble.errors import BoundTooLarge, InvalidFrobenius
from sgdouble.semigroup import canonical_key

from cases import (D1, D2, D3, E2, E3, E4, S1, S2, classify_by_loops, criteria, doubles_by_subsets,
                   ideals_by_subsets)


def _census(top):
    return [s for f in (-1, *range(1, top + 1)) for s in oracle.enum_semigroups_with_frobenius(f)]


def test_census_by_frobenius_number():
    counts = [len(oracle.enum_semigroups_with_frobenius(f)) for f in range(1, 10)]
    assert counts == [1, 1, 2, 2, 5, 4, 11, 10, 21]


def test_smallest_censuses_exactly():
    assert oracle.enum_semigroups_with_frobenius(-1) == [NATURALS]
    assert oracle.enum_semigroups_with_frobenius(1) == [
        NumericalSemigroup.from_small_elements([0], 2)
    ]
    assert oracle.enum_semigroups_with_frobenius(2) == [
        NumericalSemigroup.from_small_elements([0], 3)
    ]
    assert S1 in oracle.enum_semigroups_with_frobenius(4)


def test_enum_semigroups_errors():
    with pytest.raises(ValueError):
        oracle.enum_semigroups_with_frobenius(0)
    with pytest.raises(BoundTooLarge):
        oracle.enum_semigroups_with_frobenius(21)


def test_ideal_census():
    assert oracle.enum_relative_ideals(S1, -1) == [oracle.naturals_ideal(S1)]
    assert oracle.enum_relative_ideals(S1, 1) == [E2]
    assert oracle.enum_relative_ideals(S1, 2) == [E3, E4]
    # 3 is in S1, so no ideal containing 0 misses it
    assert oracle.enum_relative_ideals(S1, 3) == []


def test_ideal_census_errors():
    with pytest.raises(InvalidFrobenius):
        oracle.enum_relative_ideals(S1, 0)
    with pytest.raises(ValueError):
        oracle.enum_relative_ideals(S1, -2)
    with pytest.raises(BoundTooLarge):
        oracle.enum_relative_ideals(S1, 21)


def test_ideal_census_matches_subset_search():
    # the ordered search against every subset of (0, fe), at fe = -1 and
    # every fe <= min(f(S) + 5, 15), on every S with f(S) <= 9
    found = 0
    for s in _census(9):
        for fe in (-1, *range(1, min(s.frobenius + 5, 15) + 1)):
            got = oracle.enum_relative_ideals(s, fe)
            assert got == ideals_by_subsets(s, fe), (s, fe)
            found += len(got)
    assert found == 2737


def test_double_search_matches_subset_search():
    # the ordered search against every subset of the odd integers up to the
    # bound, at 2 f(S), 2 f(S) + 1, 2 f(S) + 5 and 2 f(S) + 9, on every S
    # with f(S) <= 9
    found = 0
    for s in _census(9):
        f = s.frobenius
        for bound in (2 * f, 2 * f + 1, 2 * f + 5, 2 * f + 9):
            got = sorted(oracle._iter_doubles(s, bound), key=canonical_key)
            assert got == sorted(doubles_by_subsets(s, bound), key=canonical_key), (s, bound)
            found += len(got)
    assert found == 13487


def test_double_search_stops_below_the_naturals():
    # f(N) = -1: no double of N lies below it, whatever 2 f(N) = -2 allows
    assert oracle.brute_all_doubles(NATURALS, -2) == []
    assert oracle.brute_doubles(NATURALS, "odd", -2) == []
    assert oracle.brute_doubles(NATURALS, "any", -2) == []
    assert oracle.brute_all_doubles(NATURALS, -1) == [NATURALS]
    assert oracle.brute_doubles(NATURALS, "odd", -1) == [NATURALS]
    assert oracle.brute_doubles(NATURALS, "even", -1) == []
    assert oracle.brute_all_doubles(S1, 2 * S1.frobenius - 1) == []


def test_brute_doubles_reference_family():
    assert oracle.brute_doubles(S1, "even", 8) == [D1, D2, D3]


def test_brute_doubles_naturals():
    assert oracle.brute_doubles(NATURALS, "even", 9) == []
    all_doubles = oracle.brute_all_doubles(NATURALS, 9)
    assert all_doubles
    assert all(oracle.brute_classify(t).symmetric for t in all_doubles)


def test_brute_doubles_symmetric_base():
    found = oracle.brute_doubles(S2, "even", 14)
    assert found
    assert duplicate(witness_even_double(S2)) in found
    for t in found:
        assert half(t) == S2
        rep = oracle.brute_classify(t)
        assert rep.almost_symmetric and rep.frobenius % 2 == 0


def test_brute_doubles_errors():
    with pytest.raises(ValueError):
        oracle.brute_doubles(S1, "weird", 8)
    with pytest.raises(BoundTooLarge):
        oracle.brute_doubles(S1, "even", 41)
    with pytest.raises(BoundTooLarge):
        oracle.brute_all_doubles(S1, 41)


def test_brute_classify_agrees_with_kernel():
    for f in range(-1, 9):
        if f == 0:
            continue
        for s in oracle.enum_semigroups_with_frobenius(f):
            ref = oracle.brute_classify(s)
            assert ref == classify(s)
            assert set(criteria(s).values()) == {ref.almost_symmetric}, (s, criteria(s))


def test_brute_classify_matches_loop_reference():
    # the PF test as one set operation against a loop per integer, on every
    # S with f(S) <= 12 and the doubles verify's theorem check builds from
    # every S with f(S) <= 6
    census = _census(12)
    doubles = [duplicate(spec) for s in census if s.frobenius <= 6
               for spec in candidate_specs(s, 2 * s.frobenius + 5)]
    assert (len(census), len(doubles)) == (171, 410)
    for s in census + doubles:
        assert oracle.brute_classify(s) == classify_by_loops(s), s


def test_search_outputs_revalidate():
    for f in (5, 7):
        for s in oracle.enum_semigroups_with_frobenius(f):
            assert NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) == s
