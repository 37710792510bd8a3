import pytest

from sgdouble import NATURALS, NumericalSemigroup, classify, duplicate, half, witness_even_double
from sgdouble import oracle
from sgdouble.errors import BoundTooLarge, InvalidFrobenius

from cases import D1, D2, D3, E2, E3, E4, S1, S2, criteria


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


def test_search_outputs_revalidate():
    for f in (5, 7):
        for s in oracle.enum_semigroups_with_frobenius(f):
            assert NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) == s
