import random

import pytest

from sgdouble import (
    NATURALS,
    canonical_ideal,
    is_numerical_semigroup_set,
    maximal_ideal,
    naturals_ideal,
    oracle,
    relative_ideal,
)
from sgdouble.errors import AmbientMismatch, BoundTooLarge, NotAnIdeal
from sgdouble.ideals import RelativeIdeal
from sgdouble.semigroup import CONDUCTOR_LIMIT

from cases import E1, E2, E3, E4, F2, K1, S1, S2, ST1, unit_ideal


def ideal(ambient, elems, conductor):
    return relative_ideal(ambient, elems, conductor)


class TestConstruction:
    def test_decomposition_ideal_over_st1(self):
        e = ideal(ST1, [2, 5, 7, 9, 10, 11, 12], 14)
        assert e.elements_below == (2, 5, 7, 9, 10, 11, 12)
        assert e.min_element == 2 and e.frobenius == 13

    def test_fixture_e4(self):
        assert E4.elements_below == (0, 1) and E4.ideal_conductor == 3

    def test_not_an_ideal_witness(self):
        with pytest.raises(NotAnIdeal) as exc:
            ideal(S1, [0, 1, 2], 4)
        assert exc.value.witness == (0, 3)
        # one mask test per minimal generator g: on seeded random sets over
        # the S with f <= 11, the witness is the least (e, g) of a loop over
        # the listed members and the generators
        rng = random.Random(14)
        bases = [s for f in (-1, *range(1, 12)) for s in oracle.enum_semigroups_with_frobenius(f)]
        outcomes = set()
        for _ in range(4000):
            s = rng.choice(bases)
            lo, density = rng.randint(-3, 3), rng.random()
            c = lo + rng.randint(0, 20)
            elems = [x for x in range(lo, c + 3) if rng.random() < density]
            members = set(elems)
            naive = next(((x, g) for x in sorted(members) if x < c for g in s.minimal_generators
                          if x + g < c and x + g not in members), None)
            try:
                ideal(s, elems, c)
                witness = None
            except NotAnIdeal as exc:
                witness, message = exc.witness, str(exc)
            assert witness == naive, (s, elems, c)
            if naive is not None:
                x, g = naive
                assert message == f"{x} + {g} = {x + g} escapes the set"
            outcomes.add(naive is None)
        assert outcomes == {True, False}

    def test_conductor_normalization(self):
        # a listed element equal to conductor - 1 just shifts the conductor down
        assert ideal(S1, [0, 2], 3) == E2
        assert ideal(S1, [0, 2, 3, 4], 5) == E2

    def test_tail_only_ideal(self):
        e = ideal(S1, [], 7)
        assert e.min_element == 7 and e.elements_below == ()

    def test_structural_rejects(self):
        with pytest.raises(ValueError):
            RelativeIdeal(S1, (3, 2), 5)
        with pytest.raises(ValueError):
            RelativeIdeal(S1, (0, 4), 5)
        with pytest.raises(ValueError, match="strictly below the conductor"):
            RelativeIdeal(S1, (0, 6), 5)

    def test_span_past_the_limit_rejected(self):
        # raised before a mask over [m(E), c(E)) is built
        assert RelativeIdeal(S1, (0,), CONDUCTOR_LIMIT).ideal_conductor == CONDUCTOR_LIMIT
        with pytest.raises(BoundTooLarge, match="ideal span"):
            RelativeIdeal(S1, (0,), CONDUCTOR_LIMIT + 1)
        with pytest.raises(BoundTooLarge, match="ideal span"):
            RelativeIdeal(S1, (-10**10, 0), 5)


def test_maximal_ideal():
    assert maximal_ideal(S1) == RelativeIdeal(S1, (3,), 5)
    assert maximal_ideal(NATURALS) == RelativeIdeal(NATURALS, (), 1)
    assert maximal_ideal(S2) == RelativeIdeal(S2, (4, 5, 6), 8)


def test_canonical_ideal():
    assert canonical_ideal(S1) == K1
    assert canonical_ideal(S2) == unit_ideal(S2)  # symmetric: K = S
    assert canonical_ideal(NATURALS) == naturals_ideal(NATURALS)


def test_translate():
    assert E2.translate(1) == RelativeIdeal(S1, (1,), 3)
    assert K1.translate(0) == K1
    assert F2.translate(2) == maximal_ideal(S2)
    assert E2.translate(5).translate(-5) == E2
    assert E2 - 3 == E2.translate(-3) == RelativeIdeal(S1, (-3,), -1)


class TestSum:
    def test_fixture_sums(self):
        assert E2 + E2 == RelativeIdeal(S1, (0,), 2)
        assert E1 + E1 == naturals_ideal(S1)
        # 3 + 4 = 7, so the sum is the whole tail from 4 on
        assert F2 + F2 == RelativeIdeal(S2, (), 4)

    def test_sum_plus_offset_checks(self):
        shifted = (F2 + F2) + 5
        assert shifted <= unit_ideal(S2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            E2 + F2


class TestDifference:
    def test_fixture_differences(self):
        m = maximal_ideal(S1)
        assert m - E1 == RelativeIdeal(S1, (), 5)
        assert E1 - m == RelativeIdeal(S1, (), -3)
        assert m - E2 == RelativeIdeal(S1, (3,), 5)
        assert E2 - m == RelativeIdeal(S1, (-3,), -1)

    def test_self_difference_of_example_ideals(self):
        assert E1 - E1 == E1
        assert E2 - E2 == E2
        assert E3 - E3 == E3
        assert E4 - E4 == E3  # not E4: adding 1+1 forces 2 out

    def test_m_minus_m_identity(self):
        for s in (S1, S2, ST1):
            m = maximal_ideal(s)
            expected = sorted(set(s.small_elements) | set(s.pseudo_frobenius))
            assert (m - m) == relative_ideal(s, expected, s.conductor)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            E2 - F2


def test_tilde():
    assert F2.tilde() == maximal_ideal(S2)
    assert K1.tilde() == K1
    assert E2.tilde() == RelativeIdeal(S1, (3,), 5)
    assert E2.tilde().frobenius == S1.frobenius


def test_is_canonical():
    assert K1.is_canonical() and K1.canonical_shift() == 0
    assert not E1.is_canonical()
    shifted = unit_ideal(S2).translate(3)
    assert shifted.is_canonical() and shifted.canonical_shift() == 3
    assert K1.translate(-4).canonical_shift() == -4


def test_reflection_dual():
    assert E1.reflection_dual() == RelativeIdeal(S1, (), 5)
    assert E1.reflection_dual() == (K1 - E1)
    # K - K recovers the semigroup itself here
    assert K1.reflection_dual() == unit_ideal(S1)
    n = naturals_ideal(NATURALS)
    assert n.reflection_dual() == n


def test_reflection_dual_matches_difference_for_fixtures():
    for e in (E1, E2, E3, E4, K1):
        assert e.reflection_dual() == (K1 - e)


def test_is_numerical_semigroup_set():
    assert is_numerical_semigroup_set(K1 - K1)
    assert not is_numerical_semigroup_set(RelativeIdeal(S1, (), -3))
    m = maximal_ideal(S1)
    assert is_numerical_semigroup_set(m - m)
    # contains 0 but misses closure: {0, 2} pattern cannot occur as an ideal
    # of S1, so check a tail-only fake directly
    assert not is_numerical_semigroup_set(RelativeIdeal(S1, (-1,), 1))


def test_subset_ordering():
    assert maximal_ideal(S1) <= unit_ideal(S1)
    assert not (unit_ideal(S1) <= maximal_ideal(S1))
    assert K1 - (maximal_ideal(S1) - maximal_ideal(S1)) <= K1
