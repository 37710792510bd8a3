import math
import random
import time

import pytest

from sgdouble import (
    NATURALS,
    NumericalSemigroup,
    classify,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    is_numerical_semigroup_set,
    jsonio,
    oracle,
    relative_ideal,
    semigroup,
)
from sgdouble.errors import (
    BoundTooLarge,
    EmptyGenerators,
    FrobeniusInSet,
    MissingZero,
    NonCoprimeGenerators,
    NotClosed,
)
from sgdouble.ideals import RelativeIdeal

from cases import D3, S1, S2, T1, T2, criteria, semigroup_by_generators, slots_along_mro


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

    def test_large_conductor(self):
        # <1001, 1003>: x is a member iff x = 1001 i + 1003 j with
        # 0 <= j < 1001 and i >= 0, and c = (1001 - 1)(1003 - 1) (Sylvester)
        s = NumericalSemigroup.from_generators([1001, 1003])
        c = 1000 * 1002
        assert s.conductor == c and len(s.gaps) == c // 2
        column = sum(1 << 1001 * i for i in range(c // 1001 + 1))
        members = 0
        for j in range(1001):
            members |= column << 1003 * j
        assert s._mask == members & ((1 << c) - 1)

    def test_conductor_limit(self):
        limit = semigroup.CONDUCTOR_LIMIT
        assert NumericalSemigroup((0,), limit).conductor == limit
        with pytest.raises(BoundTooLarge):
            NumericalSemigroup((0,), limit + 1)
        with pytest.raises(BoundTooLarge):
            NumericalSemigroup.from_generators([limit + 1, limit + 2])  # multiplicity too large
        # c(<1414, 1415>) = 1413 * 1414 = 1,997,982 shows only in the widest
        # window, CONDUCTOR_LIMIT + m.  Below that width the window's last m
        # integers start at a multiple of m, a member, so only there does the
        # stop rule's m-th member count: c(<2, 2000001>) is the limit, and
        # c(<3, 1000003, 2000003>) = 2000001, its Apery set 0, 1000003 and
        # 2000003, one past it.  The message names only the limit.
        s = NumericalSemigroup.from_generators([1415, 1414])
        assert s.conductor == 1413 * 1414 == 1997982
        assert s.small_elements[:3] == (0, 1414, 1415) and 1997982 - 1 not in s
        assert NumericalSemigroup.from_generators([2, limit + 1]).conductor == limit
        for gens in ([1415, 1417],                     # conductor 2,002,224
                     [3, limit // 2 + 3, limit + 3],
                     [limit, limit + 1]):              # conductor 1999999 * 2000000
            with pytest.raises(BoundTooLarge) as exc:
                NumericalSemigroup.from_generators(gens)
            assert str(exc.value) == f"conductor exceeds the limit {limit}"

    def test_matches_the_naive_closure(self):
        # unsorted lists with gcd 1, each with a repeat and a sum of two
        # generators (capped below 4m), held to the member-by-member reference
        rng = random.Random(25)
        checked = 0
        while checked < 600:
            m = rng.randint(1, 40)
            gens = [m, *(rng.randrange(m, 4 * m) for _ in range(rng.randint(0, 5)))]
            gens += [rng.choice(gens), min(rng.choice(gens) + rng.choice(gens), 4 * m - 1)]
            if math.gcd(*gens) != 1:
                continue
            rng.shuffle(gens)
            assert NumericalSemigroup.from_generators(gens) == semigroup_by_generators(gens), gens
            checked += 1

    def test_rebuilds_every_small_semigroup(self):
        # every S with 1 <= f <= 13, from its minimal generators and from
        # all of its members in [m, c + m), a generating set
        count = 0
        for f in range(1, 14):
            for s in oracle.enum_semigroups_with_frobenius(f):
                m, c = s.multiplicity, s.conductor
                assert NumericalSemigroup.from_generators(s.minimal_generators) == s, str(s)
                members = [x for x in range(m, c + m) if x in s]
                assert NumericalSemigroup.from_generators(members) == s, str(s)
                count += 1
        assert count == 276


class TestFromSmallElements:
    def test_fixtures(self):
        assert NumericalSemigroup.from_small_elements([0, 3], 5) == S1
        assert NumericalSemigroup.from_small_elements([0, 4, 5, 6], 8) == S2

    def test_not_closed_witness(self):
        with pytest.raises(NotClosed) as exc:
            NumericalSemigroup.from_small_elements([0, 2], 5)
        assert exc.value.witness == (2, 2)
        # the scan tries only first terms a with a - m unlisted, m the
        # multiplicity: on seeded random candidate sets it reports the
        # least failing pair of a loop over all pairs, for semigroups and
        # for is_numerical_semigroup_set alike
        rng = random.Random(14)
        outcomes = set()
        for _ in range(4000):
            c = rng.randint(2, 30)
            density = rng.random()
            elems = [0, *(x for x in range(1, c - 1) if rng.random() < density)]
            naive = next(((a, b) for a in elems[1:] for b in elems[1:]
                          if a <= b and a + b < c and a + b not in elems), None)
            try:
                NumericalSemigroup.from_small_elements(elems, c)
                witness = None
            except NotClosed as exc:
                witness, message = exc.witness, str(exc)
            assert witness == naive, (elems, c)
            if naive is not None:
                a, b = naive
                assert message == f"{a} + {b} = {a + b} is missing"
            assert is_numerical_semigroup_set(RelativeIdeal(NATURALS, elems, c)) == (naive is None)
            outcomes.add(naive is None)
        assert outcomes == {True, False}

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

    @pytest.mark.parametrize("elems, conductor, message", [
        ((), -1, "conductor must be nonnegative"),
        ((-1, 0, 3), 5, "elements must be nonnegative"),
        ((0, 3, 3), 5, "strictly increasing"),
        ((0, 3, 6), 5, "strictly below the conductor"),
    ])
    def test_structural_rejects(self, elems, conductor, message):
        with pytest.raises(ValueError, match=message):
            NumericalSemigroup(elems, conductor)

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


@pytest.mark.parametrize("method", ["reflection", "pairing"])
def test_classify_methods_agree_on_fixtures(method):
    for s, symmetry_class in ((S1, "pseudo-symmetric"), (D3, "almost-symmetric-proper"),
                              (T2, "none"), (NATURALS, "symmetric")):
        rep = classify(s)
        assert rep.symmetry_class == symmetry_class
        assert criteria(s)[f"_almost_symmetric_by_{method}"] == rep.almost_symmetric, str(s)


def test_classify_report_fields():
    rep = classify(S1)
    assert rep.type == 2
    assert rep.frobenius == 4
    assert rep.almost_symmetric and rep.pseudo_symmetric and not rep.symmetric

    rep3 = classify(D3)
    assert rep3.type == 4 and rep3.almost_symmetric

    assert not classify(T2).almost_symmetric
    assert classify(S2).symmetric


def test_str_notation():
    assert str(S1) == "{0, 3, 5->}"
    assert str(NATURALS) == "{0->}"


def test_str_caches_no_member_tuple():
    # printing, listing or encoding a large family, or reading the
    # invariants, must not leave a tuple or a mask on each double or ideal:
    # all but the minimal generators are read from the mask on every access
    t = NumericalSemigroup.from_generators([4, 6, 9])
    assert str(t) == "{0, 4, 6, 8, 9, 10, 12->}"
    assert t.small_elements == (0, 4, 6, 8, 9, 10)
    e = relative_ideal(t, [0, 2, 4], 6)
    assert e.elements_below == (0, 2, 4)
    values = [t, e]
    for fam in (enumerate_even_doubles(S1), enumerate_symmetric_doubles(S1, 30)):
        jsonio.family_to_dict(fam)
        values += [v for c in fam.members for v in (c.double, c.spec.base, c.spec.ideal)]
    assert len(values) > 10
    for v in values:
        if isinstance(v, NumericalSemigroup):
            assert v.type == len(v.pseudo_frobenius)
            assert set(v.second_type_gaps) <= set(v.gaps)
            assert v.minimal_generators
        # the set core and an ideal's ambient, even after the generators are read
        core = {"_lo", "_mask", "_c"}
        assert not hasattr(v, "__dict__"), v
        assert slots_along_mro(v) == (core | {"ambient"} if isinstance(v, RelativeIdeal) else core), v


# -- bitmask invariants against the definitions --------------------------------


@pytest.fixture(scope="module")
def bitmask_cases():
    """Every S with f <= 14, the symmetric and odd doubles of three bases up
    to f(T) = 300, {0, 6, 7, 9->}, whose largest minimal generator 11
    puts x + g for the gap x = 8 at 2c + 1, and semigroups whose Apery sets
    are wide: large multiplicity or large conductor, so that their masks
    span many bytes and words."""
    cases = [
        s for f in (-1, *range(1, 15)) for s in oracle.enum_semigroups_with_frobenius(f)
    ]
    for gens in ((3, 4), (3, 5), (3, 7, 8)):
        base = NumericalSemigroup.from_generators(gens)
        for fam in (enumerate_symmetric_doubles(base, 300), enumerate_odd_doubles(base, 300)):
            cases += [cert.double for cert in fam.members]
    cases.append(NumericalSemigroup.from_small_elements([0, 6, 7], 9))
    for gens in ((50, 51, 53, 77),                        # c = 477, m = 50
                 (6, 1003, 2005),                         # c = 5010; 2005 = 1003 + 6 * 167
                 (64, 65, 66, 67, 68, 69, 70, 71, 150),   # c = 448, 9 generators
                 (37, 401, 443, 502, 719),                # c = 2412, type 10
                 (2, 2001),                               # c = 2000, every odd x < c a gap
                 (2, 513), (2, 515),                      # c = 512, 514: a 64-byte mask and one past it
                 (6, 8, 10, 535)):                        # c = 540; PF(S) needs 535, within m of c
        cases.append(NumericalSemigroup.from_generators(gens))
    # m = c: every integer in [c, 2c) is a minimal generator
    cases.append(NumericalSemigroup.from_small_elements([0], 300))
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
        assert classify(s) == ref, str(s)
        assert set(criteria(s).values()) == {ref.almost_symmetric}, (str(s), criteria(s))
        assert s.minimal_generators == _naive_minimal_generators(s), str(s)


def test_multiplicity_at_the_conductor_lists_in_linear_time():
    # {0, c->}: c minimal generators and c - 1 pseudo-Frobenius numbers in
    # windows of about 2c bits, too dense to read one set bit at a time
    c = 200_000
    s = NumericalSemigroup.from_small_elements([0], c)
    start = time.perf_counter()
    assert s.minimal_generators == tuple(range(c, 2 * c))
    assert s.pseudo_frobenius == tuple(range(1, c))
    assert classify(s).type == c - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"{elapsed:.2f}s"


def test_pseudo_frobenius_window_reaches_largest_generator():
    s = NumericalSemigroup.from_small_elements([0, 6, 7], 9)
    assert s.minimal_generators == (6, 7, 9, 10, 11)
    assert s.pseudo_frobenius == (3, 4, 5, 8)
    assert classify(s) == oracle.brute_classify(s)


def _naive_pf(s):
    """The gaps x with x + y in S for every nonzero member y, by the definition.

    For y >= c, x + y > f is a member, so y stops at c.  Empty for the
    naturals, whose PF mask is 0 by convention.
    """
    c = s.conductor
    member = bytearray(c + 1)
    for x in s.small_elements:
        member[x] = 1
    member[c] = 1
    nonzero = [y for y in range(1, c + 1) if member[y]]
    return [x for x in s.gaps
            if all(x + y >= c or member[x + y] for y in nonzero)]


def _naive_second_type(s):
    gaps = set(s.gaps)
    return [x for x in gaps if s.frobenius - x in gaps]


def _pf_mask_cases():
    """The naturals, symmetric and pseudo-symmetric S, conductors 512 and
    514, a conductor past 1000 with m = 100 and L(S) not empty, every S with
    f <= 12, and large symmetric and odd-type doubles."""
    cases = [NATURALS, S2, NumericalSemigroup.from_generators([3, 5]), S1,
             NumericalSemigroup.from_generators([3, 4, 5]),
             NumericalSemigroup.from_generators([2, 513]),   # c = 512
             NumericalSemigroup.from_generators([2, 515]),   # c = 514
             NumericalSemigroup.from_generators([100, 101, 103, 177])]   # c = 1254, type 4
    cases += [s for f in (-1, *range(1, 13)) for s in oracle.enum_semigroups_with_frobenius(f)]
    for gens, enumerate_doubles, bound in (([3, 5, 7], enumerate_symmetric_doubles, 2001),
                                           ([4, 6, 7, 9], enumerate_odd_doubles, 801)):
        fam = enumerate_doubles(NumericalSemigroup.from_generators(gens), bound)
        cases += [cert.double for cert in fam.members]
    return cases


def test_pf_mask_matches_the_definition():
    cases = _pf_mask_cases()
    assert [classify(s).symmetry_class for s in cases[:5]] == [
        "symmetric", "symmetric", "symmetric", "pseudo-symmetric", "pseudo-symmetric"]
    assert [s.conductor for s in cases[5:7]] == [512, 514]
    wide = cases[7]
    assert (wide.conductor, wide.multiplicity, wide.type) == (1254, 100, 4)
    assert len(wide.second_type_gaps) == 104
    assert max(s.conductor for s in cases) == 2002
    for s in cases:
        assert s._pf_mask == sum(1 << x for x in _naive_pf(s)), str(s)


def test_pf_lies_in_the_second_type_gaps_and_f():
    n = 0
    for f in (-1, *range(1, 13)):
        for s in oracle.enum_semigroups_with_frobenius(f):
            n += 1
            assert set(_naive_pf(s)) <= {*_naive_second_type(s), f}, str(s)
    assert n == 171
