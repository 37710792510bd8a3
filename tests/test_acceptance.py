"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is exact (set equality), no tolerances.
"""

import contextlib
import json
import time

import pytest

from sgdouble import (
    NATURALS,
    DuplicationSpec,
    classify,
    decompose,
    duplicate,
    duplication_canonical_ideal,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    even_double_check,
    half,
    half_type_report,
    odd_double_check,
    odd_necessary_conditions,
    symmetric_double_check,
)
from sgdouble import oracle
from sgdouble.cli import main
from sgdouble.doubles import candidate_specs, ideals_with_frobenius
from sgdouble.duplication import sum_violation
from sgdouble.errors import InvalidB
from sgdouble.ideals import canonical_ideal, maximal_ideal

from cases import D1, D2, D3, E1, E2, E3, E4, F2, S1, S2, ST1, T1, T2, criteria, unit_ideal


@contextlib.contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {label} overran: {elapsed:.1f}s"
    print(f"[acceptance] criterion {label}: PASS ({elapsed:.2f}s)")


def _semigroups_up_to(max_f):
    out = list(oracle.enum_semigroups_with_frobenius(-1))
    for f in range(1, max_f + 1):
        out.extend(oracle.enum_semigroups_with_frobenius(f))
    return out


# shared sweeps, computed inside the first criterion that needs them so the
# cost counts against that criterion's budget
_memo = {}


def sweep():
    """Every admissible normalized spec with f(S) <= 9, f(T) <= 2 f(S) + 9."""
    if "sweep" not in _memo:
        out = []
        for s in _semigroups_up_to(9):
            for spec in candidate_specs(s, 2 * s.frobenius + 9):
                t = duplicate(spec)
                out.append((spec, t, classify(t)))
        _memo["sweep"] = out
    return _memo["sweep"]


def oracle_families():
    """Kernel and oracle double families side by side (criterion 6 scale)."""
    if "families" not in _memo:
        even = {}
        for s in _semigroups_up_to(9):
            even[s] = (
                [c.double for c in enumerate_even_doubles(s).members],
                oracle.brute_doubles(s, "even", 2 * s.frobenius),
            )
        odd = {}
        for s in _semigroups_up_to(7):
            bound = 2 * s.frobenius + 9
            odd[s] = (
                [c.double for c in enumerate_odd_doubles(s, bound).members],
                oracle.brute_doubles(s, "odd", bound),
            )
        _memo["families"] = (even, odd)
    return _memo["families"]


def test_criterion_1_even_family_reproduction(capsys):
    with criterion("1 (worked-example even family)", budget_seconds=1.0):
        code = main(["enumerate-doubles", "--gens", "3,5,7", "--parity", "even", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        members = data["members"]
        got = [(tuple(m["t"]["small"]), m["t"]["conductor"]) for m in members]
        assert got == [
            ((0, 3, 6, 7), 9),   # D1
            ((0, 5, 6, 7), 9),   # D2
            ((0, 6, 7), 9),      # D3
        ]
        assert [classify(d).symmetry_class for d in (D1, D2, D3)] == [
            "pseudo-symmetric", "pseudo-symmetric", "almost-symmetric-proper",
        ]
        assert classify(D3).type == 4
        assert [m["type"] for m in members] == [2, 2, 4]


def test_criterion_2_ideal_census_and_grid():
    with criterion("2 (ideal census and condition grid)", budget_seconds=1.0):
        assert oracle.enum_relative_ideals(S1, -1) == [E1]
        assert oracle.enum_relative_ideals(S1, 1) == [E2]
        assert oracle.enum_relative_ideals(S1, 2) == [E3, E4]

        f = S1.frobenius
        ideals = {-1: E1, 1: E2, 2: E3, 2.5: E4}  # E3/E4 share f(E) = 2
        grid = {
            b: [fe for fe in (-1, 1, 2) if 2 * fe + b < 2 * f]
            for b in (3, 5, 7, 9)
        }
        assert grid == {3: [-1, 1, 2], 5: [-1, 1], 7: [-1], 9: [-1]}

        # offset-sum exclusions: exactly E1 and E4 fail at b = 3
        failing_sum = {
            (b, name)
            for b in (3, 5, 7, 9)
            for name, e in (("E1", E1), ("E2", E2), ("E3", E3), ("E4", E4))
            if e.frobenius in grid[b] and sum_violation(S1, e, b) is not None
        }
        assert failing_sum == {(3, "E1"), (3, "E4")}

        # self-differences and the canonical containment
        k = canonical_ideal(S1)
        assert (E1 - E1) == E1 and (E2 - E2) == E2 and (E3 - E3) == E3
        assert k <= (E1 - E1) and k <= (E2 - E2)
        assert not k <= (E3 - E3)

        # the containment table for M - E against (E - M) + b
        m = maximal_ideal(S1)
        table = {
            (b, name): (m - e) <= (e - m).translate(b)
            for b, name, e in [
                (3, "E2", E2), (5, "E1", E1), (5, "E2", E2),
                (7, "E1", E1), (9, "E1", E1),
            ]
        }
        assert table == {
            (3, "E2"): True,
            (5, "E1"): True,
            (5, "E2"): False,
            (7, "E1"): True,
            (9, "E1"): False,
        }

        # survivors are exactly the three doubles
        survivors = [
            duplicate(DuplicationSpec(S1, e, b))
            for b, e in [(3, E2), (5, E1), (7, E1)]
        ]
        assert survivors == [D1, D2, D3]


def test_criterion_3_decomposition_table():
    with criterion("3 (decomposition table)", budget_seconds=1.0):
        expected = {
            5: (2, 5, 7, 9, 10, 11, 12),
            7: (1, 4, 6, 8, 9, 10, 11),
            9: (0, 3, 5, 7, 8, 9, 10),
        }
        specs = {}
        for b, below in expected.items():
            spec = decompose(T1, b)
            specs[b] = spec
            assert spec.ideal.elements_below == below
            assert duplicate(spec) == T1

        # 11 and 13 are not odd elements of T1/2 (22, 26 are gaps of T1), so
        # the first offset past the table is 15, where the ideal goes negative
        with pytest.raises(InvalidB):
            decompose(T1, 11)
        specs[15] = decompose(T1, 15)
        assert specs[15].ideal.min_element < 0
        assert duplicate(specs[15]) == T1

        proper = unit_ideal(ST1)
        for spec in specs.values():
            assert not spec.ideal <= proper  # never a proper ideal of T1/2


def test_criterion_4_counterexample():
    with criterion("4 (necessary conditions are not sufficient)", budget_seconds=1.0):
        spec = DuplicationSpec(S2, F2, 5)
        report = odd_necessary_conditions(spec)
        assert report.all_hold

        k = canonical_ideal(S2)
        m = maximal_ideal(S2)
        mm = m - m
        tilde = F2.tilde()
        assert k == unit_ideal(S2)          # S2 is symmetric
        assert (k - mm) == m == tilde       # the sandwich collapses onto M
        assert tilde <= k
        assert (k - tilde) == mm            # and the dual is M - M,
        from sgdouble import is_numerical_semigroup_set
        assert is_numerical_semigroup_set(k - tilde)  # a numerical semigroup

        t = duplicate(spec)
        assert t == T2
        assert t.small_elements == (0, 8, 9, 10, 11, 12, 13) and t.conductor == 16
        rep = classify(t)
        assert 1 in rep.second_type_gaps and 1 not in rep.pseudo_frobenius
        assert not rep.almost_symmetric

        # the full check fails, and the failure is exactly the offset condition
        assert not odd_double_check(spec)
        shift = F2.frobenius - S2.frobenius
        assert not (F2 + k).translate(5 + shift) <= m


def test_criterion_5_theorem_equivalences():
    with criterion("5 (theorem checker equivalences)", budget_seconds=300.0):
        specs = sweep()
        assert len(specs) > 5000
        for spec, t, rep in specs:
            odd_expected = rep.almost_symmetric and rep.frobenius % 2 != 0
            assert odd_double_check(spec) == odd_expected, spec
            assert symmetric_double_check(spec) == rep.symmetric, spec
            s, e, b = spec.base, spec.ideal, spec.odd_offset
            if 2 * s.frobenius > 2 * e.frobenius + b:
                assert even_double_check(spec) == rep.almost_symmetric, spec

        for s in _semigroups_up_to(12):
            rep = classify(s)
            assert rep == oracle.brute_classify(s)
            assert set(criteria(s).values()) == {rep.almost_symmetric}, (s, criteria(s))
            if rep.almost_symmetric:
                assert (rep.type % 2) == (rep.frobenius % 2), s


def test_criterion_5b_enumerators_match_public_checks():
    # the enumerators evaluate each check in a per-ideal part and a per-offset
    # part; filtering the sweep through the public checks must give the same
    # doubles, each certified by its smallest (offset, ideal) spec
    with criterion("5b (enumerators agree with the public checks)", budget_seconds=300.0):
        odd, even = {}, {}
        for spec, t, _ in sweep():
            s, e, b = spec.base, spec.ideal, spec.odd_offset
            key = (b, e.elements_below)
            accepted = [odd] if odd_double_check(spec) else []
            if 2 * s.frobenius > 2 * e.frobenius + b and even_double_check(spec):
                accepted.append(even)
            for found in accepted:
                mine = found.setdefault(s, {})
                mine[t] = min(mine.get(t, key), key)
        assert odd and even
        for s in _semigroups_up_to(9):
            for found, fam in ((odd, enumerate_odd_doubles(s, 2 * s.frobenius + 9)),
                               (even, enumerate_even_doubles(s))):
                got = {c.double: (c.spec.odd_offset, c.spec.ideal.elements_below)
                       for c in fam.members}
                assert got == found.get(s, {}), s


def test_criterion_6_oracle_equality():
    with criterion("6 (enumerators equal the brute-force oracle)", budget_seconds=600.0):
        even, odd = oracle_families()
        assert len(even) == 58 and len(odd) == 27
        for s, (kernel, brute) in even.items():
            assert kernel == brute, s
        for s, (kernel, brute) in odd.items():
            assert kernel == brute, s


def test_criterion_7_type_relations():
    with criterion("7 (type relations between a double and its half)", budget_seconds=60.0):
        even, odd = oracle_families()
        seen = 0
        for s, (_, brute) in even.items():
            for t in brute:
                seen += 1
                rep = half_type_report(t)
                assert rep.count_ok and rep.even_pf_bound_ok
                assert rep.half_frobenius_ok
                assert half(t).frobenius == t.frobenius // 2
                assert rep.half_type == rep.even_pf_count
        for s, (_, brute) in odd.items():
            for t in brute:
                seen += 1
                rep = half_type_report(t)
                assert rep.bound_ok
                assert rep.half_type >= (rep.double_type - 1) // 2
        assert seen > 400


def test_criterion_8_even_doubles_biconditional():
    with criterion("8 (even-type doubles exist exactly for almost symmetric halves)", budget_seconds=60.0):
        for s in _semigroups_up_to(9):
            nonempty = bool(enumerate_even_doubles(s).members)
            if s.is_naturals:
                assert not nonempty
            else:
                assert nonempty == classify(s).almost_symmetric, s
        for t in oracle.brute_all_doubles(NATURALS, 9):
            assert classify(t).symmetric, t


def test_criterion_9_canonical_ideal_formula():
    with criterion("9 (canonical ideal of a duplication)", budget_seconds=300.0):
        for spec, t, _ in sweep():
            assert duplication_canonical_ideal(spec) == canonical_ideal(t), spec
