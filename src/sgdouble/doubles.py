"""Checks and enumerators for the doubles of a numerical semigroup.

A double of S is any semigroup T whose half is S.  The checks decide, from
a duplication spec alone, whether the resulting double is symmetric, almost
symmetric with odd type, or almost symmetric with even type; the enumerators
walk the normalized search space (ideals with smallest element zero) and
return certified families.  Only the even-type family is finite, hence the
only one marked exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .duplication import DuplicationSpec, duplicate, duplication_frobenius, half
from .errors import BoundTooSmall, HypothesisViolated, IsNaturals, NotAlmostSymmetric, SumNotInS
from .ideals import (
    RelativeIdeal,
    _build,
    canonical_ideal,
    is_numerical_semigroup_set,
    maximal_ideal,
    naturals_ideal,
    unit_ideal,
)
from .semigroup import _CACHE_SIZE, ClassificationReport, NumericalSemigroup, canonical_key, classify

KIND_SYMMETRIC = "symmetric"
KIND_ODD = "odd-almost-symmetric"
KIND_EVEN = "even-almost-symmetric"


@dataclass(frozen=True)
class DoubleCertificate:
    """One double together with the spec producing it and its classification."""

    double: NumericalSemigroup
    spec: DuplicationSpec
    report: ClassificationReport
    kind: str


@dataclass(frozen=True)
class DoubleFamily:
    """Doubles of ``base``, pairwise distinct, in canonical order.

    ``exhaustive`` is True only when no further double of the requested kind
    exists at all (the even-type family); bounded enumerations of the
    infinite families report False.
    """

    base: NumericalSemigroup
    members: tuple[DoubleCertificate, ...]
    exhaustive: bool


# -- theorem-driven checks ---------------------------------------------------


def symmetric_double_check(spec: DuplicationSpec) -> bool:
    """True exactly when the duplication is symmetric.

    Holds iff twice the ideal's Frobenius number plus the offset exceeds
    twice the base's, and the ideal is canonical.
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    return 2 * e.frobenius + b > 2 * s.frobenius and e.is_canonical()


@dataclass(frozen=True)
class OddConditionReport:
    """The three conditions every almost symmetric odd-type double satisfies.

    They are necessary but not sufficient; ``odd_double_check`` adds the
    offset condition that completes the characterization.
    """

    frobenius_matches: bool  # f(T) == 2 f(E) + offset
    sandwich: bool           # K - (M - M)  <=  tilde(E)  <=  K
    dual_is_semigroup: bool  # K - tilde(E) is a numerical semigroup

    @property
    def all_hold(self) -> bool:
        return self.frobenius_matches and self.sandwich and self.dual_is_semigroup


@lru_cache(maxsize=_CACHE_SIZE)
def _base_context(s: NumericalSemigroup):
    k = canonical_ideal(s)
    m = maximal_ideal(s)
    return k, m, k - (m - m)


def _odd_ideal_conditions(s: NumericalSemigroup, e: RelativeIdeal):
    """Yield the conditions of the odd-type check that depend on E alone.

    First the sandwich K - (M - M) <= tilde(E) <= K, which is cheap, then
    whether K - tilde(E) is a numerical semigroup.  Lazy, so ``all`` stops
    at the first failure.
    """
    k, _, kmm = _base_context(s)
    tilde = e.tilde()
    yield kmm <= tilde and tilde <= k
    yield is_numerical_semigroup_set(k - tilde)


def _odd_ideal_part(s: NumericalSemigroup, e: RelativeIdeal):
    """The odd-type check of E, as the offset condition left to decide.

    None when one of the conditions of ``_odd_ideal_conditions`` fails, else
    the predicate b + shift + E + K <= M on the offset b, with shift =
    f(E) - f(S) and shift + E + K computed once.
    """
    if not all(_odd_ideal_conditions(s, e)):
        return None
    k, m, _ = _base_context(s)
    shifted_sum = (e + k).translate(e.frobenius - s.frobenius)
    return lambda b: shifted_sum.translate(b) <= m


def odd_necessary_conditions(spec: DuplicationSpec) -> OddConditionReport:
    """Evaluate the three necessary conditions for an odd-type double."""
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    sandwich, dual_is_semigroup = _odd_ideal_conditions(s, e)
    return OddConditionReport(
        frobenius_matches=(duplication_frobenius(spec) == 2 * e.frobenius + b),
        sandwich=sandwich,
        dual_is_semigroup=dual_is_semigroup,
    )


def odd_double_check(spec: DuplicationSpec) -> bool:
    """True exactly when the duplication is almost symmetric with odd type.

    The necessary conditions plus the offset condition
    offset + shift + E + K <= M, where shift = f(E) - f(S).
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    # f(T) = 2 f(E) + b exactly when 2 f(E) + b, an odd number, exceeds 2 f(S)
    offset_ok = _odd_ideal_part(s, e) if 2 * e.frobenius + b > 2 * s.frobenius else None
    return offset_ok is not None and offset_ok(b)


def _even_ideal_part(s: NumericalSemigroup, e: RelativeIdeal):
    """The even-type check of E, as the offset condition left to decide.

    None when K <= E - E fails, else the predicate M - E <= (E - M) + b on
    the offset b.  Assumes ``s`` is almost symmetric.
    """
    k, m, _ = _base_context(s)
    if not k <= (e - e):
        return None
    m_minus_e, e_minus_m = m - e, e - m
    return lambda b: m_minus_e <= e_minus_m.translate(b)


def even_double_check(spec: DuplicationSpec) -> bool:
    """True exactly when the duplication is almost symmetric (with even type).

    Only meaningful under the hypothesis 2 f(S) > 2 f(E) + offset, which
    forces an even Frobenius number on the double; outside it the question
    belongs to ``odd_double_check`` and this raises
    :class:`HypothesisViolated` rather than guessing.
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    if 2 * s.frobenius <= 2 * e.frobenius + b:
        raise HypothesisViolated(
            "even-type check requires 2 f(S) > 2 f(E) + offset"
        )
    if not classify(s).almost_symmetric:
        return False
    offset_ok = _even_ideal_part(s, e)
    return offset_ok is not None and offset_ok(b)


# -- search space -------------------------------------------------------------


@lru_cache(maxsize=_CACHE_SIZE)
def ideals_with_frobenius(s: NumericalSemigroup, fe: int) -> tuple[RelativeIdeal, ...]:
    """All relative ideals of ``s`` with smallest element 0 and Frobenius ``fe``.

    Such an ideal is S plus a set X of gaps below fe (fe itself must be a
    gap, else there are none).  A gap g can join X only when fe - g is not
    in S, and X must be an up-set of those gaps under g <= h iff h - g is in
    S; it is enough to close X under the minimal generators.  The walk takes
    the eligible gaps in decreasing order and extends every selection made
    so far by g exactly when the gaps g + generator below fe are already
    chosen.  Every selection extends to at least one ideal, so the cost grows
    with the number of ideals times the number of eligible gaps, not with
    2^(gaps below fe).  Results come sorted by their element lists; fe values
    that admit no ideal yield the empty tuple.
    """
    if fe == -1:
        return (naturals_ideal(s),)
    if fe < 1 or fe in s:
        return ()
    base = s._window(0, fe)
    gaps = s._gap_mask & ((1 << fe) - 1)
    gens = sum(1 << a for a in s.minimal_generators)
    free = [g for g in s.gaps if g < fe and (fe - g) not in s]
    chosen = [0]  # bitmasks over the gaps selected so far
    for g in reversed(free):
        # g + a below fe and outside S is an eligible gap larger than g
        need = gens << g & gaps
        chosen += [c | 1 << g for c in chosen if c & need == need]
    out = [_build(s, base | c, 0, fe + 1) for c in chosen]
    out.sort(key=lambda e: e.elements_below)
    return tuple(out)


def _specs(s: NumericalSemigroup, offsets, ideal_part):
    """Yield the valid normalized specs over ``s`` that pass a two-part check.

    For each f(E), ``offsets(f(E))`` gives the candidate odd offsets, kept
    when they lie in S.  ``ideal_part(s, e)`` runs once per ideal and is
    None when E fails, else the predicate that decides each offset passing
    the sum filter.
    """
    for fe in (-1, *s.gaps):
        bs = [b for b in offsets(fe) if b in s]
        if not bs:
            continue
        for e in ideals_with_frobenius(s, fe):
            offset_ok = ideal_part(s, e)
            if offset_ok is None:
                continue
            for b in bs:
                try:  # the spec's own validation is the sum filter
                    spec = DuplicationSpec(s, e, b)
                except SumNotInS:
                    continue
                if offset_ok(b):
                    yield spec


def candidate_specs(s: NumericalSemigroup, max_frobenius: int):
    """Yield every valid normalized spec over ``s`` with f(T) <= max_frobenius.

    Normalized means the ideal's smallest element is zero; every double of
    ``s`` is realized by at least one such spec.  The bound constrains the
    odd branch 2 f(E) + offset; callers pass max_frobenius >= 2 f(S).
    """
    return _specs(s, lambda fe: range(1, max_frobenius - 2 * fe + 1, 2),
                  lambda s, e: lambda b: True)


def _family(base: NumericalSemigroup, specs, kind: str, exhaustive: bool) -> DoubleFamily:
    """The distinct doubles of ``specs`` in canonical order.

    Each double is certified by its spec with the least (offset, ideal
    elements).
    """
    found: dict = {}
    for spec in specs:
        t = duplicate(spec)
        key = (spec.odd_offset, spec.ideal.elements_below)
        if t not in found or key < found[t][0]:
            found[t] = (key, spec)
    members = (DoubleCertificate(t, found[t][1], classify(t), kind)
               for t in sorted(found, key=canonical_key))
    return DoubleFamily(base, tuple(members), exhaustive)


# -- enumerators --------------------------------------------------------------


def enumerate_symmetric_doubles(s: NumericalSemigroup, max_frobenius: int) -> DoubleFamily:
    """All symmetric doubles of ``s`` with Frobenius number <= max_frobenius.

    Symmetric doubles are exactly the duplications by canonical ideals, and
    for each admissible odd Frobenius target there is exactly one; the
    certificate fixes the smallest odd element of ``s`` as offset.
    """
    f = s.frobenius
    if max_frobenius < 2 * f + 1:
        raise BoundTooSmall(f"bound must be at least {2 * f + 1}")
    k = canonical_ideal(s)
    kk = k + k
    unit = unit_ideal(s)
    b = 1
    while b not in s:
        b += 2
    # the ideal-sum condition K+K + (f_t - 2f) <= S is split-independent
    specs = (DuplicationSpec(s, k.translate((f_t - b) // 2 - f), b)
             for f_t in range(2 * f + 1, max_frobenius + 1, 2)
             if kk.translate(f_t - 2 * f) <= unit)
    return _family(s, specs, KIND_SYMMETRIC, False)


def enumerate_odd_doubles(s: NumericalSemigroup, max_frobenius: int) -> DoubleFamily:
    """All almost symmetric odd-type doubles of ``s`` up to the bound."""
    f = s.frobenius
    if max_frobenius < 2 * f + 1:
        raise BoundTooSmall(f"bound must be at least {2 * f + 1}")
    # 2 f(S) < f(T) = 2 f(E) + b <= max_frobenius
    specs = _specs(s, lambda fe: range(max(1, 2 * f + 1 - 2 * fe), max_frobenius - 2 * fe + 1, 2),
                   _odd_ideal_part)
    return _family(s, specs, KIND_ODD, False)


def enumerate_even_doubles(s: NumericalSemigroup) -> DoubleFamily:
    """The complete, finite family of almost symmetric even-type doubles.

    Empty exactly when ``s`` is the naturals or not almost symmetric.  All
    members have Frobenius number 2 f(S).  The search space is finite: with
    the ideal normalized to contain 0, the offset is an odd element below
    2 f(S) + 2 and the ideal's Frobenius number lies below f(S) - offset/2.
    """
    if s.is_naturals or not classify(s).almost_symmetric:
        return DoubleFamily(s, (), True)
    f = s.frobenius
    # 2 f(E) + b < 2 f(S)
    specs = _specs(s, lambda fe: range(3, 2 * f - 2 * fe, 2), _even_ideal_part)
    return _family(s, specs, KIND_EVEN, True)


def witness_even_double(s: NumericalSemigroup) -> DuplicationSpec:
    """One spec whose duplication is almost symmetric with even type.

    Takes the naturals as ideal and offset f(S) + 1 or f(S) + 2, whichever
    is odd.  Defined for almost symmetric ``s`` other than the naturals.
    """
    if s.is_naturals:
        raise IsNaturals("the naturals have no even-type double")
    if not classify(s).almost_symmetric:
        raise NotAlmostSymmetric(f"{s} is not almost symmetric")
    f = s.frobenius
    b = f + 1 if (f + 1) % 2 == 1 else f + 2
    return DuplicationSpec(s, naturals_ideal(s), b)


# -- type relations between a double and its half ------------------------------


@dataclass(frozen=True)
class HalfTypeReport:
    """Type bookkeeping between a semigroup and its half."""

    double_type: int
    half_type: int
    even_pf_count: int
    bound_ok: bool          # odd-type a.s. double: t(S) >= (t(T) - 1) / 2
    count_ok: bool          # even-type a.s. double: t(S) == #even PF(T)
    even_pf_bound_ok: bool  # always: t(S) >= #even PF(T)
    half_frobenius_ok: bool  # f(T) even implies f(S) == f(T) / 2


def half_type_report(t: NumericalSemigroup) -> HalfTypeReport:
    """Evaluate the half-type relations for ``t`` over its half."""
    s = half(t)
    rep_t, rep_s = classify(t), classify(s)
    evens = sum(1 for p in rep_t.pseudo_frobenius if p % 2 == 0)
    odd_as = rep_t.almost_symmetric and rep_t.frobenius % 2 != 0
    even_as = rep_t.almost_symmetric and rep_t.frobenius % 2 == 0
    return HalfTypeReport(
        double_type=rep_t.type,
        half_type=rep_s.type,
        even_pf_count=evens,
        bound_ok=(not odd_as) or rep_s.type >= (rep_t.type - 1) // 2,
        count_ok=(not even_as) or rep_s.type == evens,
        even_pf_bound_ok=rep_s.type >= evens,
        half_frobenius_ok=t.frobenius % 2 != 0 or s.frobenius == t.frobenius // 2,
    )
