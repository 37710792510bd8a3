"""Checks and enumerators for the doubles of a numerical semigroup.

A double of S is any semigroup T whose half is S.  The checks decide, from
a duplication spec alone, whether the resulting double is symmetric, almost
symmetric with odd type, or almost symmetric with even type; the enumerators
walk the normalized search space (ideals with smallest element zero) and
return certified families.  Only the even-type family is finite, hence the
only one marked exhaustive.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .duplication import DuplicationSpec, duplicate, duplication_frobenius, half
from .errors import BoundTooLarge, BoundTooSmall, HypothesisViolated, IsNaturals, NotAlmostSymmetric
from .ideals import (
    RelativeIdeal,
    _build,
    canonical_ideal,
    is_numerical_semigroup_set,
    maximal_ideal,
    naturals_ideal,
)
from .semigroup import (
    _CACHE_SIZE,
    CONDUCTOR_LIMIT,
    ClassificationReport,
    NumericalSemigroup,
    _bits,
    _mask_of,
    _minus,
    _pf_type,
    _reverse,
    _symmetry_class,
    _UpSet,
    classify,
)

KIND_SYMMETRIC = "symmetric"
KIND_ODD = "odd-almost-symmetric"
KIND_EVEN = "even-almost-symmetric"


@dataclass(frozen=True)
class DoubleCertificate:
    """One double together with the spec producing it, its type and its symmetry class.

    The full classification report is computed on demand, as ``report``.
    """

    double: NumericalSemigroup
    spec: DuplicationSpec
    kind: str
    type: int
    symmetry_class: str

    @property
    def report(self) -> ClassificationReport:
        """``classify(self.double)``."""
        return classify(self.double)


@dataclass(frozen=True)
class DoubleFamily:
    """Doubles of ``base``, pairwise distinct, in canonical order.

    Each member is certified by the one spec that produced it: a double has
    exactly one normalized spec, and the symmetric family one spec per f(T).

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


#: What the odd-type checks need of S besides S itself: the sandwich's lower
#: bound K - (M - M), M - K and the window W.
_BaseContext = namedtuple("_BaseContext", "kmm mk window")


@lru_cache(maxsize=_CACHE_SIZE)
def _base_context(s: NumericalSemigroup) -> _BaseContext:
    """K - (M - M), M - K and W, K the canonical ideal and M the maximal one.

    The offset condition b + shift + E + K <= M of an odd-type double with
    spec (S, E, b), shift = f(E) - f(S), says that E lies inside
    (M - K) - (b + shift), and as 0 is in E, b + shift is in M - K.
    W = M - (K + (K - (M - M))) = (M - K) - (K - (M - M)) holds f(T) - 2 f(S)
    for every such double: the sandwich K - (M - M) <= tilde(E) = E - shift
    and the offset condition give b + 2 shift + K + (K - (M - M)) <= M, and
    b + 2 shift = f(T) - 2 f(S).  W does not depend on E, and its smallest
    member bounds f(T) - 2 f(S) from below.
    """
    k = canonical_ideal(s)
    m = maximal_ideal(s)
    kmm = k - (m - m)
    mk = m - k
    return _BaseContext(kmm, mk, mk - kmm)


def _odd_dual_ok(s: NumericalSemigroup, x: int, c: int) -> bool:
    """True if K - tilde(E) = {z : f(E) - z not in E}, E's gaps mirrored, is a numerical semigroup.

    E has smallest member 0, conductor c and, below c, the bits of ``x``.
    """
    return is_numerical_semigroup_set(_build(s, _reverse(~x & (1 << c) - 1, c), 0, c))


def _odd_ideal_part(s: NumericalSemigroup):
    """The odd-type offset test over ``s``: ``part(x, c, m_e, bs)``, the offsets of ``bs`` E accepts.

    E, inside the walk's sandwich, is given as to ``_odd_dual_ok``, and
    ``m_e`` is the mask of M - E.  Each b of ``bs``, with b + shift > 0 for
    shift = f(E) - f(S), is kept when b + shift + E + K <= M, that is
    b + shift + K <= M - E, as y is in M - E exactly when y + E <= M: one
    mask test of K, read once here.  Only if some b passes is K - tilde(E)
    tested.  Each accepted b meets the sum condition: E - shift = tilde(E) <= K
    gives E + E + b <= b + shift + E + K <= M.
    """
    k = canonical_ideal(s)
    kk = k._mask | -1 << k._c

    def part(x: int, c: int, m_e: int, bs) -> list[int]:
        shift = c - 1 - s.frobenius
        accepted = [b for b in bs if not kk << b + shift & ~m_e]
        return accepted if accepted and _odd_dual_ok(s, x, c) else []

    return part


def odd_necessary_conditions(spec: DuplicationSpec) -> OddConditionReport:
    """Evaluate the three necessary conditions for an odd-type double, the last on E - m(E)."""
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    return OddConditionReport(
        frobenius_matches=(duplication_frobenius(spec) == 2 * e.frobenius + b),
        sandwich=_base_context(s).kmm <= e.tilde(),  # tilde(E) <= K holds for every ideal
        dual_is_semigroup=_odd_dual_ok(s, e._mask, e._c - e.min_element),
    )


def odd_double_check(spec: DuplicationSpec) -> bool:
    """True exactly when the duplication is almost symmetric with odd type.

    The necessary conditions plus the offset condition
    offset + shift + E + K <= M, where shift = f(E) - f(S); the offset
    condition and K - tilde(E) a numerical semigroup are tested by
    ``_accepts``.
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    # f(T) = 2 f(E) + b exactly when 2 f(E) + b, an odd number, exceeds 2 f(S),
    # so b + 2 shift > 0 and, with b > 0, b + shift > 0; then the sandwich,
    # which the odd enumerator's walk holds
    if 2 * e.frobenius + b <= 2 * s.frobenius or not _base_context(s).kmm <= e.tilde():
        return False
    return _accepts(spec, _odd_ideal_part)


def _maximal_mask(s: NumericalSemigroup) -> int:
    """The mask of M, the maximal ideal S minus {0}, with every bit from its conductor on set."""
    return s._mask & ~1 | -1 << max(s._c, 1)


def _even_ideal_part(s: NumericalSemigroup):
    """The even-type offset test over ``s``: ``part(x, c, m_e, bs)``, the offsets of ``bs`` E accepts.

    E is the ideal with smallest member 0, conductor c and members below c
    the bits of ``x``, and ``m_e`` the mask of M - E.  A b of ``bs`` is kept
    when it meets the sum condition E + E + b <= S, which every valid spec
    meets, and the offset condition M - E <= (E - M) + b.  The first reads
    b + E <= M - E, as b + E + E misses 0, and is tested first: only if
    some b passes it is (E - M) + m = (E + m) - G computed, m = m(S) and G
    the minimal generators of S (x + M <= E when x + G <= E).  Masks with
    every bit from a conductor on set stand for E, M - E and (E - M) + m, so
    each condition is one mask test per b.  Assumes ``s`` is almost
    symmetric.
    """
    m = s.multiplicity
    gens = _mask_of(s.minimal_generators)

    def part(x: int, c: int, m_e: int, bs) -> list[int]:
        e = x | -1 << c
        bs = [b for b in bs if not e << b & ~m_e]
        if not bs:
            return bs
        e_m = _minus(e << m, gens, m)
        # b + 0 is in M - E, so b - m >= 0
        return [b for b in bs if not m_e & ~(e_m << b - m)]

    return part


def _even_offsets(s: NumericalSemigroup):
    """For each f(E) = fe, the odd offsets b in S an even-type spec (S, E, b), m(E) = 0, can have.

    These are the b with f(S) - fe <= b <= f(S) - fe + m, m = m(S), and
    2 fe + b < 2 f(S), the check's hypothesis; empty for fe >= f(S) - 1.
    The lower end: the sum condition b + E <= M - E puts b + fe + 1 + N
    inside M - E, whose Frobenius number is f(M) - m(E) = f(S), so
    b + fe + 1 > f(S).  The upper end: the offset condition
    M - E <= (E - M) + b gives f(S) = f(M - E) >= f(E - M) + b = fe - m + b.

    Each b also lies in [m(M - E), m(M - E) + m]: the sum condition puts
    b = b + 0 in M - E, and the least members of the offset condition's
    sides give m(M - E) >= m(E - M) + b, where m(E - M) >= -m, as x + M <= E
    puts x + m in E.  On every ideal the even walk builds, E + K <= E with
    fe < f(S), that window is this one: m(M - E) = f(S) - fe, since x in E
    with f(S) - fe + x outside S would put fe - x in K, and so fe in E + K.
    The per-ideal test therefore needs no window of its own.
    """
    f, m = s.frobenius, s.multiplicity

    def offsets(fe: int) -> list[int]:
        low = f - fe
        return [b for b in range(low | 1, min(low + m, 2 * low - 1) + 1, 2) if b in s]

    return offsets


def even_double_check(spec: DuplicationSpec) -> bool:
    """True exactly when the duplication is almost symmetric (with even type).

    Only meaningful under the hypothesis 2 f(S) > 2 f(E) + offset, which
    forces an even Frobenius number on the double; outside it the question
    belongs to ``odd_double_check`` and this raises
    :class:`HypothesisViolated` rather than guessing.  S almost symmetric
    and K <= E - E are tested as stated, the offset and sum conditions by
    ``_accepts``.
    """
    s, e, b = spec.base, spec.ideal, spec.odd_offset
    if 2 * s.frobenius <= 2 * e.frobenius + b:
        raise HypothesisViolated(
            "even-type check requires 2 f(S) > 2 f(E) + offset"
        )
    if not classify(s).almost_symmetric or not canonical_ideal(s) <= e - e:
        return False
    return _accepts(spec, _even_ideal_part)


def _accepts(spec: DuplicationSpec, part) -> bool:
    """True if ``part(spec.base)``, a kind's offset test, accepts the spec normalized to m(E) = 0.

    (E, b) becomes (E - m(E), b + 2 m(E)), with the same double: the odd
    offset m(E) + m(E) + b is in S by the sum condition, and the offset and
    sum conditions and both kinds' E-only bounds are unchanged by it.  The
    test gets E's mask and conductor and M - E, computed once.
    """
    s, e = spec.base, spec.ideal
    lo = e.min_element
    b = spec.odd_offset + 2 * lo
    x, c = e._mask, e._c - lo
    m_e = _minus(_maximal_mask(s), x | -1 << c, s.multiplicity)
    return part(s)(x, c, m_e, (b,)) == [b]


# -- search space -------------------------------------------------------------


def _ideal_masks_between(s: NumericalSemigroup, fe: int, need: _UpSet, close: _UpSet,
                         ) -> list[tuple[int, int]]:
    """The ideals E of ``s`` with m(E) = 0 and f(E) = ``fe`` that contain ``need``.

    Each is given as a pair (mask, M - E), unsorted: bit x of the mask is set
    for each member x of E below fe + 1, and M - E, M the maximal ideal, is
    a mask with every bit from max(c(S), 1) on set.

    ``need`` is ``s`` or a relative ideal of ``s``, and leaves no ideal when
    it has a member below 0.  ``close``, ``s`` or a relative ideal of ``s``
    with smallest member 0, adds the condition E + ``close`` <= E, which for
    S every ideal meets.  Such an ideal is S plus a set X of gaps below fe
    (fe itself must be a gap, else there are none).  A gap g can join X
    only when fe - g is not in ``close``, and X must hold every gap below fe
    of g + ``close``.  The walk takes the eligible gaps in decreasing order:
    a gap in ``need`` replaces the selections made so far with their
    extensions by it, and any other gap adds those extensions.  A selection
    extends by g exactly when the gaps below fe of g + ``close`` are already
    chosen.  ``need`` must be closed under adding ``close``, so the gaps a
    forced gap needs are forced too and every selection extends to at least
    one ideal: the cost grows with the number of ideals returned times the
    number of eligible gaps, not with 2^(gaps below fe).

    The walk carries M - E along, one AND per added gap.  It starts from
    E_0 = S | [fe + 1, oo), for which M - E_0 = M & [f(S) - fe, oo):
    x + S <= M for x in M, and x + [fe + 1, oo) <= M exactly when
    x + fe + 1 > f(S).  A gap g then gives M - (E | {g}) = (M - E) & (M - g).
    """
    # fe must be -1 or a gap
    if need._lo < 0 or fe < -1 or fe in s:
        return []
    members = _maximal_mask(s)
    start = members & -1 << s.frobenius - fe  # M - E_0
    if fe == -1:
        return [(0, start)]  # the naturals
    forced = need._window(0, fe + 1)
    base = s._window(0, fe)
    gaps = s._gap_mask & ((1 << fe) - 1)
    # fe - g, in (0, fe], is in close where close's members in [1, fe],
    # mirrored, have bit g
    free = gaps & ~_reverse(close._window(1, fe + 1), fe)
    # below fe + 1, E holds the base and may hold free gaps, but never fe
    if forced & ~(base | free):
        return []
    steps = close._window(0, fe) & ~1  # the nonzero members of close below fe
    chosen = [(0, start)]  # bitmasks over the gaps selected so far, and M - E
    for g in reversed(_bits(free)):
        # g + a, a > 0 in close, below fe and outside S is a gap larger than g
        required = steps << g & gaps
        shifted = members >> g  # M - g
        grown = [(c | 1 << g, m_e & shifted) for c, m_e in chosen if c & required == required]
        chosen = grown if forced >> g & 1 else chosen + grown
    return [(base | c, m_e) for c, m_e in chosen]


# member x of a set with smallest member 0 reads "1" at position x, and a
# non-member below its largest member "2"
_AS_LIST = str.maketrans("0", "2")


def _list_order(mask: int) -> str:
    """Sort key of the masks of sets with smallest member 0 and equal conductors.

    Orders them by element list, read from the mask without listing the
    members: a string sorts before its extensions as an element list does.
    """
    return bin(mask)[:1:-1].translate(_AS_LIST)


def _ideal_masks(s: NumericalSemigroup, fe: int) -> list[tuple[int, int]]:
    """The (mask, M - E) pairs of ``ideals_with_frobenius(s, fe)``, in its order."""
    # every ideal with smallest member 0 contains S and is closed under it
    return sorted(_ideal_masks_between(s, fe, s, s), key=lambda pair: _list_order(pair[0]))


def ideals_with_frobenius(s: NumericalSemigroup, fe: int) -> tuple[RelativeIdeal, ...]:
    """All relative ideals of ``s`` with smallest element 0 and Frobenius ``fe``.

    Results come sorted by their element lists, and this order is part of
    the public contract; the enumerators do not rely on it, since they walk
    only the ideals inside their checks' bounds.  fe values that admit no
    ideal yield the empty tuple.
    """
    return tuple(_build(s, x, 0, fe + 1) for x, _ in _ideal_masks(s, fe))


def _specs(s: NumericalSemigroup, offsets, need, close, part):
    """Yield the normalized specs over ``s`` that pass a two-part check.

    ``offsets(f(E))`` gives the offsets to try for each f(E), ascending, and
    an f(E) left with none is not walked.  The walk at f(E) is
    ``_ideal_masks_between(s, f(E), need(f(E)), close)``, the E-only part of
    the check, and ``part(x, f(E) + 1, m_e, bs)`` the offsets of ``bs`` the
    ideal of mask x and M - E ``m_e`` accepts, only ones with E + E + b <= S,
    so the specs skip the constructor's checks.  E is built once, if any
    passed.
    """
    for fe in (-1, *s.gaps):
        if bs := offsets(fe):
            for x, m_e in _ideal_masks_between(s, fe, need(fe), close):
                if accepted := part(x, fe + 1, m_e, bs):
                    e = _build(s, x, 0, fe + 1)
                    yield from (DuplicationSpec._of(s, e, b) for b in accepted)


def candidate_specs(s: NumericalSemigroup, max_frobenius: int):
    """Yield every valid normalized spec over ``s`` with f(T) <= max_frobenius.

    Normalized means the ideal's smallest element is zero; every double of
    ``s`` is realized by exactly one such spec, whose offset is the double's
    least odd member.  The bound constrains the odd branch 2 f(E) + offset;
    callers pass max_frobenius >= 2 f(S).  The specs come unsorted, in the
    walk's order.
    """
    m = s.multiplicity

    def part(x, c, m_e, bs):
        # (M - E) - E: b > 0 is in it exactly when E + E + b <= S
        ok = _minus(m_e, x | -1 << c, m)
        return [b for b in bs if ok >> b & 1]

    def offsets(fe):
        return [b for b in range(1, max_frobenius - 2 * fe + 1, 2) if b in s]

    # every ideal with smallest member 0 contains S and is closed under it
    return _specs(s, offsets, lambda fe: s, s, part)


def _certificate(t: NumericalSemigroup, spec: DuplicationSpec, kind: str) -> DoubleCertificate:
    """The certificate of ``t``, the duplication of ``spec``, as a double of ``kind``.

    The type and class are read from the masks, each read once: no gap
    tuple per member.  L(T) is computed once and bounds the PF scan, which
    a symmetric T, with L(T) empty, skips.
    """
    ell = t._second_type_mask
    pf = t._pf_among(ell)
    return DoubleCertificate(t, spec, kind, _pf_type(pf), _symmetry_class(t._c - 1, pf, ell))


def _family(base: NumericalSemigroup, specs, kind: str, exhaustive: bool) -> DoubleFamily:
    """The doubles of ``specs`` in canonical order, each certified by its spec.

    Distinct specs give distinct doubles, so each double has exactly one
    spec: a normalized spec (S, E, b) is read off its double T as
    (T/2, {x : 2x + b in T}, b), b the least odd member of T, and the
    symmetric enumerator gives one spec per f(T).
    """
    certs = [_certificate(duplicate(spec), spec, kind) for spec in specs]
    # members of one conductor are ordered by their element lists; a
    # conductor no other member has, as each of the symmetric family's, needs
    # no such key
    seen, shared = set(), set()
    for cert in certs:
        c = cert.double._c
        (shared if c in seen else seen).add(c)

    def key(cert):
        c = cert.double._c
        return c, _list_order(cert.double._mask) if c in shared else ""

    return DoubleFamily(base, tuple(sorted(certs, key=key)), exhaustive)


# -- enumerators --------------------------------------------------------------


def _check_bound(s: NumericalSemigroup, max_frobenius: int) -> None:
    """Reject a bound on f(T) below 2 f(S) + 1 or past ``CONDUCTOR_LIMIT`` - 1.

    A double's conductor is f(T) + 1, capped like every semigroup's; the
    check runs before any work.
    """
    if max_frobenius < 2 * s.frobenius + 1:
        raise BoundTooSmall(f"bound must be at least {2 * s.frobenius + 1}")
    if max_frobenius > CONDUCTOR_LIMIT - 1:
        raise BoundTooLarge(
            f"bound {max_frobenius} exceeds {CONDUCTOR_LIMIT - 1}: "
            f"a double's conductor f(T) + 1 may not exceed the limit {CONDUCTOR_LIMIT}")


def enumerate_symmetric_doubles(s: NumericalSemigroup, max_frobenius: int) -> DoubleFamily:
    """All symmetric doubles of ``s`` with Frobenius number <= max_frobenius.

    Symmetric doubles are exactly the duplications by canonical ideals, and
    for each admissible odd Frobenius target there is exactly one; the
    certificate fixes the smallest odd element of ``s`` as offset.
    """
    _check_bound(s, max_frobenius)
    f = s.frobenius
    k = canonical_ideal(s)
    kk, m = k._mask | -1 << k._c, s.multiplicity
    sums = _minus(_minus(_maximal_mask(s), kk, m), kk, m)  # (M - K) - K
    b = 1
    while b not in s:
        b += 2
    # the sum condition K + K + (f_t - 2f) <= S is split-independent
    specs = (DuplicationSpec._of(s, k.translate((f_t - b) // 2 - f), b)
             for f_t in range(2 * f + 1, max_frobenius + 1, 2)
             if sums >> f_t - 2 * f & 1)
    return _family(s, specs, KIND_SYMMETRIC, False)


def enumerate_odd_doubles(s: NumericalSemigroup, max_frobenius: int) -> DoubleFamily:
    """All almost symmetric odd-type doubles of ``s`` up to the bound.

    Only the targets f(T) with f(T) - 2 f(S) in the window W of
    ``_base_context`` are tried, and for each f(E) only the offsets b with
    b + f(E) - f(S) in M - K, so an f(E) none of them reaches is not walked.
    Nor is an f(E) below f(S) - m(K - (M - M)), where the walk's lower bound
    K - (M - M) + f(E) - f(S) has a negative member.
    """
    _check_bound(s, max_frobenius)
    f = s.frobenius
    kmm, mk, window = _base_context(s)
    # 2 f(S) < f(T) = 2 f(E) + b <= max_frobenius
    targets = [t for t in range(2 * f + 1, max_frobenius + 1, 2) if t - 2 * f in window]
    least = f - kmm.min_element

    def offsets(fe):
        if fe < least:
            return []
        return [b for t in targets if (b := t - 2 * fe) in s and b + fe - f in mk]

    # K - (M - M) <= tilde(E) = E + f(S) - f(E); tilde(E) <= K holds for
    # every ideal, as x in E with f(E) - x in S would put f(E) in E + S <= E
    specs = _specs(s, offsets, lambda fe: kmm.translate(fe - f), s, _odd_ideal_part(s))
    return _family(s, specs, KIND_ODD, False)


def enumerate_even_doubles(s: NumericalSemigroup) -> DoubleFamily:
    """The complete, finite family of almost symmetric even-type doubles.

    Empty exactly when ``s`` is the naturals or not almost symmetric.  All
    members have Frobenius number 2 f(S).  The search space is finite: with
    the ideal normalized to contain 0, the offset b and f(E) meet
    2 f(E) + b < 2 f(S).  Each f(E) tries only the offsets of
    ``_even_offsets``' window, and an f(E) it leaves empty is not walked.
    The walk is ``_ideal_masks_between``'s, as for every enumerator, here
    over the ideals with K <= E - E, and gives each ideal's M - E with its
    mask; each walked ideal computes E - M only if some offset meets the sum
    condition.
    """
    if s.is_naturals or not classify(s).almost_symmetric:
        return DoubleFamily(s, (), True)
    # K <= E - E is E + K <= E, as 0 is in E, so E holds every sum of members of K
    k = closure = canonical_ideal(s)
    while (grown := closure + k) != closure:
        closure = grown
    specs = _specs(s, _even_offsets(s), lambda fe: closure, k, _even_ideal_part(s))
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
    # N + N + b <= [f + 1, oo) <= S
    return DuplicationSpec._of(s, naturals_ideal(s), b)


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
