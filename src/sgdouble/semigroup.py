"""Numerical semigroups and their basic invariants.

A numerical semigroup is an additively closed subset of the nonnegative
integers containing 0 whose complement is finite.  Values are kept in a
canonical form -- the sorted elements strictly below the conductor, plus the
conductor itself -- so two values represent the same semigroup exactly when
they compare equal.

The full set of naturals is represented by an empty element list and
conductor 0.  Its invariants follow the conventions ``frobenius == -1``,
``pseudo_frobenius == (-1,)``, ``type == 1``, class "symmetric"; these are a
choice (the usual definitions do not apply to a set with empty complement)
and are documented here once rather than per function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress
from operator import attrgetter
from typing import Iterable

from .errors import (
    EmptyGenerators,
    FrobeniusInSet,
    MissingZero,
    NonCoprimeGenerators,
    NotClosed,
)

SYMMETRIC = "symmetric"
PSEUDO_SYMMETRIC = "pseudo-symmetric"
ALMOST_SYMMETRIC_PROPER = "almost-symmetric-proper"
NOT_ALMOST_SYMMETRIC = "none"

#: Accepted values for the ``method`` argument of :func:`classify`.
CLASSIFY_METHODS = ("definition", "reflection", "pairing", "all")

# binary digits "0"/"1" to the bytes 0/1, so that they select in compress()
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")


#: Size of each of the library's memo caches.
_CACHE_SIZE = 1024


def _bits(mask: int, start: int = 0) -> tuple[int, ...]:
    """Ascending ``start + i`` for the set bits i of a nonnegative ``mask``."""
    flags = bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_TO_FLAG)
    return tuple(compress(range(start, start + len(flags)), flags))


def _from_mask(mask: int, lo: int, bound: int) -> tuple[tuple[int, ...], int, int]:
    """Canonical form of {lo + i : bit i of ``mask``} | [bound, oo), for lo <= bound.

    Returns the members below the least conductor c, c, and their mask from
    the smallest member on; bits of ``mask`` at or past ``bound`` are ignored.
    """
    c = lo + (~mask & ((1 << (bound - lo)) - 1)).bit_length()  # past the last non-member
    listed = mask & ((1 << (c - lo)) - 1)
    elements = _bits(listed, lo)
    return elements, c, listed >> (elements[0] - lo) if elements else 0


def _pair_violation(mem: int, lo: int, shift: int, target: "_UpSet"):
    """The first pair a <= b (least a, then least b) of the integers lo + i,
    i a set bit of ``mem``, with a + b + shift outside ``target``; or None.

    Sums from the target's conductor on are members: one mask test per a.
    """
    start = 2 * lo + shift  # the least sum
    width = max(target._c - start, 0)
    missing = ~target._window(start, target._c) & ((1 << width) - 1)
    for i in _bits(mem & ((1 << (width + 1) // 2) - 1)):  # a + a below the conductor
        hit = missing >> i & mem >> i << i  # the b >= a whose sum is missing
        if hit:
            return lo + i, lo + (hit & -hit).bit_length() - 1
    return None


def _reverse(mask: int, width: int) -> int:
    """``mask`` mirrored on [0, width): bit x moves to width - 1 - x."""
    return int(bin(mask)[2:].zfill(width)[::-1], 2)


class _UpSet:
    """A set of integers, bounded below, that holds every integer from its conductor on.

    The set core of semigroups and ideals.  Subclasses provide the smallest
    member ``_lo``, the conductor ``_c``, the members below it ``_listed``
    and ``_mask``, with bit x - ``_lo`` set for each listed member x.
    """

    def _window(self, start: int, stop: int) -> int:
        """Bit x - start is set for each member x in [start, stop)."""
        shift = self._lo - start
        listed = self._mask << shift if shift >= 0 else self._mask >> -shift
        return (listed | -1 << max(self._c - start, 0)) & ((1 << max(stop - start, 0)) - 1)

    def __contains__(self, x: int) -> bool:
        return x >= self._c or (x >= self._lo and self._mask >> (x - self._lo) & 1 == 1)

    def members_below(self, hi: int) -> list[int]:
        """Sorted members below ``hi``."""
        return list(_bits(self._window(self._lo, hi), self._lo))

    @property
    def frobenius(self) -> int:
        """Largest integer outside the set (-1 for the naturals)."""
        return self._c - 1

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, (*self._listed, self._c))) + "->}"


@dataclass(frozen=True)
class NumericalSemigroup(_UpSet):
    """Canonical, immutable numerical semigroup.

    ``small_elements`` holds the members strictly below ``conductor``; every
    integer >= ``conductor`` is a member.  Direct construction performs cheap
    structural validation only; use :meth:`from_small_elements` to also check
    additive closure of untrusted input.  Semigroups the kernel computes
    itself are canonical by construction and skip both checks.
    """

    small_elements: tuple[int, ...]
    conductor: int

    _lo = 0  # every semigroup's smallest member
    _c = property(attrgetter("conductor"))
    _listed = property(attrgetter("small_elements"))

    def __post_init__(self):
        object.__setattr__(self, "small_elements", tuple(self.small_elements))
        elems, c = self.small_elements, self.conductor
        if c < 0:
            raise ValueError("conductor must be nonnegative")
        if c == 0:
            if elems:
                raise ValueError("the naturals are stored with an empty element list")
            return
        if elems and elems[0] < 0:
            raise ValueError("elements must be nonnegative")
        if not elems or elems[0] != 0:
            raise MissingZero("a numerical semigroup must contain 0")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("small elements must be strictly increasing")
        if elems[-1] == c - 1:
            raise FrobeniusInSet(
                f"{c - 1} is listed but equals conductor - 1; the conductor is not minimal"
            )
        if elems[-1] >= c:
            raise ValueError("small elements must lie strictly below the conductor")

    @classmethod
    def _of(cls, small_elements: tuple[int, ...], conductor: int,
            mask: int | None = None) -> "NumericalSemigroup":
        """Unchecked construction from a canonical pair, and its mask if known."""
        s = object.__new__(cls)
        object.__setattr__(s, "small_elements", small_elements)
        object.__setattr__(s, "conductor", conductor)
        if mask is not None:
            object.__setattr__(s, "_mask", mask)
        return s

    # -- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Smallest numerical semigroup containing ``gens``.

        Requires a nonempty list of positive integers with gcd 1 (otherwise
        the complement would be infinite).
        """
        gens = sorted(set(gens))
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if reduce(math.gcd, gens) != 1:
            raise NonCoprimeGenerators(f"gcd({', '.join(map(str, gens))}) > 1")
        m = gens[0]
        # least[r] = smallest element of the semigroup congruent to r mod m;
        # computed by Bellman-Ford relaxation over the residue classes.
        least: list[int | None] = [None] * m
        least[0] = 0
        changed = True
        while changed:
            changed = False
            for r in range(m):
                v = least[r]
                if v is None:
                    continue
                for g in gens:
                    w = v + g
                    rr = w % m
                    if least[rr] is None or w < least[rr]:
                        least[rr] = w
                        changed = True
        conductor = max(least) - m + 1  # type: ignore[type-var]
        small = tuple(x for x in range(conductor) if least[x % m] <= x)
        return cls._of(small, conductor)

    @classmethod
    def from_small_elements(cls, elems: Iterable[int], conductor: int) -> "NumericalSemigroup":
        """Validating constructor; rejects non-closed input with a witness pair."""
        s = cls(tuple(sorted(set(elems))), conductor)
        witness = _pair_violation(s._mask & ~1, 0, 0, s)
        if witness is not None:
            a, b = witness
            raise NotClosed(f"{a} + {b} = {a + b} is missing", witness=witness)
        return s

    # -- membership and invariants ----------------------------------------

    @cached_property
    def _mask(self) -> int:
        """Bit x is set for each member x below the conductor."""
        return sum(1 << x for x in self.small_elements)

    @property
    def is_naturals(self) -> bool:
        return self.conductor == 0

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element."""
        if self.is_naturals:
            return 1
        if len(self.small_elements) > 1:
            return self.small_elements[1]
        return self.conductor

    @property
    def _gap_mask(self) -> int:
        return self._mask ^ ((1 << self.conductor) - 1)

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        """Ascending complement within the naturals."""
        return _bits(self._gap_mask)

    @cached_property
    def _second_type_mask(self) -> int:
        gaps = self._gap_mask
        return gaps & _reverse(gaps, self.conductor)

    @cached_property
    def second_type_gaps(self) -> tuple[int, ...]:
        """Gaps s whose reflection frobenius - s is also a gap."""
        return _bits(self._second_type_mask)

    @cached_property
    def _pf_mask(self) -> int:
        # x + s in S for every nonzero s in S already follows from x + g in S
        # for every minimal generator g.  For a gap x, x + g stays below
        # c + max(g), so the members window must reach that far.
        gens = self.minimal_generators
        members = self._window(0, self.conductor + gens[-1])
        pf = self._gap_mask
        for g in gens:
            pf &= members >> g
        return pf

    @cached_property
    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Ascending list of x not in S with x + s in S for every nonzero s in S."""
        if self.is_naturals:
            return (-1,)
        return _bits(self._pf_mask)

    @property
    def type(self) -> int:
        """Number of pseudo-Frobenius numbers."""
        return len(self.pseudo_frobenius)

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        """Unique minimal generating set: nonzero elements not a sum of two."""
        # any element > conductor + multiplicity splits off the multiplicity
        hi = self.conductor + self.multiplicity + 1
        nonzero = self._window(0, hi) & ~1
        sums = 0
        # a sum a + b < hi of members 0 < a <= b has a <= hi // 2
        for a in self.members_below(hi // 2 + 1)[1:]:
            sums |= nonzero << a
        return _bits(nonzero & ~sums)


#: The full set of nonnegative integers.
NATURALS = NumericalSemigroup((), 0)


def canonical_key(s: NumericalSemigroup) -> tuple:
    """Sort key for the canonical order: conductor, then small elements."""
    return (s.conductor, s.small_elements)


@dataclass(frozen=True)
class ClassificationReport:
    """Symmetry classification of one semigroup.

    ``symmetry_class`` is one of "symmetric", "pseudo-symmetric",
    "almost-symmetric-proper", or "none".
    """

    frobenius: int
    gaps: tuple[int, ...]
    second_type_gaps: tuple[int, ...]
    pseudo_frobenius: tuple[int, ...]
    type: int
    symmetry_class: str

    @property
    def almost_symmetric(self) -> bool:
        return self.symmetry_class != NOT_ALMOST_SYMMETRIC

    @property
    def symmetric(self) -> bool:
        return self.symmetry_class == SYMMETRIC

    @property
    def pseudo_symmetric(self) -> bool:
        return self.symmetry_class == PSEUDO_SYMMETRIC


def _almost_symmetric_by_definition(s: NumericalSemigroup) -> bool:
    return s._second_type_mask & ~s._pf_mask == 0


def _almost_symmetric_by_reflection(s: NumericalSemigroup) -> bool:
    # x in S  <=>  f - x not in S union PF(S), for every nonzero integer x.
    # Outside [1, f] both sides agree: for x < 0, x is not in S while f - x
    # > f is; for x > f, x is in S while f - x < 0 is neither in S nor in
    # PF(S), whose members are gaps (the naturals' PF = (-1,) would need
    # x = 0).  On [1, f] the right side is the complement of the mirror
    # image of S union PF(S) on [0, f], so S and that mirror image must
    # split [1, f] between them.
    c = s.conductor
    mirror = _reverse(s._mask | s._pf_mask, c)
    window = ((1 << c) - 1) & ~1
    return (s._mask ^ mirror) & window == window


def _almost_symmetric_by_pairing(s: NumericalSemigroup) -> bool:
    # with PF = {f_1 < ... < f_{t-1} < f}: f_i + f_{t-i} == f for all i
    pf = s.pseudo_frobenius
    f, t = s.frobenius, len(pf)
    return all(pf[i] + pf[t - 2 - i] == f for i in range(t - 1))


_CRITERIA = {
    "definition": _almost_symmetric_by_definition,
    "reflection": _almost_symmetric_by_reflection,
    "pairing": _almost_symmetric_by_pairing,
}


@lru_cache(maxsize=_CACHE_SIZE)
def classify(s: NumericalSemigroup, method: str = "all") -> ClassificationReport:
    """Full symmetry report for ``s``.

    ``method`` selects how almost symmetry is decided: "definition" (second
    type gaps contained in the pseudo-Frobenius set), "reflection" (the
    membership biconditional x in S <=> f - x outside S and PF), "pairing"
    (pseudo-Frobenius numbers pair up to f), or "all".  With "all", the three
    criteria are evaluated together and a disagreement raises RuntimeError:
    they are provably equivalent, so disagreement is an internal bug, never a
    property of the input.
    """
    if method not in CLASSIFY_METHODS:
        raise ValueError(f"method must be one of {CLASSIFY_METHODS}, got {method!r}")
    names = list(_CRITERIA) if method == "all" else [method]
    results = {name: _CRITERIA[name](s) for name in names}
    if len(set(results.values())) != 1:
        raise RuntimeError(f"almost-symmetry criteria disagree on {s}: {results}")
    almost = results[names[0]]

    f = s.frobenius
    ell = s.second_type_gaps
    if not ell:
        symmetry_class = SYMMETRIC
    elif f % 2 == 0 and ell == (f // 2,):
        symmetry_class = PSEUDO_SYMMETRIC
    elif almost:
        symmetry_class = ALMOST_SYMMETRIC_PROPER
    else:
        symmetry_class = NOT_ALMOST_SYMMETRIC

    return ClassificationReport(
        frobenius=f,
        gaps=s.gaps,
        second_type_gaps=ell,
        pseudo_frobenius=s.pseudo_frobenius,
        type=s.type,
        symmetry_class=symmetry_class,
    )
