"""Numerical semigroups and their basic invariants.

A numerical semigroup is an additively closed subset of the nonnegative
integers containing 0 whose complement is finite.  Values are kept in a
canonical form -- a Python-int mask of the elements strictly below the
conductor, plus the conductor itself -- so two values represent the same
semigroup exactly when they compare equal.  The sorted element list is read
from the mask when output asks for it.

The full set of naturals is represented by an empty element list and
conductor 0.  Its invariants follow the conventions ``frobenius == -1``,
``pseudo_frobenius == (-1,)``, ``type == 1``, class "symmetric"; these are a
choice (the usual definitions do not apply to a set with empty complement)
and are documented here once rather than per function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from operator import attrgetter, lt
from typing import Iterable

from .errors import (
    BoundTooLarge,
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

# binary digits "0"/"1" to the bytes 0/1, so that they select in compress()
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")


#: Size of each of the library's memo caches.
_CACHE_SIZE = 1024

#: Largest conductor a semigroup may have.  Members, gaps and every
#: invariant are computed over [0, conductor), and past about this size a
#: gap list alone takes hundreds of megabytes.
CONDUCTOR_LIMIT = 2_000_000


def _check_conductor(c: int) -> None:
    if c > CONDUCTOR_LIMIT:
        raise BoundTooLarge(f"conductor {c} exceeds the limit {CONDUCTOR_LIMIT}")


def _flags(mask: int) -> bytes:
    """Byte i is 1 where bit i of a nonnegative ``mask`` is set, else 0; for compress()."""
    return bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_TO_FLAG)


def _bits(mask: int, start: int = 0) -> tuple[int, ...]:
    """Ascending ``start + i`` for the set bits i of a nonnegative ``mask``.

    A mask with few set bits for its width is read one set bit at a time, at
    the cost of a few full-width word operations each; any other mask one
    character per bit.  The first is cheaper while the set bits are fewer
    than a sixteenth of the width, and at most 256 of them: past that the
    word operations on wide masks outweigh the characters.
    """
    if mask.bit_count() << 4 < min(mask.bit_length(), 4096):
        out = []
        while mask:
            low = mask & -mask
            out.append(start + low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    flags = _flags(mask)
    return tuple(compress(range(start, start + len(flags)), flags))


def _mask_of(elems, lo: int = 0) -> int:
    """Mask with bit x - ``lo`` set for each x of ``elems``, all at least ``lo``.

    Linear in the span of ``elems``: one digit per integer, read as a binary
    numeral with bit i at position i from the right.
    """
    if not elems:
        return 0
    digits = bytearray(b"0") * (max(elems) - lo + 1)
    for x in elems:
        digits[x - lo] = 49  # ord("1")
    return int(digits[::-1], 2)


def _from_mask(mask: int, lo: int, bound: int) -> tuple[int, int, int]:
    """Canonical core of {lo + i : bit i of ``mask``} | [bound, oo), for lo <= bound.

    Returns the smallest member m, the mask of the members below the least
    conductor c from m on, and c; bits of ``mask`` at or past ``bound`` are
    ignored.
    """
    c = lo + (~mask & ((1 << (bound - lo)) - 1)).bit_length()  # past the last non-member
    listed = mask & ((1 << (c - lo)) - 1)
    skip = (listed & -listed).bit_length() - 1 if listed else c - lo
    return lo + skip, listed >> skip, c


def _pair_violation(mem: int, lo: int, shift: int, target: "_UpSet"):
    """The first pair a <= b (least a, then least b) of the integers lo + i,
    i a set bit of ``mem``, with a + b + shift outside ``target``, a set
    with smallest member 0; or None.

    Sums from the target's conductor on are members: one mask test per a.
    With m the target's least positive member, only an a with a - m not
    listed can come first, when the target is closed under adding m (then
    (a - m, b) passing puts a + b + shift in it), or when ``mem`` lists the
    target's own nonzero members below its conductor and shift is 0 (then
    (m, a - m + b) fails, with m < a).  When ``mem`` is closed under adding
    m, as an ideal's members are, those are at most m values, one per
    residue mod m.
    """
    start = 2 * lo + shift  # the least sum
    width = max(target._c - start, 0)
    missing = ~target._window(start, target._c) & ((1 << width) - 1)
    positive = target._mask & ~1
    m = (positive & -positive).bit_length() - 1 if positive else max(target._c, 1)
    firsts = mem & ~(mem << m)
    for i in _bits(firsts & ((1 << (width + 1) // 2) - 1)):  # a + a below the conductor
        hit = missing >> i & mem >> i << i  # the b >= a whose sum is missing
        if hit:
            return lo + i, lo + (hit & -hit).bit_length() - 1
    return None


def _minus(f: int, e: int, m: int) -> int:
    """The mask of F - E = {x >= 0 : x + E <= F}; a mask has bit x for each member x >= 0.

    F, with every bit from its conductor on set, is closed under adding ``m``,
    so one AND per member of E's Apery set E \\ (E + m) suffices.  E, finite
    or not, need not contain 0.
    """
    out = -1
    apery = e & ~(e << m)
    while apery:
        a = apery.bit_length() - 1
        out &= f >> a
        apery ^= 1 << a
    return out


def _mirror_table() -> bytes:
    """Byte i is i with its 8 bits in reverse order."""
    table = bytearray(256)
    for i in range(1, 256):
        table[i] = table[i >> 1] >> 1 | (i & 1) << 7
    return bytes(table)


_MIRRORED = _mirror_table()


def _reverse(mask: int, width: int) -> int:
    """``mask`` mirrored on [0, width): bit x moves to width - 1 - x.

    Requires 0 <= mask < 2**width, and raises OverflowError otherwise.
    """
    # padded up to whole bytes, the mask mirrors bytewise: each byte's bits
    # through the table, the byte order by reading the bytes big-endian
    pad = -width % 8
    return int.from_bytes(
        (mask << pad).to_bytes((width + pad) // 8, "little").translate(_MIRRORED), "big")


def _pf_numbers(pf: int) -> tuple[int, ...]:
    """The pseudo-Frobenius numbers of the PF mask ``pf``, ascending.

    Here and in ``_pf_type`` the mask is 0 only for the naturals (any other
    semigroup has its Frobenius number in it), which get PF = (-1,), type 1.
    """
    return _bits(pf) if pf else (-1,)


def _pf_type(pf: int) -> int:
    """The type: the pseudo-Frobenius numbers of the PF mask ``pf``, counted."""
    return pf.bit_count() or 1


@dataclass(frozen=True, init=False, repr=False, slots=True)
class _UpSet:
    """A set of integers, bounded below, that holds every integer from its conductor on.

    The set core of semigroups and ideals, and their only stored data: the
    smallest member ``_lo``, ``_mask`` with bit x - ``_lo`` set for each
    member x below the conductor, and the conductor ``_c``.  Equality and
    hashing compare these integers.  The class is slotted: a value has no
    instance dict, and a subclass declares its own ``__slots__`` by hand,
    as ``slots=True`` would declare these three again on Python 3.10.
    """

    _lo: int
    _mask: int
    _c: int

    @classmethod
    def _of(cls, lo: int, mask: int, c: int):
        """Unchecked construction from a canonical core."""
        u = object.__new__(cls)
        _set_lo(u, lo)
        _set_mask(u, mask)
        _set_c(u, c)
        return u

    @property
    def _listed(self) -> tuple[int, ...]:
        """The ascending members below the conductor, read from the mask on every access."""
        return _bits(self._mask, self._lo)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def _window(self, start: int, stop: int) -> int:
        """Bit x - start is set for each member x in [start, stop)."""
        shift = self._lo - start
        listed = self._mask << shift if shift >= 0 else self._mask >> -shift
        return (listed | -1 << max(self._c - start, 0)) & ((1 << max(stop - start, 0)) - 1)

    def __contains__(self, x: int) -> bool:
        return x >= self._c or (x >= self._lo and self._mask >> (x - self._lo) & 1 == 1)

    @property
    def frobenius(self) -> int:
        """Largest integer outside the set (-1 for the naturals)."""
        return self._c - 1

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, (*self._listed, self._c))) + "->}"


# Stores into a core's slots, past the frozen __setattr__: for the
# constructors, which build a value once and never change it.
_set_lo = _UpSet._lo.__set__
_set_mask = _UpSet._mask.__set__
_set_c = _UpSet._c.__set__


@dataclass(frozen=True, init=False, repr=False)
class NumericalSemigroup(_UpSet):
    """Canonical, immutable numerical semigroup.

    ``small_elements`` holds the members strictly below ``conductor``; every
    integer >= ``conductor`` is a member.  Direct construction performs cheap
    structural validation only; use :meth:`from_small_elements` to also check
    additive closure of untrusted input.  Semigroups the kernel computes
    itself are canonical by construction and skip both checks.  The smallest
    member ``_lo`` is always 0.
    """

    __slots__ = ()
    small_elements = property(attrgetter("_listed"))
    conductor = property(attrgetter("_c"))
    _shown = ("small_elements", "conductor")  # the fields repr lists

    def __init__(self, small_elements: Iterable[int], conductor: int):
        elems, c = tuple(small_elements), conductor
        if c < 0:
            raise ValueError("conductor must be nonnegative")
        _check_conductor(c)
        if c == 0:
            if elems:
                raise ValueError("the naturals are stored with an empty element list")
        else:
            if elems and elems[0] < 0:
                raise ValueError("elements must be nonnegative")
            if not elems or elems[0] != 0:
                raise MissingZero("a numerical semigroup must contain 0")
            if not all(map(lt, elems, elems[1:])):
                raise ValueError("small elements must be strictly increasing")
            if elems[-1] == c - 1:
                raise FrobeniusInSet(
                    f"{c - 1} is listed but equals conductor - 1; the conductor is not minimal"
                )
            if elems[-1] >= c:
                raise ValueError("small elements must lie strictly below the conductor")
        _set_lo(self, 0)
        _set_mask(self, _mask_of(elems))
        _set_c(self, c)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Smallest numerical semigroup containing ``gens``.

        Requires a nonempty list of positive integers with gcd 1 (otherwise
        the complement would be infinite).  The members are found on a
        window [0, w), starting at w = 2m for the least generator m and
        doubled until its last m integers are members, so that its last
        non-member is the Frobenius number: a few shifts of a w-bit mask
        per generator, with w at most 2(c + m).  Past w =
        ``CONDUCTOR_LIMIT`` + m the conductor exceeds the limit, and
        :class:`BoundTooLarge` is raised.
        """
        gens = sorted(set(gens))
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if reduce(math.gcd, gens) != 1:
            raise NonCoprimeGenerators(f"gcd({', '.join(map(str, gens))}) > 1")
        m = gens[0]
        if m > CONDUCTOR_LIMIT:  # 1, ..., m - 1 are gaps
            raise BoundTooLarge(f"conductor at least {m} exceeds the limit {CONDUCTOR_LIMIT}")
        # the members below a window width w: {0} closed under each generator
        # g in turn, by the shifts g, 2g, 4g, ... below w (after the shift
        # 2^j g every k g below w with k < 2^(j + 1) is added)
        w = 2 * m
        while True:
            full = (1 << w) - 1
            members = 1
            for g in gens:
                while g < w:
                    members = (members | members << g) & full
                    g <<= 1
            c = (~members & full).bit_length()  # past the window's last non-member
            if c <= w - m:  # m members in a row end the window: adding m covers the rest
                return cls._of(0, members & ((1 << c) - 1), c)
            if w == CONDUCTOR_LIMIT + m:  # then c > CONDUCTOR_LIMIT
                raise BoundTooLarge(f"conductor exceeds the limit {CONDUCTOR_LIMIT}")
            w = min(2 * w, CONDUCTOR_LIMIT + m)

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

    @property
    def is_naturals(self) -> bool:
        return self._c == 0

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element."""
        nonzero = self._mask & ~1  # none for the naturals (c = 0), whose m is 1
        return (nonzero & -nonzero).bit_length() - 1 if nonzero else max(self._c, 1)

    @property
    def _gap_mask(self) -> int:
        return self._mask ^ ((1 << self._c) - 1)

    @property
    def gaps(self) -> tuple[int, ...]:
        """Ascending complement within the naturals."""
        return _bits(self._gap_mask)

    @property
    def _second_type_mask(self) -> int:
        gaps = self._gap_mask
        return gaps & _reverse(gaps, self._c)

    @property
    def second_type_gaps(self) -> tuple[int, ...]:
        """Gaps s whose reflection frobenius - s is also a gap."""
        return _bits(self._second_type_mask)

    @property
    def _pf_mask(self) -> int:
        return self._pf_among(self._second_type_mask)

    def _pf_among(self, ell: int) -> int:
        """The PF mask, given the mask ``ell`` of the second-type gaps L(S).

        A pseudo-Frobenius number x other than f lies in L(S): were f - x in
        S, f = x + (f - x) would be in S.  So the scan starts from L(S) and
        f, and a symmetric S, with L(S) empty, needs none.
        """
        # x + s in S for every nonzero s in S already follows from x + g in S
        # for every g of a generating set, and for a gap x it holds outright
        # once g >= c.  So the scan is S - G, one AND per member of G's Apery
        # set: G is M's members below c plus m, whose Apery set is m with the
        # nonzero members of {g in S : g - m not in S}.
        c = self._c
        pf = ell | 1 << c >> 1  # no f for the naturals, whose c is 0
        if not ell:
            return pf
        m = self.multiplicity
        return pf & _minus(self._mask | -1 << c, self._mask & ~1 | 1 << m, m)

    @property
    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Ascending list of x not in S with x + s in S for every nonzero s in S."""
        return _pf_numbers(self._pf_mask)

    @property
    def type(self) -> int:
        """Number of pseudo-Frobenius numbers, counted without listing them."""
        return _pf_type(self._pf_mask)

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Unique minimal generating set: nonzero elements not a sum of two."""
        # besides the multiplicity m, a minimal generator x lies in the Apery
        # set {x in S : x - m not in S}, which lies below c + m, and is no sum
        # of two of its nonzero members: were x = a + b with a - m in S,
        # x - m would be in S too
        m = self.multiplicity
        hi = self._c + m
        members = self._window(0, hi)
        apery = members & ~(members << m) & ~1
        sums = 0
        # a sum a + b < hi of members 0 < a <= b has a <= hi // 2
        for a in _bits(apery & ((1 << (hi // 2 + 1)) - 1)):
            sums |= apery << a
        return _bits(apery & ~sums | 1 << m)


#: The full set of nonnegative integers.
NATURALS = NumericalSemigroup((), 0)


def canonical_key(s: NumericalSemigroup) -> tuple:
    """Sort key for the canonical order: conductor, then small elements."""
    return (s.conductor, s.small_elements)


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=_CACHE_SIZE)
def classify(s: NumericalSemigroup) -> ClassificationReport:
    """Full symmetry report for ``s``.

    Almost symmetry is decided by its definition, L(S) inside PF(S); the
    tests hold the reflection and pairing characterizations equal to it.
    """
    gaps, f = s._gap_mask, s.frobenius
    ell = gaps & _reverse(gaps, s._c)  # as _second_type_mask, from the gaps read once
    pf = s._pf_among(ell)
    return ClassificationReport(
        frobenius=f,
        gaps=_bits(gaps),
        second_type_gaps=_bits(ell),
        pseudo_frobenius=_pf_numbers(pf),
        type=_pf_type(pf),
        symmetry_class=_symmetry_class(f, pf, ell),
    )


def _symmetry_class(f: int, pf: int, ell: int) -> str:
    """The symmetry class of a semigroup.

    Read from its Frobenius number ``f``, PF mask ``pf`` and second-type gap
    mask ``ell``, without listing any gap: almost symmetric means L(S) is
    inside PF(S).
    """
    if not ell:
        return SYMMETRIC
    if f % 2 == 0 and ell == 1 << (f // 2):
        return PSEUDO_SYMMETRIC
    return ALMOST_SYMMETRIC_PROPER if ell & ~pf == 0 else NOT_ALMOST_SYMMETRIC
