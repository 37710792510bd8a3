"""JSON encoding and decoding of the library's value types.

All schemas are snake_case, integer-only, order-independent:

semigroup  {"small": [ints], "conductor": int}
ideal      {"ambient": semigroup, "elements": [ints], "conductor": int}
spec       {"s": semigroup, "e": ideal, "b": int}
report     all ClassificationReport fields
family     {"base": semigroup, "exhaustive": bool,
            "members": [{"t": semigroup, "spec": spec, "class": str, "type": int}]}

``family_json_chunks`` writes the encoded text of a family one member at a
time, without building the dict.

The decoders raise :class:`SemigroupError` on malformed input: a value that
is not an object, a missing key, a field of the wrong JSON type, or a
semigroup the constructor rejects.  Each fact is checked once.  A family's
base is validated once; a member's spec must name the base and pass the
ideal and sum checks over it; its T must list the integers of the spec's
duplicate, in any order, and its conductor, and is not rebuilt; its class
must be one of the three kinds and fit the member, and its type must be
the member's.  The members must be pairwise distinct and in canonical
order, and only a family of even-type members may be exhaustive.
"""

from __future__ import annotations

from itertools import accumulate, compress
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator

from .doubles import KIND_EVEN, KIND_ODD, KIND_SYMMETRIC, DoubleFamily, _certificate, _list_order
from .duplication import DuplicationSpec, duplicate
from .errors import SemigroupError
from .ideals import RelativeIdeal, _ideal_reader, relative_ideal
from .semigroup import (
    NOT_ALMOST_SYMMETRIC,
    SYMMETRIC,
    ClassificationReport,
    NumericalSemigroup,
    _flags,
    _UpSet,
)

# Python types of the decoded JSON values.  Fields are tested by exact type,
# since bool is a subclass of int.
_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean",
               list: "a list", dict: "an object"}


def _field(d, key: str, kind: type):
    """``d[key]``, or SemigroupError when ``d`` lacks it or it has the wrong type."""
    if type(d) is not dict:
        raise SemigroupError(f"malformed JSON: expected an object, got {d!r}")
    if key not in d:
        raise SemigroupError(f"malformed JSON: missing key {key!r}")
    value = d[key]
    if type(value) is not kind:
        raise SemigroupError(
            f"malformed JSON: {key!r} must be {_JSON_TYPES[kind]}, got {value!r}"
        )
    return value


def _ints(d, key: str) -> list:
    """``d[key]`` as a list of integers, or SemigroupError."""
    value = _field(d, key, list)
    if not set(map(type, value)) <= {int}:
        raise SemigroupError(f"malformed JSON: {key!r} must list integers, got {value!r}")
    return value


def semigroup_to_dict(s: NumericalSemigroup) -> dict:
    return {"small": list(s.small_elements), "conductor": s.conductor}


def semigroup_from_dict(d: dict) -> NumericalSemigroup:
    small, conductor = _ints(d, "small"), _field(d, "conductor", int)
    try:
        return NumericalSemigroup.from_small_elements(small, conductor)
    except ValueError as exc:  # the constructor's structural checks
        raise SemigroupError(f"malformed JSON: {exc}") from None


def ideal_to_dict(e: RelativeIdeal) -> dict:
    return {
        "ambient": semigroup_to_dict(e.ambient),
        "elements": list(e.elements_below),
        "conductor": e.ideal_conductor,
    }


def ideal_from_dict(d: dict) -> RelativeIdeal:
    return relative_ideal(
        semigroup_from_dict(_field(d, "ambient", dict)),
        _ints(d, "elements"),
        _field(d, "conductor", int),
    )


def spec_to_dict(spec: DuplicationSpec) -> dict:
    return {
        "s": semigroup_to_dict(spec.base),
        "e": ideal_to_dict(spec.ideal),
        "b": spec.odd_offset,
    }


def spec_from_dict(d: dict) -> DuplicationSpec:
    return DuplicationSpec(
        semigroup_from_dict(_field(d, "s", dict)),
        ideal_from_dict(_field(d, "e", dict)),
        _field(d, "b", int),
    )


def report_to_dict(r: ClassificationReport) -> dict:
    return {
        "frobenius": r.frobenius,
        "gaps": list(r.gaps),
        "second_type_gaps": list(r.second_type_gaps),
        "pseudo_frobenius": list(r.pseudo_frobenius),
        "type": r.type,
        "symmetry_class": r.symmetry_class,
    }


def report_from_dict(d: dict) -> ClassificationReport:
    return ClassificationReport(
        frobenius=_field(d, "frobenius", int),
        gaps=tuple(_ints(d, "gaps")),
        second_type_gaps=tuple(_ints(d, "second_type_gaps")),
        pseudo_frobenius=tuple(_ints(d, "pseudo_frobenius")),
        type=_field(d, "type", int),
        symmetry_class=_field(d, "symmetry_class", str),
    )


def family_to_dict(fam: DoubleFamily) -> dict:
    return {
        "base": semigroup_to_dict(fam.base),
        "exhaustive": fam.exhaustive,
        "members": [
            {
                "t": semigroup_to_dict(cert.double),
                "spec": spec_to_dict(cert.spec),
                "class": cert.kind,
                "type": cert.type,
            }
            for cert in fam.members
        ],
    }


def _family_listing(fam: DoubleFamily) -> Callable[[_UpSet], str]:
    """``listing(u)``: the ", "-joined members below the conductor of any set ``u`` of ``fam``.

    The sets of ``fam`` are its base, each member's T and each spec's
    semigroups and ideal.  Each listing is read from its set's mask, so no
    list of ints is built.  In any set, the members between its highest
    even non-member and its lowest odd member are exactly the even integers
    there: that run is cut as one slice from a text of the family's even
    decimals, written once, and only the members below and above it are
    joined one by one, from a table of decimal strings.  In a double T of
    S, made of 2S and 2E + b, the run starts past 2 f(S) and ends below the
    least odd member, so what is joined spans O(f(S)) integers, not f(T).
    What every listing shares, the table, the text and the even bits of
    either parity, is computed here, once per family.
    """
    s, certs = fam.base, fam.members
    lo = min([0, *(c.spec.ideal._lo for c in certs)])
    hi = max([s._c, *(c.double._c for c in certs), *(c.spec.ideal._c for c in certs)])
    table = list(map(str, range(lo, hi)))
    # ", " before each even decimal from the least even lo0 >= lo, and where
    # each starts: even x runs from starts[i] + 2 to starts[i + 1], its
    # separator from starts[i]
    lo0 = lo + (lo & 1)
    evens = table[lo0 - lo::2]
    even_text = "".join(map(", ".__add__, evens))
    starts = list(accumulate((len(d) + 2 for d in evens), initial=0))
    alternate = int("01" * ((hi - lo) // 2 + 1), 2)  # bits 0, 2, 4, ...
    # bit i of a set's mask stands for its m + i: the masks of its even and
    # of its odd bits, by the parity of m
    parities = ((alternate, alternate << 1), (alternate << 1, alternate))

    def joined(mask: int, start: int) -> str:
        # the decimals lo + start + i for the set bits i of mask
        flags = _flags(mask)
        return ", ".join(compress(table[start:start + len(flags)], flags))

    def listing(u: _UpSet) -> str:
        ulo, mask, width = u._lo, u._mask, u._c - u._lo
        even_bits, odd_bits = parities[ulo & 1]
        gap = (~mask & even_bits & ((1 << width) - 1)).bit_length() - 1  # -1 if none
        odd_members = mask & odd_bits
        odd = (odd_members & -odd_members).bit_length() - 1 if odd_members else width
        first = gap + 1 + ((ulo + gap + 1) & 1)  # the least even after the gap
        last = odd - 1 - ((ulo + odd - 1) & 1)   # the greatest even before the odd member
        start = ulo - lo
        if first > last:
            return joined(mask, start)
        head = joined(mask & ((1 << first) - 1), start)
        tail = joined(mask >> (last + 1), start + last + 1)
        # the run with the separators its neighbours need: a tail member
        # lies below c(u) - 1 <= hi - 1, so the even after the run is listed
        i, j = (ulo + first - lo0) // 2, (ulo + last - lo0) // 2
        run = even_text[starts[i] + (0 if head else 2):starts[j + 1] + (2 if tail else 0)]
        return f"{head}{run}{tail}"

    return listing


def family_json_chunks(fam: DoubleFamily) -> Iterator[str]:
    """The text of ``json.dumps(family_to_dict(fam), sort_keys=True)``, in chunks.

    A header, then one chunk per member, then the closing ``]}``.  Each
    integer list is ``_family_listing``'s.  The base's text and each kind's
    are formatted once and reused, and each member's chunk is one f-string.
    """
    s, certs = fam.base, fam.members
    listing = _family_listing(fam)

    def semigroup(t: NumericalSemigroup) -> str:
        return f'{{"conductor": {t._c}, "small": [{listing(t)}]}}'

    base = semigroup(s)

    # a spec's base and its ideal's ambient are the family's base object in
    # every family the enumerators or family_from_dict build
    def over(t: NumericalSemigroup) -> str:
        return base if t is s or t == s else semigroup(t)

    kinds = {kind: encode_basestring_ascii(kind) for kind in {c.kind for c in certs}}
    yield (f'{{"base": {base}, "exhaustive": {"true" if fam.exhaustive else "false"}, '
           f'"members": [')
    sep = ""
    for c in certs:
        spec, e, t = c.spec, c.spec.ideal, c.double
        yield (f'{sep}{{"class": {kinds[c.kind]}, '
               f'"spec": {{"b": {spec.odd_offset}, '
               f'"e": {{"ambient": {over(e.ambient)}, "conductor": {e._c}, '
               f'"elements": [{listing(e)}]}}, "s": {over(spec.base)}}}, '
               f'"t": {{"conductor": {t._c}, "small": [{listing(t)}]}}, "type": {c.type}}}')
        sep = ", "
    yield "]}"


def family_from_dict(d: dict) -> DoubleFamily:
    """The family of ``d``, each fact checked once; a bad member is named by its position.

    A member's T is not rebuilt: it must list the integers of its spec's
    duplicate, as a set, and its conductor.  Each T must come after the one
    before it in ``DoubleFamily``'s order: by conductor, then, where two
    conductors tie, by element list.
    """
    exhaustive = _field(d, "exhaustive", bool)
    base_dict = _field(d, "base", dict)
    base = semigroup_from_dict(base_dict)
    small, conductor = base_dict["small"], base_dict["conductor"]

    def is_base(x) -> bool:
        # the base's own integers, or another listing of the same set
        if _ints(x, "small") == small and _field(x, "conductor", int) == conductor:
            return True
        return semigroup_from_dict(x) == base

    ideal = _ideal_reader(base)  # every member's ideal is over the base
    members, prev = [], None
    for i, m in enumerate(_field(d, "members", list)):
        spec_dict = _field(m, "spec", dict)
        e_dict = _field(spec_dict, "e", dict)
        if not (is_base(_field(spec_dict, "s", dict)) and is_base(_field(e_dict, "ambient", dict))):
            raise SemigroupError(f"malformed JSON: the spec of member {i} is not over the base")
        spec = DuplicationSpec(
            base,
            ideal(_ints(e_dict, "elements"), _field(e_dict, "conductor", int)),
            _field(spec_dict, "b", int),
        )
        t_dict = _field(m, "t", dict)
        t = duplicate(spec)
        listed, expected = _ints(t_dict, "small"), list(t.small_elements)
        # compared as sets; the encoder's sorted listing is equal as a list
        if (_field(t_dict, "conductor", int) != t._c
                or listed != expected and set(listed) != set(expected)):
            raise SemigroupError(f"malformed JSON: member {i} is not the duplication of its spec")
        if prev is not None and t._c <= prev._c:
            if t == prev:
                raise SemigroupError(f"malformed JSON: member {i} repeats member {i - 1}")
            if t._c < prev._c or _list_order(t._mask) < _list_order(prev._mask):
                raise SemigroupError(
                    f"malformed JSON: member {i} comes before member {i - 1} in canonical order")
        prev = t
        kind = _field(m, "class", str)
        typ = _field(m, "type", int)
        cert = _certificate(t, spec, kind)
        almost = cert.symmetry_class != NOT_ALMOST_SYMMETRIC
        fits = {KIND_SYMMETRIC: cert.symmetry_class == SYMMETRIC,
                KIND_ODD: almost and cert.type % 2 == 1,
                KIND_EVEN: almost and cert.type % 2 == 0}
        if not fits.get(kind):
            raise SemigroupError(f"malformed JSON: class {kind!r} does not fit member {i}")
        if typ != cert.type:
            raise SemigroupError(f"malformed JSON: type {typ} is not the type of member {i}")
        if exhaustive and kind != KIND_EVEN:
            raise SemigroupError(
                f"malformed JSON: member {i} is {kind}, but only an even-type family is exhaustive")
        members.append(cert)
    return DoubleFamily(base, tuple(members), exhaustive)
