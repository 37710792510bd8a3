"""JSON encoding and decoding of the library's value types.

All schemas are snake_case, integer-only, order-independent:

semigroup  {"small": [ints], "conductor": int}
ideal      {"ambient": semigroup, "elements": [ints], "conductor": int}
spec       {"s": semigroup, "e": ideal, "b": int}
report     all ClassificationReport fields
family     {"base": semigroup, "exhaustive": bool,
            "members": [{"t": semigroup, "spec": spec, "class": str, "type": int}]}

The decoders raise :class:`SemigroupError` on malformed input: a value that
is not an object, a missing key, or a field of the wrong JSON type.
"""

from __future__ import annotations

from .doubles import DoubleCertificate, DoubleFamily
from .duplication import DuplicationSpec
from .errors import SemigroupError
from .ideals import RelativeIdeal
from .semigroup import ClassificationReport, NumericalSemigroup, classify

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
    if any(type(x) is not int for x in value):
        raise SemigroupError(f"malformed JSON: {key!r} must list integers, got {value!r}")
    return value


def semigroup_to_dict(s: NumericalSemigroup) -> dict:
    return {"small": list(s.small_elements), "conductor": s.conductor}


def semigroup_from_dict(d: dict) -> NumericalSemigroup:
    return NumericalSemigroup.from_small_elements(
        _ints(d, "small"), _field(d, "conductor", int)
    )


def ideal_to_dict(e: RelativeIdeal) -> dict:
    return {
        "ambient": semigroup_to_dict(e.ambient),
        "elements": list(e.elements_below),
        "conductor": e.ideal_conductor,
    }


def ideal_from_dict(d: dict) -> RelativeIdeal:
    from .ideals import relative_ideal

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
                "type": cert.report.type,
            }
            for cert in fam.members
        ],
    }


def family_from_dict(d: dict) -> DoubleFamily:
    members = []
    for m in _field(d, "members", list):
        spec = spec_from_dict(_field(m, "spec", dict))
        t = semigroup_from_dict(_field(m, "t", dict))
        members.append(DoubleCertificate(t, spec, classify(t), _field(m, "class", str)))
    return DoubleFamily(
        semigroup_from_dict(_field(d, "base", dict)),
        tuple(members),
        _field(d, "exhaustive", bool),
    )
