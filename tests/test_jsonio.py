import json

import pytest

from sgdouble import DuplicationSpec, classify, enumerate_even_doubles, naturals_ideal
from sgdouble import jsonio
from sgdouble.errors import SemigroupError

from cases import E2, F2, K1, S1, S2, T1


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_semigroup_roundtrip():
    for s in (S1, S2, T1):
        d = through_json(jsonio.semigroup_to_dict(s))
        assert jsonio.semigroup_from_dict(d) == s


def test_ideal_roundtrip():
    for e in (E2, F2, K1, naturals_ideal(S1)):
        d = through_json(jsonio.ideal_to_dict(e))
        assert jsonio.ideal_from_dict(d) == e


def test_spec_roundtrip():
    spec = DuplicationSpec(S2, F2, 5)
    d = through_json(jsonio.spec_to_dict(spec))
    assert d == {
        "s": {"small": [0, 4, 5, 6], "conductor": 8},
        "e": {
            "ambient": {"small": [0, 4, 5, 6], "conductor": 8},
            "elements": [2, 3, 4],
            "conductor": 6,
        },
        "b": 5,
    }
    assert jsonio.spec_from_dict(d) == spec


def test_report_roundtrip():
    rep = classify(S1)
    d = through_json(jsonio.report_to_dict(rep))
    assert set(d) == {
        "frobenius", "gaps", "second_type_gaps", "pseudo_frobenius",
        "type", "symmetry_class",
    }
    assert jsonio.report_from_dict(d) == rep


def test_family_roundtrip():
    fam = enumerate_even_doubles(S1)
    d = through_json(jsonio.family_to_dict(fam))
    assert jsonio.family_from_dict(d) == fam


def _malformed_cases():
    sg = jsonio.semigroup_to_dict(S1)
    spec = jsonio.spec_to_dict(DuplicationSpec(S2, F2, 5))
    report = jsonio.report_to_dict(classify(S1))
    family = jsonio.family_to_dict(enumerate_even_doubles(S1))
    return [
        (jsonio.semigroup_from_dict, {"small": [0, 3]}),
        (jsonio.semigroup_from_dict, {**sg, "conductor": "5"}),
        (jsonio.semigroup_from_dict, {**sg, "conductor": True}),
        (jsonio.semigroup_from_dict, {**sg, "small": 3}),
        (jsonio.semigroup_from_dict, {**sg, "small": "03"}),
        (jsonio.semigroup_from_dict, {**sg, "small": [0, 3.0]}),
        (jsonio.semigroup_from_dict, [0, 3]),
        (jsonio.ideal_from_dict, {**spec["e"], "ambient": None}),
        (jsonio.ideal_from_dict, {k: v for k, v in spec["e"].items() if k != "elements"}),
        (jsonio.spec_from_dict, {**spec, "b": "5"}),
        (jsonio.spec_from_dict, {k: v for k, v in spec.items() if k != "s"}),
        (jsonio.report_from_dict, {k: v for k, v in report.items() if k != "type"}),
        (jsonio.report_from_dict, {**report, "gaps": None}),
        (jsonio.family_from_dict, {**family, "members": {}}),
        (jsonio.family_from_dict, {**family, "members": [{}]}),
        (jsonio.family_from_dict, {**family, "exhaustive": "yes"}),
    ]


@pytest.mark.parametrize("decode, data", _malformed_cases())
def test_malformed_input_raises_domain_error(decode, data):
    with pytest.raises(SemigroupError, match="malformed JSON"):
        decode(through_json(data))
