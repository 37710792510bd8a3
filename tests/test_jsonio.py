import json

import pytest

from sgdouble import (
    DoubleFamily,
    DuplicationSpec,
    NumericalSemigroup,
    classify,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    naturals_ideal,
)
from sgdouble import jsonio, oracle
from sgdouble.duplication import decompose
from sgdouble.errors import SemigroupError, SumNotInS

from cases import E1, E2, F2, K1, S1, S2, T1


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


def test_family_decoding_leaves_the_classify_memo_alone():
    # the decoder reads each member's type and class from its masks, as the
    # enumerators do, and fills no memo with gap tuples
    fam = enumerate_symmetric_doubles(S1, 60)
    d = through_json(jsonio.family_to_dict(fam))
    classify.cache_clear()
    assert jsonio.family_from_dict(d) == fam
    assert classify.cache_info().currsize == 0


def test_family_decoding_validates_the_base_once(monkeypatch):
    # the base once, then each member T; every spec's s and ideal ambient
    # list the base's integers and reuse it
    fam = enumerate_symmetric_doubles(S1, 60)
    d = through_json(jsonio.family_to_dict(fam))
    decoded = []
    real = NumericalSemigroup.from_small_elements.__func__

    def counted(cls, elems, conductor):
        decoded.append(conductor)
        return real(cls, elems, conductor)

    monkeypatch.setattr(NumericalSemigroup, "from_small_elements", classmethod(counted))
    assert jsonio.family_from_dict(d) == fam
    assert decoded == [S1.conductor, *(c.double.conductor for c in fam.members)]


def written(fam):
    return "".join(jsonio.family_json_chunks(fam))


def test_family_writer_matches_json_dumps():
    # every family of the 58 semigroups with f <= 9, the naturals included
    n = 0
    for f in (-1, *range(1, 10)):
        for s in oracle.enum_semigroups_with_frobenius(f):
            fs = s.frobenius
            for fam in (enumerate_even_doubles(s), enumerate_odd_doubles(s, 2 * fs + 9),
                        enumerate_symmetric_doubles(s, 2 * fs + 41)):
                n += 1
                assert written(fam) == json.dumps(jsonio.family_to_dict(fam), sort_keys=True)
    assert n == 3 * 58


def test_family_writer_chunks_members_one_at_a_time():
    fam = enumerate_symmetric_doubles(S1, 60)
    chunks = list(jsonio.family_json_chunks(fam))
    assert len(chunks) == len(fam.members) + 2
    assert chunks[-1] == "]}"
    assert [json.loads(c.removeprefix(", ")) for c in chunks[1:-1]] == \
        jsonio.family_to_dict(fam)["members"]
    empty = enumerate_even_doubles(NumericalSemigroup.from_generators([5, 6, 7]))
    assert empty.members == ()
    assert written(empty) == json.dumps(jsonio.family_to_dict(empty), sort_keys=True)
    # the base's text stands for a spec's base only where the two are equal
    mixed = DoubleFamily(S2, fam.members, True)
    assert written(mixed) == json.dumps(jsonio.family_to_dict(mixed), sort_keys=True)


def test_family_writer_reaches_below_zero():
    # b = 7 lies above the double's least odd member 3, so the decomposed
    # ideal starts at -2: the writer's decimal table must start there too
    cert = enumerate_symmetric_doubles(S1, 11).members[0]
    spec = decompose(cert.double, 7)
    assert spec.ideal.elements_below == (-2, 0, 1)
    member = {**jsonio.family_to_dict(enumerate_symmetric_doubles(S1, 11))["members"][0],
              "spec": jsonio.spec_to_dict(spec)}
    fam = jsonio.family_from_dict(through_json({
        "base": jsonio.semigroup_to_dict(S1), "exhaustive": False, "members": [member]}))
    assert written(fam) == json.dumps(jsonio.family_to_dict(fam), sort_keys=True)
    assert '"elements": [-2, 0, 1]' in written(fam)


def test_decoders_validate_the_sum_condition():
    # N + N + 3 holds 4, a gap of S1: decoded specs go through the
    # validating constructor, family members too
    d = {"s": jsonio.semigroup_to_dict(S1), "e": jsonio.ideal_to_dict(E1), "b": 3}
    with pytest.raises(SumNotInS) as exc:
        jsonio.spec_from_dict(through_json(d))
    assert exc.value.witness == (0, 1)
    family = jsonio.family_to_dict(enumerate_even_doubles(S1))
    first, second, *rest = family["members"]
    assert second["spec"] == {**d, "b": 5}
    second = {**second, "spec": d}
    with pytest.raises(SumNotInS) as exc:
        jsonio.family_from_dict(through_json({**family, "members": [first, second, *rest]}))
    assert exc.value.witness == (0, 1)


def _malformed_cases():
    sg = jsonio.semigroup_to_dict(S1)
    spec = jsonio.spec_to_dict(DuplicationSpec(S2, F2, 5))
    report = jsonio.report_to_dict(classify(S1))
    family = jsonio.family_to_dict(enumerate_even_doubles(S1))
    first, second, *rest = family["members"]
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
        (jsonio.family_from_dict, {**family, "base": jsonio.semigroup_to_dict(S2)}),
        (jsonio.family_from_dict, {**family, "members": [
            {**first, "t": second["t"]}, {**second, "t": first["t"]}, *rest]}),
        # the first member of the family is pseudo-symmetric
        (jsonio.family_from_dict, {**family, "members": [{**first, "class": "symmetric"}]}),
        (jsonio.family_from_dict, {**family, "members": [{**first, "class": "almost"}]}),
        (jsonio.family_from_dict, {**family, "members": [
            {k: v for k, v in first.items() if k != "type"}]}),
        (jsonio.family_from_dict, {**family, "members": [{**first, "type": 99}]}),
        (jsonio.family_from_dict, {**family, "members": [{**first, "type": True}]}),
        # almost symmetric, but of even type 2
        (jsonio.family_from_dict, {**family, "members": [
            {**first, "class": "odd-almost-symmetric"}]}),
        (jsonio.semigroup_from_dict, {"small": [0, True]}),
        # the base, equal as Python values but not as JSON integers, where a
        # member's spec names it: rejected, not matched to the decoded base
        (jsonio.family_from_dict, {**family, "members": [
            {**first, "spec": {**first["spec"], "s": {**sg, "conductor": 5.0}}}]}),
        (jsonio.family_from_dict, {**family, "members": [
            {**first, "spec": {**first["spec"], "e": {
                **first["spec"]["e"], "ambient": {**sg, "small": [False, 3]}}}}]}),
    ]


@pytest.mark.parametrize("decode, data", _malformed_cases())
def test_malformed_input_raises_domain_error(decode, data):
    with pytest.raises(SemigroupError, match="malformed JSON"):
        decode(through_json(data))


def _writer_cases():
    """Families whose sets have long even runs, none, or odd-shaped ones."""
    s357 = NumericalSemigroup.from_generators([3, 5, 7])
    fams = [enumerate_symmetric_doubles(s357, 2001),
            enumerate_odd_doubles(NumericalSemigroup.from_generators([4, 6, 7, 9]), 801),
            enumerate_even_doubles(T1)]
    naturals = NumericalSemigroup.from_generators([1])
    fams += [enumerate_even_doubles(naturals), enumerate_odd_doubles(naturals, 41),
             enumerate_symmetric_doubles(naturals, 41)]
    # a decoded member whose ideal starts at -2 (b = 7 above the least odd 3)
    cert = enumerate_symmetric_doubles(S1, 11).members[0]
    member = {**jsonio.family_to_dict(enumerate_symmetric_doubles(S1, 11))["members"][0],
              "spec": jsonio.spec_to_dict(decompose(cert.double, 7))}
    fams.append(jsonio.family_from_dict(through_json({
        "base": jsonio.semigroup_to_dict(S1), "exhaustive": False, "members": [member]})))
    # a hand-built family whose specs are not over its base
    fams.append(DoubleFamily(S2, enumerate_odd_doubles(S1, 61).members, False))
    return fams


def test_family_writer_matches_json_dumps_on_large_and_odd_shaped_families():
    fams = _writer_cases()
    assert [len(fam.members) for fam in fams[:3]] == [996, 2757, 59]
    assert fams[6].members[0].spec.ideal.min_element == -2
    for fam in fams:
        text, ref = written(fam), json.dumps(jsonio.family_to_dict(fam), sort_keys=True)
        # compared up front: a failing assert on texts of megabytes takes
        # minutes to diff
        same = text == ref
        at = next((i for i, (a, b) in enumerate(zip(text, ref)) if a != b), len(ref))
        assert same, f"differs at {at}: {text[at - 30:at + 30]!r} != {ref[at - 30:at + 30]!r}"
