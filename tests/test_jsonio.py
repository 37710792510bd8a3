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
    # the base is the only semigroup decoded: every spec's s and ideal
    # ambient list the base's integers and reuse it, and each member's T is
    # compared with its spec's duplicate, not rebuilt
    fam = enumerate_symmetric_doubles(S1, 60)
    d = through_json(jsonio.family_to_dict(fam))
    decoded = []
    real = NumericalSemigroup.from_small_elements.__func__

    def counted(cls, elems, conductor):
        decoded.append(conductor)
        return real(cls, elems, conductor)

    monkeypatch.setattr(NumericalSemigroup, "from_small_elements", classmethod(counted))
    assert jsonio.family_from_dict(d) == fam
    assert decoded == [S1.conductor]


def test_family_decoding_lists_the_base_generators_once(monkeypatch):
    # every member's ideal is checked against the base's minimal
    # generators, listed once for the whole family
    fam = enumerate_even_doubles(T1)
    d = through_json(jsonio.family_to_dict(fam))
    listed = []
    real = NumericalSemigroup.minimal_generators

    def counted(s):
        listed.append(s)
        return real.fget(s)

    monkeypatch.setattr(NumericalSemigroup, "minimal_generators", property(counted))
    assert jsonio.family_from_dict(d) == fam
    assert len(fam.members) == 59 and listed == [T1]


def _decoder_families():
    return [enumerate_symmetric_doubles(S1, 201),
            enumerate_odd_doubles(NumericalSemigroup.from_generators([4, 6, 7, 9]), 101),
            enumerate_even_doubles(T1)]


def _with_t(d, i, **t):
    """The family dict ``d`` with member ``i``'s T updated by ``t``."""
    members = list(d["members"])
    members[i] = {**members[i], "t": {**members[i]["t"], **t}}
    return {**d, "members": members}


def test_family_decoding_accepts_any_listing_of_each_double():
    # T is compared with its spec's duplicate as a set: reversed or repeated
    # lists decode as the validating constructor reads them
    for fam in _decoder_families():
        d = through_json(jsonio.family_to_dict(fam))
        assert fam.members
        for listing in (lambda small: small[::-1],
                        lambda small: [*small, small[len(small) // 2]]):
            relisted = {**d, "members": [{**m, "t": {**m["t"], "small": listing(m["t"]["small"])}}
                                         for m in d["members"]]}
            assert jsonio.family_from_dict(relisted) == fam


def _malformed_t_cases(t):
    """Corruptions of a member's T dict ``t``, each no longer its spec's duplicate."""
    small, c = t["small"], t["conductor"]
    gap = next(x for x in range(c) if x not in small)
    return {
        "at the conductor": {"small": [*small, c]},
        "past the conductor": {"small": [*small, c + 1]},
        "no 0": {"small": small[1:]},
        "a member dropped": {"small": small[:-1]},
        "a gap added": {"small": sorted([*small, gap])},
        "conductor + 1": {"conductor": c + 1},
        "conductor - 1": {"conductor": c - 1},
        "conductor -1": {"conductor": -1},
        "conductor 10**12": {"conductor": 10**12},
    }


@pytest.mark.parametrize("family", range(3))
def test_family_decoding_rejects_a_member_t_that_is_not_the_duplicate(family):
    d = through_json(jsonio.family_to_dict(_decoder_families()[family]))
    last = len(d["members"]) - 1
    for name, change in _malformed_t_cases(d["members"][last]["t"]).items():
        with pytest.raises(SemigroupError, match=f"malformed JSON: member {last} ") as exc:
            jsonio.family_from_dict(_with_t(d, last, **change))
        assert type(exc.value) is SemigroupError, name


def test_family_decoding_rejects_a_foreign_ideal_ambient():
    d = through_json(jsonio.family_to_dict(enumerate_even_doubles(S1)))
    members = list(d["members"])
    spec = members[1]["spec"]
    members[1] = {**members[1], "spec": {**spec, "e": {
        **spec["e"], "ambient": jsonio.semigroup_to_dict(S2)}}}
    with pytest.raises(SemigroupError, match="malformed JSON: the spec of member 1 "):
        jsonio.family_from_dict({**d, "members": members})


def _symmetric_s1_to_30():
    d = through_json(jsonio.family_to_dict(enumerate_symmetric_doubles(S1, 30)))
    assert len(d["members"]) == 10
    return d


def test_family_decoding_rejects_members_out_of_canonical_order():
    d = _symmetric_s1_to_30()
    with pytest.raises(SemigroupError, match="malformed JSON: member 1 comes before member 0 "):
        jsonio.family_from_dict({**d, "members": d["members"][::-1]})
    # members of one conductor are ordered by their element lists
    even = through_json(jsonio.family_to_dict(enumerate_even_doubles(T1)))
    members = even["members"]
    i = next(i for i in range(1, len(members))
             if members[i]["t"]["conductor"] == members[i - 1]["t"]["conductor"])
    swapped = [*members[:i - 1], members[i], members[i - 1], *members[i + 1:]]
    with pytest.raises(SemigroupError, match=f"malformed JSON: member {i} comes before "):
        jsonio.family_from_dict({**even, "members": swapped})


def test_family_decoding_rejects_a_repeated_member():
    d = _symmetric_s1_to_30()
    first, *rest = d["members"]
    with pytest.raises(SemigroupError, match="malformed JSON: member 1 repeats member 0"):
        jsonio.family_from_dict({**d, "members": [first, first, *rest]})
    with pytest.raises(SemigroupError, match="malformed JSON: member 10 "):
        jsonio.family_from_dict({**d, "members": [first, *rest, first]})


def test_family_decoding_rejects_exhaustive_on_symmetric_or_odd_members():
    d = {**_symmetric_s1_to_30(), "exhaustive": True}
    with pytest.raises(SemigroupError, match="malformed JSON: member 0 is symmetric, "):
        jsonio.family_from_dict(d)
    odd = through_json(jsonio.family_to_dict(enumerate_odd_doubles(S1, 61)))
    assert odd["members"]
    with pytest.raises(SemigroupError, match="malformed JSON: member 0 is odd-almost-symmetric"):
        jsonio.family_from_dict({**odd, "exhaustive": True})
    even = through_json(jsonio.family_to_dict(enumerate_even_doubles(T1)))
    assert even["exhaustive"] is True
    assert jsonio.family_from_dict(even) == enumerate_even_doubles(T1)


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
        # rejected by the constructor's structural checks
        (jsonio.semigroup_from_dict, {"small": [0, 20], "conductor": 9}),
        (jsonio.semigroup_from_dict, {"small": [0], "conductor": -1}),
        (jsonio.semigroup_from_dict, {"small": [-1, 0], "conductor": 3}),
        (jsonio.semigroup_from_dict, {"small": [0, 3], "conductor": 0}),
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
