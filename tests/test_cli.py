import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sgdouble import (
    NumericalSemigroup,
    canonical_ideal,
    classify,
    duplicate,
    enumerate_even_doubles,
    enumerate_odd_doubles,
    enumerate_symmetric_doubles,
    maximal_ideal,
    odd_double_check,
    oracle,
)
from sgdouble.cli import main
from sgdouble.doubles import ideals_with_frobenius
from sgdouble.errors import SemigroupError
from sgdouble.verify import _sampled_ideals
from sgdouble import cli, jsonio, verify

import cases
from cases import S1, T1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def run_or_exit(argv):
    """stdout, stderr and exit code of ``main(argv)``, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


COMMANDS = ["info", "classify", "double", "half", "decompose", "enumerate-doubles",
            "witness-even", "verify"]


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--gens", "9,10,14,15")
    assert code == 0
    assert "frobenius           31" in out
    assert "pseudo-frobenius    5, 26, 31" in out
    assert "type                3" in out


def test_info_json_matches_library(capsys):
    code, data, _ = run_json(capsys, "info", "--gens", "3,5,7")
    assert code == 0
    assert jsonio.semigroup_from_dict(data["semigroup"]) == S1
    assert data["pseudo_frobenius"] == [2, 4]
    assert data["minimal_generators"] == [3, 5, 7]


def test_classify_small_elements_input(capsys):
    code, out, _ = run(
        capsys, "classify", "--small", "0,8,9,10,11,12,13", "--conductor", "16"
    )
    assert code == 0
    assert "symmetry class      none" in out


def test_classify_method_flag(capsys):
    # classify decides almost symmetry one way; the flag that chose among
    # equivalent criteria is gone
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--gens", "3,5,7", "--method", "pairing"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method pairing" in capsys.readouterr().err


def test_double(capsys):
    code, data, _ = run_json(
        capsys, "double", "--gens", "3,5,7",
        "--ideal", "0,2", "--ideal-conductor", "3", "--b", "3",
    )
    assert code == 0
    assert data["double"] == {"small": [0, 3, 6, 7], "conductor": 9}
    assert jsonio.report_from_dict(data["report"]).pseudo_symmetric


def test_half(capsys):
    code, data, _ = run_json(capsys, "half", "--gens", "9,10,14,15")
    assert code == 0
    assert data["semigroup"] == {"small": [0, 5, 7, 9, 10, 12], "conductor": 14}


def test_decompose(capsys):
    code, data, _ = run_json(capsys, "decompose", "--gens", "9,10,14,15", "--b", "5")
    assert code == 0
    spec = jsonio.spec_from_dict(data["spec"])
    assert spec.odd_offset == 5
    assert spec.ideal.elements_below == (2, 5, 7, 9, 10, 11, 12)


def test_decompose_at_a_huge_offset(capsys):
    # the ideal reaches down to about -b/2: nothing may build a window as
    # wide as b
    code, out, _ = run(capsys, "decompose", "--gens", "3,5", "--b", "10000000001")
    assert code == 0
    assert "ideal minimum       -4999999999" in out


def test_enumerate_even_round_trips(capsys):
    code, data, _ = run_json(
        capsys, "enumerate-doubles", "--gens", "3,5,7", "--parity", "even"
    )
    assert code == 0
    fam = jsonio.family_from_dict(data)
    assert fam == enumerate_even_doubles(S1)
    assert data["exhaustive"] is True
    assert [m["class"] for m in data["members"]] == ["even-almost-symmetric"] * 3
    assert [m["type"] for m in data["members"]] == [2, 2, 4]


def test_enumerate_symmetric(capsys):
    code, data, _ = run_json(
        capsys, "enumerate-doubles", "--gens", "3,5,7",
        "--parity", "symmetric", "--max-frobenius", "15",
    )
    assert code == 0
    assert len(data["members"]) == 3  # f(T) = 11, 13, 15


def test_enumerate_odd(capsys):
    code, data, _ = run_json(
        capsys, "enumerate-doubles", "--gens", "3,5,7",
        "--parity", "odd", "--max-frobenius", "15",
    )
    assert code == 0
    assert jsonio.family_from_dict(data) == enumerate_odd_doubles(S1, 15)
    assert {m["class"] for m in data["members"]} == {"odd-almost-symmetric"}


def test_enumerate_json_is_one_compact_sorted_line(capsys):
    for parity, fam in (("even", enumerate_even_doubles(S1)),
                        ("odd", enumerate_odd_doubles(S1, 15)),
                        ("symmetric", enumerate_symmetric_doubles(S1, 15))):
        code, out, _ = run(capsys, "enumerate-doubles", "--gens", "3,5,7",
                           "--parity", parity, "--max-frobenius", "15", "--json")
        assert code == 0
        assert fam.members
        assert out == json.dumps(jsonio.family_to_dict(fam), sort_keys=True) + "\n"


def test_enumerate_human_rows_print_each_set_as_its_str(capsys):
    # the rows list T and E from the JSON writer's listings: the text of
    # str(), on every family of the named bases, and on <3,5,7>'s odd and
    # symmetric families to 200
    named = [getattr(cases, name) for name in ("S1", "S2", "T1", "ST1", "T2", "D1", "D2", "D3")]
    runs = [(s, "even", None) for s in named]
    runs += [(s, parity, 2 * s.frobenius + 41) for s in named for parity in ("odd", "symmetric")]
    runs += [(cases.S1, parity, 200) for parity in ("odd", "symmetric")]
    enumerators = {"even": lambda s, bound: enumerate_even_doubles(s),
                   "odd": enumerate_odd_doubles, "symmetric": enumerate_symmetric_doubles}
    rows = 0
    for s, parity, bound in runs:
        fam = enumerators[parity](s, bound)
        argv = ["enumerate-doubles", "--small", ",".join(map(str, s.small_elements)),
                "--conductor", str(s.conductor), "--parity", parity]
        code, out, _ = run(capsys, *argv, *(["--max-frobenius", str(bound)] if bound else []))
        assert code == 0
        expected = [f"  {cert.double}  f={cert.double.frobenius}"
                    f"  {cert.symmetry_class} (type {cert.type})"
                    f"  via b={cert.spec.odd_offset}, E={cert.spec.ideal}"
                    for cert in fam.members]
        assert out.splitlines()[2:] == expected, (s, parity)
        rows += len(expected)
    assert rows == 1241


class _Discard:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_enumerate_json_streams_in_bounded_memory(monkeypatch):
    # 1,495 members and 6.4 MB of text, written one member at a time: no
    # dict or int list of the whole family is built, nor the whole text
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["enumerate-doubles", "--gens", "3,5,7", "--parity", "symmetric",
                     "--max-frobenius", "3000", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20, peak


def test_enumerate_requires_bound_for_odd(capsys):
    code, _, err = run(capsys, "enumerate-doubles", "--gens", "3,5,7", "--parity", "odd")
    assert code == 2
    assert "max-frobenius" in err


def test_witness_even(capsys):
    code, data, _ = run_json(capsys, "witness-even", "--gens", "3,5,7")
    assert code == 0
    assert data["spec"]["b"] == 5
    assert data["double"] == {"small": [0, 5, 6, 7], "conductor": 9}


_S1_JSON = '{"conductor": 5, "small": [0, 3]}'
_PINNED_SPEC_OUTPUT = [
    (["witness-even", "--gens", "3,5,7"],
     "base                {0, 3, 5->}\n"
     "offset              5\n"
     "ideal               {0->}\n"
     "double              {0, 5, 6, 7, 9->}\n"
     "symmetry class      pseudo-symmetric (type 2)\n",
     '{"double": {"conductor": 9, "small": [0, 5, 6, 7]}, "report": {"frobenius": 8, '
     '"gaps": [1, 2, 3, 4, 8], "pseudo_frobenius": [4, 8], "second_type_gaps": [4], '
     '"symmetry_class": "pseudo-symmetric", "type": 2}, "spec": {"b": 5, "e": {"ambient": '
     + _S1_JSON + ', "conductor": 0, "elements": []}, "s": ' + _S1_JSON + '}}\n'),
    (["double", "--gens", "3,5,7", "--ideal", "0,2", "--ideal-conductor", "3", "--b", "3"],
     "base                {0, 3, 5->}\n"
     "ideal               {0, 2->}\n"
     "offset              3\n"
     "double              {0, 3, 6, 7, 9->}\n"
     "frobenius           8\n"
     "symmetry class      pseudo-symmetric (type 2)\n",
     '{"double": {"conductor": 9, "small": [0, 3, 6, 7]}, "report": {"frobenius": 8, '
     '"gaps": [1, 2, 4, 5, 8], "pseudo_frobenius": [4, 8], "second_type_gaps": [4], '
     '"symmetry_class": "pseudo-symmetric", "type": 2}, "spec": {"b": 3, "e": {"ambient": '
     + _S1_JSON + ', "conductor": 2, "elements": [0]}, "s": ' + _S1_JSON + '}}\n'),
    # an ideal with a negative member
    (["double", "--gens", "3,5,7", "--ideal=-1", "--ideal-conductor", "1", "--b", "5"],
     "base                {0, 3, 5->}\n"
     "ideal               {-1, 1->}\n"
     "offset              5\n"
     "double              {0, 3, 6, 7, 9->}\n"
     "frobenius           8\n"
     "symmetry class      pseudo-symmetric (type 2)\n",
     '{"double": {"conductor": 9, "small": [0, 3, 6, 7]}, "report": {"frobenius": 8, '
     '"gaps": [1, 2, 4, 5, 8], "pseudo_frobenius": [4, 8], "second_type_gaps": [4], '
     '"symmetry_class": "pseudo-symmetric", "type": 2}, "spec": {"b": 5, "e": {"ambient": '
     + _S1_JSON + ', "conductor": 1, "elements": [-1]}, "s": ' + _S1_JSON + '}}\n'),
]


@pytest.mark.parametrize("argv, human, text", _PINNED_SPEC_OUTPUT,
                         ids=["witness-even", "double", "double-negative-ideal"])
def test_double_and_witness_even_output_is_pinned(capsys, argv, human, text):
    # the golden sweep runs neither command: their exact stdout, both forms
    assert run(capsys, *argv) == (0, human, "")
    assert run(capsys, *argv, "--json") == (0, text, "")


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate-doubles", "--gens", "3,5,7", "--parity", "even")
    _, second, _ = run(capsys, "enumerate-doubles", "--gens", "3,5,7", "--parity", "even")
    assert first == second


def _golden_sweep():
    """argv of a fixed CLI sweep over the 58 S with f <= 9, given by their
    small elements: each family kind, odd to 2f + 9 and symmetric to
    2f + 41, then info and classify, each human and --json; then verify."""
    for f in range(1, 10):
        for s in oracle.enum_semigroups_with_frobenius(f):
            given = ["--small", ",".join(map(str, s.small_elements)),
                     "--conductor", str(s.conductor)]
            for flag in ([], ["--json"]):
                yield ["enumerate-doubles", *given, "--parity", "even", *flag]
                yield ["enumerate-doubles", *given, "--parity", "odd",
                       "--max-frobenius", str(2 * f + 9), *flag]
                yield ["enumerate-doubles", *given, "--parity", "symmetric",
                       "--max-frobenius", str(2 * f + 41), *flag]
                yield ["info", *given, *flag]
                yield ["classify", *given, *flag]
    yield ["verify"]
    yield ["verify", "--json"]


#: SHA-256 of the sweep's argv, stdout, stderr and exit codes.  The CLI
#: output is byte-stable: a change that alters it announces that and
#: records the new digest here.
GOLDEN_SWEEP_SHA256 = "9c2aba48de5a437d22150b626b2888eb6b00d5cf3bebc55f3d4b373f82986e36"


def test_golden_cli_sweep(capsys):
    digest = hashlib.sha256()
    runs = 0
    for argv in _golden_sweep():
        code, out, err = run(capsys, *argv)
        for part in (" ".join(argv), out, err, str(code)):
            digest.update(part.encode() + b"\0")
        runs += 1
    assert runs == 572
    assert digest.hexdigest() == GOLDEN_SWEEP_SHA256


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "double", "--gens", "3,5,7",
                       "--ideal", "0,2", "--ideal-conductor", "3", "--b", "4")
    assert code == 1
    assert "error" in err


def test_domain_error_json_payload(capsys):
    code, data, _ = run_json(capsys, "decompose", "--gens", "9,10,14,15", "--b", "11")
    assert code == 1
    assert data["error"]["type"] == "InvalidB"


@pytest.mark.parametrize("argv", [
    ("info", "--gens", "100003,100019"),      # conductor about 10^10
    ("info", "--small", "0", "--conductor", "10000000000"),
    # the double's conductor is about 2 f(E) + b
    ("double", "--gens", "3,5", "--ideal", "0,3", "--ideal-conductor", "5",
     "--b", "10000000001"),
])
def test_huge_conductor_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: conductor") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # c(E) - m(E) is about 10^10 either way
    ("double", "--gens", "3,5", "--ideal", "0", "--ideal-conductor", "10000000000", "--b", "3"),
    ("double", "--gens", "3,5", "--ideal=-10000000000", "--ideal-conductor", "5", "--b", "3"),
])
def test_huge_relative_ideal_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ideal span") and err.count("\n") == 1


def test_negative_least_sum_is_rejected(capsys):
    # E = [-10^9, oo) and b = 10^9 + 1: the least sum is negative, and the
    # scan for a violating pair would build a window about 10^9 bits wide
    code, out, err = run(capsys, "double", "--gens", "3,5", "--ideal=0",
                         "--ideal-conductor", "-1000000000", "--b", "1000000001")
    assert code == 1 and out == ""
    assert err.startswith("error: -1000000000 + -1000000000 + 1000000001 = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("parity", ["symmetric", "odd"])
def test_huge_family_bound_is_rejected(capsys, parity):
    # a family to 10^8 would have about 5 * 10^7 members, most of them with
    # conductors past the limit
    code, out, err = run(capsys, "enumerate-doubles", "--gens", "3,5", "--parity", parity,
                         "--max-frobenius", "100000000")
    assert code == 1 and out == ""
    assert err.startswith("error: bound 100000000") and err.count("\n") == 1


def test_usage_error_missing_semigroup(capsys):
    code, _, err = run(capsys, "info")
    assert code == 2
    assert "usage error" in err


def test_usage_error_both_semigroup_forms(capsys):
    code, out, err = run(capsys, "info", "--gens", "3,5", "--small", "0,3", "--conductor", "5")
    assert code == 2 and out == ""
    assert "usage error" in err and "not both" in err


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "error: argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_usage_error_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")


def test_usage_error_bad_integer_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--gens", "3,x"])
    assert exc.value.code == 2
    assert "expected comma-separated integers, got '3,x'" in capsys.readouterr().err


# each command's help, an unknown option, a bad integer and every missing
# required argument; an unrecognized trailing argument, which the top-level
# parser reports with its usage; top-level help, an unknown command, an
# option first
_PARSER_ARGV = [
    *([command, "-h"] for command in COMMANDS),
    *([command, "--bogus"] for command in COMMANDS),
    *([command, "--gens", "3,x"] for command in COMMANDS[:-1]),
    ["verify", "--max-frobenius=3,x"],
    ["double", "--gens", "3,5,7", "--ideal", "0,2", "--ideal-conductor", "3"],
    ["decompose", "--gens", "3,5"],
    ["enumerate-doubles", "--gens", "3,5,7"],
    ["info", "--gens", "3,5", "extra"],
    ["verify", "extra"],
    ["enumerate-doubles", "--gens", "3,5", "--parity", "odd", "x"],
    ["-h"],
    ["frobnicate"],
    ["--bogus", "info", "--gens", "3,5"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_per_command_parser_prints_what_the_full_one_prints(monkeypatch, argv):
    # main builds only the subparser named first; the parser with every
    # subparser prints the same help, usage and errors
    monkeypatch.setenv("COLUMNS", "80")
    mine = run_or_exit(argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command: build())
    assert run_or_exit(argv) == mine


def _count_calls(monkeypatch, method: str) -> list:
    """A list that gets one entry per call of ``ArgumentParser.<method>`` from now on."""
    calls = []
    original = getattr(argparse.ArgumentParser, method)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, method, counting)
    return calls


def test_only_the_command_named_gets_its_arguments(capsys, monkeypatch):
    # -h on the top-level parser and on info's, then info's --json and three
    # semigroup arguments: 46 if every subparser were built with its arguments
    calls = _count_calls(monkeypatch, "add_argument")
    assert run(capsys, "info", "--gens", "3,5")[0] == 0
    assert len(calls) == 6


@pytest.mark.parametrize("argv, built", [
    (["info", "--gens", "3,5"], 2),
    (["verify", "extra"], 2),
    (["-h"], 9),
    (["frobnicate"], 9),
])
def test_only_the_command_named_gets_a_parser(monkeypatch, argv, built):
    # the top-level parser and the named command's; the top-level help and
    # the invalid-choice error need all eight subparsers
    calls = _count_calls(monkeypatch, "__init__")
    run_or_exit(argv)
    assert len(calls) == built


@pytest.mark.parametrize("argv, built", [
    (["info", "--gens", "3,5"], 6),
    (["enumerate-doubles", "--gens", "3,5,7", "--parity", "even", "--json"], 8),
])
def test_main_reads_sys_argv_when_called_without_argv(capsys, monkeypatch, argv, built):
    # the console script calls main(): it reads the command from sys.argv
    # before it builds the parser
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["sgdouble", *argv])
    calls = _count_calls(monkeypatch, "add_argument")
    assert (main(), capsys.readouterr().out) == (code, out)
    assert code == 0 and out and len(calls) == built


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "5")
    assert code == 0
    assert "all checks passed" in out
    assert err == ""  # no check is capped below 5


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_verify_rejects_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "--max-frobenius", bound)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--max-frobenius" in err


def test_verify_reports_capped_checks_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "7")
    assert code == 0
    assert err.splitlines() == [
        "note: theorem-checkers runs at --max-frobenius 6",
        "note: families-vs-oracle runs at --max-frobenius 6",
    ]
    assert "note:" not in out
    assert out.splitlines()[-1] == "all checks passed"


VERIFY_CHECKS = ["classifier-agreement", "ideal-duality", "duplication-roundtrip",
                 "theorem-checkers", "families-vs-oracle"]


def test_verify_json(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-frobenius", "4", "--seed", "7")
    assert code == 0
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == VERIFY_CHECKS


def test_verify_library_route(capsys):
    # sgdouble.verify.run yields what the CLI prints, each check with its
    # capped bound, and prints nothing itself
    records = list(verify.run(4, 7))
    assert capsys.readouterr() == ("", "")
    code, data, _ = run_json(capsys, "verify", "--max-frobenius", "4", "--seed", "7")
    assert code == 0
    assert [r[:1] + r[2:] for r in records] == [
        (c["name"], c["cases"], c["ok"], c["detail"]) for c in data["checks"]]
    assert tuple(r.bound for r in verify.run(7)) == (7, 7, 7, 6, 6)
    assert tuple(r.bound for r in verify.run(12)) == (12, 9, 9, 6, 6)
    assert capsys.readouterr() == ("", "")


def _misreported_type(s):
    rep = classify(s)
    return dataclasses.replace(rep, type=rep.type + 1)


def _even_family_missing_first(s):
    fam = enumerate_even_doubles(s)
    return dataclasses.replace(fam, members=fam.members[1:])


@pytest.mark.parametrize("argv, cases", [
    ((), [58, 427, 210, 410, 16]),
    (("--max-frobenius", "12"), [171, 427, 210, 410, 16]),
])
def test_verify_case_counts(capsys, argv, cases):
    # one census, read by each check up to its own bound: f <= 9 or 12 for
    # classifier agreement, 9 for ideal duality and round trips, 6 for the rest
    code, data, _ = run_json(capsys, "verify", *argv)
    assert code == 0 and data["ok"] is True
    assert [(c["name"], c["cases"]) for c in data["checks"]] == list(zip(VERIFY_CHECKS, cases))


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_draws_the_ideals_of_the_full_pool(seed):
    # ideal duality draws among the ideals' masks and builds only the drawn
    # ones: the same ideals, drawn by the same rng, as from the full pool of
    # built ideals, by f(E) and then by element list, base after base
    mine, ref = random.Random(seed), random.Random(seed)
    n = 0
    for f in (-1, *range(1, 10)):
        for s in oracle.enum_semigroups_with_frobenius(f):
            pool = [e for fe in (-1, *s.gaps)
                    for e in sorted(ideals_with_frobenius(s, fe), key=lambda e: e.elements_below)]
            drawn = _sampled_ideals(s, mine)
            assert drawn == ref.sample(pool, min(len(pool), 8)), str(s)
            n += len(drawn)
    assert n == 427


# each wrong kernel answer is seen by its own check only
@pytest.mark.parametrize("check, target, wrong", [
    ("classifier-agreement", "sgdouble.verify.classify", _misreported_type),
    ("ideal-duality", "sgdouble.verify.maximal_ideal", canonical_ideal),
    ("duplication-roundtrip", "sgdouble.verify.duplication_canonical_ideal",
     lambda spec: maximal_ideal(duplicate(spec))),
    ("theorem-checkers", "sgdouble.doubles.odd_double_check",
     lambda spec: not odd_double_check(spec)),
    ("families-vs-oracle", "sgdouble.doubles.enumerate_even_doubles", _even_family_missing_first),
], ids=VERIFY_CHECKS)
def test_verify_reports_a_failing_kernel(capsys, monkeypatch, check, target, wrong):
    monkeypatch.setattr(target, wrong)
    code, out, err = run(capsys, "verify", "--max-frobenius", "4")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        ("FAIL " if name == check else "ok   ") + name for name in VERIFY_CHECKS
    ]
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert re.fullmatch(rf"FAIL {check}: \d+ cases \(.+\)", failed), failed
    assert "all checks passed" not in out

    code, data, _ = run_json(capsys, "verify", "--max-frobenius", "4")
    assert code == 1 and data["ok"] is False
    assert [(c["name"], c["ok"]) for c in data["checks"]] == [
        (name, name != check) for name in VERIFY_CHECKS
    ]
    (record,) = [c for c in data["checks"] if not c["ok"]]
    assert failed == f"FAIL {check}: {record['cases']} cases ({record['detail']})"


# Values past every limit, only where the CLI rejects them before any work.
_HUGE = st.sampled_from([-10**10, 10**10, 10**10 + 1])
# two consecutive generators force gcd 1
_COPRIME_GENS = st.builds(lambda xs, m: xs + [m, m + 1],
                          st.lists(st.integers(1, 9), max_size=2), st.integers(1, 8))


@st.composite
def cli_argv(draw):
    """argv for one of the eight subcommands, with bounded work.

    Generators run from 1 to 9 (the largest even walk is about <8,9>),
    family bounds up to 2f + 60 and verify up to --max-frobenius 3.  Now and
    then an argument is missing, or the semigroup is given both ways, or a
    stray token comes first: --json, -x, frobnicate or a second command name.
    """
    def opt(flag, values):
        if draw(st.integers(0, 5)) == 0:
            return []
        return [f"{flag}={draw(values)}"]

    def csv(xs):
        return ",".join(map(str, xs))

    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "verify":
        argv += opt("--max-frobenius", st.integers(-2, 3)) + opt("--seed", st.integers(-5, 5))
    else:
        gens = draw(_COPRIME_GENS | st.lists(st.integers(1, 9), max_size=4))
        s = NumericalSemigroup.from_generators(draw(_COPRIME_GENS))
        if draw(st.booleans()):  # the small elements of a semigroup, or any set
            small, conductor = list(s.small_elements), s.conductor
        else:
            small = draw(st.lists(st.integers(-2, 12), max_size=6))
            conductor = draw(st.integers(-2, 14) | _HUGE)
        form = draw(st.sampled_from(["gens", "gens", "gens", "small", "small", "both", "none"]))
        if form in ("gens", "both"):
            argv.append(f"--gens={csv(gens)}")
        if form in ("small", "both"):
            argv += [f"--small={csv(small)}", f"--conductor={conductor}"]
        try:  # f of the semigroup named, for the family bound
            f = (NumericalSemigroup.from_generators(gens) if form == "gens"
                 else NumericalSemigroup.from_small_elements(small, conductor)).frobenius
        except (SemigroupError, ValueError):
            f = 0
        if command == "double":
            if draw(st.booleans()):  # a semigroup as an ideal over itself, or any set
                argv += [f"--ideal={csv(s.small_elements)}", f"--ideal-conductor={s.conductor}"]
            else:
                argv += opt("--ideal", st.lists(st.integers(-3, 12) | _HUGE, max_size=4).map(csv))
                argv += opt("--ideal-conductor", st.integers(-3, 14) | _HUGE)
            argv += opt("--b", st.integers(-3, 25) | _HUGE)
        elif command == "decompose":
            argv += opt("--b", st.integers(-3, 25))
        elif command == "enumerate-doubles":
            argv += opt("--parity", st.sampled_from(["even", "odd", "symmetric"]))
            argv += opt("--max-frobenius", st.integers(-5, 2 * f + 60) | _HUGE)
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 5)) == 0:  # a stray first token: every subparser is built
        argv.insert(0, draw(st.sampled_from(["--json", "-x", "frobnicate", *COMMANDS])))
    return argv


@settings(max_examples=150, deadline=5000)
@given(cli_argv())
def test_cli_answers_or_rejects_every_input(argv):
    out, err, code = run_or_exit(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code == 1 and "--json" in argv:
        assert err == "" and set(json.loads(out)) == {"error"}, argv
    elif code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


def test_negative_ideal_elements_parse(capsys):
    # decompose T1 at b=15 gives an ideal reaching -3; feed it back through double
    code, data, _ = run_json(capsys, "decompose", "--gens", "9,10,14,15", "--b", "15")
    assert code == 0
    elements = ",".join(map(str, data["spec"]["e"]["elements"]))
    cond = str(data["spec"]["e"]["conductor"])
    small = ",".join(map(str, data["spec"]["s"]["small"]))
    code2, data2, _ = run_json(
        capsys, "double", "--small", small, "--conductor", str(data["spec"]["s"]["conductor"]),
        f"--ideal={elements}", "--ideal-conductor", cond, "--b", "15",
    )
    assert code2 == 0
    assert jsonio.semigroup_from_dict(data2["double"]) == T1
