"""Command-line front end.

Subcommands mirror the library one to one: ``info``, ``classify``,
``double``, ``half``, ``decompose``, ``enumerate-doubles``, ``witness-even``
and ``verify``.  Semigroups are given either as generators (``--gens 3,5,7``)
or as small elements plus conductor (``--small 0,3 --conductor 5``); ideals
as ``--ideal 0,2 --ideal-conductor 3``.  Human-readable tables by default,
``--json`` for machine output.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable

from . import doubles as doubles_mod
# verify is loaded with the CLI, not inside _cmd_verify: the benchmark's tracer
# (perfbench/tracing.py) patches and restores kernel functions only in the
# sgdouble modules loaded when it is installed
from . import jsonio, verify
from .duplication import DuplicationSpec, decompose, duplicate, half
from .errors import SemigroupError
from .ideals import relative_ideal
from .semigroup import NumericalSemigroup, classify


class UsageError(Exception):
    pass


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_semigroup_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gens", type=_csv_ints, help="generators, e.g. 3,5,7")
    p.add_argument("--small", type=_csv_ints, help="elements below the conductor, e.g. 0,3")
    p.add_argument("--conductor", type=int, help="conductor paired with --small")


def _semigroup(args) -> NumericalSemigroup:
    if args.gens is not None:
        if args.small is not None or args.conductor is not None:
            raise UsageError("give either --gens or --small/--conductor, not both")
        return NumericalSemigroup.from_generators(args.gens)
    if args.small is not None and args.conductor is not None:
        return NumericalSemigroup.from_small_elements(args.small, args.conductor)
    raise UsageError("a semigroup is required: --gens a,b,c or --small ... --conductor N")


def _emit(args, text: Callable[[], Iterable[str]], human: Callable[[], Iterable[str]]) -> None:
    """Under --json, write the chunks of ``text()`` as one line; else print the lines of ``human()``.

    Only the output asked for is built, and each chunk or line is written as
    soon as it is produced.
    """
    if args.json:
        write = sys.stdout.write
        for chunk in text():
            write(chunk)
        write("\n")
    else:
        for line in human():
            print(line)


def _json(data: dict) -> tuple[str]:
    """``data`` as compact, key-sorted JSON text, in one chunk."""
    return (json.dumps(data, sort_keys=True),)


def _double_json(spec: DuplicationSpec, t: NumericalSemigroup, report) -> tuple[str]:
    """The --json text of a spec, its double ``t`` and ``t``'s report."""
    return _json({
        "spec": jsonio.spec_to_dict(spec),
        "double": jsonio.semigroup_to_dict(t),
        "report": jsonio.report_to_dict(report),
    })


def _fmt_ints(xs) -> str:
    return ", ".join(map(str, xs)) if xs else "-"


# -- subcommands ---------------------------------------------------------------


def _cmd_info(args) -> int:
    s = _semigroup(args)
    _emit(args, lambda: _json({
        "semigroup": jsonio.semigroup_to_dict(s),
        "minimal_generators": list(s.minimal_generators),
        "frobenius": s.frobenius,
        "conductor": s.conductor,
        "gaps": list(s.gaps),
        "pseudo_frobenius": list(s.pseudo_frobenius),
        "type": s.type,
    }), lambda: [
        f"semigroup           {s}",
        f"minimal generators  {_fmt_ints(s.minimal_generators)}",
        f"frobenius           {s.frobenius}",
        f"conductor           {s.conductor}",
        f"gaps                {_fmt_ints(s.gaps)}",
        f"pseudo-frobenius    {_fmt_ints(s.pseudo_frobenius)}",
        f"type                {s.type}",
    ])
    return 0


def _cmd_classify(args) -> int:
    s = _semigroup(args)
    report = classify(s)
    _emit(args, lambda: _json({
        "semigroup": jsonio.semigroup_to_dict(s),
        "report": jsonio.report_to_dict(report),
    }), lambda: [
        f"semigroup           {s}",
        f"symmetry class      {report.symmetry_class}",
        f"almost symmetric    {'yes' if report.almost_symmetric else 'no'}",
        f"type                {report.type}",
        f"frobenius           {report.frobenius}",
        f"second-type gaps    {_fmt_ints(report.second_type_gaps)}",
        f"pseudo-frobenius    {_fmt_ints(report.pseudo_frobenius)}",
    ])
    return 0


def _cmd_double(args) -> int:
    s = _semigroup(args)
    spec = DuplicationSpec(s, relative_ideal(s, args.ideal, args.ideal_conductor), args.b)
    t = duplicate(spec)
    report = classify(t)
    _emit(args, lambda: _double_json(spec, t, report), lambda: [
        f"base                {s}",
        f"ideal               {spec.ideal}",
        f"offset              {spec.odd_offset}",
        f"double              {t}",
        f"frobenius           {t.frobenius}",
        f"symmetry class      {report.symmetry_class} (type {report.type})",
    ])
    return 0


def _cmd_half(args) -> int:
    t = _semigroup(args)
    s = half(t)
    _emit(args, lambda: _json({"semigroup": jsonio.semigroup_to_dict(s)}),
          lambda: [f"half                {s}"])
    return 0


def _cmd_decompose(args) -> int:
    t = _semigroup(args)
    spec = decompose(t, args.b)
    _emit(args, lambda: _json({"spec": jsonio.spec_to_dict(spec)}), lambda: [
        f"double              {t}",
        f"half                {spec.base}",
        f"ideal               {spec.ideal}",
        f"offset              {spec.odd_offset}",
        f"ideal minimum       {spec.ideal.min_element}",
    ])
    return 0


def _cmd_enumerate(args) -> int:
    s = _semigroup(args)
    if args.parity == "even":
        fam = doubles_mod.enumerate_even_doubles(s)
    else:
        if args.max_frobenius is None:
            raise UsageError(f"--max-frobenius is required for parity {args.parity}")
        if args.parity == "odd":
            fam = doubles_mod.enumerate_odd_doubles(s, args.max_frobenius)
        else:
            fam = doubles_mod.enumerate_symmetric_doubles(s, args.max_frobenius)
    def rows():
        yield f"base                {s}"
        yield f"members             {len(fam.members)} (exhaustive: {'yes' if fam.exhaustive else 'no'})"
        # each T and E as its str(), from the JSON writer's listings
        listing = jsonio._family_listing(fam)

        def braced(u) -> str:
            text = listing(u)
            return f"{{{text}, {u._c}->}}" if text else f"{{{u._c}->}}"

        for cert in fam.members:
            yield (f"  {braced(cert.double)}  f={cert.double.frobenius}"
                   f"  {cert.symmetry_class} (type {cert.type})"
                   f"  via b={cert.spec.odd_offset}, E={braced(cert.spec.ideal)}")

    _emit(args, lambda: jsonio.family_json_chunks(fam), rows)
    return 0


def _cmd_witness(args) -> int:
    s = _semigroup(args)
    spec = doubles_mod.witness_even_double(s)
    t = duplicate(spec)
    report = classify(t)
    _emit(args, lambda: _double_json(spec, t, report), lambda: [
        f"base                {s}",
        f"offset              {spec.odd_offset}",
        f"ideal               {spec.ideal}",
        f"double              {t}",
        f"symmetry class      {report.symmetry_class} (type {report.type})",
    ])
    return 0


def _cmd_verify(args) -> int:
    if args.max_frobenius < 1:
        raise UsageError(f"--max-frobenius must be at least 1, got {args.max_frobenius}")
    results = []
    for r in verify.run(args.max_frobenius, args.seed):
        if r.bound < args.max_frobenius:
            print(f"note: {r.name} runs at --max-frobenius {r.bound}", file=sys.stderr)
        results.append(r)
        if not args.json:
            status = "ok  " if r.ok else "FAIL"
            tail = f" ({r.detail})" if r.detail else ""
            print(f"{status} {r.name}: {r.cases} cases{tail}")
    ok_all = all(r.ok for r in results)
    if args.json:
        checks = [{"name": r.name, "cases": r.cases, "ok": r.ok, "detail": r.detail} for r in results]
        print(json.dumps({"ok": ok_all, "checks": checks}, sort_keys=True))
    elif ok_all:
        print("all checks passed")
    return 0 if ok_all else 1


# -- argument wiring --------------------------------------------------------------


def _add_double_args(p: argparse.ArgumentParser) -> None:
    _add_semigroup_args(p)
    p.add_argument("--ideal", type=_csv_ints, required=True,
                   help="ideal elements below its conductor (negatives allowed: --ideal=-1,3)")
    p.add_argument("--ideal-conductor", type=int, required=True)
    p.add_argument("--b", type=int, required=True, help="odd element of the base")


def _add_decompose_args(p: argparse.ArgumentParser) -> None:
    _add_semigroup_args(p)
    p.add_argument("--b", type=int, required=True, help="odd integer with 2b in the semigroup")


def _add_enumerate_args(p: argparse.ArgumentParser) -> None:
    _add_semigroup_args(p)
    p.add_argument("--parity", choices=("even", "odd", "symmetric"), required=True)
    p.add_argument("--max-frobenius", type=int,
                   help="bound for the infinite families (ignored for even)")


def _add_verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-frobenius", type=int, default=9)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


#: name -> (handler, help line, argument adder), in the order of the help.
_COMMANDS = {
    "info": (_cmd_info, "basic invariants of a semigroup", _add_semigroup_args),
    "classify": (_cmd_classify, "symmetry classification", _add_semigroup_args),
    "double": (_cmd_double, "numerical duplication of a semigroup by an ideal", _add_double_args),
    "half": (_cmd_half, "one half of a semigroup", _add_semigroup_args),
    "decompose": (_cmd_decompose, "realize a semigroup as a duplication of its half",
                  _add_decompose_args),
    "enumerate-doubles": (_cmd_enumerate, "doubles of a semigroup, by kind", _add_enumerate_args),
    "witness-even": (_cmd_witness, "one even-type almost symmetric double", _add_semigroup_args),
    "verify": (_cmd_verify, "cross-validate the kernel against the brute-force oracle",
               _add_verify_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command``'s subcommand, or of every subcommand if none is given."""
    parser = argparse.ArgumentParser(
        prog="sgdouble", description="numerical semigroups, relative ideals, duplication, and doubles")
    # a named command's usage still lists every command; with none named the default stands,
    # as a metavar would also replace "command" in the missing and invalid-choice errors
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (_, help_text, add_args) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.add_argument("--json", action="store_true", help="machine-readable output")
            add_args(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no option but -h, so a first token naming a command is the
    # subcommand argparse runs, and no other one parses or prints: only it is built
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SemigroupError, ValueError) as exc:
        if args.json:
            print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
