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
import random
import sys
from typing import Callable, Iterable

from . import doubles as doubles_mod
from . import jsonio, oracle
from .duplication import (
    DuplicationSpec,
    decompose,
    duplicate,
    duplication_canonical_ideal,
    duplication_frobenius,
    half,
    normalize_params,
)
from .errors import SemigroupError
from .ideals import _build, canonical_ideal, maximal_ideal, relative_ideal
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


# -- verify ---------------------------------------------------------------------


def _check_classifiers(census, rng):
    n = 0
    for s in census:
        n += 1
        mine = classify(s)
        ref = oracle.brute_classify(s)
        if mine != ref:
            return n, False, f"classifier mismatch on {s}"
        if NumericalSemigroup.from_small_elements(s.small_elements, s.conductor) != s:
            return n, False, f"round trip failed on {s}"
        if not (set(mine.pseudo_frobenius) - {mine.frobenius} <= set(mine.second_type_gaps)):
            return n, False, f"PF outside L on {s}"
        if mine.almost_symmetric and (mine.type % 2) != (mine.frobenius % 2):
            return n, False, f"type/frobenius parity failed on {s}"
    return n, True, ""


def _sampled_ideals(s: NumericalSemigroup, rng: random.Random) -> list:
    """Up to 8 ideals drawn by ``rng`` from those of ``ideals_with_frobenius(s, fe)``
    over fe = -1 and the gaps of ``s``, listed in that order.

    The draw is made among their masks, and only the drawn ideals are built.
    """
    pool = [(fe, x) for fe in (-1, *s.gaps) for x, _ in doubles_mod._ideal_masks(s, fe)]
    return [_build(s, x, 0, fe + 1) for fe, x in rng.sample(pool, min(len(pool), 8))]


def _check_ideal_duality(census, rng):
    n = 0
    for s in census:
        m = maximal_ideal(s)
        k = canonical_ideal(s)
        # union with the definitional PF set, which is empty for the naturals
        # (the -1 convention marker is not a member of anything)
        pf = () if s.is_naturals else s.pseudo_frobenius
        expected = relative_ideal(s, [*s.small_elements, *pf], s.conductor)
        if (m - m) != expected:
            return n, False, f"M - M mismatch on {s}"
        for e in _sampled_ideals(s, rng):
            n += 1
            dual = k - e
            if e.reflection_dual() != dual:
                return n, False, f"dual mismatch for {e} over {s}"
            if (k - dual) != e:
                return n, False, f"double dual failed for {e} over {s}"
    return n, True, ""


def _check_duplication(census, rng):
    n = 0
    for t in census:
        for b in range(1, t.frobenius + 3, 2):
            if (2 * b) not in t:
                continue
            n += 1
            spec = decompose(t, b)
            if duplicate(spec) != t or half(t) != spec.base:
                return n, False, f"round trip failed on {t} at b={b}"
            if duplication_frobenius(spec) != t.frobenius:
                return n, False, f"frobenius formula failed on {t} at b={b}"
            if duplication_canonical_ideal(spec) != canonical_ideal(t):
                return n, False, f"canonical formula failed on {t} at b={b}"
            norm = normalize_params(spec)
            if norm.ideal.min_element != 0 or duplicate(norm) != t:
                return n, False, f"normalization failed on {t} at b={b}"
    return n, True, ""


def _check_theorems(census, rng):
    n = 0
    for s in census:
        f = s.frobenius
        for spec in doubles_mod.candidate_specs(s, 2 * f + 5):
            n += 1
            rep = classify(duplicate(spec))
            odd = rep.almost_symmetric and rep.frobenius % 2 != 0
            if doubles_mod.odd_double_check(spec) != odd:
                return n, False, f"odd-type checker mismatch on {spec}"
            if doubles_mod.symmetric_double_check(spec) != rep.symmetric:
                return n, False, f"symmetric checker mismatch on {spec}"
            if 2 * f > 2 * spec.ideal.frobenius + spec.odd_offset:
                if doubles_mod.even_double_check(spec) != rep.almost_symmetric:
                    return n, False, f"even-type checker mismatch on {spec}"
    return n, True, ""


def _check_families(census, rng):
    n = 0
    for s in census:
        n += 1
        f = s.frobenius
        # one oracle search, split by the parity of f(T): T's even members
        # are 2S, so an even f(T) is 2 f(S)
        found = oracle.brute_doubles(s, "any", 2 * f + 5)
        even = [c.double for c in doubles_mod.enumerate_even_doubles(s).members]
        if even != [t for t in found if t.frobenius % 2 == 0]:
            return n, False, f"even family mismatch on {s}"
        odd = [c.double for c in doubles_mod.enumerate_odd_doubles(s, 2 * f + 5).members]
        if odd != [t for t in found if t.frobenius % 2 != 0]:
            return n, False, f"odd family mismatch on {s}"
        for t in even + odd:
            r = doubles_mod.half_type_report(t)
            if not (r.bound_ok and r.count_ok and r.even_pf_bound_ok and r.half_frobenius_ok):
                return n, False, f"half-type relation failed on {t}"
        nonempty = bool(even)
        expected = (not s.is_naturals) and classify(s).almost_symmetric
        if nonempty != expected:
            return n, False, f"even-family emptiness wrong on {s}"
    return n, True, ""


#: (name, check, cap): each check runs on the semigroups with f at most
#: min(--max-frobenius, cap), in order of f, and verify names every capped
#: check on stderr.
_VERIFY_CHECKS = [
    ("classifier-agreement", _check_classifiers, 12),
    ("ideal-duality", _check_ideal_duality, 9),
    ("duplication-roundtrip", _check_duplication, 9),
    ("theorem-checkers", _check_theorems, 6),
    ("families-vs-oracle", _check_families, 6),
]


def _cmd_verify(args) -> int:
    if args.max_frobenius < 1:
        raise UsageError(f"--max-frobenius must be at least 1, got {args.max_frobenius}")
    rng = random.Random(args.seed)
    top = min(args.max_frobenius, max(cap for _, _, cap in _VERIFY_CHECKS))
    census = [s for f in (-1, *range(1, top + 1)) for s in oracle.enum_semigroups_with_frobenius(f)]
    results = []
    ok_all = True
    for name, fn, cap in _VERIFY_CHECKS:
        if args.max_frobenius > cap:
            print(f"note: {name} runs at --max-frobenius {cap}", file=sys.stderr)
        bound = min(args.max_frobenius, cap)
        cases, ok, detail = fn([s for s in census if s.frobenius <= bound], rng)
        ok_all &= ok
        results.append({"name": name, "cases": cases, "ok": ok, "detail": detail})
        if not args.json:
            status = "ok  " if ok else "FAIL"
            tail = f" ({detail})" if detail else ""
            print(f"{status} {name}: {cases} cases{tail}")
    if args.json:
        print(json.dumps({"ok": ok_all, "checks": results}, sort_keys=True))
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
