"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Each workload builds a pass of inputs once per run; the timed loop runs the
pass over and over.  An op's output is checked the first time its input
runs, and every later run of the same input must reproduce that output's
digest.  Checks run outside the timed region.

``tail_cap`` is the highest percentile op_tail_ms may report for a workload,
chosen so that ten samples lie beyond it at this commit's op rate: a faster
change that fits more ops in a run then cannot switch it to a higher one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import namedtuple

#: What a CLI op returns: its exit code and everything it printed.
CliOutput = namedtuple("CliOutput", "rc text")

KIND_EVEN = "even-almost-symmetric"
KIND_ODD = "odd-almost-symmetric"
KIND_SYMMETRIC = "symmetric"


def run_cli(lib, argv) -> CliOutput:
    """``sgdouble <argv>`` in-process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(argv)
    return CliOutput(rc, buf.getvalue())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _kind_holds(kind: str, report) -> bool:
    """Whether a definitional classification report fits a family kind."""
    if kind == KIND_SYMMETRIC:
        return report.symmetry_class == "symmetric"
    parity = 0 if kind == KIND_EVEN else 1
    return report.almost_symmetric and report.frobenius % 2 == parity


def _random_gens(lib, rng, accept, max_multiplicity, span):
    """Minimal generators of a random semigroup that ``accept`` takes.

    Draws a multiplicity m and a few more generators below ``span * m``.
    """
    ns = lib.semigroup.NumericalSemigroup
    for _ in range(200_000):
        m = rng.randint(3, max_multiplicity)
        extra = rng.sample(range(m + 1, span * m), rng.randint(1, m - 1))
        gens = [m, *extra]
        if math.gcd(*gens) != 1:
            continue
        s = ns.from_generators(gens)
        if accept(s):
            return tuple(s.minimal_generators)
    raise RuntimeError("no random semigroup met the workload's constraints")


# -- enum-midgenus -------------------------------------------------------------

EnumInput = namedtuple("EnumInput", "gens named")

#: The three fixed bases ROADMAP names: T1 (genus 17) and two of genus 20.
NAMED_BASES = ((9, 10, 14, 15), (11, 13, 15, 17, 19, 21), (13, 14, 15, 17, 19, 23))
TINY_NAMED_BASES = ((3, 5, 7),)

#: Digest of the three families of each named base, recorded from the
#: library's output at the commit that introduced this benchmark.
NAMED_DIGESTS = {
    (9, 10, 14, 15):
        "c1e66fd4b88ab580ea0f8b9837ad0af199410c86c1d761ffe97365c39a3e702f",
    (11, 13, 15, 17, 19, 21):
        "c9b7aa361516749b4a88a9c5efcfc3fc0c914394026d43d17c441bb097327f24",
    (13, 14, 15, 17, 19, 23):
        "86fe4a052d7b08c2801ff1f01d8c94d7f66f7905b1eeb5dbe56c0ecef1678429",
    (3, 5, 7):
        "45383a20ffa4ec46f330699bf105da05acbeaea7314a6dddc34cb3af1ce06570",
}


def enum_families(lib, s):
    """The op of enum-midgenus: the three enumerators on one base."""
    d, f = lib.doubles, s.frobenius
    return (d.enumerate_even_doubles(s),
            d.enumerate_odd_doubles(s, 2 * f + 9),
            d.enumerate_symmetric_doubles(s, 2 * f + 41))


def families_digest(families) -> str:
    rows = [(fam.exhaustive,
             [(c.double.small_elements, c.double.conductor, c.spec.ideal.elements_below,
               c.spec.ideal.ideal_conductor, c.spec.odd_offset, c.kind, c.report.type,
               c.report.symmetry_class) for c in fam.members])
            for fam in families]
    return _sha(repr(rows))


class EnumMidgenus:
    name = "enum-midgenus"
    tail_cap = 50.0   # about 35 ops fit a 40 s run: too few for a tail above the median

    def build(self, lib, rng, tiny):
        # Two seeded bases, one almost symmetric and one not, of genus 12 and
        # 13 in an order drawn from the seed.  They stay cheaper than T1, so
        # the median and throughput are set by the fixed named bases: seeded
        # bases of genus up to 20 cost 0.05-3.3 s per op and moved the median
        # by about 20 % from one seed to the next.
        named = TINY_NAMED_BASES if tiny else NAMED_BASES
        genera = [4, 5] if tiny else [12, 13]
        rng.shuffle(genera)
        seeded = []
        for genus, almost in zip(genera, (True, False)):

            def accept(s, genus=genus, almost=almost):
                return (len(s.gaps) == genus
                        and lib.semigroup.classify(s).almost_symmetric == almost)

            seeded.append(EnumInput(_random_gens(lib, rng, accept, 10, 3), False))
        items = [EnumInput(g, True) for g in named] + seeded
        rng.shuffle(items)
        return items

    def run(self, lib, item):
        s = lib.semigroup.NumericalSemigroup.from_generators(item.gens)
        return s, enum_families(lib, s)

    def digest(self, out):
        return families_digest(out[1])

    def check(self, lib, item, out, rng):
        s, families = out
        half, duplicate = lib.duplication.half, lib.duplication.duplicate
        for fam, kind in zip(families, (KIND_EVEN, KIND_ODD, KIND_SYMMETRIC)):
            if fam.base != s:
                return f"{kind} family of {item.gens} has another base"
            keys = [(c.double.conductor, c.double.small_elements) for c in fam.members]
            if keys != sorted(set(keys)):
                return f"{kind} family of {item.gens} is not distinct and sorted"
            for c in fam.members:
                if c.kind != kind or half(c.double) != s or duplicate(c.spec) != c.double:
                    return f"{kind} member {c.double} of {item.gens} fails half/duplicate"
            for c in rng.sample(fam.members, min(3, len(fam.members))):
                ref = lib.oracle.brute_classify(c.double)
                if c.report != ref or not _kind_holds(kind, ref):
                    return f"{kind} member {c.double} of {item.gens} disagrees with the oracle"
        if item.named and self.digest(out) != NAMED_DIGESTS[item.gens]:
            return f"families of named base {item.gens} differ from the recorded digest"
        return None


# -- verify-default ------------------------------------------------------------

VerifyInput = namedtuple("VerifyInput", "argv")

VERIFY_CHECKS = ("classifier-agreement", "ideal-duality", "duplication-roundtrip",
                 "theorem-checkers", "families-vs-oracle")
#: Case counts per verify bound (None: the default bound, 9).
VERIFY_CASES = {None: (58, 427, 210, 410, 16), 4: (7, 32, 13, 100, 7)}
TINY_VERIFY_BOUND = 4


class VerifyDefault:
    name = "verify-default"
    tail_cap = 90.0

    def build(self, lib, rng, tiny):
        bound = ["--max-frobenius", str(TINY_VERIFY_BOUND)] if tiny else []
        return [VerifyInput(("verify", "--seed", str(rng.randrange(2 ** 31)), *bound))
                for _ in range(8)]

    def run(self, lib, item):
        return run_cli(lib, list(item.argv))

    def digest(self, out):
        return _sha(f"{out.rc}\n{out.text}")

    def check(self, lib, item, out, rng):
        # every check line and the verdict must be there; lines verify may
        # add around them (notices, say) are not the benchmark's business
        bound = int(item.argv[-1]) if "--max-frobenius" in item.argv else None
        lines = set(out.text.splitlines())
        want = {f"ok   {name}: {n} cases" for name, n in zip(VERIFY_CHECKS, VERIFY_CASES[bound])}
        if out.rc != 0 or not want <= lines or "all checks passed" not in lines:
            return f"verify {' '.join(item.argv)} exited {out.rc} without the expected checks"
        return None


# -- symmetric-large -----------------------------------------------------------

FamilyInput = namedtuple("FamilyInput", "gens parity bound")

#: (parity, nominal --max-frobenius) per op of a pass; each bound is jittered
#: by up to 2 % from the seed.  An op's cost grows with its bound and, at
#: equal bound, by up to 1.8x with the base (<4,5,6,7> against <3,5>), so all
#: bases have multiplicity 3, and the odd families come from the symmetric
#: ones, whose odd families are the smallest: the two odd slots stay the
#: cheapest.  With seven slots of distinct cost the median and the 75th
#: percentile fall inside the runs of one symmetric slot, not on a boundary.
#: A pass takes about 2.5 s, so a 40 s run holds some 100 ops: a 75th
#: percentile with ten samples beyond it survives a host twice as slow.
SLOTS = (("odd", 200), ("odd", 300), ("symmetric", 600), ("symmetric", 720),
         ("symmetric", 850), ("symmetric", 980), ("symmetric", 1100))
TINY_SLOTS = (("symmetric", 60), ("odd", 40))


class SymmetricLarge:
    name = "symmetric-large"
    tail_cap = 75.0

    def build(self, lib, rng, tiny):
        classify = lib.semigroup.classify
        items = []
        for parity, bound in (TINY_SLOTS if tiny else SLOTS):
            odd = parity == "odd"

            def accept(s, odd=odd):
                return 3 <= s.frobenius <= 8 and (not odd or classify(s).symmetric)

            gens = _random_gens(lib, rng, accept, 3, 4)
            items.append(FamilyInput(gens, parity, round(bound * rng.uniform(0.98, 1.02))))
        rng.shuffle(items)
        return items

    def run(self, lib, item):
        return run_cli(lib, ["enumerate-doubles", "--gens", ",".join(map(str, item.gens)),
                             "--parity", item.parity, "--max-frobenius", str(item.bound),
                             "--json"])

    def digest(self, out):
        return _sha(f"{out.rc}\n{out.text}")

    def check(self, lib, item, out, rng):
        what = f"{item.parity} family of {item.gens} up to {item.bound}"
        if out.rc != 0:
            return f"{what}: exit code {out.rc}"
        data = json.loads(out.text)
        ns, ideals, dup = lib.semigroup.NumericalSemigroup, lib.ideals, lib.duplication
        s = ns.from_generators(item.gens)
        base = {"small": list(s.small_elements), "conductor": s.conductor}
        kind = KIND_SYMMETRIC if item.parity == "symmetric" else KIND_ODD
        members = data["members"]
        if data["base"] != base or data["exhaustive"] or not members:
            return f"{what}: wrong base, exhaustive flag or no members"
        prev = None
        for m in members:
            t = ns(tuple(m["t"]["small"]), m["t"]["conductor"])
            key = (t.conductor, t.small_elements)
            if prev is not None and key <= prev:
                return f"{what}: members not distinct and sorted"
            prev = key
            e = m["spec"]["e"]
            if m["class"] != kind or t.frobenius > item.bound or m["spec"]["s"] != base \
                    or e["ambient"] != base:
                return f"{what}: member {t} has the wrong class, bound or base"
            spec = dup.DuplicationSpec(
                s, ideals.RelativeIdeal(s, tuple(e["elements"]), e["conductor"]), m["spec"]["b"])
            if dup.half(t) != s or dup.duplicate(spec) != t:
                return f"{what}: member {t} fails half/duplicate"
        # the oracle is quadratic in the conductor: the two smallest doubles
        # plus one drawn from the seed
        for m in members[:2] + [rng.choice(members)]:
            t = ns(tuple(m["t"]["small"]), m["t"]["conductor"])
            ref = lib.oracle.brute_classify(t)
            if ref.type != m["type"] or not _kind_holds(kind, ref):
                return f"{what}: member {t} disagrees with the oracle"
        return None


WORKLOADS = {w.name: w for w in (EnumMidgenus(), VerifyDefault(), SymmetricLarge())}
