"""Span tracing of the library's public entry points, from outside the library.

A traced op patches each entry point listed in TARGETS with a wrapper that
records a span (name, start, end, parent, op id), in every sgdouble module
that holds a reference to it, and restores the originals afterwards.  Spans
are kept in memory for one op and folded into per-name totals when it ends.
Counters are recorded by the same wrappers, at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from stats import Span, aggregate

#: Library caches cleared before every op, by (module, function).
CACHES = (
    ("semigroup", "classify"),
    ("ideals", "maximal_ideal"),
    ("ideals", "canonical_ideal"),
    ("ideals", "unit_ideal"),
    ("doubles", "ideals_with_frobenius"),
    ("doubles", "_base_context"),
)


def library_caches(lib) -> dict:
    """The cached functions of CACHES that exist in ``lib``, by function name."""
    out = {}
    for mod, name in CACHES:
        fn = getattr(getattr(lib, mod), name, None)
        if fn is not None and hasattr(fn, "cache_clear"):
            out[name] = fn
    return out


def _count_true(key):
    def hook(tracer, args, result, missed):
        if result:
            tracer.counters[key] += 1
    return hook


def _count_none(key):
    def hook(tracer, args, result, missed):
        if result is None:
            tracer.counters[key] += 1
    return hook


def _ideals_hook(tracer, args, result, missed):
    tracer.counters["doubles.ideals_with_frobenius.ideals_out"] += len(result)
    if missed is False:
        return  # answered from the cache: no subset was walked
    s, fe = args[0], args[1]
    if fe >= 1 and fe not in s:
        # computed from the inputs, not counted inside the library: the
        # subset search walks every selection of the gaps below fe
        tracer.counters["doubles.ideals_with_frobenius.subsets_computed"] += (
            2 ** sum(1 for g in s.gaps if g < fe))


#: (module, attribute, span name, counter hook).  An attribute "Cls.meth"
#: names a method or classmethod; a missing target is reported, not fatal.
TARGETS = (
    ("semigroup", "NumericalSemigroup.from_generators", "semigroup.from_generators", None),
    ("semigroup", "NumericalSemigroup.from_small_elements", "semigroup.from_small_elements", None),
    ("semigroup", "classify", "semigroup.classify", None),
    ("ideals", "RelativeIdeal.__sub__", "ideals.sub", None),
    ("ideals", "RelativeIdeal.__add__", "ideals.add", None),
    ("ideals", "RelativeIdeal.__le__", "ideals.le", None),
    ("ideals", "RelativeIdeal.reflection_dual", "ideals.reflection_dual", None),
    ("ideals", "relative_ideal", "ideals.relative_ideal", None),
    ("ideals", "canonical_ideal", "ideals.canonical_ideal", None),
    ("duplication", "sum_violation", "duplication.sum_violation",
     _count_none("duplication.sum_violation.passed")),
    ("duplication", "duplicate", "duplication.duplicate", None),
    ("duplication", "half", "duplication.half", None),
    ("duplication", "decompose", "duplication.decompose", None),
    ("doubles", "ideals_with_frobenius", "doubles.ideals_with_frobenius", _ideals_hook),
    ("doubles", "even_double_check", "doubles.even_check", _count_true("doubles.even_check.accepted")),
    ("doubles", "odd_double_check", "doubles.odd_check", _count_true("doubles.odd_check.accepted")),
    ("doubles", "symmetric_double_check", "doubles.symmetric_check",
     _count_true("doubles.symmetric_check.accepted")),
    ("doubles", "enumerate_even_doubles", "doubles.enumerate", None),
    ("doubles", "enumerate_odd_doubles", "doubles.enumerate", None),
    ("doubles", "enumerate_symmetric_doubles", "doubles.enumerate", None),
    ("oracle", "enum_semigroups_with_frobenius", "oracle.enum_semigroups_with_frobenius", None),
    ("oracle", "brute_doubles", "oracle.brute_doubles", None),
    ("oracle", "brute_classify", "oracle.brute_classify", None),
    ("jsonio", "family_to_dict", "jsonio.encode", None),
    ("cli", "main", "cli", None),
)


class Tracer:
    """Spans of the op in progress, per-name totals, and counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.totals: dict = {}        # name -> [calls, self_s]
        self.counters: Counter = Counter()
        self.missing: list[str] = []

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.op])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        aggregate([Span(*s) for s in self.spans], self.totals)
        self.spans.clear()
        self.op += 1

    def _wrap(self, name, fn, hook):
        tracer = self
        cached = hook is not None and hasattr(fn, "cache_info")

        def traced(*args, **kwargs):
            misses = fn.cache_info().misses if cached else None
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                missed = fn.cache_info().misses > misses if cached else None
                hook(tracer, args, result, missed)
            return result

        return traced

    def install(self, lib) -> list:
        """Patch every target; returns the (owner, attribute, original) undo list."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sgdouble" or n.startswith("sgdouble.")]
        for mod_name, attr, span, hook in TARGETS:
            owner = getattr(lib, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                mro = getattr(cls, "__mro__", (object,))[:-1]  # never patch object
                home = next((k for k in mro if meth in vars(k)), None)
                if home is None:
                    self._note_missing(attr)
                    continue
                original = vars(home)[meth]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(span, original.__func__, hook))
                else:
                    patched = self._wrap(span, original, hook)
                # aliases such as __radd__ = __add__ share the original object
                for key, value in list(vars(home).items()):
                    if value is original:
                        undo.append((home, key, original))
                        setattr(home, key, patched)
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    self._note_missing(f"{mod_name}.{attr}")
                    continue
                patched = self._wrap(span, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, patched)
        # the CLI serializes through the json module it imported
        undo.append((json, "dumps", json.dumps))
        json.dumps = self._wrap("jsonio.encode", json.dumps, None)
        return undo

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
