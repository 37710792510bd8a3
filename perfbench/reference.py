"""A fixed pure-Python kernel that gauges how fast the host runs right now.

On a shared host the same work takes up to 1.7 times as long while other
tenants load the machine, in spells of seconds to minutes, and such a spell
slows the library and this kernel alike.  The harness runs the kernel after each
op for a fixed share of the op's time, and scales each op's time by
REFERENCE_MS over the kernel's time around that op (``stats.scaled``), so
that ops run in slow and fast spells, and runs made at different moments,
compare.  The kernel uses nothing from sgdouble: a change to the library
cannot move it.
"""

from __future__ import annotations

import gc
from statistics import fmean
from time import perf_counter

from stats import scaled

#: The kernel's time on an unloaded host (Intel Xeon, 2.1 GHz, CPython 3.11).
REFERENCE_MS = 2.0
#: Kernel time spent after each op or set-up, as a share of its time.
DUTY = 0.05

_GENERATORS = ((7, 9, 11), (5, 8, 13), (6, 10, 11, 15), (9, 10, 14, 15))
_LIMIT = 700


def kernel() -> int:
    """Sieve a few semigroups and do the set, tuple and dict work the library does."""
    acc = 0
    for gens in _GENERATORS:
        members = [False] * _LIMIT
        members[0] = True
        for x in range(1, _LIMIT):
            members[x] = any(x >= g and members[x - g] for g in gens)
        s = frozenset(i for i in range(_LIMIT) if members[i])
        gaps = tuple(i for i in range(_LIMIT) if i not in s)
        pairs = {(a, b) for a in gaps for b in gaps if (a + b) in s}
        acc += len(pairs) + len(sorted(s, reverse=True))
        acc += sum({g: g * g % 17 for g in gaps}.values())
    return acc


def _kernel_times(budget: float) -> list[float]:
    """Times of kernel runs until they add up to ``budget`` seconds; at least one."""
    gc.collect()
    times = []
    while not times or sum(times) < budget:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


class Gauge:
    """Durations of a sequence of work, each with the kernel times around it."""

    def __init__(self):
        self.durations: list[float | None] = []
        self.groups = [_kernel_times(0.0)]   # before the first piece of work

    def after(self, duration: float | None) -> None:
        """Record work that took ``duration`` (None: it failed), then sample the host."""
        self.durations.append(duration)
        self.groups.append(_kernel_times(DUTY * (duration or 0.0)))

    def scaled(self) -> list[float]:
        """The durations of work that did not fail, scaled to the reference speed."""
        return scaled(self.durations, self.groups, REFERENCE_MS / 1e3)

    def kernel_mean(self) -> float:
        return fmean(t for g in self.groups for t in g)
