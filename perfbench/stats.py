"""Percentile and span arithmetic, kept free of I/O so the self-checks can
exercise it on synthetic data."""

from __future__ import annotations

import math
from collections import namedtuple
from statistics import fmean

#: Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: One traced call: ``parent`` is the index of the enclosing span in the same
#: list, or None for a span opened outside any other.
Span = namedtuple("Span", "name start end parent op")


def percentile(values, p: float) -> float:
    """The p-th percentile (0 <= p <= 100), interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def samples_beyond(n: int, p: float) -> float:
    """How many of n samples lie beyond the p-th percentile."""
    return round(n * (100.0 - p) / 100.0, 9)  # 100 - 99.9 is not exact in binary


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile, at most ``cap``, with MIN_BEYOND samples beyond it.

    Falls back to the median when n is too small for any ladder step; the
    caller reports how many samples lie beyond so the reader can tell.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def scaled(durations, groups, reference: float) -> list[float]:
    """Durations rescaled to the host speed at which the reference kernel takes ``reference``.

    ``groups[k]`` holds the kernel times measured just before
    ``durations[k]`` and ``groups[k + 1]`` those just after it.  The host's
    speed during the work is taken as the mean of the two groups' means,
    each side weighted alike however many runs it holds.  A duration of None
    (failed work) is left out.
    """
    if len(groups) != len(durations) + 1:
        raise ValueError("need a group of kernel times before each duration and one after")
    out = []
    for k, d in enumerate(durations):
        if d is not None:
            out.append(d * reference * 2 / (fmean(groups[k]) + fmean(groups[k + 1])))
    return out


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts and never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def aggregate(spans, into: dict) -> dict:
    """Add each span's call and self time to ``into[name] = [calls, self_s]``."""
    for s, own in zip(spans, self_times(spans)):
        row = into.setdefault(s.name, [0, 0.0])
        row[0] += 1
        row[1] += own
    return into
