"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names; the self-checks hold the two equal.
For each per-layer metric, ``moves`` records which end-to-end metric on
which workload a change to that layer should move.
"""

from __future__ import annotations

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_ENUM = "op_p50_ms, op_tail_ms on enum-midgenus"
_IDEALS = "op_p50_ms on enum-midgenus and verify-default; about 0 on symmetric-large"
_SEMIGROUP = "op_p50_ms, peak_rss_mb on symmetric-large; op_p50_ms on verify-default"
_ORACLE = "op_p50_ms on verify-default only"
_OUTPUT = "op_p50_ms, peak_rss_mb on symmetric-large"
_CACHE = "peak_rss_mb and the cache hit ratios (bounding a cache shows here)"


def _calls_self(prefix, moves):
    return [(f"{prefix}.calls", "calls/op", "lower", moves),
            (f"{prefix}.self_s", "s/op", "lower", moves)]


#: (name, unit, better, moves).  Counts and times are means per traced op.
PER_LAYER = (
    *_calls_self("doubles.ideals_with_frobenius",
                 _ENUM + "; no change on symmetric-large"),
    ("doubles.ideals_with_frobenius.ideals_out", "ideals/op", "lower", _ENUM),
    ("doubles.ideals_with_frobenius.cache_hit_ratio", "ratio", "higher", _ENUM),
    ("doubles.ideals_with_frobenius.subsets_computed", "subsets/op", "lower",
     _ENUM + "; computed from the inputs as the sum of 2^(gaps below f(E)) per cache miss"),
    *[m for kind in ("even", "odd", "symmetric")
      for m in (*_calls_self(f"doubles.{kind}_check", _ENUM),
                (f"doubles.{kind}_check.accept_ratio", "ratio", "higher", _ENUM))],
    ("doubles.enumerate.self_s", "s/op", "lower", _ENUM),
    *[m for op in ("sub", "add", "le", "reflection_dual", "relative_ideal")
      for m in _calls_self(f"ideals.{op}", _IDEALS)],
    ("ideals.canonical_ideal.cache_hit_ratio", "ratio", "higher", _IDEALS),
    *_calls_self("duplication.sum_violation", _ENUM),
    ("duplication.sum_violation.pass_ratio", "ratio", "higher", _ENUM),
    *_calls_self("duplication.duplicate", _OUTPUT),
    *_calls_self("duplication.half", "op_p50_ms on verify-default"),
    *_calls_self("duplication.decompose", "op_p50_ms on verify-default"),
    *[m for ctor in ("from_generators", "from_small_elements", "classify")
      for m in _calls_self(f"semigroup.{ctor}", _SEMIGROUP)],
    ("semigroup.classify.cache_hit_ratio", "ratio", "higher", _SEMIGROUP),
    *[m for fn in ("enum_semigroups_with_frobenius", "brute_doubles", "brute_classify")
      for m in _calls_self(f"oracle.{fn}", _ORACLE)],
    ("jsonio.encode.self_s", "s/op", "lower", _OUTPUT),
    ("cli.self_s", "s/op", "lower", _OUTPUT),
    ("cli.output_bytes", "B/op", "lower", _OUTPUT),
    *[m for cache in ("classify", "maximal_ideal", "canonical_ideal", "unit_ideal",
                      "ideals_with_frobenius", "_base_context")
      for m in ((f"cache.{cache}.hits", "hits/op", "higher", _CACHE),
                (f"cache.{cache}.misses", "misses/op", "lower", _CACHE))],
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: traced op time over untraced op time of the same ops"),
)

_RATIO_COUNTERS = {"accept_ratio": "accepted", "pass_ratio": "passed"}


def layer_values(totals: dict, counters, cache_stats: dict, n_ops: int,
                 overhead: float) -> dict:
    """Every PER_LAYER metric from the traced run's totals, by name.

    A ratio with no attempts behind it reads 0.
    """
    out = {}
    for name, _, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        calls, self_s = totals.get(head, (0, 0.0))
        if name == "trace.overhead_ratio":
            value = overhead
        elif head.startswith("cache."):
            value = cache_stats.get(head[len("cache."):], {}).get(tail, 0) / n_ops
        elif tail == "calls":
            value = calls / n_ops
        elif tail == "self_s":
            value = self_s / n_ops
        elif tail in _RATIO_COUNTERS:
            value = counters[f"{head}.{_RATIO_COUNTERS[tail]}"] / calls if calls else 0.0
        elif tail == "cache_hit_ratio":
            st = cache_stats.get(head.rpartition(".")[2], {})
            seen = st.get("hits", 0) + st.get("misses", 0)
            value = st.get("hits", 0) / seen if seen else 0.0
        else:
            value = counters[name] / n_ops
        out[name] = value
    return out
