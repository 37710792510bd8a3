"""Self-checks of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selfcheck.py

Covers the span, percentile and host-speed scaling arithmetic on synthetic
data, the agreement of BENCHMARK.json with the metrics the harness emits, a
tiny-size smoke run of every workload with tracing off and on, and the
refusal to run in a directory without the library.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from metrics import END_TO_END, PER_LAYER
from stats import Span, aggregate, percentile, scaled, self_times, tail_percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def check_self_times():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("c", 5.5, 7.0, 0, 0),       # overlaps b: the union 5.0-7.0 counts once
        Span("late", 9.5, 11.0, 0, 0),   # runs past its parent: clipped to 9.5-10.0
    ]
    want = [10.0 - 3.0 - 2.0 - 0.5, 2.0, 1.0, 1.0, 1.5, 1.5]
    got = self_times(spans)
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got
    totals = aggregate(spans + [Span("a", 20.0, 20.5, None, 1)], {})
    assert totals["a"][0] == 2 and math.isclose(totals["a"][1], 2.5), totals
    assert math.isclose(sum(row[1] for row in totals.values()), 10.0 + 0.5 + 1.5)


def check_percentiles():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50.5
    assert math.isclose(percentile(xs, 75), 75.25)
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    # the highest ladder step with at least ten samples beyond it, capped
    assert tail_percentile(39, 99.9) == 50.0
    assert tail_percentile(40, 99.9) == 75.0
    assert tail_percentile(100, 99.9) == 90.0
    assert tail_percentile(200, 99.9) == 95.0
    assert tail_percentile(10_000, 99.9) == 99.9
    assert tail_percentile(10_000, 90.0) == 90.0
    assert tail_percentile(5, 75.0) == 50.0   # too few: falls back to the median


def check_scaling():
    # a host at half speed doubles work and kernel times alike: scaling undoes it
    assert scaled([0.4], [[0.002], [0.002, 0.002]], 0.001) == [0.2]
    # the two sides of a duration count alike, whatever their sizes
    got = scaled([2.0, 4.0, None, 6.0], [[1.0], [1.0, 3.0], [3.0], [9.0], [1.0]], 1.0)
    assert got == [2.0 / 1.5, 4.0 / 2.5, 6.0 / 5.0], got
    try:
        scaled([1.0, 1.0], [[1.0], [1.0]], 1.0)
    except ValueError:
        pass
    else:
        raise AssertionError("scaled took one group of kernel times too few")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in PER_LAYER]


#: A per-layer metric that must be nonzero in each workload's tiny traced run.
EXPECT_NONZERO = {
    "enum-midgenus": ("doubles.ideals_with_frobenius.subsets_computed",
                      "doubles.even_check.calls", "duplication.sum_violation.calls",
                      "ideals.sub.calls", "doubles.enumerate.self_s"),
    "verify-default": ("oracle.brute_classify.calls", "oracle.brute_doubles.calls",
                       "duplication.decompose.calls", "ideals.reflection_dual.calls",
                       "cli.self_s"),
    "symmetric-large": ("duplication.duplicate.calls", "jsonio.encode.self_s",
                        "cli.output_bytes", "semigroup.classify.calls"),
}


def check_smoke():
    names = {False: [m[0] for m in END_TO_END], True: [m[0] for m in PER_LAYER]}
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines = run.run_workload(workload, seed=3, seconds=0.3, trace=trace,
                                             tiny=True)
            where = f"{workload} trace={int(trace)}"
            assert result is not None, f"{where}: no result\n" + "\n".join(lines)
            assert result["correct"] and result["failed"] == 0, \
                f"{where}: failed\n" + "\n".join(lines)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert list(metrics) == names[trace], f"{where}: {sorted(metrics)}"
            assert all(math.isfinite(m["value"]) for m in metrics.values()), where
            if trace:
                for name in EXPECT_NONZERO[workload]:
                    assert metrics[name]["value"] > 0, f"{where}: {name} is 0"
                assert metrics["trace.overhead_ratio"]["value"] > 0
            else:
                assert all(m["value"] > 0 for m in metrics.values()), f"{where}: {metrics}"
    # tracing leaves the library as it found it
    lib = run.load_library()
    assert hasattr(lib.doubles.classify, "cache_info")
    assert lib.doubles.classify is lib.semigroup.classify


def check_refuses_without_library():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selfcheck-", dir=ROOT) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for f in (ROOT / "perfbench").glob("*.py"):
            (bare / "perfbench" / f.name).write_text(f.read_text())
        (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


CHECKS = (check_self_times, check_percentiles, check_scaling, check_benchmark_json,
          check_smoke, check_refuses_without_library)


def main() -> int:
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
