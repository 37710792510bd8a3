"""sgdouble benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` tree.  The run is single-process and single-threaded, a closed loop
of one client: each op starts when the previous one has ended, with the
library's caches cleared first (the cold state a CLI user pays for).

``--trace 0`` measures the end-to-end metrics.  The host's speed drifts
while it runs other tenants' work, so a reference kernel is timed after
each op and set-up, and every time is reported scaled to the speed at which
that kernel takes ``reference.REFERENCE_MS`` (see ``reference.py``); the
report also shows the times as measured.  ``--trace 1`` runs every op
twice, untraced and then traced, and reports the per-layer metrics plus the
tracing overhead, from unscaled times.  Every metric is printed by name with
its unit, then one JSON line ends the output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from metrics import END_TO_END, PER_LAYER, layer_values
from reference import REFERENCE_MS, Gauge
from stats import MIN_BEYOND, percentile, samples_beyond, tail_percentile
from tracing import Tracer, library_caches
from workloads import WORKLOADS, CliOutput

SRC = Path(__file__).resolve().parent.parent / "src"
LIB_MODULES = ("semigroup", "ideals", "duplication", "doubles", "oracle", "jsonio", "cli")
#: Set-ups per run; setup_s is their median.
SETUPS = 11


class Unavailable(Exception):
    """The checkout has no importable library."""


def load_library() -> SimpleNamespace:
    """Import sgdouble afresh from the checkout's src tree."""
    if not (SRC / "sgdouble" / "__init__.py").is_file():
        raise Unavailable(f"no sgdouble package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sgdouble" or n.startswith("sgdouble.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sgdouble")
    if Path(pkg.__file__).resolve().parent != SRC / "sgdouble":
        raise Unavailable(f"sgdouble was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"sgdouble.{m}") for m in LIB_MODULES})


def set_up(workload, seed: int, tiny: bool):
    """Import the library and build the workload's inputs from the seed."""
    t0 = perf_counter()
    lib = load_library()
    items = workload.build(lib, random.Random(seed), tiny)
    return perf_counter() - t0, lib, items


class Loop:
    """Runs ops, checks their outputs, and keeps what the metrics need."""

    def __init__(self, workload, lib, items, seed):
        self.workload, self.lib, self.items = workload, lib, items
        self.caches = library_caches(lib)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.digests: dict[int, str | None] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.cache_stats: dict = {}   # cache name -> hits, misses over traced ops

    def op(self, index: int, tracer: Tracer | None = None):
        """One op on items[index]: its duration, or None if it raised.

        An op whose output fails its check still returns its duration; the
        failure is counted in ``failed`` and makes the run incorrect.
        """
        item = self.items[index]
        for fn in self.caches.values():
            fn.cache_clear()
        gc.collect()
        self.attempted += 1
        undo = tracer.install(self.lib) if tracer else None
        try:
            t0 = perf_counter()
            out = self.workload.run(self.lib, item)
            elapsed = perf_counter() - t0
        except Exception:
            self._fail(f"{item}: raised\n{traceback.format_exc()}")
            return None
        finally:
            if tracer:
                Tracer.uninstall(undo)
                tracer.end_op()
        if tracer:
            for name, fn in self.caches.items():
                info = fn.cache_info()
                row = self.cache_stats.setdefault(name, {"hits": 0, "misses": 0})
                row["hits"] += info.hits
                row["misses"] += info.misses
            if isinstance(out, CliOutput):
                tracer.counters["cli.output_bytes"] += len(out.text.encode())
        problem = self._check(index, item, out)
        if problem:
            self._fail(problem)
        return elapsed

    def _check(self, index, item, out):
        digest = self.workload.digest(out)
        if index in self.digests:
            if digest != self.digests[index]:
                return f"{item}: output differs from its first run"
            return None
        try:
            problem = self.workload.check(self.lib, item, out, self.check_rng)
        except Exception:
            problem = f"{item}: output check raised\n{traceback.format_exc()}"
        self.digests[index] = None if problem else digest
        return problem

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def measure(loop: Loop, seconds: float, gauge: Gauge | None):
    """Whole passes over the inputs until about ``seconds`` have gone by.

    A pass's time includes its output checks.  Stops before a pass that would
    end further past the target than the current total falls short of it,
    but always completes the first pass so that every input is checked.
    With a gauge the ops run untraced and the gauge samples the host after
    each; without one every op runs untraced and then traced.  Returns
    (untraced durations, traced durations, tracer); with trace, both lists
    pair up op by op.
    """
    trace = gauge is None
    plain, traced = [], []
    tracer = Tracer() if trace else None
    spent = 0.0
    while True:
        t_pass = perf_counter()
        for i in range(len(loop.items)):
            dt = loop.op(i)
            if gauge:
                gauge.after(dt)
            if trace and dt is not None:
                dt_traced = loop.op(i, tracer)
                if dt_traced is not None:
                    plain.append(dt)
                    traced.append(dt_traced)
            elif dt is not None:
                plain.append(dt)
        pass_time = perf_counter() - t_pass
        spent += pass_time
        if spent + pass_time / 2 >= seconds:
            return plain, traced, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run: returns (result dict as printed in JSON, report lines)."""
    workload = WORKLOADS[name]
    setup_gauge = None if trace else Gauge()
    setup_times = []
    for _ in range(SETUPS):
        dt, lib, items = set_up(workload, seed, tiny)
        setup_times.append(dt)
        if setup_gauge:
            setup_gauge.after(dt)
    loop = Loop(workload, lib, items, seed)
    gauge = None if trace else Gauge()
    plain, traced, tracer = measure(loop, seconds, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"inputs per pass {len(items)}  ops {loop.attempted}  failed {loop.failed}"]
    lines += [f"  problem: {p}" for p in loop.problems]
    if not plain:
        return None, lines

    n = len(plain)
    if trace:
        overhead = sum(traced) / sum(plain)
        values = layer_values(tracer.totals, tracer.counters, loop.cache_stats,
                              len(traced), overhead)
        units = {m[0]: m[1] for m in PER_LAYER}
        lines += [f"  not traced (missing in the library): {w}" for w in tracer.missing]
        for metric, unit, _, moves in PER_LAYER:
            lines.append(f"{metric:<52} {values[metric]:>14.6g} {unit:<11} moves {moves}")
        lines.append(f"(per-layer values are means over {len(traced)} traced ops)")
    else:
        times = gauge.scaled()
        tail_p = tail_percentile(n, workload.tail_cap)
        beyond = samples_beyond(n, tail_p)
        values = {
            "setup_s": statistics.median(setup_gauge.scaled()),
            "ops_per_s": n / sum(times),
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_tail_ms": percentile(times, tail_p) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        measured = {
            "setup_s": f"{statistics.median(setup_times):.4g}",
            "ops_per_s": f"{n / sum(plain):.4g}",
            "op_p50_ms": f"{percentile(plain, 50) * 1e3:.4g}",
            "op_tail_ms": f"{percentile(plain, tail_p) * 1e3:.4g}",
        }
        units = {m[0]: m[1] for m in END_TO_END}
        notes = {
            "setup_s": f"median of {SETUPS} set-ups (fresh import + inputs from the seed)",
            "ops_per_s": f"{n} ops over {sum(times):.3f} s of op time",
            "op_p50_ms": f"p50 of n={n}",
            "op_tail_ms": f"p{tail_p:g} of n={n}, {beyond:.1f} samples beyond"
                          + ("" if beyond >= MIN_BEYOND else " (too few ops for a tail)"),
            "peak_rss_mb": "max resident set of this process, after the timed loop",
        }
        lines.append(f"times scaled to the host speed at which the reference kernel takes "
                     f"{REFERENCE_MS} ms; around the ops it took a mean "
                     f"{gauge.kernel_mean() * 1e3:.4g} ms")
        for metric, unit, _ in END_TO_END:
            seen = f" (as measured: {measured[metric]})" if metric in measured else ""
            lines.append(f"{metric:<14} {values[metric]:>14.6g} {unit:<6} {notes[metric]}{seen}")
        lines.append(f"{'error_rate':<14} {loop.failed / loop.attempted:>14.6g} {'ratio':<6} "
                     f"{loop.failed} failed of {loop.attempted} attempted (JSON: failed/attempted)")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if result is None:
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
