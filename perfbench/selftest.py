#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  Each workload has a
"-tiny" variant on the same code path (k4 <= 6, the k1@21 replay, one
k1@21 report, the A5 action on 5 points).  The test checks that:

- the result line has the contract's keys, and its metric names and
  units are those of BENCHMARK.json (end_to_end with --trace 0,
  per_layer with --trace 1), with no failed operation;
- with one golden value changed, the passes report failed operations
  (error_rate > 0) and success_rate < 1;
- an exceeded node budget, coset cap or pass wall guard is a failed
  operation, not a crash or a hang, also in a traced run cut before its
  first traced pass;
- the tracer sees calls the library makes through its own modules, and
  restores every binding afterwards;
- without src/ beside it, run.py exits non-zero and prints no result.

Exits 1 at the first check that fails.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TINY = ("search-tiny", "tits-tiny", "analyze-tiny", "j2-tiny")

sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok, what):
    if not ok:
        print("FAIL", what)
        sys.exit(1)
    print("ok  ", what)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spoil(value):
    """The same golden value with one leaf changed."""
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: spoil(value[key])}
    if isinstance(value, list):
        return [spoil(value[0])] + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return "0" * len(value)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for name in TINY:
        for trace in (0, 1):
            proc = bench(name, trace)
            check(proc.returncode == 0, "%s --trace %d exits 0" % (name, trace))
            res = result_of(proc)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d result keys" % (name, trace))
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            check(units == expect[trace],
                  "%s --trace %d metric names and units" % (name, trace))
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  "%s --trace %d: %d ops, none failed"
                  % (name, trace, res["attempted"]))

    for name in TINY:
        wl = workloads.make(name, 7, spoil(golden[name]))
        passes = run.measure(wl, 1, time.perf_counter() + 60)
        ops = [ok for p in passes for _, _, ok in p.ops]
        error_rate = 1 - sum(ops) / len(ops)
        check(error_rate > 0
              and run.end_to_end(passes, [(1.0, 1.0)])["success_rate"][0] < 1,
              "%s with a wrong golden value: error_rate %.3f"
              % (name, error_rate))

    ops = []
    workloads.make("search-tiny", 1, golden["search-tiny"],
                   node_budget=1).run_pass(ops)
    check(ops and not any(ok for _, _, ok in ops), "node budget -> failed op")
    ops = []
    workloads.make("tits-tiny", 1, golden["tits-tiny"],
                   max_cosets=5).run_pass(ops)
    check(ops and not any(ok for _, _, ok in ops), "coset cap -> failed op")
    wl = workloads.make("analyze-tiny", 1, golden["analyze-tiny"])
    wl.pass_guard = 1e-3
    t0 = time.perf_counter()
    passes = run.measure(wl, 5, time.perf_counter() + 60)
    check(len(passes) == 1 and passes[0].ops[-1][0] == "timeout"
          and not passes[0].ops[-1][2] and time.perf_counter() - t0 < 5,
          "pass wall guard -> failed op, loop stops")
    tracer = spans.Tracer()
    passes = run.measure(wl, 5, time.perf_counter() + 60, tracer)
    units = {k: unit for k, (_, unit) in run.trace_metrics(tracer,
                                                           passes).items()}
    check(len(passes) == 1 and not passes[0].traced
          and units == expect[1],
          "traced run cut before a traced pass -> per-layer metrics")

    from cosetgeom import cli, geometry
    geom = geometry.geometry_from_class(
        workloads.group_of(wl.cases[0][1]),
        geometry.pair_classes(workloads.group_of(wl.cases[0][1]))[0].pairs)
    original = geometry.incidence_graph_stats
    with spans.Tracer() as tracer:
        geometry.polygon_check(geom)    # reaches stats via geometry
        cli.incidence_graph_stats(geom)  # cli's own binding
    check(tracer.counts["geometry.stats_calls"] == 2,
          "tracer sees nested and imported-by-name calls")
    check(geometry.incidence_graph_stats is original
          and cli.incidence_graph_stats is original,
          "tracer restores every binding")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("search-tiny", 0, cwd=bare)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "without src/: exit %d, no result" % proc.returncode)
    finally:
        shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
