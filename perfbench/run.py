#!/usr/bin/env python3
"""cosetgeom benchmark: census workloads in one closed-loop process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller in one thread runs passes of
the workload back to back (a closed loop with a single client).  The
number of passes is fixed by S and the workload's nominal pass time
(see pass_count), not by how fast the passes turn out.  The package is
imported from ``src/`` of the checkout, never from an installed copy.

Times are reported at a reference speed (see scaled): the speed of the
machine is read with a fixed loop of pure-Python work around every pass
and after every set-up, and the time is scaled to a machine on which
that loop takes REFERENCE_S.  The raw times are in the "#" line.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` passes alternate
untraced and traced, and the metrics are the per-layer ones from the
traced passes.  Earlier lines print each metric by name and unit, and
the machine the run was made on.  Every operation's output is checked
against ``golden.json``; a wrong output, an exception or an exceeded
budget is a failed operation.

The workloads, the layer -> metric -> workload map and the walls left
out are described in ``layers.json`` next to this file.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

#: fresh interpreters that repeat the set-up, besides the run's own one
SETUP_PROBES = 4
#: no pass runs past this many seconds from the start of the run
DEADLINE_S = 170.0
#: seconds of one reference() call on the machine that times are scaled to
REFERENCE_S = 0.010
#: reference() calls whose median is one reading of the machine's speed
REFERENCE_REPEATS = 15

PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
         "t = run.timed_setup(sys.argv[2], int(sys.argv[3]))[0]; "
         "print(t, run.reference_s())")


def reference():
    """Fixed pure-Python work that uses no cosetgeom code: composing a
    permutation held as a tuple, and storing into a dict."""
    p = tuple((i * 7 + 3) % 997 for i in range(997))
    q, seen = p, {}
    for k in range(300):
        q = tuple(p[i] for i in q)
        seen[q[:8]] = k
    return len(seen)


def reference_s():
    """Median seconds of one reference() call, with the collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(seconds, ref):
    """`seconds` measured while reference() took `ref`, at reference speed.

    On a shared 2-vCPU VM the same code runs up to 1.8x slower for
    seconds to minutes at a time; reference() slows down with it, so the
    ratio varies far less between runs than the raw time does on search
    and analyze (layers.json has the figures).  No change to cosetgeom
    can move reference().
    """
    return seconds * REFERENCE_S / ref


def timed_setup(name, seed):
    """Import cosetgeom (with sympy) and build the workload's inputs.

    Returns (seconds, workload).  This is what every CLI run pays before
    it computes anything.
    """
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "cosetgeom", "__init__.py")):
        raise SystemExit("perfbench: no cosetgeom package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    import cosetgeom
    if not os.path.abspath(cosetgeom.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: cosetgeom imported from %s"
                         % cosetgeom.__file__)
    with open(GOLDEN) as fh:
        golden = json.load(fh)[name]
    wl = workloads.make(name, seed, golden)
    return time.perf_counter() - t0, wl


def probe_setup(name, seed):
    """(set-up seconds, reference seconds) read in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, HERE, name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=20, check=True)
    seconds, ref = proc.stdout.split()[-2:]
    return float(seconds), float(ref)


#: ref is the mean reference_s() read just before and just after the pass
Pass = collections.namedtuple("Pass", "wall ref traced ops")


def _on_alarm(signum, frame):
    import workloads
    raise workloads.PassTimeout()


def pass_count(wl, seconds, tracer=None):
    """Passes in a run: as many nominal passes as fit in `seconds`.

    The count depends only on the workload and `seconds`, so every run
    of a workload takes its median pass from the same number of passes.
    A traced run has at least two, one untraced and one traced.
    """
    count = max(1, int(seconds // wl.nominal_pass_s))
    return max(count, 2) if tracer is not None else count


def measure(wl, seconds, deadline, tracer=None):
    """Closed loop: pass_count() passes back to back.

    With a tracer, passes alternate untraced and traced.  No pass starts
    unless a pass of the median length so far ends before `deadline`.
    A pass longer than the workload's wall guard, or than the deadline
    allows, is cut and counts as a failed op; no pass runs after it.
    """
    import workloads
    passes = []
    count = pass_count(wl, seconds, tracer)
    before = reference_s()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        while len(passes) < count:
            if passes and (time.perf_counter()
                           + statistics.median(p.wall for p in passes)
                           > deadline):
                break
            traced = tracer is not None and len(passes) % 2 == 1
            workloads.fresh_pass()
            guard = min(wl.pass_guard, deadline - time.perf_counter())
            ops = []
            timed_out = False
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, max(guard, 1e-3))
            try:
                if traced:
                    with tracer:
                        close = tracer.span("pass")
                        try:
                            wl.run_pass(ops)
                        finally:
                            close()
                else:
                    wl.run_pass(ops)
            except workloads.PassTimeout:
                ops.append(("timeout", time.perf_counter() - t0, False))
                timed_out = True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            after = reference_s()
            passes.append(Pass(wall, (before + after) / 2, traced, ops))
            before = after
            if timed_out:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    return passes


def end_to_end(passes, setups):
    """The --trace 0 metrics.

    wall_s is the median pass of the run and setup_s the median set-up,
    each at reference speed; `setups` holds (seconds, reference seconds)
    pairs.
    """
    ops = [ok for p in passes for _, _, ok in p.ops]
    return {
        "wall_s": (statistics.median(scaled(p.wall, p.ref) for p in passes),
                   "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(scaled(*s) for s in setups), "s"),
        "success_rate": (sum(ops) / len(ops), "ratio"),
    }


def trace_metrics(tracer, passes):
    """The --trace 1 metrics, from the traced passes of a run.

    A run cut before its first traced pass reports zeroed layers; its
    cut pass is already a failed operation.
    """
    import spans
    traced = [p for p in passes if p.traced]
    untraced = [p.wall for p in passes if not p.traced]
    return spans.layer_metrics(tracer, len(traced), statistics.mean(untraced))


def machine():
    import sympy
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    setup_s, wl = timed_setup(args.workload, args.seed)
    setups = [(setup_s, reference_s())] + [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    passes = measure(wl, args.seconds, deadline, tracer)

    if tracer is None:
        metrics = end_to_end(passes, setups)
    else:
        metrics = trace_metrics(tracer, passes)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for _, _, ok in p.ops if not ok)
    info = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                passes=len(passes),
                pass_walls_s=[round(p.wall, 4) for p in passes],
                pass_refs_ms=[round(p.ref * 1e3, 3) for p in passes],
                setups_s=[round(t, 4) for t, _ in setups],
                setup_refs_ms=[round(r * 1e3, 3) for _, r in setups],
                **machine())
    print("# " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
