"""Spans around the library's public functions, for the traced run.

The tracer wraps functions and methods of the cosetgeom modules from
outside the package.  Modules import each other's functions by name
(``cli`` holds its own binding of ``incidence_graph_stats``, while
``polygon_check`` reaches it through ``cosetgeom.geometry``), so a
wrapper is bound into every module that holds the original object, and
every binding is restored on exit.

A span is ``[layer, start, end, parent]``; spans stay in a list in
memory.  A layer's busy time is its self time: a span's duration minus
the part its child spans cover, so nested calls are not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from cosetgeom import (cli, contextuality, dessins, geometry, lowindex, perms,
                       toddcox)


def _count_tables(c, tables):
    c["lowindex.calls"] += 1
    c["lowindex.classes"] += len(tables)


def _count_cosets(c, table):
    c["toddcox.calls"] += 1
    c["toddcox.cosets"] += table.n


def _count_fingerprint(c, fp):
    c["perms.fingerprint_exact" if fp.exact else "perms.fingerprint_sampled"] += 1


def _count_elements(c, elements):
    c["perms.elements_closed"] += len(elements)


def _count_pairs(c, classes):
    c["geometry.classes"] += len(classes)
    c["geometry.pairs"] += sum(len(k.pairs) for k in classes)


def _count_lines(c, geom):
    c["geometry.builds"] += 1
    c["geometry.lines"] += len(geom.lines)


def _count_call(name):
    def count(c, _):
        c[name] += 1
    return count


def _count_verdicts(c, report):
    c["contextuality.lines"] += len(report.per_line)


# (owner, attribute, layer or None for a count-only wrapper, counter)
TARGETS = (
    (lowindex, "low_index_subgroups", "lowindex", _count_tables),
    (toddcox, "todd_coxeter", "toddcox", _count_cosets),
    (perms.PermGroup, "order", "perms.order", None),
    (perms, "fingerprint", "perms.fingerprint", _count_fingerprint),
    (perms.PermGroup, "elements", None, _count_elements),
    (perms.PermGroup, "point_stabilizer", "perms.stabilizer",
     _count_call("perms.stabilizer_calls")),
    (geometry, "pair_classes", "geometry.pair_classes", _count_pairs),
    (geometry, "geometry_from_class", "geometry.build", _count_lines),
    (geometry, "maximal_cliques", "geometry.cliques", None),
    (geometry, "incidence_graph_stats", "geometry.stats",
     _count_call("geometry.stats_calls")),
    (geometry, "polygon_check", "geometry.verdict", None),
    (geometry, "recognize", "geometry.verdict", None),
    (dessins, "dessin_from_table", "dessins", None),
    (dessins, "passport", "dessins", None),
    (dessins, "signature", "dessins", None),
    (dessins, "modular_data", "dessins", None),
    (contextuality, "labeling_from_table", "contextuality", None),
    (contextuality, "contextuality_report", "contextuality",
     _count_verdicts),
    (cli, "analyze_table", "cli.analyze", None),
)

#: busy-time metric of each layer span
BUSY_METRICS = {
    "lowindex": "lowindex.busy_s",
    "toddcox": "toddcox.busy_s",
    "perms.order": "perms.order_busy_s",
    "perms.fingerprint": "perms.fingerprint_busy_s",
    "perms.stabilizer": "perms.stabilizer_busy_s",
    "geometry.pair_classes": "geometry.pair_classes_busy_s",
    "geometry.build": "geometry.build_busy_s",
    "geometry.cliques": "geometry.cliques_busy_s",
    "geometry.stats": "geometry.stats_busy_s",
    "geometry.verdict": "geometry.verdict_busy_s",
    "dessins": "dessins.busy_s",
    "contextuality": "contextuality.busy_s",
    "cli.analyze": "cli.analyze_self_s",
    "pass": "bench.self_s",
}

COUNT_METRICS = (
    "lowindex.calls", "lowindex.classes", "toddcox.calls", "toddcox.cosets",
    "perms.fingerprint_exact", "perms.fingerprint_sampled",
    "perms.elements_closed", "perms.stabilizer_calls", "geometry.pairs",
    "geometry.classes", "geometry.lines", "geometry.stats_calls",
    "contextuality.lines",
)


class Tracer:
    """Records spans and counts while installed; see the module doc."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def span(self, layer):
        """Open a span; call the returned function to close it."""
        parent = self._stack[-1] if self._stack else None
        rec = [layer, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)

        def close():
            rec[2] = time.perf_counter()
            self._stack.pop()
        return close

    def _wrap(self, fn, layer, counter):
        counts = self.counts

        def wrapped(*args, **kwargs):
            close = self.span(layer) if layer else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if close:
                    close()
            if counter:
                counter(counts, result)
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "cosetgeom" or n.startswith("cosetgeom.")]
        for owner, attr, layer, counter in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, layer, counter)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)
        return False

    def self_times(self):
        """Busy (self) seconds per layer over all recorded spans."""
        busy = Counter()
        for layer, t0, t1, _ in self.spans:
            busy[layer] += t1 - t0
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                busy[self.spans[parent][0]] -= t1 - t0
        return busy

    def dump(self, path):
        """Write every span as one JSON line, times relative to the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (layer, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer,
                                     "start_s": round(t0 - base, 9),
                                     "end_s": round(t1 - base, 9),
                                     "parent": parent}) + "\n")


def percentile(values, q):
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer, passes, untraced_wall):
    """Per-layer metrics per traced pass, from a tracer's spans and counts.

    The busy times of all layers, the benchmark's own included, add up to
    trace.wall_s, the mean duration of the traced passes' root spans.
    untraced_wall is the mean wall of the untraced passes of the run.
    cli.report_p50_ms and cli.report_p90_ms are percentiles of the
    latency of each cli.analyze_table call, children included.  With no
    traced pass every metric is 0.
    """
    busy = tracer.self_times()
    per = max(passes, 1)
    out = {}
    for layer, name in BUSY_METRICS.items():
        out[name] = (busy[layer] / per, "s")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts[name] / per, "count")
    classes = tracer.counts["geometry.builds"]
    out["geometry.stats_per_class"] = (
        tracer.counts["geometry.stats_calls"] / classes if classes else 0.0,
        "ratio")
    reports = [t1 - t0 for layer, t0, t1, _ in tracer.spans
               if layer == "cli.analyze"]
    for q in (50, 90):
        out["cli.report_p%d_ms" % q] = (
            percentile(reports, q) * 1e3 if reports else 0.0, "ms")
    traced_wall = sum(t1 - t0 for layer, t0, t1, _ in tracer.spans
                      if layer == "pass") / per
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (
        traced_wall / untraced_wall - 1 if passes else 0.0, "ratio")
    return out
