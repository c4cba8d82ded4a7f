"""Census workloads of the cosetgeom benchmark.

Each workload builds its inputs once (set-up) and then runs passes.  A
pass is a list of checked operations: one call into the library, timed
on its own, whose output is compared with a golden value recorded from
the same code.  The seed only shuffles the order in which a pass visits
its cases, so every seed does the same work.

Calls go through module attributes (``toddcox.todd_coxeter``, not a name
imported into this file), so the traced run sees them once it rebinds
the library's modules.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time

import sympy.core.cache

from cosetgeom import census, cli, geometry, lowindex, perms, toddcox


class PassTimeout(BaseException):
    """Raised by the wall guard; a BaseException so no handler in the
    library can swallow it."""


def digest(value) -> str:
    """sha256 of a value's repr; stable for nested tuples of ints."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def report_digest(report) -> str:
    """sha256 of a report as ``cosetgeom analyze`` prints it."""
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def load_table(source, max_cosets=10 ** 5, node_budget=10 ** 5):
    """Coset tables named by a source tuple, as ``[(case_id, table)]``.

    ("subgroup", id, name)   Todd-Coxeter on a census subgroup
    ("certificate", id, n)   replay of a bundled certificate
    ("classes", id, n)       every class of index <= n
    ("class", id, n, k)      the k-th class of index exactly n
    """
    kind, cid = source[0], source[1]
    if kind == "subgroup":
        spec = census.census_entry(cid).subgroup(source[2])
        return [("%s/%s" % (cid, source[2]),
                 toddcox.todd_coxeter(spec, max_cosets=max_cosets))]
    if kind == "certificate":
        spec = cli.bundled_certificate(cid, source[2])
        return [("%s@%d/cert" % (cid, source[2]),
                 toddcox.todd_coxeter(spec, max_cosets=max_cosets))]
    pres = census.census_entry(cid).presentation
    tables = lowindex.low_index_subgroups(pres, source[2],
                                          node_budget=node_budget)
    out, which = [], {}
    for t in tables:
        which[t.n] = which.get(t.n, 0) + 1
        out.append(("%s@%d#%d" % (cid, t.n, which[t.n]), t))
    if kind == "class":
        want = "%s@%d#%d" % (cid, source[2], source[3])
        out = [(c, t) for c, t in out if c == want]
    if not out:
        raise ValueError("no table for %r" % (source,))
    return out


def group_of(table):
    px, py = table.perm_rep()
    return perms.PermGroup([px, py], degree=table.n)


class Workload:
    """Set-up in __init__; run_pass(ops) appends the pass's operations.

    An operation is ``(name, seconds, ok)``.  A budget exceeded or any
    other exception inside an operation makes it a failed operation with
    the time spent; a PassTimeout propagates to run.measure().
    """

    #: wall guard for one pass, in seconds
    pass_guard = 120.0
    #: typical pass time on the baseline machine; fixes the pass count
    nominal_pass_s = 1.0

    def __init__(self, seed, golden):
        self.rng = random.Random(seed)
        self.golden = golden

    def op(self, ops, name, fn, check):
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception:          # budget exceeded or a crash: failed op
            ops.append((name, time.perf_counter() - t0, False))
            return None
        dt = time.perf_counter() - t0
        try:
            ok = bool(check(value))
        except Exception:          # malformed output fails its check
            ok = False
        ops.append((name, dt, ok))
        return value if ok else None

    def outputs(self):
        """Golden values of this workload, computed from one pass."""
        raise NotImplementedError


def fresh_pass():
    """Drop what an earlier pass left behind, so no pass is memoized.

    PermGroup objects are rebuilt by every pass; sympy's global cache is
    cleared and garbage collected before the timer starts.
    """
    sympy.core.cache.clear_cache()
    gc.collect()


class Search(Workload):
    """Low-index search, then replay of every class's Schreier
    certificate through Todd-Coxeter, which must rebuild the table."""

    def __init__(self, seed, golden, cid, max_index, node_budget):
        super().__init__(seed, golden)
        self.pres = census.census_entry(cid).presentation
        self.max_index = max_index
        self.node_budget = node_budget

    def _search(self):
        return lowindex.low_index_subgroups(self.pres, self.max_index,
                                            node_budget=self.node_budget)

    @staticmethod
    def _summary(tables):
        counts = {}
        for t in tables:
            counts[str(t.n)] = counts.get(str(t.n), 0) + 1
        return {"class_counts": counts,
                "tables_sha256": digest([t.action for t in tables])}

    def run_pass(self, ops):
        tables = self.op(ops, "low_index_subgroups", self._search,
                         lambda ts: self._summary(ts) == self.golden)
        if tables is None:
            return
        order = list(range(len(tables)))
        self.rng.shuffle(order)
        for i in order:
            t = tables[i]
            self.op(ops, "todd_coxeter",
                    lambda: toddcox.todd_coxeter(t.subgroup,
                                                 max_cosets=10 ** 5),
                    lambda r: r.n == t.n and r.action == t.action)

    def outputs(self):
        return self._summary(self._search())


class Replay(Workload):
    """Todd-Coxeter on one subgroup, then the order of the action."""

    def __init__(self, seed, golden, source, max_cosets):
        super().__init__(seed, golden)
        self.source = source
        self.max_cosets = max_cosets

    def _enumerate(self):
        return load_table(self.source, max_cosets=self.max_cosets)[0][1]

    def run_pass(self, ops):
        g = self.golden
        table = self.op(ops, "todd_coxeter", self._enumerate,
                        lambda t: t.n == g["index"]
                        and digest(t.action) == g["action_sha256"])
        if table is None:
            ops.append(("order", 0.0, False))
            return
        self.op(ops, "order", lambda: group_of(table).order(),
                lambda o: o == g["order"])

    def outputs(self):
        table = self._enumerate()
        return {"index": table.n, "action_sha256": digest(table.action),
                "order": group_of(table).order()}


class Analyze(Workload):
    """``cli.analyze_table`` on prebuilt tables, one report per case."""

    def __init__(self, seed, golden, sources):
        super().__init__(seed, golden)
        self.cases = [ct for s in sources for ct in load_table(s)]

    def run_pass(self, ops):
        cases = list(self.cases)
        self.rng.shuffle(cases)
        for case_id, table in cases:
            self.op(ops, "analyze_table", lambda: cli.analyze_table(table),
                    lambda r: report_digest(r) == self.golden[case_id])

    def outputs(self):
        return {c: report_digest(cli.analyze_table(t)) for c, t in self.cases}


class Closure(Workload):
    """Exact fingerprint and pair classes of one prebuilt action."""

    def __init__(self, seed, golden, source):
        super().__init__(seed, golden)
        self.table = load_table(source)[0][1]

    def _fingerprint(self):
        fp = group_of(self.table).fingerprint()
        return {"order": fp.order, "exact": fp.exact,
                "histogram": [list(h) for h in fp.element_order_histogram],
                "derived_index": fp.derived_index}

    def _pair_classes(self):
        return [[c.stab_order, len(c.pairs), digest(c.pairs)]
                for c in geometry.pair_classes(group_of(self.table))]

    def run_pass(self, ops):
        steps = [("fingerprint", self._fingerprint),
                 ("pair_classes", self._pair_classes)]
        self.rng.shuffle(steps)
        for name, fn in steps:
            self.op(ops, name, fn, lambda v: v == self.golden[name])

    def outputs(self):
        return {"fingerprint": self._fingerprint(),
                "pair_classes": self._pair_classes()}


# name -> (class, nominal pass seconds, keyword arguments).  The "-tiny"
# variants are the self-test's inputs: the same code paths on inputs of
# a few cosets.
VARIANTS = {
    "search": (Search, 5.5, dict(cid="k4", max_index=24,
                                 node_budget=10 ** 6)),
    "tits": (Replay, 7.0, dict(source=("subgroup", "g1", "h1"),
                               max_cosets=4 * 10 ** 6)),
    "analyze": (Analyze, 4.5, dict(sources=[("classes", "k1", 14),
                                            ("certificate", "k1", 21),
                                            ("certificate", "k5", 45)])),
    "j2": (Closure, 19.0, dict(source=("subgroup", "g2", "h2"))),
    "search-tiny": (Search, 0.5, dict(cid="k4", max_index=6,
                                      node_budget=10 ** 4)),
    "tits-tiny": (Replay, 0.5, dict(source=("certificate", "k1", 21),
                                    max_cosets=10 ** 4)),
    "analyze-tiny": (Analyze, 0.5, dict(sources=[("certificate", "k1", 21)])),
    "j2-tiny": (Closure, 0.5, dict(source=("class", "k1", 5, 1))),
}


def make(name, seed, golden, **override):
    cls, nominal_pass_s, kwargs = VARIANTS[name]
    wl = cls(seed, golden, **{**kwargs, **override})
    wl.nominal_pass_s = nominal_pass_s
    return wl
