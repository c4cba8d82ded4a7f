"""Command-line surface: census, subgroups, analyze, discover, reproduce.

Exit codes: 0 success, 1 check or verification failure, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from .census import UnknownId, census_entry, list_census
from .contextuality import (DEFAULT_MODE, MODES, contextuality_report,
                            labeling_from_table)
from .contextuality import to_dot as contextuality_dot
from .dessins import (RoleMismatch, dessin_from_table, modular_data, passport,
                      signature)
from .dessins import to_dot as dessin_dot
# incidence_graph_stats is unused here since geometries cache their stats;
# perfbench/selftest.py checks that the tracer rebinds cli's binding of it
from .geometry import (geometry_from_class, incidence_graph_stats,  # noqa: F401
                       pair_classes, polygon_check, recognize)
from .lowindex import SearchBudgetExceeded, low_index_subgroups
from .perms import PermGroup, identify, simultaneously_conjugate
from .toddcox import CosetLimitExceeded, todd_coxeter
from .words import SubgroupSpec, parse_word

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_MAX_COSETS = 10 ** 6


class UsageError(Exception):
    """Bad arguments or input files; main() prints it and exits 2."""


def _die_budget(exc):
    print("budget exceeded: %s" % exc, file=sys.stderr)
    return EXIT_BUDGET


def _emit(obj, json_path=None):
    text = json.dumps(obj, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- census ---------------------------------------------------------------

def cmd_census(args):
    if args.id:
        entries = [census_entry(args.id)]
    else:
        entries = list_census()
    _emit([e.to_json_dict() for e in entries], args.json)
    return EXIT_OK


# -- subgroups ------------------------------------------------------------

def _subgroup_record(table):
    px, py = table.perm_rep()
    group = PermGroup([px, py], degree=table.n)
    fp = group.fingerprint()
    return {
        "index": table.n,
        "generators": {"x": str(px), "y": str(py)},
        "order": fp.order,
        "fingerprint": {
            "order": fp.order,
            "element_orders": sorted(fp.element_orders()),
            "exact": fp.exact,
            "derived_index": fp.derived_index,
            "transitive": fp.transitive,
        },
        "identified_as": identify(fp),
        "certificate_words": [str(g) for g in table.subgroup.generators],
    }


def _check_index(flag, value):
    if value < 1:
        raise UsageError("%s must be >= 1" % flag)


def cmd_subgroups(args):
    _check_index("--max-index", args.max_index)
    entry = census_entry(args.id)
    try:
        tables = low_index_subgroups(entry.presentation, args.max_index,
                                     node_budget=args.node_budget)
    except SearchBudgetExceeded as exc:
        return _die_budget(exc)
    _emit([_subgroup_record(t) for t in tables], args.json)
    return EXIT_OK


# -- analyze --------------------------------------------------------------

def _load_certificate(path, presentation):
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "subgroup_words" not in data:
            raise ValueError("no subgroup_words list")
        words = tuple(parse_word(w) for w in data["subgroup_words"])
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError("bad certificate %s: %s" % (path, exc)) from None
    return SubgroupSpec(presentation, words)


def _check_class(cls, count):
    """The 0-based index of the 1-based --class, or a UsageError."""
    if not 1 <= cls <= count:
        raise UsageError("no pair class %d (%d classes)" % (cls, count))
    return cls - 1


def _find_table(entry, args):
    if args.certificate:
        spec = _load_certificate(args.certificate, entry.presentation)
        table = todd_coxeter(spec, max_cosets=args.max_cosets)
        if table.n != args.index:
            raise SystemExit(
                "certificate replay gave index %d, expected %d"
                % (table.n, args.index))
        return table
    tables = [t for t in low_index_subgroups(
        entry.presentation, args.index, node_budget=args.node_budget)
        if t.n == args.index]
    if not (1 <= args.which <= len(tables)):
        raise SystemExit(
            "no subgroup (index=%d, which=%d); %d classes at that index"
            % (args.index, args.which, len(tables)))
    return tables[args.which - 1]


def analyze_table(table, mode=DEFAULT_MODE):
    """Full JSON-ready report for one subgroup's coset table."""
    px, py = table.perm_rep()
    group = PermGroup([px, py], degree=table.n)
    fp = group.fingerprint()
    d = dessin_from_table(table)
    sig = signature(d)
    report = {
        "index": table.n,
        "order": fp.order,
        "identified_as": identify(fp),
        "dessin": {
            "passport": str(passport(d)),
            "signature": {"B": sig.B, "W": sig.W, "F": sig.F, "g": sig.g},
        },
        "classes": [],
    }
    for role in ("black", "white"):
        try:
            md = modular_data(d, order2_role=role)
        except RoleMismatch:
            continue
        report["dessin"]["modular_data"] = {
            "order2_role": role, "nu2": md.nu2, "nu3": md.nu3,
            "c": md.c, "f": md.f,
            "fixed_points_order2": md.fixed_points_order2,
            "fixed_points_order3": md.fixed_points_order3,
        }
        break
    for cls in pair_classes(group):
        geom = geometry_from_class(group, cls.pairs)
        stats = geom.stats
        poly = polygon_check(geom)
        ctx = contextuality_report(labeling_from_table(table, geom), mode)
        report["classes"].append({
            "stabilizer_order": cls.stab_order,
            "pair_count": len(cls.pairs),
            "geometry": geom.to_json_dict(),
            "recognized_as": recognize(geom),
            "stats": {
                "connected": stats.connected,
                "diameter": stats.diameter,
                "girth": stats.girth if stats.girth is not None else "acyclic",
                "points_per_line": list(stats.points_per_line),
                "lines_per_point": list(stats.lines_per_point),
            },
            "polygon": {
                "is_gp": poly.is_gp, "n": poly.n, "s": poly.s, "t": poly.t,
            },
            "contextuality": ctx.to_json_dict(),
        })
    return report


def cmd_analyze(args):
    _check_index("--index", args.index)
    entry = census_entry(args.id)
    try:
        table = _find_table(entry, args)
    except (SearchBudgetExceeded, CosetLimitExceeded) as exc:
        return _die_budget(exc)
    if args.export == "dot":
        px, py = table.perm_rep()
        group = PermGroup([px, py], degree=table.n)
        classes = pair_classes(group)
        which = 0 if args.cls is None else _check_class(args.cls,
                                                        len(classes))
        geom = geometry_from_class(group, classes[which].pairs)
        print(contextuality_dot(labeling_from_table(table, geom), args.mode))
        print(dessin_dot(dessin_from_table(table)))
        return EXIT_OK
    report = analyze_table(table, mode=args.mode)
    if args.cls is not None:
        which = _check_class(args.cls, len(report["classes"]))
        report["classes"] = [report["classes"][which]]
    _emit(report, args.json)
    return EXIT_OK


# -- discover -------------------------------------------------------------

def cmd_discover(args):
    import os
    _check_index("--index", args.index)
    entry = census_entry(args.id)
    try:
        tables = [t for t in low_index_subgroups(
            entry.presentation, args.index, node_budget=args.node_budget)
            if t.n == args.index]
    except SearchBudgetExceeded as exc:
        return _die_budget(exc)
    outdir = args.out or os.path.join("certificates", args.id)
    os.makedirs(outdir, exist_ok=True)
    for k, table in enumerate(tables, 1):
        path = os.path.join(outdir, "%d-%d.json" % (args.index, k))
        with open(path, "w") as fh:
            json.dump({
                "id": args.id,
                "index": args.index,
                "which": k,
                "subgroup_words": [str(g) for g in table.subgroup.generators],
            }, fh, indent=2)
            fh.write("\n")
        print(path)
    return EXIT_OK


# -- reproduce ------------------------------------------------------------

def bundled_certificate(id, index, which=1):
    """SubgroupSpec replayed from a certificate shipped with the package."""
    name = "%d-%d.json" % (index, which)
    ref = resources.files("cosetgeom").joinpath("data", "certificates", id, name)
    data = json.loads(ref.read_text())
    pres = census_entry(id).presentation
    words = tuple(parse_word(w) for w in data["subgroup_words"])
    return SubgroupSpec(pres, words)


class _Harness:
    def __init__(self):
        self.checks = []

    def check(self, claim_id, source, expected, thunk):
        t0 = time.perf_counter()
        try:
            computed = thunk()
        except Exception as exc:           # a crash is a failed check
            computed = "error: %s" % exc
        dt = time.perf_counter() - t0
        ok = computed == expected
        self.checks.append({
            "claim": claim_id,
            "source": source,
            "expected": expected,
            "computed": computed,
            "pass": ok,
            "runtime_s": round(dt, 3),
        })
        status = "ok  " if ok else "FAIL"
        print("%s %-28s expected=%r computed=%r (%.2fs)"
              % (status, claim_id, expected, computed, dt))

    def report(self):
        failed = sum(1 for c in self.checks if not c["pass"])
        return {
            "checks": self.checks,
            "summary": {"total": len(self.checks), "failed": failed},
        }


def _order_of(table):
    px, py = table.perm_rep()
    return PermGroup([px, py], degree=table.n).order()


def _recognized(table):
    px, py = table.perm_rep()
    group = PermGroup([px, py], degree=table.n)
    return sorted({recognize(geometry_from_class(group, c.pairs))
                   for c in pair_classes(group)} - {None})


def run_reproduce(suite, json_path=None):
    h = _Harness()

    def classes(id, max_index, exact=None):
        entry = census_entry(id)
        tables = low_index_subgroups(entry.presentation, max_index)
        if exact is not None:
            tables = [t for t in tables if t.n == exact]
        return tables

    # k4 index 4: the four published permutation pairs occur
    def k4_at_4():
        tables = classes("k4", 4, exact=4)
        published = [("(2,3)", "(1,2)(3,4)"), ("(1,2)(3,4)", "(2,3)"),
                     ("(1,2,4,3)", "(1,2)(3,4)"), ("(1,2,4,3)", "(2,3)")]
        from .perms import parse_cycles
        hits = 0
        for gx, gy in published:
            pair_b = (parse_cycles(gx, 4), parse_cycles(gy, 4))
            if any(simultaneously_conjugate(t.perm_rep(), pair_b)
                   for t in tables):
                hits += 1
        return hits
    h.check("k4.index4.published_pairs", "census known_results k4@4", 4,
            k4_at_4)
    h.check("k4.index9.order144", "census known_results k4@9", [144, 144],
            lambda: [_order_of(t) for t in classes("k4", 9, exact=9)
                     if _order_of(t) == 144])
    h.check("k4.index9.hesse", "census known_results k4@9",
            ["Hesse configuration"],
            lambda: _recognized(classes("k4", 9, exact=9)[0]))
    h.check("k4.index10.petersen_s5", "census known_results k4@10", 2,
            lambda: sum(1 for t in classes("k4", 10, exact=10)
                        if _order_of(t) == 120
                        and "Petersen graph" in _recognized(t)))
    h.check("k4.index15.petersen_line_graph", "census known_results k4@15", 2,
            lambda: sum(1 for t in classes("k4", 15, exact=15)
                        if "Petersen line graph" in _recognized(t)))
    h.check("k19.index9.order36_grid", "census known_results k19@9",
            [36, ["GQ(2,1)"]],
            lambda: next([_order_of(t), _recognized(t)]
                         for t in classes("k19", 9, exact=9)
                         if _order_of(t) == 36))
    h.check("k1.index6.count", "census known_results k1@6 (verified)", 4,
            lambda: len(classes("k1", 6, exact=6)))
    h.check("k1.index7.fano", "census known_results k1@7", 2,
            lambda: sum(1 for t in classes("k1", 7, exact=7)
                        if _order_of(t) == 168
                        and "Fano plane" in _recognized(t)))
    h.check("k1.index10.pentagram", "census known_results k1@10", 1,
            lambda: sum(1 for t in classes("k1", 10, exact=10)
                        if _order_of(t) == 60
                        and "Mermin pentagram" in _recognized(t)))

    def k1_21():
        table = todd_coxeter(bundled_certificate("k1", 21))
        d = dessin_from_table(table)
        return [table.n, _order_of(table), str(passport(d)),
                "GH(2,1)" in _recognized(table)]
    h.check("k1.index21.certificate", "census known_results k1@21",
            [21, 336, "[3^7, 2^9 1^3, 8^2 4^1 1^1]", True], k1_21)

    def pentagram_dessin():
        table = next(t for t in classes("k1", 10, exact=10)
                     if _order_of(t) == 60)
        d = dessin_from_table(table)
        sig = signature(d)
        md = modular_data(d, order2_role="white")
        return [sig.as_tuple(), md.nu2, md.nu3, md.c, md.f]
    h.check("k1.pentagram.dessin", "census known_results k1@10",
            [(4, 6, 2, 0), 1, 2, 2, 4], pentagram_dessin)

    def k5_45():
        table = todd_coxeter(bundled_certificate("k5", 45))
        return [table.n, _order_of(table), "GO(2,1)" in _recognized(table)]
    h.check("k5.index45.certificate", "census known_results k5@45",
            [45, 360, True], k5_45)

    if suite == "full":
        def g1_h1():
            table = todd_coxeter(census_entry("g1").subgroup("h1"),
                                 max_cosets=4 * 10 ** 6)
            return [table.n, _order_of(table)]
        h.check("g1.h1.index_order", "census known_results g1@1755",
                [1755, 17971200], g1_h1)

        def g2_h2():
            table = todd_coxeter(census_entry("g2").subgroup("h2"))
            return [table.n, _order_of(table)]
        h.check("g2.h2.index_order", "census known_results g2@100",
                [100, 604800], g2_h2)

    report = h.report()
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    failed = report["summary"]["failed"]
    print("reproduce %s: %d/%d checks passed"
          % (suite, report["summary"]["total"] - failed,
             report["summary"]["total"]))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_reproduce(args):
    return run_reproduce(args.suite, json_path=args.json)


# -- entry point ----------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="cosetgeom",
        description="Coset geometries and contextuality reports for the "
                    "bundled census of finitely presented groups.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="dump catalog entries")
    c.add_argument("id", nargs="?", help="census id (default: all)")
    c.add_argument("--json", metavar="PATH", help="write JSON to a file")
    c.set_defaults(func=cmd_census)

    s = sub.add_parser("subgroups", help="enumerate low-index subgroups")
    s.add_argument("id")
    s.add_argument("--max-index", type=int, required=True)
    s.add_argument("--node-budget", type=int, default=None)
    s.add_argument("--json", metavar="PATH")
    s.set_defaults(func=cmd_subgroups)

    a = sub.add_parser("analyze", help="full report for one subgroup")
    a.add_argument("id")
    a.add_argument("--index", type=int, required=True)
    a.add_argument("--which", type=int, default=1,
                   help="1-based class number at the index (default 1)")
    a.add_argument("--class", dest="cls", type=int, default=None,
                   help="restrict the report to one pair class (1-based)")
    a.add_argument("--mode", choices=MODES, default=DEFAULT_MODE)
    a.add_argument("--export", choices=("dot", "json"), default="json")
    a.add_argument("--certificate", metavar="PATH")
    a.add_argument("--node-budget", type=int, default=None)
    a.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    a.add_argument("--json", metavar="PATH")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("discover", help="search and write replay certificates")
    d.add_argument("id")
    d.add_argument("--index", type=int, required=True)
    d.add_argument("--node-budget", type=int, default=None)
    d.add_argument("--out", metavar="DIR")
    d.set_defaults(func=cmd_discover)

    r = sub.add_parser("reproduce", help="run the built-in check suite")
    r.add_argument("suite", choices=("fast", "full"))
    r.add_argument("--json", metavar="PATH")
    r.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownId, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (CosetLimitExceeded, SearchBudgetExceeded) as exc:
        return _die_budget(exc)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print("error: %s" % exc.code, file=sys.stderr)
            return EXIT_CHECK_FAILED
        raise


if __name__ == "__main__":
    sys.exit(main())
