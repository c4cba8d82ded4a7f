"""Command-line surface: census, subgroups, analyze, discover, reproduce.

analyze prints a table's report, whose dessin block is
Dessin.to_json_dict's; reproduce checks a census record's dessin values
against that same block.  Exit codes: 0 success, 1 check or
verification failure, 2 usage error, 3 budget exceeded, 141 (128 +
SIGPIPE) when the reader of stdout closed it early, as ``| head`` does,
with nothing on stderr.  main is the one place that maps an exception
to its exit code; before any work it refuses, by FLAG_RULES, an empty
path, a value below its least and a flag of an analyze path not taken,
and an output path that cannot be written to.  An argument is absent
only when it is None: an empty id or path is never read as none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from .census import UnknownId, census_entry, list_census
from .contextuality import (DEFAULT_MODE, MODES, contextuality_report,
                            labeling_from_table)
from .contextuality import to_dot as contextuality_dot
from .dessins import dessin_from_table
from .dessins import to_dot as dessin_dot
# incidence_graph_stats is unused here since geometries cache their stats;
# perfbench/selftest.py checks that the tracer rebinds cli's binding of it
from .geometry import (geometry_from_class, incidence_graph_stats,  # noqa: F401
                       pair_classes, polygon_check, recognize)
from .lowindex import SearchBudgetExceeded, least_table, low_index_subgroups
from .perms import PermGroup, identify, parse_cycles
from .toddcox import MAX_COSETS, CosetLimitExceeded, pair_rows, todd_coxeter
from .words import SubgroupSpec, parse_word

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """Bad arguments or input files; main() prints it and exits 2."""


class CheckFailed(Exception):
    """A result that fails its check; main() prints it and exits 1."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are UsageErrors: one line, not the usage.
    It and the subparsers it makes take flags by their full names only:
    a prefix of a flag is an unknown flag."""

    def __init__(self, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(**kwargs)

    def error(self, message):
        raise UsageError(message)


# Per flag, by argparse dest: its name, its least value (None for a path)
# and the one analyze path that reads it (None: every path).  A budget's
# least is 0: a zero budget is a budget, exceeded (exit 3).  An empty path
# names no file; read as none, it would print the JSON, write into the
# working directory or search.  Path rows come first, so it is named first.
FLAG_RULES = {
    "json": ("--json", None, "json"), "out": ("--out", None, None),
    "certificate": ("--certificate", None, None),
    "index": ("--index", 1, None), "max_index": ("--max-index", 1, None),
    "which": ("--which", 1, "search"), "cls": ("--class", 1, None),
    "node_budget": ("--node-budget", 0, "search"),
    "max_cosets": ("--max-cosets", 0, "certificate")}


def _emit(obj, json_path=None):
    text = json.dumps(obj, indent=2)
    if json_path is not None:
        try:
            with open(json_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write JSON to %s: %s"
                             % (json_path, exc.strerror)) from None
    else:
        print(text)


# -- census ---------------------------------------------------------------

def cmd_census(args):
    entries = list_census() if args.id is None else [census_entry(args.id)]
    _emit([e.to_json_dict() for e in entries], args.json)
    return EXIT_OK


# -- subgroups ------------------------------------------------------------

def _read(table):
    """(dessin, group) of a coset table: its dessin, the actions of x and
    y, and the group of those two permutations.  The one place a command
    reads a table's action."""
    dessin = dessin_from_table(table)
    return dessin, PermGroup([dessin.sigma_black, dessin.sigma_white],
                             degree=table.n)


def _subgroup_record(table):
    dessin, group = _read(table)
    fp = group.fingerprint()
    orders = fp.element_orders()
    return {
        "index": table.n,
        "generators": {"x": str(dessin.sigma_black),
                       "y": str(dessin.sigma_white)},
        "order": fp.order,
        "fingerprint": {
            "order": fp.order,
            "element_orders": None if orders is None else sorted(orders),
            "exact": fp.exact,
            "derived_index": fp.derived_index,
            # _read's Dessin refuses a disconnected pair, so this is True
            "transitive": True,
        },
        "identified_as": identify(group),
        "certificate_words": [str(g) for g in table.subgroup.generators],
    }


def cmd_subgroups(args):
    tables = low_index_subgroups(census_entry(args.id).presentation,
                                 args.max_index, node_budget=args.node_budget)
    _emit([_subgroup_record(t) for t in tables], args.json)
    return EXIT_OK


# -- analyze --------------------------------------------------------------

def _load_certificate(path, entry):
    """The certificate's words under entry's relators; an "id" key, as
    discover writes it, must name entry."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        words = isinstance(data, dict) and data.get("subgroup_words")
        if not isinstance(words, list) \
                or not all(isinstance(w, str) for w in words):
            raise ValueError("no subgroup_words list of strings")
        if data.get("id", entry.id) != entry.id:
            raise ValueError("written for %r, not %r"
                             % (data["id"], entry.id))
        words = tuple(parse_word(w) for w in words)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        # json.load recurses once per nesting level of the document
        raise UsageError("bad certificate %s: %s" % (path, exc)) from None
    return SubgroupSpec(entry.presentation, words)


def _tables_at(entry, index, node_budget=None):
    """The low-index search's tables of index exactly index."""
    return [t for t in low_index_subgroups(entry.presentation, index,
                                           node_budget=node_budget)
            if t.n == index]


def _find_table(entry, args):
    if args.certificate is not None:
        spec = _load_certificate(args.certificate, entry)
        table = todd_coxeter(spec, max_cosets=MAX_COSETS
                             if args.max_cosets is None else args.max_cosets)
        if table.n != args.index:
            raise CheckFailed(
                "certificate replay gave index %d, expected %d"
                % (table.n, args.index))
        return table
    tables = _tables_at(entry, args.index, args.node_budget)
    which = 1 if args.which is None else args.which
    if which > len(tables):
        raise UsageError(
            "no subgroup (index=%d, which=%d); %d classes at that index"
            % (args.index, which, len(tables)))
    return tables[which - 1]


def _geometries(group, cls=None):
    """(pair class, geometry) for each pair class of group, or for the
    1-based class cls alone, which is refused before any geometry is
    built.  The one place a command builds a geometry: each is built
    when the iteration reaches its class."""
    classes = pair_classes(group)
    if cls is not None:
        if not 1 <= cls <= len(classes):
            raise UsageError("no pair class %d (%d classes)"
                             % (cls, len(classes)))
        classes = [classes[cls - 1]]
    return ((c, geometry_from_class(group, c.pairs)) for c in classes)


def analyze_table(table, mode=DEFAULT_MODE, only_class=None):
    """Full JSON-ready report for one subgroup's coset table.

    only_class restricts the report to that 1-based pair class; the
    other classes' geometries are never built.  One reading of the
    table gives the group and the dessin, and one labeling of the cosets
    serves every class.
    """
    dessin, group = _read(table)
    labeling = labeling_from_table(table)
    report = {
        "index": table.n,
        "order": group.order(),
        "identified_as": identify(group),
        "dessin": dessin.to_json_dict(),
        "classes": [],
    }
    for cls, geom in _geometries(group, only_class):
        stats = geom.stats
        ctx = contextuality_report(labeling, geom, mode)
        report["classes"].append({
            "stabilizer_order": cls.stab_order,
            "pair_count": len(cls.pairs),
            "geometry": geom.to_json_dict(),
            "recognized_as": recognize(geom),
            # the union copies the cached stats and keeps girth in place;
            # JSON prints tuples as lists
            "stats": vars(stats) | {
                "girth": "acyclic" if stats.girth is None else stats.girth},
            "polygon": vars(polygon_check(geom)),
            "contextuality": ctx.to_json_dict(),
        })
    return report


def cmd_analyze(args):
    table = _find_table(census_entry(args.id), args)
    if args.export == "dot":
        dessin, group = _read(table)
        cls = 1 if args.cls is None else args.cls
        _, geom = next(_geometries(group, cls))
        print(contextuality_dot(labeling_from_table(table), geom, args.mode))
        print(dessin_dot(dessin))
        return EXIT_OK
    _emit(analyze_table(table, mode=args.mode, only_class=args.cls),
          args.json)
    return EXIT_OK


# -- discover -------------------------------------------------------------

def _discover_dir(args):
    """Where discover writes: --out, else certificates/<id>."""
    return (os.path.join("certificates", args.id) if args.out is None
            else args.out)


def _can_be_dir(path):
    """Whether path is a directory or its nearest existing ancestor is."""
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


def cmd_discover(args):
    tables = _tables_at(census_entry(args.id), args.index, args.node_budget)
    outdir = _discover_dir(args)
    try:
        os.makedirs(outdir, exist_ok=True)
        for k, table in enumerate(tables, 1):
            path = os.path.join(outdir, "%d-%d.json" % (args.index, k))
            with open(path, "w") as fh:
                json.dump({
                    "id": args.id,
                    "index": args.index,
                    "which": k,
                    "subgroup_words": [str(g)
                                       for g in table.subgroup.generators],
                }, fh, indent=2)
                fh.write("\n")
            print(path)
    except OSError as exc:
        raise UsageError("cannot write certificates to %s: %s"
                         % (outdir, exc.strerror)) from None
    return EXIT_OK


# -- reproduce ------------------------------------------------------------

def _bundled_path(id, index):
    return resources.files("cosetgeom").joinpath(
        "data", "certificates", id, "%d-1.json" % index)


def bundled_certificate(id, index):
    """SubgroupSpec replayed from the certificate shipped with the
    package for id's first class at index."""
    return _load_certificate(_bundled_path(id, index), census_entry(id))


def _compare(entry, r):
    """(source, expected, computed) of every field one KnownResult sets.

    A record that states r.raw_count is checked on the low-index search,
    whose total that is; else on a bundled certificate, else on the
    entry's distinguished subgroup r.subgroup (that one enumeration),
    else on the search.  The count is of the tables of index r.index
    whose group has order r.order and whose pair classes include the
    geometry r.geometry (each filter only when set, and named in the
    count's key; classes are built in order until one is that geometry).
    The published pairs count the distinct counted tables whose least
    table one of them has (a search table is its own least table).  The
    dessin values are checked against the dessin block analyze prints for
    each counted table: the signature as the block's values in field
    order, the modular data as its nu2, nu3, c and f.
    """
    if r.raw_count is None and _bundled_path(entry.id, r.index).is_file():
        spec, source = bundled_certificate(entry.id, r.index), "certificate"
    elif r.raw_count is None and r.subgroup:
        spec, source = entry.subgroup(r.subgroup), "subgroup"
    else:
        spec, source = None, "search"
    tables = (_tables_at(entry, r.index) if spec is None
              else [todd_coxeter(spec)])
    hits, counted = [], set()
    for t in tables:
        dessin, group = _read(t)
        if (t.n == r.index
                and (r.order is None or group.order() == r.order)
                and (r.geometry is None or any(
                    recognize(geom) == r.geometry
                    for _, geom in _geometries(group)))):
            hits.append(dessin)
            counted.add(t.action if spec is None else least_table(t.action))
    filters = ["%s=%s" % (k, getattr(r, k)) for k in ("order", "geometry")
               if getattr(r, k) is not None]
    key = "count(%s)" % ", ".join(filters) if filters else "count"
    expected, computed = {key: r.count}, {key: len(hits)}
    if spec is None:
        expected["raw_count"] = r.count if r.raw_count is None else r.raw_count
        computed["raw_count"] = len(tables)
    if r.pairs:
        expected["pairs"] = len(r.pairs)
        computed["pairs"] = len(counted.intersection(
            least_table(pair_rows(*(parse_cycles(c, r.index) for c in pair)))
            for pair in r.pairs))
    keys = ("passport", "signature", "modular_data")
    claimed = {k: getattr(r, k) for k in keys if getattr(r, k) is not None}
    if claimed:
        expected["dessin"] = [claimed] * r.count
        computed["dessin"] = []
        for dessin in hits:
            block = dessin.to_json_dict()
            md = block.get("modular_data")
            values = {"passport": block["passport"],
                      "signature": tuple(block["signature"].values()),
                      "modular_data": md and tuple(
                          map(md.get, ("nu2", "nu3", "c", "f")))}
            computed["dessin"].append({k: values[k] for k in claimed})
    return source, expected, computed


def _check(entry, r):
    claim = "%s@%d" % (entry.id, r.index)
    source = expected = None
    t0 = time.perf_counter()
    try:
        source, expected, computed = _compare(entry, r)
    except Exception as exc:           # a crash is a failed check
        computed = "error: %s" % exc
    dt = time.perf_counter() - t0
    ok = computed == expected
    print("%s %-8s %-11s expected=%r computed=%r (%.2fs)"
          % ("ok  " if ok else "FAIL", claim, source, expected, computed, dt))
    return {"claim": claim, "source": source, "expected": expected,
            "computed": computed, "pass": ok, "runtime_s": round(dt, 3)}


def run_reproduce(suite, json_path=None):
    """Check every census KnownResult, then list every Claim; the fast
    suite skips the records that name a distinguished subgroup."""
    checks = [_check(entry, r) for entry in list_census()
              for r in entry.known_results
              if suite == "full" or not r.subgroup]
    claims = [{"id": entry.id, **vars(c)} for entry in list_census()
              for c in entry.claims]
    for c in claims:
        print('%-9s %-4s published "%s": %s'
              % (c["status"], c["id"], c["statement"], c["reason"]))
    failed = sum(1 for c in checks if not c["pass"])
    if json_path is not None:
        _emit({"checks": checks, "claims": claims,
               "summary": {"total": len(checks), "failed": failed}},
              json_path)
    print("reproduce %s: %d/%d checks passed"
          % (suite, len(checks) - failed, len(checks)))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_reproduce(args):
    return run_reproduce(args.suite, json_path=args.json)


# -- entry point ----------------------------------------------------------

def build_parser():
    p = _Parser(
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
    a.add_argument("--which", type=int,
                   help="1-based class number at the index (default 1)")
    a.add_argument("--class", dest="cls", type=int, default=None,
                   help="restrict the report to one pair class (1-based)")
    a.add_argument("--mode", choices=MODES, default=DEFAULT_MODE)
    a.add_argument("--export", choices=("dot", "json"), default="json")
    a.add_argument("--certificate", metavar="PATH",
                   help="replay the subgroup from a certificate instead "
                        "of searching; without one, analyze searches "
                        "every index up to --index, bounded only by "
                        "--node-budget.  Bundled: "
                        "src/cosetgeom/data/certificates/k1/21-1.json "
                        "(k1@21) and "
                        "src/cosetgeom/data/certificates/k5/45-1.json "
                        "(k5@45)")
    a.add_argument("--node-budget", type=int, default=None,
                   help="cap on the search's nodes (default: none); "
                        "without --certificate the only bound on the "
                        "search up to --index")
    a.add_argument("--max-cosets", type=int)
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
    try:
        args = build_parser().parse_args(argv)
        # the paths this run takes (any other command's: search and json)
        paths = {None, getattr(args, "export", "json"), "search"
                 if getattr(args, "certificate", None) is None
                 else "certificate"}
        for dest, (flag, least, path) in FLAG_RULES.items():
            value = getattr(args, dest, None)
            if value is None:
                continue
            if least is None and value == "":
                raise UsageError("%s takes a path, not ''" % flag)
            if least is not None and value < least:
                raise UsageError("%s must be >= %d" % (flag, least))
            if path not in paths:       # the flag would be read by nothing
                raise UsageError("%s is read only on analyze's %s path"
                                 % (flag, path))
        json_path = getattr(args, "json", None)
        # an output path that cannot be written fails before any work
        if json_path and not os.path.isdir(os.path.dirname(json_path) or "."):
            raise UsageError("cannot write JSON to %s: no such directory"
                             % json_path)
        if json_path and os.path.isdir(json_path):
            raise UsageError("cannot write JSON to %s: is a directory"
                             % json_path)
        outdir = _discover_dir(args) if args.func is cmd_discover else None
        if outdir and not _can_be_dir(outdir):
            raise UsageError("cannot write certificates to %s: "
                             "not a directory" % outdir)
        status = args.func(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's final flush of what
        # is left in its buffer does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UnknownId, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CheckFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (CosetLimitExceeded, SearchBudgetExceeded) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
