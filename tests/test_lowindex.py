import gc
import hashlib
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (order_of, presentations, sympy_fp_group,
                      symmetric_presentations)
from cosetgeom import census_entry
from cosetgeom.census import CENSUS_IDS
from cosetgeom.lowindex import (SearchBudgetExceeded, _Search,
                                low_index_subgroups)
from cosetgeom.toddcox import CosetTable, schreier_generators, todd_coxeter
from cosetgeom.words import (X, XI, Y, YI, Presentation, SubgroupSpec,
                             Word, parse_presentation)


def test_k4_counts_by_index(k4_pres):
    tables = low_index_subgroups(k4_pres, 4)
    counts = Counter(t.n for t in tables)
    assert counts == {1: 1, 2: 3, 4: 7}


def test_k1_index6_count(k1_pres):
    tables = low_index_subgroups(k1_pres, 6)
    assert sum(1 for t in tables if t.n == 6) == 4


def test_k1_index6_orders(k1_to_10):
    orders = sorted(order_of(t) for t in k1_to_10 if t.n == 6)
    assert orders == [6, 6, 18, 60]


def test_modular_group_small_indices():
    # x^2 = y^3 = 1: classical low-index counts for indices 1..6
    pres = parse_presentation("< x, y | x^2, y^3 >")
    counts = Counter(t.n for t in low_index_subgroups(pres, 6))
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 8}


def test_tables_are_valid_and_distinct(k4_to_9):
    seen = set()
    for t in k4_to_9:
        t.check_invariants()
        assert t.action not in seen
        seen.add(t.action)


def test_results_sorted(k4_to_9):
    keys = [(t.n, t.action) for t in k4_to_9]
    assert keys == sorted(keys)


def test_deterministic(k19_pres):
    a = low_index_subgroups(k19_pres, 6)
    b = low_index_subgroups(k19_pres, 6)
    assert [t.action for t in a] == [t.action for t in b]


def test_emitted_certificates_replay(k19_to_9):
    # an enumerated table's certificate is the Schreier basis of the
    # subgroup its spec generates, not the spec's own words
    spec = SubgroupSpec(parse_presentation("< x, y | x^2, y^3, (x*y)^4 >"),
                        (Word((X, Y, X, YI)),))
    enumerated = todd_coxeter(spec)
    assert enumerated.n > 1 and enumerated.subgroup != spec
    for t in list(k19_to_9) + [enumerated]:
        if t.n > 1:
            certificate = t.subgroup
            assert certificate == schreier_generators(t)
            replay = todd_coxeter(certificate)
            assert replay.n == t.n
            assert replay.action == t.action


def test_node_budget(k1_pres):
    with pytest.raises(SearchBudgetExceeded):
        low_index_subgroups(k1_pres, 10, node_budget=20)


def test_bad_max_index(k1_pres):
    with pytest.raises(ValueError):
        low_index_subgroups(k1_pres, 0)


def tables_sha256(tables):
    """sha256 of each table's index, action and certificate words."""
    key = [(t.n, t.action, tuple(g.letters for g in t.subgroup.generators))
           for t in tables]
    return hashlib.sha256(repr(key).encode()).hexdigest()


# tables_sha256 of the output of the test_search_tree_is_pinned rows
# that pin it
PINNED_SHAS = {
    "k4": "fb2562e4d84804cbe8237b575e875cae44c2a845e02589a757db4f242821db3f",
    "< x, y | x^4, y^4, x*y*x^-1*y^-1 >":
        "4e5947f5179b0da2914f8646b72e8a5596cd8f03e6ba43d7d470aae3a178dc7f",
    "< x, y | x^2, y^3 >":
        "000d6bf72195d0f2a847ef6811782a0391271f141b6d989125adfb477a873b40",
    "< x, y | x^2, y^2, (x*y)^12 >":
        "fbd68b48f67b0e642949b4d1c5a20dc3ad4851a2bc3b9545fb59047e6174dfe9",
    "< x, y | x^2, y^3, (x*y)^7 >":
        "0cb177177a549d4deb908002c46333fb113311a2a85c2989b31f3702e0199982",
}


def plain_search(pres, max_index):
    """The first-in-class search run without the letter automorphisms of
    pres, and its output sorted as low_index_subgroups sorts it."""
    search = _Search(pres, max_index, None)
    search.automorphisms = []
    return search, sorted(search.run(), key=lambda t: (t.n, t.action))


# nodes of each search below modulo the letter automorphisms, by
# (source, max_index)
NODES = {
    ("k4", 16): 9138,
    ("k5", 12): 3921,
    ("k1", 14): 917,
    ("k19", 12): 2394,
    ("< x, y | x^4, y^4, x*y*x^-1*y^-1 >", 16): 85,
    ("< x, y | x^2, y^3 >", 12): 865,
    ("< x, y | x^2, y^2, (x*y)^12 >", 24): 79,
    ("< x, y | x^2, y^3, (x*y)^7 >", 14): 394,
}


# Search-tree size and output of the search.  The pinned tree is that of
# the search modulo the presentation's letter automorphisms, which
# low_index_subgroups runs: the NODES of its row.  A faster search must
# try the same nodes, so that --node-budget keeps its meaning.  nodes is
# the tree of the plain search, run with no automorphism, as recorded
# before any speed work; both emit the same tables and words.  A source
# is a census id or a presentation.
@pytest.mark.parametrize("source, max_index, nodes, classes", [
    ("k4", 16, 11658, 190),
    ("k5", 12, 5079, 219),
    ("k1", 14, 1080, 35),
    # no letter automorphism: the tree must not move
    ("k19", 12, 2394, 45),
    # abelian: every subgroup is normal, so on a complete table every
    # base coset compares equal to the end, which keeps no cell to watch
    pytest.param("< x, y | x^4, y^4, x*y*x^-1*y^-1 >", 16, 101, 15,
                 id="z4xz4-16-101-15"),
    pytest.param("< x, y | x^2, y^3 >", 12, 1050, 175,
                 id="modular-12-1050-175"),
    # two involutions, and a relator that is its own inverse read by
    # columns; recorded before they shared a column
    pytest.param("< x, y | x^2, y^2, (x*y)^12 >", 24, 99, 16,
                 id="dihedral24-24-99-16"),
    # one involution, and a relator that is not its own inverse
    pytest.param("< x, y | x^2, y^3, (x*y)^7 >", 14, 470, 14,
                 id="triangle237-14-470-14"),
])
def test_search_tree_is_pinned(source, max_index, nodes, classes):
    if source in CENSUS_IDS:
        pres = census_entry(source).presentation
    else:
        pres = parse_presentation(source)
    reduced = NODES[source, max_index]
    tables = low_index_subgroups(pres, max_index, node_budget=reduced)
    assert len(tables) == classes
    with pytest.raises(SearchBudgetExceeded):
        low_index_subgroups(pres, max_index, node_budget=reduced - 1)
    plain, plain_tables = plain_search(pres, max_index)
    assert plain.nodes == nodes
    assert tables_sha256(plain_tables) == tables_sha256(tables)
    if source in PINNED_SHAS:
        assert tables_sha256(tables) == PINNED_SHAS[source]


def test_benchmark_search_tree_is_pinned(k4_pres):
    # the search of perfbench's "search" workload, k4 <= 24
    # (291238 nodes for the plain search)
    tables = low_index_subgroups(k4_pres, 24, node_budget=186162)
    assert len(tables) == 587
    assert tables_sha256(tables) == (
        "1aa3b89aa18e73d9343f12f90ecedbeffdffe6f69dc3a45f607d5ec43f474a9f")
    with pytest.raises(SearchBudgetExceeded):
        low_index_subgroups(k4_pres, 24, node_budget=186161)


# (census id, max_index, search nodes): searches whose tree and output
# must not depend on how the relators are written
REWRITE_CASES = [("k4", 14, 4207), ("k5", 11, 2266), ("k1", 12, 544),
                 ("k2", 10, 323)]


@st.composite
def rewritten_census(draw):
    """A case of REWRITE_CASES with every relator replaced by its inverse
    or not, then by one of its rotations, and the relators reordered."""
    cid, max_index, nodes = draw(st.sampled_from(REWRITE_CASES))
    relators = []
    for r in census_entry(cid).presentation.relators:
        w = (r.inverse() if draw(st.booleans()) else r).letters
        i = draw(st.integers(0, len(w) - 1))
        relators.append(Word(w[i:] + w[:i]))
    relators = draw(st.permutations(relators))
    return cid, max_index, nodes, Presentation(tuple(relators))


@pytest.fixture(scope="module")
def rewrite_shas():
    """tables_sha256 of each REWRITE_CASES search as the census writes it,
    in the order the search emits its tables."""
    shas = {}
    for cid, max_index, nodes in REWRITE_CASES:
        search = _Search(census_entry(cid).presentation, max_index, None)
        shas[cid] = tables_sha256(search.run())
        assert search.nodes == nodes
    return shas


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=rewritten_census())
@example(case=("k4", 14, 4207, parse_presentation(
    "< x, y | y^-2, x^4, ((y*x^-1)^2*(y^-1*x)^2)^2 >")))
def test_search_ignores_how_relators_are_written(rewrite_shas, case):
    cid, max_index, nodes, pres = case
    search = _Search(pres, max_index, None)
    assert search.automorphisms == AUTOMORPHISMS[cid]
    assert tables_sha256(search.run()) == rewrite_shas[cid]
    assert search.nodes == nodes


# the letter automorphisms of each census presentation, one signed letter
# permutation (the images of x, x^-1, y, y^-1) per map of columns: the
# involution y of k1, k2, k4 and k5 makes x -> x^-1 and y -> y^-1 one map
AUTOMORPHISMS = {"k1": [(XI, X, Y, YI)], "k2": [(XI, X, Y, YI)],
                 "k4": [(XI, X, Y, YI)], "k5": [(XI, X, Y, YI)],
                 "k19": [], "g1": [(X, XI, YI, Y)], "g2": [(X, XI, YI, Y)]}


@pytest.mark.parametrize("cid", CENSUS_IDS)
def test_letter_automorphisms(cid):
    # test_search_ignores_how_relators_are_written checks the same lists
    # on rewritten relators
    search = _Search(census_entry(cid).presentation, 1, None)
    assert search.automorphisms == AUTOMORPHISMS[cid]


def _scanned_lengths(lists):
    """Lengths of the compiled rotations in the from_f lists."""
    return {len(r) + 1 for rots in lists for r in rots}


@pytest.mark.parametrize("cid, reversible", [
    ("k1", True), ("k2", True), ("k4", True),
    ("k5", False), ("g1", False), ("g2", False)])
def test_reversible_relator_is_scanned_from_one_end(cid, reversible):
    # the third relator: ((y*x^-1)^a*(y^-1*x)^a)^m of k1, k2 and k4, whose
    # inverse read by columns is one of its rotations, so compiling the
    # inverse's rotations adds none; k5's long relator, and (x*y)^13 and
    # (x*y)^7 of g1 and g2, whose inverses add as many rotations again.
    # Scanning a cycle twice reaches the same nodes, so only this test
    # sees the saving.
    pres = census_entry(cid).presentation
    search = _Search(pres, 1, None)
    read = [l & ~1 if search.cols[l] is search.cols[l ^ 1] else l
            for l in range(4)]
    w = tuple(read[l] for l in pres.relators[2].cyclically_reduced().letters)
    rotations = {w[i:] + w[:i] for i in range(len(w))}
    compiled = {id(r) for rots in search.from_f for r in rots
                if len(r) + 1 == len(w)}
    assert len(compiled) == (1 if reversible else 2) * len(rotations)


INVOLUTION = {"k1": Y, "k2": Y, "k4": Y, "k5": Y, "k19": Y, "g1": X, "g2": X}


@pytest.mark.parametrize("cid", CENSUS_IDS)
def test_involution_has_one_column(cid):
    search = _Search(census_entry(cid).presentation, 1, None)
    shared = [g for g in (X, Y)
              if search.cols[g] is search.cols[g + 1]]
    assert shared == [INVOLUTION[cid]]
    assert len(search.columns) == 3
    # its square, read as that column twice, holds in every table
    assert 2 not in _scanned_lengths(search.from_f)
    assert search.from_f[INVOLUTION[cid]] is \
        search.from_f[INVOLUTION[cid] + 1]


@pytest.mark.parametrize("cid, max_index", [("k1", 8), ("k4", 8), ("k19", 6)])
def test_class_counts_match_sympy(cid, max_index):
    pres = census_entry(cid).presentation
    ours = Counter(t.n for t in low_index_subgroups(pres, max_index))
    assert ours == sympy_class_counts(pres, max_index)


def sympy_class_counts(pres, max_index):
    """Classes by index from sympy's Sims-style low-index search, an
    independent oracle, counting only the tables on which every relator
    holds: for some presentations with short relators sympy also returns
    tables that are not coset tables of the group, such as an index-2
    table of < x, y | x*y, y >, the trivial group, on which y swaps the
    two cosets."""
    from sympy.combinatorics.fp_groups import \
        low_index_subgroups as sympy_low_index

    group, _ = sympy_fp_group(pres)
    counts = Counter()
    for c in sympy_low_index(group, max_index):
        t = CosetTable(action=tuple(map(tuple, c.table)), presentation=pres)
        if all(t.word_action(r, k) == k
               for r in pres.relators for k in range(t.n)):
            counts[t.n] += 1
    return counts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(presentations(), symmetric_presentations()),
       st.integers(1, 6))
@example(parse_presentation(       # k4's square and one of its rotations
    "< x, y | ((y*x^-1)^2*(y^-1*x)^2)^2, (x*(y*x^-1)^2*y^-1*x*y^-1)^2, y^2 >"),
    6)
@example(parse_presentation("< x, y | x*y, y >"), 2)
def test_class_counts_match_sympy_on_random_presentations(pres, max_index):
    ours = Counter(t.n for t in low_index_subgroups(pres, max_index))
    assert ours == sympy_class_counts(pres, max_index)


def bfs_renumbering(action, base):
    """action renumbered by a BFS from coset base, visiting each row's
    letters in column order: the standard table of the conjugate
    subgroup that fixes base."""
    new, order = {base: 0}, [base]
    for c in order:
        for d in action[c]:
            if d not in new:
                new[d] = len(order)
                order.append(d)
    return tuple(tuple(new[d] for d in action[c]) for c in order)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(presentations(), symmetric_presentations()),
       st.integers(1, 6))
def test_emitted_tables_are_first_in_class(pres, max_index):
    # first-in-class checked without _first_in_class: each table is the
    # least in row-major order of its renumberings from every base
    for t in low_index_subgroups(pres, max_index):
        assert bfs_renumbering(t.action, 0) == t.action
        for beta in range(1, t.n):
            assert t.action <= bfs_renumbering(t.action, beta)


def assert_twins_emitted(pres, tables):
    """For each table and each letter automorphism s of pres, the least
    renumbering of the twin table, whose column l is column s(l), is
    itself a table of the output."""
    actions = {t.action for t in tables}
    for s in _Search(pres, 1, None).automorphisms:
        for t in tables:
            twin = tuple(tuple(row[k] for k in s) for row in t.action)
            assert min(bfs_renumbering(twin, beta)
                       for beta in range(t.n)) in actions


@pytest.mark.parametrize("cid, max_index", [("k4", 16), ("k5", 12)])
def test_twin_classes_are_emitted(cid, max_index):
    pres = census_entry(cid).presentation
    assert_twins_emitted(pres, low_index_subgroups(pres, max_index))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(symmetric_presentations(), st.integers(1, 6))
def test_twin_classes_are_emitted_on_symmetric_presentations(pres,
                                                             max_index):
    tables = low_index_subgroups(pres, max_index)
    assert_twins_emitted(pres, tables)
    # and the search modulo automorphisms emits what the plain one does
    _, plain_tables = plain_search(pres, max_index)
    assert tables_sha256(plain_tables) == tables_sha256(tables)


def compare_from_scratch(pairs, beta):
    """How the partial table renumbered by a BFS from beta compares with
    itself, reading column l of the renumbering from the first column of
    pairs[l] and comparing it with the second, cell by cell in row-major
    order: "smaller", "larger", "undefined" at the first undefined cell
    read, or "equal" to the end."""
    new, order = {beta: 0}, [beta]
    for alpha, old in enumerate(order):
        for src, col in pairs:
            gamma, orig = src[old], col[alpha]
            if gamma is None or orig is None:
                return "undefined"
            if gamma not in new:
                new[gamma] = len(order)
                order.append(gamma)
            if new[gamma] != orig:
                return "smaller" if new[gamma] < orig else "larger"
    return "equal"


class CheckedSearch(_Search):
    """The search with every first-in-class verdict checked against a
    comparison of each live base from scratch, and every branch point
    against the rows above it."""

    def _first_in_class(self, live):
        verdicts = [compare_from_scratch(pairs, mu[0])
                    for _, _, pairs, mu, *_ in live]
        kept = super()._first_in_class(live)
        assert (kept is None) == ("smaller" in verdicts)
        if kept is not None:
            bases = {id(entry[3]) for entry in kept}
            assert len(bases) == len(kept)
            undefined = {id(entry[3]) for entry, v in zip(live, verdicts)
                         if v == "undefined"}
            equal = {id(entry[3]) for entry, v in zip(live, verdicts)
                     if v == "equal"}
            assert undefined <= bases <= undefined | equal
            if equal:
                assert None not in {col[c] for col in self.columns
                                    for c in range(self.cosets())}
        return kept

    def _branch(self, start, n, live, stack):
        pushed = super()._branch(start, n, live, stack)
        if pushed:
            a = stack[-1][0]
            assert None not in {col[c] for col in self.columns
                                for c in range(a)}
        return pushed

    def cosets(self):
        """The cosets of the partial table: every coset c >= 1 has a
        defined cell, the one that made it, and rows left over from other
        subtrees have none."""
        n = 1
        while n < len(self.columns[0]) and any(col[n] is not None
                                               for col in self.columns):
            n += 1
        return n


def checked_search(pres, max_index, node_budget=None):
    """The tables of CheckedSearch, as low_index_subgroups sorts them,
    or None once node_budget is exceeded."""
    search = CheckedSearch(pres, max_index, node_budget)
    try:
        return sorted(search.run(), key=lambda t: (t.n, t.action))
    except SearchBudgetExceeded:
        return None


@pytest.mark.parametrize("cid, max_index", [
    ("k4", 12), ("k5", 10), ("k1", 12), ("k19", 9)])
def test_resumed_comparisons_match_comparisons_from_scratch(cid, max_index):
    pres = census_entry(cid).presentation
    assert tables_sha256(checked_search(pres, max_index)) == \
        tables_sha256(low_index_subgroups(pres, max_index))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(presentations(), symmetric_presentations()),
       st.integers(1, 7))
def test_resumed_comparisons_on_random_presentations(pres, max_index):
    # a budget bounds the free-like presentations; every comparison made
    # before it runs out is checked
    checked_search(pres, max_index, node_budget=2000)


def test_no_preallocation_by_max_index(k1_pres):
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(k1_pres, 10 ** 6, node_budget=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_emitted_tables_hold_no_certificates():
    # a table holds its action only; holding its n + 1 Schreier words as
    # well, O(n^2) letters, this search peaks near 22 MB
    pres = parse_presentation("< x, y | x^2, y^3 >")
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(pres, 10 ** 4, node_budget=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_emitted_tables_share_rows(k4_pres):
    # k4 <= 18: 215 classes, twins included, of 2 969 rows, 779 of them
    # distinct.  Each distinct row is one tuple across the tables, and
    # the results hold about 110 KB (tracemalloc); with a tuple per row
    # they hold about 260 KB.  A full collection empties the tuple free
    # lists, so every tuple the search frees is untraced and every one it
    # makes is traced.
    gc.collect()
    tracemalloc.start()
    try:
        tables = low_index_subgroups(k4_pres, 18)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 160 * 2 ** 10
    rows = [row for t in tables for row in t.action]
    assert (len(tables), len(rows)) == (215, 2969)
    assert len({id(row) for row in rows}) == len(set(rows)) == 779


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_search_hits_budget_not_recursion_limit():
    # Python's stack must not grow with the search depth.  At the default
    # recursion limit a path deep enough to show it (about 1000 cosets of
    # the modular group) costs minutes, so the limit is lowered to 100
    # frames above this one; a search that recursed once per definition
    # raises RecursionError at node 163 of this one.
    pres = parse_presentation("< x, y | x^2, y^3 >")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(pres, 70, node_budget=163)
    finally:
        sys.setrecursionlimit(limit)
