import gc
import hashlib
import sys
import tracemalloc
from collections import Counter
from itertools import permutations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (order_of, presentations, relabel, requires_full,
                      sympy_fp_group, symmetric_presentations)
from hall import (brute_force_homs, free_product_homs, subgroup_counts,
                  triangle_homs)
from cosetgeom import census_entry
from cosetgeom.census import CENSUS_IDS
from cosetgeom.lowindex import (SearchBudgetExceeded, _Search, least_table,
                                low_index_subgroups)
from cosetgeom.perms import Permutation, parse_cycles
from cosetgeom.toddcox import (NLETTERS, CosetTable, pair_rows, renumber,
                               schreier_generators, todd_coxeter)
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
    # base coset compares equal to the end, and no cell is left to wait on
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


def conjugates(table):
    """n/m, the number of subgroups in the class of the table's subgroup
    H: m = |N(H) : H| counts the cosets from which the table renumbers to
    itself."""
    row = table.action.__getitem__
    own = renumber(row, 0)
    return table.n // sum(renumber(row, c) == own for c in range(table.n))


def test_hall_oracle_counts_the_modular_group():
    # Stothers' counts of the subgroups of PSL(2, Z) (OEIS A005133), and
    # the brute-force count agreeing with the roots-of-1 count
    pres = parse_presentation("< x, y | x^2, y^3 >")
    homs = free_product_homs(2, 3, 12)
    assert brute_force_homs(pres, 7) == homs[:8]
    assert subgroup_counts(homs) == [
        0, 1, 1, 4, 8, 5, 22, 42, 40, 120, 265, 286, 764]


# Delta(p, q, r), the orientation-preserving triangle group
TRIANGLE = "< x, y | x^%d, y^%d, (x*y)^%d >"


# the subgroup counts a_n of Delta(2, 3, 7) at the indices n <= 24 where
# it has any
DELTA_237 = {1: 1, 7: 14, 8: 8, 9: 9, 14: 84, 15: 45, 21: 189, 22: 286,
             24: 8}


@pytest.mark.parametrize("max_index", [22, pytest.param(24,
                                                        marks=requires_full)])
def test_hall_oracle_counts_the_triangle_group(max_index):
    # Frobenius' count agreeing with the brute-force count
    homs = triangle_homs(2, 3, 7, max_index)
    assert brute_force_homs(parse_presentation(TRIANGLE % (2, 3, 7)), 7) \
        == homs[:8]
    assert {n: a for n, a in enumerate(subgroup_counts(homs)) if a} == {
        n: a for n, a in DELTA_237.items() if n <= max_index}


# (source, max_index, orders): a census id or a presentation, and the
# orders (p, q) of the free product Z_p * Z_q or (p, q, r) of the
# triangle group it presents, or None for a count by brute force
@pytest.mark.parametrize("source, max_index, orders", [
    ("< x, y | x^2, y^3 >", 16, (2, 3)),
    # all seven signed letter permutations are letter automorphisms
    ("< x, y | x^3, y^3 >", 10, (3, 3)),
    ("k1", 7, None), ("k2", 7, None), ("k4", 7, None), ("k5", 7, None),
    # no letter automorphism
    ("k19", 7, None),
    pytest.param("< x, y | x^2, y^3 >", 18, (2, 3), marks=requires_full),
    pytest.param("< x, y | x^3, y^3 >", 12, (3, 3), marks=requires_full),
    pytest.param("< x, y | x^2, y^4 >", 12, (2, 4), marks=requires_full),
    pytest.param("< x, y | x^2, y^5 >", 14, (2, 5), marks=requires_full),
    # Z_2 * Z, a free generator
    pytest.param("< x, y | x^2 >", 7, None, marks=requires_full),
] + [pytest.param(cid, 8, None, marks=requires_full) for cid in CENSUS_IDS] + [
    (TRIANGLE % (2, 3, 7), 22, (2, 3, 7)),
    pytest.param(TRIANGLE % (2, 3, 7), 24, (2, 3, 7), marks=requires_full),
    pytest.param(TRIANGLE % (2, 3, 8), 20, (2, 3, 8), marks=requires_full),
    pytest.param(TRIANGLE % (3, 3, 4), 18, (3, 3, 4), marks=requires_full),
])
def test_classes_count_each_subgroup_once(source, max_index, orders):
    # Hall's count of the subgroups of each index, against the classes
    # the search emits, each standing for its n/m conjugates: a class
    # missed or listed twice changes the sum
    if source in CENSUS_IDS:
        pres = census_entry(source).presentation
    else:
        pres = parse_presentation(source)
    if orders is None:
        homs = brute_force_homs(pres, max_index)
    elif len(orders) == 3:
        homs = triangle_homs(*orders, max_index)
    else:
        homs = free_product_homs(*orders, max_index)
    subgroups = [0] * (max_index + 1)
    for t in low_index_subgroups(pres, max_index):
        subgroups[t.n] += conjugates(t)
    assert subgroups == subgroup_counts(homs)


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


def brute_force_conjugate(a, b):
    """Whether some relabeling in S_n maps each permutation of pair a onto
    the same one of pair b."""
    n = a[0].degree
    return b[0].degree == n and any(
        all(relabel(p, sigma) == q for p, q in zip(a, b))
        for sigma in map(Permutation, permutations(range(n))))


def random_transitive_pair(rng, n):
    """A pair of permutations of 0..n-1 that generates a transitive group."""
    while True:
        pair = tuple(Permutation(rng.sample(range(n), n)) for _ in range(2))
        orbit, frontier = {0}, [0]
        while frontier:
            c = frontier.pop()
            for d in (g(c) for g in pair):
                if d not in orbit:
                    orbit.add(d)
                    frontier.append(d)
        if len(orbit) == n:
            return pair


def test_least_tables_decide_simultaneous_conjugacy():
    # against a search of S_n: half the second pairs are relabeled copies
    # of the first, half are drawn afresh, and some of those conjugate too
    rng = Random(1)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(1, 6)
        a = random_transitive_pair(rng, n)
        if rng.random() < 0.5:
            sigma = Permutation(rng.sample(range(n), n))
            b = tuple(relabel(p, sigma) for p in a)
        else:
            b = random_transitive_pair(rng, rng.randint(max(1, n - 1), n))
        equal = least_table(pair_rows(*a)) == least_table(pair_rows(*b))
        assert equal == brute_force_conjugate(a, b)
        verdicts[equal] += 1
    assert min(verdicts.values()) > 50


def test_least_tables_of_explicit_pairs():
    # conjugate, not conjugate, and of another degree
    def least(x, y, n):
        return least_table(pair_rows(parse_cycles(x, n), parse_cycles(y, n)))
    a = least("(1,2,3)", "(1,2)", 3)
    assert a == least("(1,3,2)", "(2,3)", 3)
    assert a != least("(1,2,3)", "(1,2,3)", 3)
    assert a != least("(1,2,3,4)", "(1,2)", 4)


def test_intransitive_least_table_has_fewer_rows_than_points():
    table = least_table(pair_rows(parse_cycles("(1,2)", 4),
                                  parse_cycles("(3,4)", 4)))
    assert len(table) == 2


def test_least_table_is_least_unbounded_renumbering():
    # seeded random actions of degree 1-8: a renumbering bounded by
    # another is that renumbering when it is no larger, else None, and
    # least_table is the least unbounded renumbering over all bases
    rng = Random(35)
    transitive = Counter()
    for _ in range(200):
        n = rng.randint(1, 8)
        # about half the pairs fix the points below a random split, and
        # a relabeling by sigma scatters the two sets
        split = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.5 else 0
        sigma = Permutation(rng.sample(range(n), n))
        rows = pair_rows(*(relabel(Permutation(
            rng.sample(range(split), split)
            + rng.sample(range(split, n), n - split)), sigma)
            for _ in range(2)))
        unbounded = [renumber(rows.__getitem__, b) for b in range(n)]
        assert unbounded == [bfs_renumbering(rows, b) for b in range(n)]
        for bound in unbounded:
            for b, table in enumerate(unbounded):
                assert renumber(rows.__getitem__, b, bound) == (
                    table if table <= bound else None)
        assert least_table(rows) == min(unbounded)
        transitive[len(unbounded[0]) == n] += 1
    assert min(transitive.values()) > 50


def test_pair_rows_inverts_perm_rep():
    for cid, max_index in (("k1", 14), ("k4", 18)):
        pres = census_entry(cid).presentation
        for t in low_index_subgroups(pres, max_index):
            assert pair_rows(*t.perm_rep()) == list(t.action)


@pytest.mark.parametrize("cid, max_index", [
    ("k1", 14), ("k4", 18), ("k5", 12), ("k19", 12)])
def test_search_tables_are_their_own_least_tables(cid, max_index):
    tables = low_index_subgroups(census_entry(cid).presentation, max_index)
    for t in tables:
        assert least_table(t.action) == t.action


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


def relator_waits(cols, word, c):
    """Whether the letter tuple word, read by the columns cols from coset
    c, closes back at c, or leaves two or more undefined cells between
    where a forward scan and a backward scan stop: then propagation has
    nothing to deduce from it.  One undefined cell left is a missed
    deduction, and a backward scan past the forward one's stop a missed
    coincidence."""
    x, i = c, 0
    while i < len(word) and cols[word[i]][x] is not None:
        x = cols[word[i]][x]
        i += 1
    if i == len(word):
        return x == c
    y, j = c, len(word)
    while j > i and cols[word[j - 1] ^ 1][y] is not None:
        y = cols[word[j - 1] ^ 1][y]
        j -= 1
    return j - i >= 2


class CheckedSearch(_Search):
    """The search with every first-in-class verdict checked against a
    comparison of each live base from scratch, every kept base's wait
    cell, and every branch point against the rows above it.  As the
    first-in-class test runs after every propagation that succeeds, it
    also checks that propagation reached its closure, in whatever order
    the trail queued the deductions: every relator, scanned from every
    coset, closes or waits on two cells."""

    def _first_in_class(self, live):
        relators = [r.cyclically_reduced().letters
                    for r in self.pres.relators]
        assert all(relator_waits(self.cols, w, c)
                   for c in range(self.cosets()) for w in relators)
        verdicts = [compare_from_scratch(pairs, mu[0])
                    for pairs, mu, *_ in live]
        kept = super()._first_in_class(live)
        assert (kept is None) == ("smaller" in verdicts)
        if kept is not None:
            bases = {id(entry[1]) for entry in kept}
            assert len(bases) == len(kept)
            undefined = {id(entry[1]) for entry, v in zip(live, verdicts)
                         if v == "undefined"}
            equal = {id(entry[1]) for entry, v in zip(live, verdicts)
                     if v == "equal"}
            assert undefined <= bases <= undefined | equal
            if equal:
                assert None not in {col[c] for col in self.columns
                                    for c in range(self.cosets())}
            # a kept base waits on the cell its comparison stopped at,
            # unless it compared equal to the end of a complete table
            for pairs, mu, _, alpha, pos, count in kept:
                assert alpha == count or pairs[pos][0][mu[alpha]] is None
        return kept

    def _branch(self, start, n, live, stack):
        pushed = super()._branch(start, n, live, stack)
        if pushed:
            a = stack[-1][0] // NLETTERS
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


@pytest.mark.parametrize("source, max_index, nodes, classes", [
    ("< x, y | x >", 6, 11, 6),
    ("< x, y | x, y^4 >", 6, 6, 3),
])
def test_one_letter_relator_is_deduced(source, max_index, nodes, classes):
    # a relator that cyclically reduces to one letter l sets (c, l) = c
    # when coset c is made.  A search that branched on that cell would
    # try every value, all but c failing: 33 and 18 nodes here
    search = CheckedSearch(parse_presentation(source), max_index, None)
    tables = search.run()
    assert (search.nodes, len(tables)) == (nodes, classes)


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
