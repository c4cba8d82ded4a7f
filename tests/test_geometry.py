from itertools import combinations

import pytest

from conftest import group_of, order_of, record, relabel, requires_full
from cosetgeom.geometry import (IncidenceGeometry, _bfs, _image,
                                _incidence_masks, _orbits, geometry_from_class,
                                incidence_graph_stats, maximal_cliques,
                                pair_classes, polygon_check, recognize)
from cosetgeom.perms import PermGroup, Permutation, parse_cycles


def test_incidence_geometry_validation():
    IncidenceGeometry(3, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        IncidenceGeometry(3, ((0,),))
    with pytest.raises(ValueError):
        IncidenceGeometry(3, ((1, 0),))
    with pytest.raises(ValueError):
        IncidenceGeometry(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        IncidenceGeometry(3, ((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="out of range"):
        IncidenceGeometry(3, ((0, 3),))
    # the shorter line lies in one of two longer lines of equal size
    with pytest.raises(ValueError, match="contains"):
        IncidenceGeometry(4, ((0, 1), (0, 1, 2), (1, 2, 3)))


def test_maximal_cliques_square_plus_diagonal():
    # 4-cycle with one chord: cliques {0,1,2} triangle and edges
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    cliques = maximal_cliques(4, edges)
    assert (0, 1, 2) in cliques
    assert (0, 2, 3) in cliques
    assert len(cliques) == 2


def test_pair_classes_regular_action():
    # Z4 acting on itself: all two-point stabilizers trivial
    g = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    classes = pair_classes(g)
    assert all(c.stab_order == 1 for c in classes)
    assert sum(len(c.pairs) for c in classes) == 6


def test_pair_classes_sorted_and_partition(k19_grids):
    g = group_of(k19_grids)
    classes = pair_classes(g)
    assert [c.stab_order for c in classes] == [2, 1]
    assert sorted(len(c.pairs) for c in classes) == [18, 18]
    everything = set()
    for c in classes:
        everything.update(c.pairs)
    assert everything == set(combinations(range(9), 2))


def test_k19_grids(k19_grids):
    g = group_of(k19_grids)
    for cls in pair_classes(g):
        geom = geometry_from_class(g, cls.pairs)
        assert recognize(geom) == record("k19", 9).geometry
        check = polygon_check(geom)
        assert check.is_gp and (check.n, check.s, check.t) == (4, 2, 1)


def test_hesse_from_fix_sets(k4_to_9):
    r = record("k4", 9)
    hits = 0
    for t in (t for t in k4_to_9 if t.n == 9 and order_of(t) == r.order):
        g = group_of(t)
        (cls,) = pair_classes(g)
        geom = geometry_from_class(g, cls.pairs)
        assert recognize(geom) == r.geometry
        assert len(geom.lines) == 12
        assert not polygon_check(geom).is_gp
        hits += 1
    assert hits == r.count


def test_pentagram_from_cliques(k1_to_10):
    r = record("k1", 10)
    t = next(t for t in k1_to_10 if t.n == 10 and order_of(t) == r.order)
    g = group_of(t)
    classes = pair_classes(g)
    trivial = next(c for c in classes if c.stab_order == 1)
    geom = geometry_from_class(g, trivial.pairs)
    assert recognize(geom) == r.geometry
    assert len(geom.lines) == 5 and all(len(l) == 4 for l in geom.lines)
    petersen = next(c for c in classes if c.stab_order == 2)
    assert recognize(geometry_from_class(g, petersen.pairs)) == "Petersen graph"


def test_k6_from_complete_trivial_class(k1_to_10):
    for t in (t for t in k1_to_10 if t.n == 6 and order_of(t) == 6):
        g = group_of(t)
        (cls,) = pair_classes(g)
        geom = geometry_from_class(g, cls.pairs)
        assert recognize(geom) == "K6"
        assert len(geom.lines) == 15


def test_fano(k1_pres):
    # every class at index 7 is one that k1@7's record counts
    from cosetgeom import low_index_subgroups
    r = record("k1", 7)
    tables = [t for t in low_index_subgroups(k1_pres, 7) if t.n == 7]
    assert len(tables) == r.count
    for t in tables:
        g = group_of(t)
        (cls,) = pair_classes(g)
        geom = geometry_from_class(g, cls.pairs)
        assert recognize(geom) == r.geometry
        check = polygon_check(geom)
        assert check.is_gp and (check.n, check.s, check.t) == (3, 2, 2)


def test_stats_single_line_acyclic():
    geom = IncidenceGeometry(3, ((0, 1, 2),))
    stats = incidence_graph_stats(geom)
    assert stats.connected
    assert stats.diameter == 2
    assert stats.girth is None


def test_stats_disconnected_flag():
    geom = IncidenceGeometry(4, ((0, 1), (2, 3)))
    assert not incidence_graph_stats(geom).connected


def test_polygon_check_ordinary_pentagon():
    geom = IncidenceGeometry(5, tuple(
        tuple(sorted((i, (i + 1) % 5))) for i in range(5)))
    check = polygon_check(geom)
    # thin (s=1): gonality 5 allowed despite 5 not in the thick spectrum
    assert check.is_gp and (check.n, check.s, check.t) == (5, 1, 1)


def test_recognize_no_match():
    # the 4-cycle is the thin quadrangle GQ(1,1); a polygon with 2-point
    # lines is a graph and is not named
    geom = IncidenceGeometry(4, tuple(
        tuple(sorted((i, (i + 1) % 4))) for i in range(4)))
    check = polygon_check(geom)
    assert check.is_gp and (check.n, check.s, check.t) == (4, 1, 1)
    assert recognize(geom) is None


def test_doily_is_named_by_the_polygon_test():
    # points: the 2-subsets of {0..5}; lines: its perfect matchings.  This
    # is GQ(2,2), which no row of the recognition table describes
    points = list(combinations(range(6), 2))
    lines = tuple(sorted(
        tuple(points.index(pair) for pair in matching)
        for matching in combinations(points, 3)
        if len(set().union(*matching)) == 6))
    geom = IncidenceGeometry(15, lines)
    check = polygon_check(geom)
    assert check.is_gp and (check.n, check.s, check.t) == (4, 2, 2)
    assert recognize(geom) == "GQ(2,2)"


def test_geometry_conjugation_invariance(k19_grids):
    g = group_of(k19_grids)
    sigma = parse_cycles("(1,9)(2,8)", 9)
    g2 = PermGroup([relabel(p, sigma) for p in g.generators])
    names = sorted(recognize(geometry_from_class(g, c.pairs)) or "-"
                   for c in pair_classes(g))
    names2 = sorted(recognize(geometry_from_class(g2, c.pairs)) or "-"
                    for c in pair_classes(g2))
    assert names == names2


def test_double_count_identity(k1_to_10):
    for t in k1_to_10:
        if t.n < 3:
            continue
        g = group_of(t)
        for cls in pair_classes(g):
            geom = geometry_from_class(g, cls.pairs)
            check = polygon_check(geom)
            if check.is_gp:
                assert geom.n * (check.t + 1) == len(geom.lines) * (check.s + 1)


def test_exports():
    geom = IncidenceGeometry(3, ((0, 1), (1, 2)))
    assert geom.to_json_dict() == {"points": 3, "lines": [[1, 2], [2, 3]]}


def test_lines_are_ordered_by_the_constructor():
    """The pentagon given in ring order holds, compares and prints its
    lines sorted."""
    ring = IncidenceGeometry(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert ring.lines == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert ring == IncidenceGeometry(5, tuple(sorted(ring.lines)))
    assert ring.to_json_dict()["lines"] \
        == [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]


def test_stats_from_orbit_representatives(census_groups):
    for g in census_groups:
        for cls in pair_classes(g):
            geom = geometry_from_class(g, cls.pairs)
            assert geom.symmetry == g.generators
            plain = IncidenceGeometry(geom.n, geom.lines)
            assert incidence_graph_stats(geom) == incidence_graph_stats(plain)


def test_fixed_point_lines_from_pair_orbits(census_groups):
    complete = 0
    for g in census_groups:
        n = g.degree
        for cls in pair_classes(g):
            if len(cls.pairs) != n * (n - 1) // 2:
                continue
            expected = set()
            for p, q in cls.pairs:
                stab = g.two_point_stabilizer(p, q)
                if stab.order() == 1:
                    expected.add((p, q))
                else:
                    expected.add(tuple(x for x in range(n) if all(
                        h(x) == x for h in stab.generators)))
            lines = geometry_from_class(g, cls.pairs).lines
            assert lines == tuple(sorted(expected))
            complete += cls.stab_order > 1
    assert complete > 0


def test_point_0_stabilizer_work_per_class(monkeypatch, census_groups):
    # a complete class asks G_0 for at most one stabilizer per suborbit,
    # any other class asks it for none: lines are found through point 0
    calls = []
    stabilizer = PermGroup.point_stabilizer
    monkeypatch.setattr(PermGroup, "point_stabilizer",
                        lambda h, p: calls.append(h) or stabilizer(h, p))
    complete = 0
    for g in census_groups:
        n = g.degree
        g0 = g.point_stabilizer(0)
        suborbits = len(_orbits(range(1, n), g0.generators,
                                lambda h, p: h.images[p]))
        for cls in pair_classes(g):
            calls.clear()
            geometry_from_class(g, cls.pairs)
            on_g0 = sum(h is g0 for h in calls)
            if len(cls.pairs) == n * (n - 1) // 2:
                assert on_g0 <= suborbits
                complete += 1
            else:
                assert on_g0 == 0
    assert complete > 0


def test_clique_lines_are_the_largest_cliques_of_the_graph(
        differential_tables):
    # lines through point 0 carried by the generators are exactly the
    # maximum-size cliques of the whole class graph
    checked = 0
    for t in differential_tables:
        g = group_of(t)
        n = g.degree
        for cls in pair_classes(g):
            if len(cls.pairs) == n * (n - 1) // 2:
                continue
            cliques = maximal_cliques(n, cls.pairs)
            top = max(map(len, cliques))
            assert geometry_from_class(g, cls.pairs).lines == tuple(
                c for c in cliques if len(c) == top)
            checked += 1
    assert checked == 101


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 2), (2, 0), (0, 5)], "out of range"),
    ([(0, 3)], "out of range"),
    ([(-1, 1), (1, 2)], "out of range"),
    ([(0, 0), (0, 1), (1, 2)], "itself"),
    ([(0, 1), (0, 1), (1, 2)], "repeated"),
    ([(0, 1), (1, 0), (1, 2)], "repeated"),
    ([], "empty"),
    ([(0, 1)], "preserve"),
])
def test_geometry_from_class_refuses_malformed_pairs(pairs, message):
    g = PermGroup([parse_cycles("(1,2,3)", 3)])
    with pytest.raises(ValueError, match=message):
        geometry_from_class(g, pairs)


def test_geometry_from_class_needs_a_transitive_group():
    g = PermGroup([parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)])
    with pytest.raises(ValueError, match="transitive"):
        geometry_from_class(g, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="transitive"):
        pair_classes(g)


@requires_full
def test_g1_h1_class_geometries(h1_group):
    g = h1_group
    classes = pair_classes(g)
    first, second, third = (geometry_from_class(g, c.pairs)
                            for c in classes[:3])
    assert len(first.lines) == 2925
    assert {len(line) for line in first.lines} == {3}
    check = polygon_check(first)
    assert (check.n, check.s, check.t) == (8, 2, 4)
    assert recognize(first) == record("g1", 1755).geometry
    assert len(second.lines) == 56160
    assert {len(line) for line in second.lines} == {5}
    assert len(third.lines) == 249600
    assert {len(line) for line in third.lines} == {9}
    assert third.stats.lines_per_point == ((1280, 1755),)


def test_symmetry_must_preserve_lines():
    square = ((0, 1), (0, 3), (1, 2), (2, 3))
    rotation = Permutation((1, 2, 3, 0))
    geom = IncidenceGeometry(4, square, symmetry=(rotation,))
    assert geom == IncidenceGeometry(4, square)
    with pytest.raises(ValueError, match="preserve"):
        IncidenceGeometry(4, ((0, 1), (2, 3)), symmetry=(rotation,))
    with pytest.raises(ValueError):
        IncidenceGeometry(4, square, symmetry=(Permutation((1, 2, 0)),))
    with pytest.raises(ValueError):
        IncidenceGeometry(4, ((0, 1, 2, 3), (1, 3)))


def test_analyze_table_computes_stats_once_per_class(monkeypatch, k19_grids):
    from cosetgeom import cli, geometry
    calls = []
    stats = geometry.incidence_graph_stats
    monkeypatch.setattr(geometry, "incidence_graph_stats",
                        lambda geom: calls.append(geom) or stats(geom))
    report = cli.analyze_table(k19_grids)
    assert len(calls) == len(report["classes"]) == 2


def _fingerprint_merged_classes(g):
    """(stabilizer order, pairs) of each pair class, sorted as
    pair_classes sorts them: every pair orbit's stabilizer is
    fingerprinted, and orbits are merged on the whole Fingerprint."""
    by_fp = {}
    for seed, orbit in _orbits(combinations(range(g.degree), 2),
                               g.generators, _image):
        fp = g.two_point_stabilizer(*seed).fingerprint()
        by_fp.setdefault(fp, set()).update(orbit)
    return sorted(((fp.order, tuple(sorted(pairs)))
                   for fp, pairs in by_fp.items()),
                  key=lambda c: (-c[0], len(c[1]), c[1]))


def _pair_orbit_classes(g):
    """(stabilizer order, pairs) of each pair class, sorted as
    pair_classes sorts them: the orbits of g on all pairs, each with the
    order of its least pair's stabilizer, merged on fingerprints only
    where several orbits share an order."""
    by_order = {}
    for seed, orbit in _orbits(combinations(range(g.degree), 2),
                               g.generators, _image):
        stab = g.two_point_stabilizer(*seed)
        by_order.setdefault(stab.order(), []).append((stab, orbit))
    classes = []
    for order, bucket in by_order.items():
        merged = {}
        for stab, orbit in bucket:
            key = stab.fingerprint() if len(bucket) > 1 else None
            merged.setdefault(key, set()).update(orbit)
        classes.extend((order, tuple(sorted(pairs)))
                       for pairs in merged.values())
    return sorted(classes, key=lambda c: (-c[0], len(c[1]), c[1]))


def test_pair_classes_match_fingerprint_merge(differential_tables):
    for t in differential_tables:
        classes = [(c.stab_order, c.pairs) for c in pair_classes(group_of(t))]
        assert classes == _pair_orbit_classes(group_of(t))
        assert classes == _fingerprint_merged_classes(group_of(t))


def test_pair_classes_fingerprint_only_shared_orders(monkeypatch,
                                                     differential_tables):
    # a group whose pair orbits all have distinct stabilizer orders needs
    # no two-point stabilizer: orders come from the suborbits of point 0
    calls = []
    build = PermGroup.two_point_stabilizer
    monkeypatch.setattr(PermGroup, "two_point_stabilizer",
                        lambda g, p, q: calls.append((p, q)) or build(g, p, q))
    distinct = 0
    for t in differential_tables:
        g = group_of(t)
        orders = [g.two_point_stabilizer(*seed).order() for seed, _ in _orbits(
            combinations(range(g.degree), 2), g.generators, _image)]
        if t.n < 3 or len(set(orders)) < len(orders):
            continue
        calls.clear()
        pair_classes(group_of(t))
        assert calls == []
        distinct += 1
    assert distinct > 0
    gens = ("(1,2,4,3)(5,6,9,8)(7,10,12,11)", "(1,2,5,3)(4,6,9,7)(8,10,12,11)")
    calls.clear()
    pair_classes(PermGroup([parse_cycles(c, 12) for c in gens]))
    assert len(calls) == 2


def test_pair_classes_split_equal_stabilizer_orders():
    # no census group has two pair orbits whose stabilizers share an order
    # but not a fingerprint; this index-12 action of
    # < x, y | x^4, y^4, [x,y]^2 > (order 1296) has two, of order 36
    gens = ("(1,2,4,3)(5,6,9,8)(7,10,12,11)", "(1,2,5,3)(4,6,9,7)(8,10,12,11)")
    g = PermGroup([parse_cycles(c, 12) for c in gens])
    classes = pair_classes(g)
    assert g.order() == 1296
    assert [c.stab_order for c in classes] == [54, 36, 36]
    assert [(c.stab_order, c.pairs) for c in classes] \
        == _fingerprint_merged_classes(PermGroup(g.generators))


def _set_bron_kerbosch(adj, r, p, x, out):
    """Bron-Kerbosch with pivoting on Python sets, the oracle for the
    bitset version."""
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
    for v in sorted(p - adj[pivot]):
        _set_bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}


def _set_maximal_cliques(n, edges):
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    _set_bron_kerbosch(adj, set(), set(range(n)), set(), out)
    return sorted(out)


def test_maximal_cliques_match_set_bron_kerbosch(differential_tables):
    graphs = [(0, ()), (5, ())]
    for t in differential_tables:
        graphs.extend((t.n, cls.pairs) for cls in pair_classes(group_of(t)))
    for n, edges in graphs:
        assert maximal_cliques(n, edges) == _set_maximal_cliques(n, edges)


def _list_bfs(adj, start):
    """(vertices reached, eccentricity, shortest cycle seen or None) of a
    breadth-first search on adjacency lists, the oracle for the bitset
    _bfs."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[start] = 0
    queue = [start]
    girth = None
    for u in queue:
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                parent[v] = u
                queue.append(v)
            elif parent[u] != v and dist[v] >= du:
                cyc = du + dist[v] + 1
                if girth is None or cyc < girth:
                    girth = cyc
    return len(queue), dist[queue[-1]], girth


def test_bitset_bfs_matches_list_bfs(census_groups):
    # from every vertex of every census geometry's incidence graph (points
    # first, then lines), and of a tree, a triangle (girth 6), a square
    # with a pendant line (girth 8), two components and an isolated point
    geoms = [geometry_from_class(g, cls.pairs)
             for g in census_groups for cls in pair_classes(g)]
    assert len(geoms) == 94
    geoms += [IncidenceGeometry(n, lines) for n, lines in (
        (3, ((0, 1), (1, 2))),
        (3, ((0, 1), (0, 2), (1, 2))),
        (5, ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3))),
        (4, ((0, 1), (2, 3))),
        (3, ((0, 1),)))]
    for geom in geoms:
        n = geom.n
        adj = [[] for _ in range(n)]
        for li, line in enumerate(geom.lines):
            for p in line:
                adj[p].append(n + li)
        adj += [list(line) for line in geom.lines]
        masks = _incidence_masks(geom)
        for v in range(len(adj)):
            side, start = (0, v) if v < n else (1, v - n)
            assert _bfs(masks, side, start) == _list_bfs(adj, v)


def test_line_action_indexes_the_line_images(census_groups):
    for g in census_groups:
        for cls in pair_classes(g):
            geom = geometry_from_class(g, cls.pairs)
            assert len(geom.line_action) == len(geom.symmetry)
            for perm, row in zip(geom.symmetry, geom.line_action):
                assert row == tuple(geom.lines.index(_image(perm, line))
                                    for line in geom.lines)
