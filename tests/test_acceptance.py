"""Acceptance gate: one test per numbered criterion.

Sub-claims that the shipped data, under the package's defaults, do not
reach are split into strict-xfail tests whose reasons are the census
Claim records of the computed truth; everything else must pass within
its time budget.
"""

import time
from fractions import Fraction

from conftest import (group_of, order_of, published, quotient_pairs,
                      requires_full)
from cosetgeom import (census_entry, dessin_from_table, least_table,
                       low_index_subgroups, modular_data, pair_rows, passport,
                       signature, todd_coxeter)
from cosetgeom.cli import bundled_certificate
from cosetgeom.contextuality import contextuality_report, labeling_from_table
from cosetgeom.geometry import (geometry_from_class, incidence_graph_stats,
                                pair_classes, recognize)
from cosetgeom.perms import PermGroup, Permutation, parse_cycles


def _classes_at(id, index):
    pres = census_entry(id).presentation
    return [t for t in low_index_subgroups(pres, index) if t.n == index]


def _recognized_names(table):
    g = group_of(table)
    return {recognize(geometry_from_class(g, c.pairs))
            for c in pair_classes(g)} - {None}


def test_criterion_01_k4_index4_published_pairs():
    t0 = time.perf_counter()
    tables = _classes_at("k4", 4)
    pairs = [("(2,3)", "(1,2)(3,4)"), ("(1,2)(3,4)", "(2,3)"),
             ("(1,2,4,3)", "(1,2)(3,4)"), ("(1,2,4,3)", "(2,3)")]
    matched = []
    for gx, gy in pairs:
        target = least_table(pair_rows(parse_cycles(gx, 4),
                                       parse_cycles(gy, 4)))
        hit = [t for t in tables if least_table(t.action) == target]
        assert hit, "no class matches (%s, %s)" % (gx, gy)
        matched.extend(hit)
    assert len({t.action for t in matched}) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("PASS criterion 1: 4 published index-4 generator pairs matched "
          "up to simultaneous relabeling (%.2fs)" % elapsed)


@published("k4", "4 classes at index 4")
def test_criterion_01_literal_index4_count():
    assert len(_classes_at("k4", 4)) == 4


def test_criterion_02_k4_index9_hesse():
    t0 = time.perf_counter()
    tables = _classes_at("k4", 9)
    assert len(tables) == 2
    assert [order_of(t) for t in tables] == [144, 144]
    for t in tables:
        assert "Hesse configuration" in _recognized_names(t)
        g = group_of(t)
        (cls,) = pair_classes(g)
        geom = geometry_from_class(g, cls.pairs)
        assert geom.n == 9 and len(geom.lines) == 12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 2: index 9 gives 2 classes of order 144 with the "
          "Hesse 9-point/12-line system (%.2fs)" % elapsed)


@published("k4", "the Hesse configuration at index 9 is maximally contextual")
def test_criterion_02_hesse_maximal():
    t = _classes_at("k4", 9)[0]
    g = group_of(t)
    (cls,) = pair_classes(g)
    geom = geometry_from_class(g, cls.pairs)
    report = contextuality_report(labeling_from_table(t), geom, "coset")
    assert report.maximal


def test_criterion_03_k4_index10_and_15():
    t0 = time.perf_counter()
    ten = [t for t in _classes_at("k4", 10) if order_of(t) == 120]
    for t in ten:
        assert group_of(t).fingerprint().element_orders() == {1, 2, 3, 4, 5, 6}
    # the published pair of S5 classes is the pair carrying the Petersen
    # graph (and pentagram) line systems
    assert sum(1 for t in ten
               if "Petersen graph" in _recognized_names(t)) == 2
    fifteen = _classes_at("k4", 15)
    assert len(fifteen) == 2
    for t in fifteen:
        assert order_of(t) == 120
        assert "Petersen line graph" in _recognized_names(t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print("PASS criterion 3: 2 Petersen-stabilizing S5 classes at index 10; "
          "both index-15 classes carry the 15-point triangle-line system "
          "(%.2fs)" % elapsed)


@published("k4", "2 classes of order 120 at index 10")
def test_criterion_03_literal_order120_count():
    ten = _classes_at("k4", 10)
    assert sum(1 for t in ten if order_of(t) == 120) == 2


def test_criterion_04_k19_grids():
    t0 = time.perf_counter()
    tables = [t for t in _classes_at("k19", 9) if order_of(t) == 36]
    assert len(tables) == 1
    (t,) = tables
    g = group_of(t)
    classes = pair_classes(g)
    assert len(classes) == 2
    for cls in classes:
        geom = geometry_from_class(g, cls.pairs)
        assert recognize(geom) == "GQ(2,1)"
        assert geom.n == 9 and len(geom.lines) == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 4: order-36 class with two pair classes, both "
          "3x3 grids GQ(2,1) (%.2fs)" % elapsed)


@published(
    "k19",
    "the grids (Mermin squares) at index 9 are 0/6 and 1/6 non-commuting")
def test_criterion_04_grid_verdict_pattern():
    (t,) = [t for t in _classes_at("k19", 9) if order_of(t) == 36]
    g = group_of(t)
    lab = labeling_from_table(t)
    scores = set()
    for cls in pair_classes(g):
        geom = geometry_from_class(g, cls.pairs)
        scores.add(contextuality_report(lab, geom, "coset").score)
    assert scores == {Fraction(0), Fraction(1, 6)}


def test_criterion_05_k1_small_indices():
    t0 = time.perf_counter()
    six = _classes_at("k1", 6)
    gamma2 = [t for t in six if order_of(t) == 6
              and group_of(t).derived_index() == 2]
    assert len(gamma2) == 1
    assert _recognized_names(gamma2[0]) == {"K6"}
    seven = _classes_at("k1", 7)
    assert len(seven) == 2
    for t in seven:
        assert order_of(t) == 168
        assert "Fano plane" in _recognized_names(t)
    ten = [t for t in _classes_at("k1", 10) if order_of(t) == 60]
    assert len(ten) == 1
    g = group_of(ten[0])
    pent = [geometry_from_class(g, c.pairs) for c in pair_classes(g)]
    pent = [geom for geom in pent if recognize(geom) == "Mermin pentagram"]
    assert len(pent) == 1
    assert pent[0].n == 10 and sorted(len(l) for l in pent[0].lines) == [4] * 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print("PASS criterion 5: K6 from the index-6 S3-quotient class, 2 Fano "
          "classes of order 168 at index 7, 1 order-60 pentagram class at "
          "index 10 (%.2fs)" % elapsed)


@published("k1", "5 classes at index 6")
def test_criterion_05_literal_index6_count():
    assert len(_classes_at("k1", 6)) == 5


@published("k1", "the K6 at index 6 is maximally contextual")
def test_criterion_05_k6_maximal():
    (t,) = [t for t in _classes_at("k1", 6) if order_of(t) == 6
            and group_of(t).derived_index() == 2]
    g = group_of(t)
    (cls,) = pair_classes(g)
    geom = geometry_from_class(g, cls.pairs)
    assert contextuality_report(labeling_from_table(t), geom,
                                "coset").maximal


@published("k1", "the Fano planes at index 7 are maximally contextual")
def test_criterion_05_fano_maximal():
    t = _classes_at("k1", 7)[0]
    g = group_of(t)
    (cls,) = pair_classes(g)
    geom = geometry_from_class(g, cls.pairs)
    assert contextuality_report(labeling_from_table(t), geom,
                                "coset").maximal


def test_criterion_06_k1_index21():
    t0 = time.perf_counter()
    tables = _classes_at("k1", 21)
    hits = [t for t in tables if order_of(t) == 336]
    assert len(hits) == 1
    (t,) = hits
    assert str(passport(dessin_from_table(t))) == "[3^7, 2^9 1^3, 8^2 4^1 1^1]"
    g = group_of(t)
    geoms = [geometry_from_class(g, c.pairs) for c in pair_classes(g)]
    gh = [geom for geom in geoms if recognize(geom) == "GH(2,1)"]
    assert len(gh) == 1
    stats = incidence_graph_stats(gh[0])
    assert (gh[0].n, len(gh[0].lines)) == (21, 14)
    assert (stats.diameter, stats.girth) == (6, 12)
    search_elapsed = time.perf_counter() - t0
    assert search_elapsed < 300
    t0 = time.perf_counter()
    replay = todd_coxeter(bundled_certificate("k1", 21))
    replay_elapsed = time.perf_counter() - t0
    assert replay.n == 21 and order_of(replay) == 336
    assert replay_elapsed < 10
    print("PASS criterion 6: unique order-336 class at index 21, passport "
          "[3^7, 2^9 1^3, 8^2 4^1 1^1], GH(2,1) 21/14 diam 6 girth 12 "
          "(search %.2fs, replay %.2fs)" % (search_elapsed, replay_elapsed))


@published("k1", "1 class at index 21")
def test_criterion_06_literal_index21_count():
    assert len(_classes_at("k1", 21)) == 1


def test_criterion_07_pentagram_dessin():
    (t,) = [x for x in _classes_at("k1", 10) if order_of(x) == 60]
    d = dessin_from_table(t)
    p = passport(d)
    assert signature(p).as_tuple() == (4, 6, 2, 0)
    md = modular_data(p)
    assert (md.nu2, md.nu3, md.c, md.f) == (1, 2, 2, 4)
    print("PASS criterion 7: pentagram signature (4,6,2,0) and modular data "
          "nu2=1 nu3=2 c=2 f=4")


def test_criterion_08_k5_index45_certificate():
    t0 = time.perf_counter()
    table = todd_coxeter(bundled_certificate("k5", 45))
    assert table.n == 45
    assert order_of(table) == 360
    g = group_of(table)
    geoms = [geometry_from_class(g, c.pairs) for c in pair_classes(g)]
    go = [geom for geom in geoms if recognize(geom) == "GO(2,1)"]
    assert len(go) == 1
    stats = incidence_graph_stats(go[0])
    assert (go[0].n, len(go[0].lines)) == (45, 30)
    assert (stats.diameter, stats.girth) == (8, 16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 8: certificate replay gives index 45, order 360, "
          "GO(2,1) 45/30 diam 8 girth 16 (%.2fs)" % elapsed)


def test_criterion_08_index45_uniqueness_by_quotient_enumeration():
    # every (x, y) in A6 satisfying the relators and generating A6; the
    # number of such pairs equals |Aut(A6)| = 1440, so there is exactly
    # one epimorphism kernel and exactly one conjugacy class of index-45
    # subgroups with order-360 image
    t0 = time.perf_counter()
    a6 = PermGroup([parse_cycles(c, 6) for c in ("(1,2,3)", "(2,3,4,5,6)")])
    assert a6.order() == 360
    els = [Permutation(e) for e in a6.elements()]
    xs = [e for e in els if e.order() in (1, 2, 4)]
    ys = [e for e in els if e.order() in (1, 2)]
    _, count = quotient_pairs(census_entry("k5").presentation.relators,
                              xs, ys, 360)
    assert count == 1440
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print("PASS criterion 8 (discovery): 1440 = |Aut(A6)| valid generating "
          "pairs, hence exactly 1 subgroup class (%.2fs)" % elapsed)


@published("k5", "GO(2,1) at index 45 is maximally contextual")
def test_criterion_08_go21_maximal():
    table = todd_coxeter(bundled_certificate("k5", 45))
    g = group_of(table)
    for cls in pair_classes(g):
        geom = geometry_from_class(g, cls.pairs)
        if recognize(geom) == "GO(2,1)":
            report = contextuality_report(labeling_from_table(table), geom,
                                          "coset")
            assert report.maximal
            return
    raise AssertionError("GO(2,1) class not found")


@requires_full
def test_criterion_09_heavy_enumerations():
    t0 = time.perf_counter()
    # HLT defines ~3M cosets before collapsing to index 1755
    t1 = todd_coxeter(census_entry("g1").subgroup("h1"))
    assert t1.n == 1755
    assert order_of(t1) == 17971200
    t2 = todd_coxeter(census_entry("g2").subgroup("h2"))
    assert t2.n == 100
    assert order_of(t2) == 604800
    # derived truth for the big dessin: exactly half the published counts
    sig = signature(passport(dessin_from_table(t1)))
    assert sig.as_tuple() == (923, 585, 135, 57)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print("PASS criterion 9: index 1755 / order 17,971,200 and index 100 / "
          "order 604,800; computed dessin signature (923,585,135,57) "
          "(%.1fs)" % elapsed)


@requires_full
def test_criterion_09_double_cover_signature():
    # K, h1's one subgroup of index 2, carries the published signature:
    # the double cover doubles B, W and F and takes genus 57 to 113
    t0 = time.perf_counter()
    k = todd_coxeter(census_entry("g1").subgroup("K"))
    assert k.n == 3510
    assert signature(passport(dessin_from_table(k))).as_tuple() == \
        (1846, 1170, 270, 113)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print("PASS criterion 9 (double cover): K has index 3510 and the "
          "published signature (1846,1170,270,113) (%.1fs)" % elapsed)


@requires_full
@published("g1", "dessin signature (1846, 1170, 270, 113) at index 1755")
def test_criterion_09_published_signature():
    t1 = todd_coxeter(census_entry("g1").subgroup("h1"))
    assert signature(passport(dessin_from_table(t1))).as_tuple() == \
        (1846, 1170, 270, 113)


def test_criterion_10_property_suites():
    # the property suites themselves live in test_properties.py; this
    # check asserts they are collected so the criterion is self-auditing
    import test_properties
    names = [n for n in dir(test_properties) if n.startswith("test_")]
    for required in ("test_free_reduction_idempotent",
                     "test_free_reduction_bulk_random",
                     "test_coset_table_invariants",
                     "test_euler_relation_every_dessin",
                     "test_orbit_stabilizer_identity",
                     "test_mode_monotonicity_suite"):
        assert required in names
    print("PASS criterion 10: property suites present (%d tests)" % len(names))
