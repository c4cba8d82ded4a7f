"""Acceptance gate: one test per numbered criterion.

A criterion the census states is checked as ``cosetgeom reproduce``
checks it: the test runs the census check of each record it covers
(``_reproduces``) within the criterion's time budget, and asserts by
hand only the facts no record states.  Sub-claims that the shipped
data, under the package's defaults, do not reach are split into
strict-xfail tests whose reasons are the census Claim records of the
computed truth; each is the one place where the published value it
tests is written.
"""

import time
from dataclasses import astuple
from fractions import Fraction

from conftest import (differs, group_of, order_of, published, quotient_pairs,
                      record, requires_full)
from cosetgeom import (census_entry, dessin_from_table, low_index_subgroups,
                       passport, signature, todd_coxeter)
from cosetgeom.cli import _compare, bundled_certificate
from cosetgeom.contextuality import contextuality_report, labeling_from_table
from cosetgeom.geometry import geometry_from_class, pair_classes, recognize
from cosetgeom.perms import PermGroup, Permutation, identify, parse_cycles


def _classes_at(id, index):
    pres = census_entry(id).presentation
    return [t for t in low_index_subgroups(pres, index) if t.n == index]


def _reproduces(id, *indices):
    """Run reproduce's check of id's records at indices: every field
    each one sets is computed and compared."""
    for index in indices:
        _, expected, computed = _compare(census_entry(id), record(id, index))
        assert computed == expected, "%s@%d" % (id, index)


def _recognized(table):
    """recognize's name for each pair class of table, in order."""
    g = group_of(table)
    return [recognize(geometry_from_class(g, c.pairs))
            for c in pair_classes(g)]


def test_criterion_01_k4_index4_published_pairs():
    t0 = time.perf_counter()
    _reproduces("k4", 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("PASS criterion 1: k4@4 reproduced, its published pairs included "
          "(%.2fs)" % elapsed)


@published("k4", "4 classes at index 4")
def test_criterion_01_literal_index4_count():
    assert len(_classes_at("k4", 4)) == 4


def test_criterion_02_k4_index9_hesse():
    t0 = time.perf_counter()
    _reproduces("k4", 9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 2: k4@9 reproduced (%.2fs)" % elapsed)


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
    _reproduces("k4", 10, 15)
    # every class of the record's order at index 10 is S5, the two that
    # stabilize the Petersen graph among them
    order = record("k4", 10).order
    ten = [g for g in map(group_of, _classes_at("k4", 10))
           if g.order() == order]
    assert ten and {identify(g) for g in ten} == {"S5"}
    # as many as the reason for the published count says
    assert "%d classes of order %d (all S5) exist" % (len(ten), order) \
        in differs("k4", "2 classes of order 120 at index 10")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print("PASS criterion 3: k4@10 and k4@15 reproduced; k4@10's %d classes "
          "of the record's order are S5 (%.2fs)" % (len(ten), elapsed))


@published("k4", "2 classes of order 120 at index 10")
def test_criterion_03_literal_order120_count():
    ten = _classes_at("k4", 10)
    assert sum(1 for t in ten if order_of(t) == 120) == 2


def test_criterion_04_k19_grids():
    t0 = time.perf_counter()
    _reproduces("k19", 9)
    # the record counts the class by one grid; both its pair classes are
    r = record("k19", 9)
    (t,) = [t for t in _classes_at("k19", 9) if order_of(t) == r.order]
    assert _recognized(t) == [r.geometry] * 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 4: k19@9 reproduced; both pair classes of its "
          "class have its geometry (%.2fs)" % elapsed)


@published(
    "k19",
    "the grids (Mermin squares) at index 9 are 0/6 and 1/6 non-commuting")
def test_criterion_04_grid_verdict_pattern():
    order = record("k19", 9).order
    (t,) = [t for t in _classes_at("k19", 9) if order_of(t) == order]
    g = group_of(t)
    lab = labeling_from_table(t)
    scores = set()
    for cls in pair_classes(g):
        geom = geometry_from_class(g, cls.pairs)
        scores.add(contextuality_report(lab, geom, "coset").score)
    assert scores == {Fraction(0), Fraction(1, 6)}


def test_criterion_05_k1_small_indices():
    t0 = time.perf_counter()
    _reproduces("k1", 6, 7, 10)
    # the index-6 class with image S3 (order 6, derived index 2) gives K6
    s3 = [t for t in _classes_at("k1", 6) if order_of(t) == 6
          and group_of(t).derived_index() == 2]
    assert len(s3) == 1
    assert _recognized(s3[0]) == ["K6"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print("PASS criterion 5: k1@6, k1@7 and k1@10 reproduced; K6 from the "
          "index-6 S3-quotient class (%.2fs)" % elapsed)


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
    _reproduces("k1", 21)
    search_elapsed = time.perf_counter() - t0
    assert search_elapsed < 300
    # the bundled certificate replays the counted class
    r = record("k1", 21)
    t0 = time.perf_counter()
    replay = todd_coxeter(bundled_certificate("k1", 21))
    replay_elapsed = time.perf_counter() - t0
    assert replay.n == r.index and order_of(replay) == r.order
    assert replay_elapsed < 10
    print("PASS criterion 6: k1@21 reproduced (search %.2fs, replay %.2fs)"
          % (search_elapsed, replay_elapsed))


@published("k1", "1 class at index 21")
def test_criterion_06_literal_index21_count():
    assert len(_classes_at("k1", 21)) == 1


def test_criterion_07_pentagram_dessin():
    _reproduces("k1", 10)
    print("PASS criterion 7: k1@10's dessin data reproduced")


def test_criterion_08_k5_index45_certificate():
    t0 = time.perf_counter()
    _reproduces("k5", 45)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print("PASS criterion 8: k5@45 reproduced from its certificate (%.2fs)"
          % elapsed)


def test_criterion_08_index45_uniqueness_by_quotient_enumeration():
    # every (x, y) in A6 satisfying the relators and generating A6, the
    # record's image; the number of such pairs equals |Aut(A6)| = 1440,
    # so there is exactly one epimorphism kernel and exactly one
    # conjugacy class of index-45 subgroups with that image
    t0 = time.perf_counter()
    order = record("k5", 45).order
    a6 = PermGroup([parse_cycles(c, 6) for c in ("(1,2,3)", "(2,3,4,5,6)")])
    assert a6.order() == order
    els = [Permutation(e) for e in a6.elements()]
    xs = [e for e in els if e.order() in (1, 2, 4)]
    ys = [e for e in els if e.order() in (1, 2)]
    _, count = quotient_pairs(census_entry("k5").presentation.relators,
                              xs, ys, order)
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
        if recognize(geom) == record("k5", 45).geometry:
            report = contextuality_report(labeling_from_table(table), geom,
                                          "coset")
            assert report.maximal
            return
    raise AssertionError("GO(2,1) class not found")


@requires_full
def test_criterion_09_heavy_enumerations(h1_table, h1_group):
    t0 = time.perf_counter()
    r1, r2 = record("g1", 1755), record("g2", 100)
    assert (h1_table.n, h1_group.order()) == (r1.index, r1.order)
    t2 = todd_coxeter(census_entry("g2").subgroup(r2.subgroup))
    assert (t2.n, order_of(t2)) == (r2.index, r2.order)
    # derived truth for the big dessin, as the published signature's
    # reason cites it: B, W and F are half of K's at index 3510
    sig = astuple(signature(passport(dessin_from_table(h1_table))))
    assert "h1's dessin has exactly half, %s" % (sig,) in differs(
        "g1", "dessin signature (1846, 1170, 270, 113) at index 1755")
    assert [2 * v for v in sig[:3]] == \
        list(record("g1", 3510).signature[:3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print("PASS criterion 9: g1@1755 and g2@100 orders; computed dessin "
          "signature %s (%.1fs)" % (sig, elapsed))


@requires_full
def test_criterion_09_double_cover_signature():
    # K, h1's one subgroup of index 2, carries the published signature:
    # the double cover doubles B, W and F and takes genus 57 to 113
    t0 = time.perf_counter()
    r = record("g1", 3510)
    k = todd_coxeter(census_entry("g1").subgroup(r.subgroup))
    assert k.n == r.index
    assert astuple(signature(passport(dessin_from_table(k)))) == \
        r.signature
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print("PASS criterion 9 (double cover): K at g1@3510 has the published "
          "signature (%.1fs)" % elapsed)


@requires_full
@published("g1", "dessin signature (1846, 1170, 270, 113) at index 1755")
def test_criterion_09_published_signature(h1_table):
    assert astuple(signature(passport(dessin_from_table(h1_table)))) == \
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
