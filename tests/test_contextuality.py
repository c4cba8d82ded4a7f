import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import differs, group_of, order_of, record, requires_full
from cosetgeom.cli import bundled_certificate
from cosetgeom.contextuality import (MODES, CosetLabeling,
                                     contextuality_report,
                                     labeling_from_table, line_commutes,
                                     to_dot)
from cosetgeom.geometry import (IncidenceGeometry, geometry_from_class,
                                pair_classes, recognize)
from cosetgeom.toddcox import schreier_generators, todd_coxeter, transversal
from cosetgeom.words import SubgroupSpec, commutator_word, parse_presentation


def labelings_of(table):
    """(pair class, its geometry, the table's one labeling) per class."""
    g = group_of(table)
    lab = labeling_from_table(table)
    for cls in pair_classes(g):
        yield cls, geometry_from_class(g, cls.pairs), lab


def test_labeling_validation(k19_to_9):
    t = next(t for t in k19_to_9 if t.n == 9)
    with pytest.raises(ValueError, match="length"):
        CosetLabeling(tuple(transversal(t))[:-1], t)
    lab = labeling_from_table(t)
    other = IncidenceGeometry(t.n - 1, ((0, 1),))
    with pytest.raises(ValueError, match="points"):
        contextuality_report(lab, other)
    with pytest.raises(ValueError, match="points"):
        to_dot(lab, other)


def test_labeling_refuses_representatives_that_miss_their_cosets(k19_grids):
    t = k19_grids
    reps = tuple(transversal(t))
    swapped = (reps[0], reps[2], reps[1]) + reps[3:]
    for bad in (reps[::-1], swapped):
        with pytest.raises(ValueError, match="misses its coset"):
            CosetLabeling(bad, t)


def test_labeling_holds_one_permutation_per_coset():
    # the cyclic group of order 600 on itself: n inverse actions of n
    # cosets, n * (56 + 8n) bytes as tuples; a second permutation beside
    # each, with its own ints above 256, took the peak past 4 times that
    pres = parse_presentation("< x, y | y, x^600 >")
    table = todd_coxeter(SubgroupSpec(pres))
    n = table.n
    tracemalloc.start()
    try:
        labeling_from_table(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * (56 + 8 * n)


def test_bad_mode(k19_to_9):
    t = next(t for t in k19_to_9 if t.n == 9)
    _, geom, lab = next(labelings_of(t))
    with pytest.raises(ValueError):
        line_commutes(lab, geom.lines[0], "quantum")
    # a geometry with no lines never reaches a line verdict
    for report in (contextuality_report, to_dot):
        with pytest.raises(ValueError, match="mode"):
            report(lab, IncidenceGeometry(t.n, ()), "bogus")


def _non_commuting(report):
    """How many of the report's lines do not commute, of how many."""
    return "%d/%d" % (sum(not c for _, c in report.per_line),
                      len(report.per_line))


def test_k19_grid_verdicts(k19_grids):
    # in both modes the two grids, in pair class order, score as the
    # reason for the published 0/6 and 1/6 says
    reason = differs("k19", "the grids (Mermin squares) at index 9 are 0/6 "
                            "and 1/6 non-commuting")
    for mode in MODES:
        verdicts = []
        for _, geom, lab in labelings_of(k19_grids):
            assert recognize(geom) == record("k19", 9).geometry
            verdicts.append(_non_commuting(contextuality_report(lab, geom,
                                                                mode)))
        assert "verdicts are %s non-commuting lines (both modes)" \
            % " and ".join(verdicts) in reason, mode


def _no_line_commutes(lab, geom, name, reason):
    """Check that no line of geom commutes in either mode, and that
    reason says so of all of them, as lines of the geometry name."""
    for mode in MODES:
        assert contextuality_report(lab, geom, mode).score == 1, mode
    assert "all %d %s lines non-commute in both modes" \
        % (len(geom.lines), name) in reason


def test_hesse_lines_never_commute(k4_to_9):
    # each class k4@9's record counts has one pair class, its Hesse
    # configuration
    r = record("k4", 9)
    reason = differs("k4", "the Hesse configuration at index 9 is "
                           "maximally contextual")
    tables = [t for t in k4_to_9 if t.n == r.index and order_of(t) == r.order]
    assert len(tables) == r.count
    for t in tables:
        ((_, geom, lab),) = labelings_of(t)
        assert recognize(geom) == r.geometry
        _no_line_commutes(lab, geom, "Hesse", reason)


def test_go21_lines_never_commute():
    # the class k5@45's record counts, replayed from its certificate
    r = record("k5", 45)
    reason = differs("k5", "GO(2,1) at index 45 is maximally contextual")
    table = todd_coxeter(bundled_certificate("k5", r.index))
    ((geom, lab),) = [(geom, lab) for _, geom, lab in labelings_of(table)
                      if recognize(geom) == r.geometry]
    _no_line_commutes(lab, geom, r.geometry, reason)


def test_fano_image_is_two_transitive(k1_to_10):
    # why no representative-independent relation tells the Fano lines
    # apart: G and the stabilizer of coset 0 are transitive on the cosets
    # and on the rest, as the reason for the published maximal verdict says
    r = record("k1", 7)
    reason = differs("k1", "the Fano planes at index 7 are maximally "
                           "contextual")
    tables = [t for t in k1_to_10 if t.n == r.index]
    assert len(tables) == r.count
    for t in tables:
        g = group_of(t)
        assert g.order() == r.order
        assert len(g.orbit(0)) == len(g.point_stabilizer(0).orbit(1)) + 1 \
            == t.n
        assert "the order-%d image is 2-transitive on %d cosets" \
            % (g.order(), t.n) in reason


def test_k6_gamma2_type_verdicts(k1_to_10):
    # the order-6 nonabelian quotient: 9 of 15 lines non-commuting
    t = next(t for t in k1_to_10 if t.n == 6 and order_of(t) == 6
             and group_of(t).derived_index() == 2)
    _, geom, lab = next(labelings_of(t))
    r = contextuality_report(lab, geom, "coset")
    assert r.score == Fraction(3, 5)
    # the abelian order-6 quotient commutes everywhere
    t2 = next(t for t in k1_to_10 if t.n == 6 and order_of(t) == 6
              and group_of(t).derived_index() == 6)
    _, geom2, lab2 = next(labelings_of(t2))
    assert contextuality_report(lab2, geom2, "coset").score == 0


def test_lines_through_identity_commute_when_reps_commute(k1_to_10):
    # pairs involving the identity coset always commute in both modes
    for t in k1_to_10:
        if t.n < 3:
            continue
        for _, geom, lab in labelings_of(t):
            for line in geom.lines:
                if 0 in line and len(line) == 2:
                    for mode in ("perm", "coset"):
                        assert line_commutes(lab, line, mode)


def test_mode_monotonicity(k19_to_9, k1_to_10):
    for t in list(k19_to_9) + list(k1_to_10):
        if t.n < 3:
            continue
        for _, geom, lab in labelings_of(t):
            for line in geom.lines:
                if line_commutes(lab, line, "perm"):
                    assert line_commutes(lab, line, "coset")


@requires_full
def test_g1_h1_verdicts(h1_table, h1_group):
    # index 1755, the Tits group's action: on pair classes 1 and 2 a
    # line that commutes in perm mode commutes in coset mode, and no line
    # commutes in either mode
    lab = labeling_from_table(h1_table)
    for cls in pair_classes(h1_group)[:2]:
        geom = geometry_from_class(h1_group, cls.pairs)
        perm, coset = (contextuality_report(lab, geom, mode)
                       for mode in ("perm", "coset"))
        assert all(c for (_, p), (_, c) in zip(perm.per_line,
                                                coset.per_line) if p)
        assert perm.score == coset.score == 1


def test_verdicts_ignore_point_order(k19_to_9, k1_to_10):
    """[b, a] = [a, b]^-1, so reordering a line's points changes no
    verdict: on the k19@9 grids and the k1@10 geometries, in both
    modes."""
    tables = [t for t in k19_to_9 if t.n == 9]
    tables += [t for t in k1_to_10 if t.n == 10]
    verdicts = set()
    for t in tables:
        for _, geom, lab in labelings_of(t):
            for line in geom.lines:
                for mode in MODES:
                    got = {line_commutes(lab, order, mode)
                           for order in permutations(line)}
                    assert len(got) == 1
                    verdicts |= {(mode, v) for v in got}
    assert verdicts == {(m, v) for m in MODES for v in (False, True)}


def test_report_shape(k19_grids):
    _, geom, lab = next(labelings_of(k19_grids))
    r = contextuality_report(lab, geom, "coset")
    d = r.to_json_dict()
    assert d["mode"] == "coset"
    assert len(d["lines"]) == len(geom.lines)
    assert isinstance(d["maximal"], bool)
    num, den = d["score"].split("/")
    assert int(den) > 0


def test_maximal_definition(k19_grids):
    for _, geom, lab in labelings_of(k19_grids):
        r = contextuality_report(lab, geom, "coset")
        expected = all((0 in line) == c for line, c in r.per_line)
        assert r.maximal == expected


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="coset-mode verdicts are transversal-dependent: "
                          "[h*a, b] in H is not equivalent to [a, b] in H; "
                          "measured violations on this suite")
def test_rep_change_invariance(k1_pres):
    from cosetgeom import low_index_subgroups, schreier_generators
    for t in low_index_subgroups(k1_pres, 7):
        if t.n < 3:
            continue
        reps = transversal(t)
        hs = list(schreier_generators(t).generators)[:3]
        for _, geom, lab in labelings_of(t):
            for line in geom.lines[:6]:
                base = line_commutes(lab, line, "coset")
                for h in hs:
                    for i in line:
                        reps2 = list(reps)
                        reps2[i] = h * reps2[i]
                        lab2 = CosetLabeling(tuple(reps2), t)
                        assert line_commutes(lab2, line, "coset") == base


def test_dot_export(k19_grids):
    _, geom, lab = next(labelings_of(k19_grids))
    dot = to_dot(lab, geom, "coset")
    assert dot.startswith("graph contextuality {")
    assert "red" in dot


def _commutes_by_words(lab, line, mode):
    """line_commutes by building each commutator word and acting with it
    letter by letter, the oracle for the coset-permutation version."""
    table, reps = lab.table, lab.transversal
    cosets = range(table.n) if mode == "perm" else (0,)
    return all(table.word_action(commutator_word(reps[i], reps[j]), k) == k
               for i, j in combinations(sorted(line), 2) for k in cosets)


def test_line_commutes_matches_commutator_words(differential_tables):
    # each geometry under its BFS transversal, and under h * reps for a
    # subgroup generator h, whose words are not built letter by letter
    # from one another
    verdicts = set()
    for t in differential_tables:
        h = schreier_generators(t).generators[:1]
        lab = labeling_from_table(t)
        # h * reps: each word still takes coset 0 to its own coset
        labs = [lab] + [CosetLabeling(tuple(g * r for r in lab.transversal),
                                      t) for g in h]
        for _, geom, _ in labelings_of(t):
            for lab2 in labs:
                for line in geom.lines:
                    for mode in MODES:
                        got = line_commutes(lab2, line, mode)
                        assert got == _commutes_by_words(lab2, line, mode)
                        verdicts.add((mode, got))
    assert len(verdicts) == 4
