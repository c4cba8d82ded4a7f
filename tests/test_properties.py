import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup as SymGroup

from conftest import group_of
from cosetgeom.contextuality import labeling_from_table, line_commutes
from cosetgeom.dessins import dessin_from_table, passport, signature
from cosetgeom.geometry import geometry_from_class, pair_classes
from cosetgeom.perms import PermGroup, Permutation, _Chain
from cosetgeom.words import Word, _reduce

letters = st.lists(st.integers(min_value=0, max_value=3), max_size=40)


@given(letters)
def test_free_reduction_idempotent(ls):
    once = _reduce(ls)
    assert _reduce(once) == once


@given(letters)
def test_word_times_inverse_is_identity(ls):
    w = Word(ls)
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w


@given(letters, letters)
def test_product_length_bound(a, b):
    w = Word(a) * Word(b)
    assert len(w) <= len(Word(a)) + len(Word(b))


def test_free_reduction_bulk_random():
    # a deterministic 10^4-word sweep complementing the hypothesis run
    rng = random.Random(20260823)
    for _ in range(10 ** 4):
        ls = [rng.randrange(4) for _ in range(rng.randrange(30))]
        once = _reduce(ls)
        assert _reduce(once) == once
        w = Word(ls)
        assert (w * w.inverse()).is_identity()


@given(st.permutations(list(range(7))))
def test_permutation_roundtrip(images):
    p = Permutation(images)
    assert p * p.inverse() == Permutation.identity(7)
    assert sum(p.cycle_type()) == 7


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_chain_matches_sympy_on_random_pairs(pair):
    g = PermGroup([Permutation(images) for images in pair],
                  degree=len(pair[0]))
    sym = SymGroup([SymPerm(list(images)) for images in pair])
    assert g.order() == sym.order()
    assert g.derived_index() == sym.order() // sym.derived_subgroup().order()
    chain = _Chain(g._enc, g._gens)
    assert chain.base == sym.base
    assert [set(tr) for tr in chain._orbits] \
        == [set(orbit) for orbit in sym.basic_orbits]


def test_coset_table_invariants(k1_to_10, k4_to_9, k19_to_9):
    for t in list(k1_to_10) + list(k4_to_9) + list(k19_to_9):
        t.check_invariants()


def test_euler_relation_every_dessin(k1_to_10, k4_to_9, k19_to_9):
    for t in list(k1_to_10) + list(k4_to_9) + list(k19_to_9):
        sig = signature(passport(dessin_from_table(t)))
        assert sig.B + sig.W + sig.F == t.n + 2 - 2 * sig.g
        assert sig.g >= 0


def test_orbit_stabilizer_identity(k1_to_10, k19_to_9):
    for t in list(k1_to_10) + list(k19_to_9):
        g = group_of(t)
        for point in range(min(t.n, 3)):
            orbit = g.orbit(point)
            assert len(orbit) * g.point_stabilizer(point).order() == g.order()


def test_mode_monotonicity_suite(k1_to_10, k4_to_9, k19_to_9):
    for t in list(k1_to_10) + list(k4_to_9) + list(k19_to_9):
        if t.n < 3:
            continue
        g = group_of(t)
        lab = labeling_from_table(t)
        for cls in pair_classes(g):
            geom = geometry_from_class(g, cls.pairs)
            for line in geom.lines:
                if line_commutes(lab, line, "perm"):
                    assert line_commutes(lab, line, "coset")
