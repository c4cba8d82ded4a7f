import tracemalloc
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from sympy import totient
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup as SymGroup

from conftest import brute_force_order, group_of, relabel, requires_full
from cosetgeom.census import census_entry
from cosetgeom.geometry import _image, _orbits
from cosetgeom.perms import (NAMED_GROUPS, PermGroup, Permutation, _Chain,
                             _orbit, _Tuples, fingerprint, identify,
                             parse_cycles)
from cosetgeom.toddcox import todd_coxeter


def test_parse_and_print_cycles():
    p = parse_cycles("(2,3,5,4)(6,7,8,9)", 9)
    assert str(p) == "(2,3,5,4)(6,7,8,9)"
    assert p.order() == 4
    assert parse_cycles("()", 3).is_identity()
    with pytest.raises(ValueError, match="bad cycle notation"):
        parse_cycles("(1,2", 3)
    with pytest.raises(ValueError, match="out of range"):
        parse_cycles("(1,4)", 3)


def test_cycle_type_includes_fixed_points():
    p = parse_cycles("(1,2)(3,4)", 6)
    assert p.cycle_type() == (2, 2, 1, 1)
    # cycles() lists the fixed points too, every cycle in least-point order
    assert parse_cycles("(2,5)(3,4)", 6).cycles() == [
        (0,), (1, 4), (2, 3), (5,)]


def test_composition_order():
    # p*q applies p first
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q)(0) == q(p(0))


def test_inverse_and_relabel():
    p = parse_cycles("(1,2,3)", 4)
    assert (p * p.inverse()).is_identity()
    sigma = parse_cycles("(1,4)", 4)
    assert relabel(p, sigma).cycle_type() == p.cycle_type()


def test_brute_force_order_matches_chain():
    gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)]
    assert brute_force_order(gens) == 24
    assert PermGroup(gens).order() == 24


def test_stabilizers_and_transitivity():
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
    g = PermGroup(gens)
    assert g.is_transitive()
    assert g.point_stabilizer(0).order() == 24
    assert g.two_point_stabilizer(0, 1).order() == 6
    with pytest.raises(ValueError):
        g.two_point_stabilizer(2, 2)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation([0, 0])
    with pytest.raises(ValueError, match="degree required"):
        PermGroup([])
    with pytest.raises(ValueError, match="mixed degrees"):
        PermGroup([parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 3)])


def test_fingerprint_and_identify_a5():
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)]
    g = PermGroup(gens)
    fp = g.fingerprint()
    assert fp.order == 60
    assert fp.exact
    assert fp.element_orders() == {1, 2, 3, 5}
    assert identify(g) == "A5"


def test_named_groups_table_is_consistent():
    seen = set()
    for name, order, orders in NAMED_GROUPS:
        # a row without element orders is named by order and perfection
        if orders is not None:
            assert 1 in orders
            assert all(order % o == 0 for o in orders)
        assert (name, order) not in seen
        seen.add((name, order))


def test_transitivity_from_point_0_orders(census_groups):
    small = [PermGroup([parse_cycles(c, n) for c in cycles], degree=n)
             for cycles, n in (((), 1), ((), 3), (("(2,3,4)",), 4),
                               (("(1,2)(3,4)",), 4))]
    assert [g.is_transitive() for g in small] == [True, False, False, False]
    for g in small + census_groups:
        assert g.is_transitive() == (len(_orbit(
            0, g.generators, lambda h, p: h.images[p])) == g.degree)


@pytest.fixture(scope="module")
def census_groups_and_stabilizers(census_tables):
    """The groups of k1 <= 10, k4 <= 9, k1@21 and k5@45, each with one
    two-point stabilizer per orbit on pairs."""
    out = []
    for t in census_tables:
        g = group_of(t)
        out.append(g)
        out.extend(g.two_point_stabilizer(*seed) for seed, _ in _orbits(
            combinations(range(g.degree), 2), g.generators, _image))
    return out


def _sympy_orders(sym):
    """The order of each element of sym, by sympy's generate() and
    Permutation.order(); order() is slow, so it runs once per cycle type
    (which fixes the order)."""
    by_type = {}
    for e in sym.generate():
        ct = Permutation(e.array_form).cycle_type()
        if ct not in by_type:
            by_type[ct] = e.order()
        yield by_type[ct]


def _sym_group(g):
    return SymGroup([SymPerm(list(h.images)) for h in g.generators]
                    or [SymPerm(list(range(g.degree)))])


def test_exact_fingerprints_match_sympy(census_groups_and_stabilizers):
    for g in census_groups_and_stabilizers:
        fp = g.fingerprint()
        assert fp.exact
        sym = _sym_group(g)
        hist = Counter(_sympy_orders(sym))
        assert fp.element_order_histogram == tuple(sorted(hist.items()))
        assert fp.order == sym.order()
        assert fp.derived_index == sym.order() // sym.derived_subgroup().order()
        assert len(set(g.elements())) == g.order()


@pytest.fixture(scope="module")
def s12(k1_to_12):
    """k1@12's group, the symmetric group S12."""
    (g,) = [g for g in map(group_of, k1_to_12) if g.order() == 479001600]
    return g


def test_chain_matches_sympy(differential_tables, s12):
    """sympy's stabilizer chain as oracle: orders, transitivity, point
    and two-point stabilizer orders, and for the empty base prefix the
    same base, strong generators in order and per-level orbits."""
    for g in [group_of(t) for t in differential_tables if t.n > 1] + [s12]:
        sym = _sym_group(g)
        assert g.order() == sym.order()
        assert g.is_transitive() == sym.is_transitive()
        chain = _Chain(g._enc, g._gens)
        assert chain.base == sym.base
        assert [tuple(h) for h in chain.strong_gens] \
            == [tuple(h.array_form) for h in sym.strong_gens]
        assert [set(tr) for tr in chain._orbits] \
            == [set(orbit) for orbit in sym.basic_orbits]
        for p in range(g.degree):
            assert g.point_stabilizer(p).order() \
                == sym.stabilizer(p).order()
        sym0 = sym.stabilizer(0)
        for q in range(1, g.degree):
            assert g.two_point_stabilizer(0, q).order() \
                == sym0.stabilizer(q).order()


def test_stabilizers_have_few_generators(differential_tables):
    """Each strong generator of a stabilizer enlarges the group of the
    ones before it, so there are at most log2 of the order of them."""
    for g in map(group_of, differential_tables):
        for p in range(g.degree):
            stabs = [g.point_stabilizer(p)] + [
                g.two_point_stabilizer(p, q)
                for q in range(g.degree) if q != p]
            for s in stabs:
                assert len(s.generators) <= max(1, s.order().bit_length() - 1)


def test_kept_chain_answers_after_its_build_state_is_released(
        census_groups):
    """The chain a group keeps drops its check cursors and sifting
    cache, and answers order, elements and membership as a freshly
    built chain does, on the group's elements and on random
    permutations of its points.  So does the tail of that chain that G_0
    inherits, against a chain built for G_0 alone."""
    rng = Random(0)
    answers = set()
    for g in census_groups:
        for h in (g, g.point_stabilizer(0)):
            kept = h.chain()
            assert kept._cursor is None and not any(kept._inverses)
            fresh = _Chain(h._enc, h._gens, (0,))
            twin = PermGroup(h.generators, degree=h.degree)
            twin._chain = fresh
            assert kept.order() == fresh.order() == h.order()
            elements = h.elements()
            assert sorted(elements) == sorted(twin.elements())
            if h is g:
                assert elements == twin.elements()
            shuffled = [rng.sample(range(h.degree), h.degree)
                        for _ in range(20)]
            for x in elements + [h._enc.encode(p) for p in shuffled]:
                member = kept._sift(x, 0)[0] is None
                assert member == (fresh._sift(x, 0)[0] is None)
                answers.add(member)
    assert answers == {False, True}


@pytest.fixture
def chain_builds(monkeypatch):
    """The arguments of each _Chain.__init__ call, in order."""
    builds = []
    init = _Chain.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(_Chain, "__init__", counted)
    return builds


def test_one_chain_per_group(census_groups, chain_builds):
    """A group and its G_0 answer order, transitivity and elements, and
    the group its point stabilizer, from one Schreier-Sims build."""
    for g in census_groups:
        g = PermGroup(g.generators, degree=g.degree)
        del chain_builds[:]
        g.order(), g.is_transitive(), g.elements()
        g0 = g.point_stabilizer(0)
        g0.order(), g0.elements(), g0.is_transitive()
        assert len(chain_builds) == 1


def test_derived_subgroup_is_one_chain(census_groups, chain_builds):
    """Once a group's order is known, its derived index builds one
    chain, for G' alone, which each new generator of G' extends."""
    for g in census_groups:
        g = PermGroup(g.generators, degree=g.degree)
        for h in (g, g.point_stabilizer(0)):
            h.order()
            del chain_builds[:]
            h.derived_index()
            assert len(chain_builds) == 1


def _bfs_transversal(g):
    """For each point p, the images of an element taking 0 to p, found
    breadth-first over the generators."""
    rows = [None] * g.degree
    rows[0] = tuple(range(g.degree))
    queue = [0]
    for p in queue:
        for images in (h.images for h in g.generators):
            q = images[p]
            if rows[q] is None:
                rows[q] = tuple(map(images.__getitem__, rows[p]))
                queue.append(q)
    return rows


def test_transversal_is_the_breadth_first_one(census_groups):
    """A group's transversal, its chain's first level, is the BFS from 0
    over the generators in order, on transitive and intransitive
    groups and on tuples above degree 256."""
    c300 = Permutation(tuple((i + 1) % 300 for i in range(300)))
    small = [PermGroup([parse_cycles(c, n) for c in cycles], degree=n)
             for cycles, n in ((("(2,3,4)", "(1,2)"), 5), ((), 3))]
    for g in census_groups + small + [PermGroup([c300, c300 * c300])]:
        rows = [r if r is None else tuple(r) for r in g.transversal()]
        assert rows == _bfs_transversal(g)
    # G_0 keeps the tail of G's chain, based past 0, and a trivial G_0
    # one with no base at all
    for g in (census_groups[0], PermGroup([c300])):
        with pytest.raises(ValueError, match="not based at point 0"):
            g.point_stabilizer(0).transversal()


def test_psl2_257_on_the_projective_line():
    """Degree 258 > 256, so the chain runs on tuples: PSL(2,257) on
    GF(257) and infinity (point 257), by x -> x+1 and x -> -1/x."""
    p, inf = 257, 257
    shift = Permutation([(x + 1) % p for x in range(p)] + [inf])
    flip = Permutation([inf] + [-pow(x, p - 2, p) % p for x in range(1, p)]
                       + [0])
    g = PermGroup([shift, flip])
    assert g.order() == 8487168
    assert g.point_stabilizer(inf).order() == 32896
    assert g.two_point_stabilizer(inf, 0).order() == 128
    # the Borel subgroup x -> a^2 x + b: its derived subgroup is the
    # translations, and an element a^2 x + b with a^2 != 1 has the order
    # of a^2 in the squares of GF(257)*, which are cyclic of order 128
    borel = g.point_stabilizer(inf)
    fp = borel.fingerprint()
    assert fp.exact and fp.derived_index == 128
    assert fp.element_order_histogram == tuple(sorted(
        [(1, 1), (257, 256)] + [(d, 257 * int(totient(d)))
                                for d in range(2, 129) if 128 % d == 0]))


def test_derived_index_on_tuples():
    """S3 on 3 of 257 points, so the derived subgroup's chain runs on
    tuples: G' is A3, of index 2."""
    g = PermGroup([Permutation.from_cycles([[0, 1, 2]], 257),
                   Permutation.from_cycles([[0, 1]], 257)])
    assert isinstance(g._enc, _Tuples)
    assert g.derived_index() == 2


def test_over_bound_fingerprints_are_exact(s12):
    # k1@12: S12 and the S10 stabilizer of a pair, both over the bound,
    # have an exact derived index and no element-order histogram
    s10 = s12.two_point_stabilizer(0, 1)
    assert s10.order() == 3628800
    for h in (s12, s10):
        fp = h.fingerprint()
        assert fp.derived_index == 2
        assert fp.element_order_histogram is None and not fp.exact


def test_large_cyclic_group_is_not_tits():
    """A cyclic group of the Tits group's order, 2^11 3^3 5^2 13, as
    disjoint cycles of those lengths: not perfect, so unnamed, and its
    derived index is its order."""
    cycles, start = [], 0
    for length in (2048, 27, 25, 13):
        cycles.append(list(range(start, start + length)))
        start += length
    g = PermGroup([Permutation.from_cycles(cycles, start)])
    assert g.order() == 17971200
    assert identify(g) is None
    assert g.derived_index() == 17971200


@requires_full
def test_g1_h1_is_the_tits_group(h1_group):
    assert identify(h1_group) == "Tits T"


def test_degree_300_cyclic_group():
    c300 = Permutation(tuple((i + 1) % 300 for i in range(300)))
    g = PermGroup([c300])
    fp = g.fingerprint()
    assert fp.order == 300 and fp.exact and g.is_transitive()
    assert fp.element_order_histogram == tuple(
        (d, int(totient(d))) for d in range(1, 301) if 300 % d == 0)
    assert fp.derived_index == 300


def _cyclic(n):
    """Z_n acting regularly on n points."""
    return PermGroup([Permutation(tuple((i + 1) % n for i in range(n)))])


def _dihedral(n):
    """D_n on the n vertices of a polygon."""
    return PermGroup([Permutation(tuple((i + 1) % n for i in range(n))),
                      Permutation(tuple(-i % n for i in range(n)))])


def _affine(p, a):
    """AGL(1, p) on GF(p), by x -> x+1 and x -> ax for a primitive root a."""
    return PermGroup([Permutation(tuple((x + 1) % p for x in range(p))),
                      Permutation(tuple(a * x % p for x in range(p)))])


def test_empty_base_fingerprints_as_the_trivial_group():
    """A trivial point stabilizer inherits an empty base, on bytes, on
    tuples and at degree 1; its one element has order 1."""
    trivial = PermGroup([], degree=1)
    assert trivial.fingerprint().element_order_histogram == ((1, 1),)
    for g in (_cyclic(5), _cyclic(300), trivial):
        g0 = g.point_stabilizer(0)
        assert g0.chain().base == []
        assert g0.elements() == [g0._enc.identity]
        assert g0.fingerprint().element_order_histogram == ((1, 1),)


def test_histograms_match_every_elements_order():
    """The orders read on the base points are those of every listed
    element by its cycles, on bytes and on tuples; the point stabilizers
    of the dihedral groups have a one-point base."""
    for g in (_dihedral(12), _dihedral(255), _dihedral(260), _cyclic(300)):
        for h in (g, g.point_stabilizer(0)):
            hist = Counter(Permutation(e).order() for e in h.elements())
            assert h.fingerprint().element_order_histogram \
                == tuple(sorted(hist.items()))


def _traced_peak(call):
    """The traced memory peak of call(), its result dropped."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _streams(g):
    """The exact fingerprint's peak, on g's chain built beforehand, is a
    small fraction of the element list's."""
    g.order()
    listed = _traced_peak(g.elements)
    streamed = _traced_peak(lambda: fingerprint(g))
    assert streamed < listed / 10, (streamed, listed)


def test_fingerprint_streams_the_elements():
    """Groups with |G| >> |G_0| and small derived subgroups: the regular
    Z_300 on tuples and AGL(1, 101) on bytes."""
    for g in (_cyclic(300), _affine(101, 2)):
        _streams(g)


@requires_full
def test_j2_fingerprint_streams_the_elements():
    """J2 on 100 points (g2/h2): 604 800 elements, 6 048 of them in G_0."""
    j2 = group_of(todd_coxeter(census_entry("g2").subgroup("h2")))
    _streams(j2)
