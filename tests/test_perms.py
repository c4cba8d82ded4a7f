from collections import Counter
from itertools import combinations

import pytest
from sympy import totient
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup as SymGroup

from conftest import brute_force_order, group_of, relabel
from cosetgeom.geometry import _image, _orbits
from cosetgeom.perms import (NAMED_GROUPS, PermGroup, Permutation,
                             cycle_type_str, identify, parse_cycles,
                             simultaneously_conjugate)


def test_parse_and_print_cycles():
    p = parse_cycles("(2,3,5,4)(6,7,8,9)", 9)
    assert str(p) == "(2,3,5,4)(6,7,8,9)"
    assert p.order() == 4
    assert parse_cycles("()", 3).is_identity()


def test_cycle_type_includes_fixed_points():
    p = parse_cycles("(1,2)(3,4)", 6)
    assert p.cycle_type() == (2, 2, 1, 1)
    assert cycle_type_str(p.cycle_type()) == "2^2 1^2"


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
        assert 1 in orders
        assert all(order % o == 0 for o in orders)
        assert (name, order) not in seen
        seen.add((name, order))


def test_simultaneously_conjugate():
    a = (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3))
    b = (parse_cycles("(1,3,2)", 3), parse_cycles("(2,3)", 3))
    sigma = simultaneously_conjugate(a, b)
    assert sigma is not None
    for ga, gb in zip(a, b):
        assert relabel(ga, sigma) == gb
    c = (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2,3)", 3))
    assert simultaneously_conjugate(a, c) is None


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


def test_exact_fingerprints_match_sympy(census_groups_and_stabilizers):
    for g in census_groups_and_stabilizers:
        fp = g.fingerprint()
        assert fp.exact and fp.sample_size == 0
        sym = SymGroup([SymPerm(list(h.images)) for h in g.generators]
                       or [SymPerm(list(range(g.degree)))])
        hist = Counter(_sympy_orders(sym))
        assert fp.element_order_histogram == tuple(sorted(hist.items()))
        assert fp.order == sym.order()
        assert fp.derived_index == sym.order() // sym.derived_subgroup().order()


S12_SAMPLED = (
    (2, 2), (3, 15), (4, 237), (5, 97), (6, 911), (7, 10), (8, 824),
    (9, 595), (10, 1212), (11, 891), (12, 1646), (14, 262), (15, 137),
    (18, 491), (20, 356), (21, 247), (24, 404), (28, 349), (30, 602),
    (35, 307), (42, 244), (60, 161))
S10_SAMPLED = (
    (2, 20), (3, 94), (4, 583), (5, 234), (6, 1569), (7, 243), (8, 1197),
    (9, 1172), (10, 1400), (12, 1166), (14, 754), (15, 284), (20, 499),
    (21, 461), (30, 324))


def test_sampled_fingerprints_are_pinned(k1_to_12):
    # k1@12: S12 and the S10 stabilizer of a pair, both sampled
    (g,) = [g for g in map(group_of, k1_to_12) if g.order() == 479001600]
    s10 = g.two_point_stabilizer(0, 1)
    assert s10.order() == 3628800
    assert g.fingerprint().element_order_histogram == S12_SAMPLED
    assert s10.fingerprint().element_order_histogram == S10_SAMPLED
    for h in (g, s10):
        fp = h.fingerprint()
        assert not fp.exact and fp.sample_size == 10 ** 4
        assert fp.derived_index is None


def test_degree_300_cyclic_group():
    c300 = Permutation(tuple((i + 1) % 300 for i in range(300)))
    fp = PermGroup([c300]).fingerprint()
    assert fp.order == 300 and fp.exact and fp.transitive
    assert fp.element_order_histogram == tuple(
        (d, int(totient(d))) for d in range(1, 301) if 300 % d == 0)
    assert fp.derived_index == 300
