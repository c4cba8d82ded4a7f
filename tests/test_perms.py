import pytest

from cosetgeom.perms import (NAMED_GROUPS, PermGroup, brute_force_order,
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
    assert p.relabel(sigma).cycle_type() == p.cycle_type()


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
    fp = PermGroup(gens).fingerprint()
    assert fp.order == 60
    assert fp.exact
    assert fp.element_orders() == {1, 2, 3, 5}
    assert identify(fp) == "A5"


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
        assert ga.relabel(sigma) == gb
    c = (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2,3)", 3))
    assert simultaneously_conjugate(a, c) is None
