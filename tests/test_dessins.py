from dataclasses import astuple

import pytest

from conftest import relabel
from cosetgeom.dessins import (Dessin, dessin_from_table, modular_data,
                               passport, signature, to_dot)
from cosetgeom.perms import Permutation, parse_cycles


def pentagram_dessin():
    # order-3 and order-2 permutations generating the degree-10 action
    alpha = parse_cycles("(2,3,4)(5,7,8)(6,9,10)", 10)
    beta = parse_cycles("(1,2)(3,5)(4,6)(7,10)", 10)
    return Dessin(sigma_black=alpha, sigma_white=beta)


def test_trivial_dessin():
    d = Dessin(Permutation.identity(1), Permutation.identity(1))
    assert d.n == 1
    assert passport(d).black_cycles == (1,)
    assert astuple(signature(passport(d))) == (1, 1, 1, 0)


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        Dessin(parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 4))


def test_degree_mismatch_rejected():
    # the orbit of point 0 is all of the first permutation's points
    with pytest.raises(ValueError, match="degrees differ"):
        Dessin(parse_cycles("(1,2,3)", 3), Permutation.identity(4))


def test_pentagram_passport():
    p = passport(pentagram_dessin())
    assert p.black_cycles == (3, 3, 3, 1)
    assert p.white_cycles == (2, 2, 2, 2, 1, 1)
    assert p.face_cycles == (5, 5)
    assert str(p) == "[3^3 1^1, 2^4 1^2, 5^2]"


def test_pentagram_signature():
    assert astuple(signature(passport(pentagram_dessin()))) == (4, 6, 2, 0)


def test_pentagram_modular_data():
    md = modular_data(passport(pentagram_dessin()))
    assert md.order2_role == "white"
    assert (md.nu2, md.nu3, md.c, md.f) == (1, 2, 2, 4)
    assert md.fixed_points_order2 == 2
    assert md.fixed_points_order3 == 1


def test_role_mismatch():
    # neither colour has order 2 with the other of order 3
    four_cycle = Dessin(parse_cycles("(1,2,3,4)", 4),
                        parse_cycles("(1,2)(3,4)", 4))
    assert modular_data(passport(four_cycle)) is None
    two_involutions = Dessin(parse_cycles("(1,2)", 3),
                             parse_cycles("(2,3)", 3))
    assert modular_data(passport(two_involutions)) is None


def test_index1_table_is_black(k1_to_10):
    # both permutations are the identity, so black is tried first and fits
    (t,) = [t for t in k1_to_10 if t.n == 1]
    md = modular_data(passport(dessin_from_table(t)))
    assert md.order2_role == "black"
    assert (md.nu2, md.nu3, md.c, md.f) == (1, 1, 1, 1)


def test_fixed_point_free_modular_data():
    # S3 regular-ish action: order-2 and order-3 with no fixed points
    b = parse_cycles("(1,2,3)(4,5,6)", 6)
    w = parse_cycles("(1,4)(2,6)(3,5)", 6)
    md = modular_data(passport(Dessin(b, w)))
    assert md.order2_role == "white"
    assert md.nu2 == 0 and md.nu3 == 0


def test_face_count_invariant_under_inverse():
    d = pentagram_dessin()
    f = d.face_permutation()
    assert f.cycle_type() == f.inverse().cycle_type()


def test_passport_sums_to_n(k1_to_10):
    for t in k1_to_10:
        d = dessin_from_table(t)
        assert d.n == t.n
        p = passport(d)
        for cycles in (p.black_cycles, p.white_cycles, p.face_cycles):
            assert sum(cycles) == t.n


def test_signature_relabel_invariant():
    d = pentagram_dessin()
    sigma = parse_cycles("(1,10)(2,9)", 10)
    d2 = Dessin(relabel(d.sigma_black, sigma),
                relabel(d.sigma_white, sigma))
    assert signature(passport(d2)) == signature(passport(d))


def test_index21_dessin(k1_to_10, k1_pres):
    from cosetgeom import low_index_subgroups
    tables = [t for t in low_index_subgroups(k1_pres, 21) if t.n == 21]
    hits = []
    for t in tables:
        d = dessin_from_table(t)
        p = passport(d)
        if str(p) == "[3^7, 2^9 1^3, 8^2 4^1 1^1]":
            md = modular_data(p)
            hits.append((md.nu2, md.nu3, md.c, md.f))
    assert hits == [(0, 3, 4, 8)]


def test_dot_export():
    dot = to_dot(pentagram_dessin())
    assert dot.startswith("graph dessin {")
    assert "b1" in dot and "w1" in dot
    assert dot.count("--") == 10
