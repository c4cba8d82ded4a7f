"""Bipartite maps (dessins) attached to a coset table.

A complete coset table on n cosets gives a pair of permutations: the
action of x (black vertices) and of y (white vertices).  A Dessin is
that pair, connected: the orbit of point 0 under both permutations is
every point; no group is built.  From the pair we read off the passport
(cycle structures of black, white and face permutations).  The
signature (B, W, F, g) and, when one generator acts with order 2 and
the other with order 3, the elliptic-point / cusp / fraction counts of
the associated modular-curve data are derived from the passport alone;
which generator has order 2 is read off its cycle lengths.  The three
make the dessin block (Dessin.to_json_dict) that analyze prints and
reproduce checks the census records against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .perms import Permutation, _orbit


@dataclass(frozen=True)
class Dessin:
    """A connected bipartite map given by two permutations of 0..n-1."""

    sigma_black: Permutation
    sigma_white: Permutation

    def __post_init__(self):
        if self.sigma_black.degree != self.sigma_white.degree:
            raise ValueError("the two permutations' degrees differ")
        if not self.n or len(_orbit(0, (self.sigma_black, self.sigma_white),
                                    lambda h, p: h.images[p])) != self.n:
            raise ValueError("dessin is not connected")

    @property
    def n(self) -> int:
        """The common degree of the two permutations."""
        return self.sigma_black.degree

    def face_permutation(self) -> Permutation:
        # apply black then white, then invert
        return (self.sigma_black * self.sigma_white).inverse()

    def to_json_dict(self) -> dict:
        """The report's dessin block: passport, signature and modular data
        (when there is any), all read off one passport."""
        p = passport(self)
        # a block is its dataclass's vars(), the fields in order without
        # the deep copy asdict makes; each is built for this block alone
        block = {"passport": str(p), "signature": vars(signature(p))}
        md = modular_data(p)
        if md is not None:
            block["modular_data"] = vars(md)
        return block


@dataclass(frozen=True)
class Passport:
    """Cycle-length multisets for black, white and face permutations."""

    black_cycles: tuple
    white_cycles: tuple
    face_cycles: tuple

    def __str__(self):
        # each run of one cycle length as length^count: (3, 3, 3, 1) is
        # "3^3 1^1"
        return "[%s]" % ", ".join(
            " ".join("%d^%d" % (k, len(list(run))) for k, run in groupby(c))
            for c in (self.black_cycles, self.white_cycles, self.face_cycles))


@dataclass(frozen=True)
class Signature:
    """Counts of black points, white points, faces, and the genus."""

    B: int
    W: int
    F: int
    g: int


@dataclass(frozen=True)
class ModularData:
    """Elliptic-point counts, cusps and fraction count.

    order2_role is the colour ('black' or 'white') of the order-2
    permutation.  nu2 / nu3 are the fixed points of the order-3 /
    order-2 generator.  The per-generator counts fixed_points_order2 and
    fixed_points_order3 therefore equal nu3 and nu2 by construction;
    they stay because the analyze JSON carries them.
    """

    order2_role: str
    nu2: int
    nu3: int
    c: int
    f: int
    fixed_points_order2: int
    fixed_points_order3: int


def dessin_from_table(table) -> Dessin:
    """Dessin of a complete coset table: black = pi_x, white = pi_y."""
    return Dessin(*table.perm_rep())


def passport(d: Dessin) -> Passport:
    return Passport(
        black_cycles=d.sigma_black.cycle_type(),
        white_cycles=d.sigma_white.cycle_type(),
        face_cycles=d.face_permutation().cycle_type(),
    )


def signature(p: Passport) -> Signature:
    """Cycle counts and genus of a dessin with passport p."""
    n = sum(p.black_cycles)
    B, W, F = len(p.black_cycles), len(p.white_cycles), len(p.face_cycles)
    euler = n + 2 - B - W - F
    if euler < 0 or euler % 2:
        raise AssertionError("Euler relation violated: B+W+F = %d, n = %d"
                             % (B + W + F, n))
    return Signature(B=B, W=W, F=F, g=euler // 2)


def modular_data(p: Passport) -> ModularData | None:
    """Elliptic / cusp / fraction counts of a (2,3)-generated dessin with
    passport p.

    The order-2 permutation is black when the black cycles have length
    1 or 2 and the white ones 1 or 3, else white for the converse; None
    when neither holds.  The pentagram instance fixes the convention:
    nu2 counts the fixed points of the order-3 permutation and nu3 those
    of the order-2 one (the valency-one points of the opposite colour),
    c is the face count and f = B - nu2 + 1 with B the black count.
    """
    for role, cycles2, cycles3 in (("black", p.black_cycles, p.white_cycles),
                                   ("white", p.white_cycles, p.black_cycles)):
        if set(cycles2) <= {1, 2} and set(cycles3) <= {1, 3}:
            fix2, fix3 = cycles2.count(1), cycles3.count(1)
            return ModularData(order2_role=role, nu2=fix3, nu3=fix2,
                               c=len(p.face_cycles),
                               f=len(p.black_cycles) - fix3 + 1,
                               fixed_points_order2=fix2,
                               fixed_points_order3=fix3)
    return None


def to_dot(d: Dessin) -> str:
    """DOT graph: filled black nodes b<i>, open white nodes w<j>.

    A colour's vertices are its permutation's cycles, fixed points
    included, numbered from 1 in the order Permutation.cycles lists
    them, of least point.  One edge per point, labeled with the 1-based
    point index.
    """
    lines = ["graph dessin {"]
    vertex_of = []
    for tag, fill, perm in (("b", "black", d.sigma_black),
                            ("w", "white", d.sigma_white)):
        vertex = [0] * d.n
        for k, cycle in enumerate(perm.cycles(), 1):
            lines.append('  %s%d [shape=circle, style=filled, '
                         'fillcolor=%s, label=""];' % (tag, k, fill))
            for p in cycle:
                vertex[p] = k
        vertex_of.append(vertex)
    black, white = vertex_of
    for p in range(d.n):
        lines.append('  b%d -- w%d [label="%d"];'
                     % (black[p], white[p], p + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
