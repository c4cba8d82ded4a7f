"""Bipartite maps (dessins) attached to a coset table.

A complete coset table on n cosets gives a pair of permutations: the
action of x (black vertices) and of y (white vertices).  From the pair
we read off the passport (cycle structures of black, white and face
permutations), the signature (B, W, F, g) and, when one generator acts
with order 2 and the other with order 3, the elliptic-point / cusp /
fraction counts of the associated modular-curve data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Permutation, PermGroup, cycle_type_str


class RoleMismatch(ValueError):
    """The designated generators do not have orders 2 and 3."""


@dataclass(frozen=True)
class Dessin:
    """A connected bipartite map given by two permutations of 0..n-1."""

    n: int
    sigma_black: Permutation
    sigma_white: Permutation

    def __post_init__(self):
        if self.sigma_black.degree != self.n or self.sigma_white.degree != self.n:
            raise ValueError("permutation degree must equal n")
        g = PermGroup([self.sigma_black, self.sigma_white], degree=self.n)
        if not g.is_transitive():
            raise ValueError("dessin is not connected")

    def face_permutation(self) -> Permutation:
        # apply black then white, then invert
        return (self.sigma_black * self.sigma_white).inverse()


@dataclass(frozen=True)
class Passport:
    """Cycle-length multisets for black, white and face permutations."""

    black_cycles: tuple
    white_cycles: tuple
    face_cycles: tuple

    def __str__(self):
        return "[%s, %s, %s]" % tuple(
            cycle_type_str(c)
            for c in (self.black_cycles, self.white_cycles, self.face_cycles))


@dataclass(frozen=True)
class Signature:
    """Counts of black points, white points, faces, and the genus."""

    B: int
    W: int
    F: int
    g: int

    def as_tuple(self):
        return (self.B, self.W, self.F, self.g)


@dataclass(frozen=True)
class ModularData:
    """Elliptic-point counts, cusps and fraction count.

    nu2 / nu3 are the primary values read off the permutations (fixed
    points of the order-2 / order-3 generator).  The raw per-generator
    fixed-point counts are carried alongside so a disagreement with an
    external table is visible rather than silently resolved.
    """

    nu2: int
    nu3: int
    c: int
    f: int
    fixed_points_order2: int
    fixed_points_order3: int


def dessin_from_table(table) -> Dessin:
    """Dessin of a complete coset table: black = pi_x, white = pi_y."""
    px, py = table.perm_rep()
    return Dessin(n=table.n, sigma_black=px, sigma_white=py)


def passport(d: Dessin) -> Passport:
    return Passport(
        black_cycles=d.sigma_black.cycle_type(),
        white_cycles=d.sigma_white.cycle_type(),
        face_cycles=d.face_permutation().cycle_type(),
    )


def signature(d: Dessin) -> Signature:
    p = passport(d)
    B, W, F = len(p.black_cycles), len(p.white_cycles), len(p.face_cycles)
    euler = d.n + 2 - B - W - F
    if euler < 0 or euler % 2:
        raise AssertionError("Euler relation violated: B+W+F = %d, n = %d"
                             % (B + W + F, d.n))
    return Signature(B=B, W=W, F=F, g=euler // 2)


def modular_data(d: Dessin, order2_role: str = "white") -> ModularData:
    """Elliptic / cusp / fraction counts for a (2,3)-generated dessin.

    order2_role names the permutation ('black' or 'white') required to
    square to the identity; the other must cube to the identity.  The
    pentagram instance fixes the convention: nu2 counts the fixed points
    of the order-3 permutation and nu3 those of the order-2 one (the
    valency-one points of the opposite colour), and f = B - nu2 + 1 with
    B the black count.
    """
    if order2_role not in ("black", "white"):
        raise ValueError("order2_role must be 'black' or 'white'")
    p2 = d.sigma_black if order2_role == "black" else d.sigma_white
    p3 = d.sigma_white if order2_role == "black" else d.sigma_black
    if not (p2 * p2).is_identity():
        raise RoleMismatch("%s permutation does not square to identity"
                           % order2_role)
    if not (p3 * p3 * p3).is_identity():
        raise RoleMismatch("companion permutation does not cube to identity")
    fix2 = len(p2.fixed_points())
    fix3 = len(p3.fixed_points())
    sig = signature(d)
    nu2 = fix3
    nu3 = fix2
    return ModularData(nu2=nu2, nu3=nu3, c=sig.F, f=sig.B - nu2 + 1,
                       fixed_points_order2=fix2, fixed_points_order3=fix3)


def to_dot(d: Dessin) -> str:
    """DOT graph: filled black nodes b<i>, open white nodes w<j>.

    One edge per point, labeled with the 1-based point index.
    """
    black = d.sigma_black.cycles()
    black += [(i,) for i in d.sigma_black.fixed_points()]
    white = d.sigma_white.cycles()
    white += [(j,) for j in d.sigma_white.fixed_points()]
    black.sort(key=min)
    white.sort(key=min)
    black_of = {}
    for bi, cyc in enumerate(black):
        for p in cyc:
            black_of[p] = bi
    white_of = {}
    for wi, cyc in enumerate(white):
        for p in cyc:
            white_of[p] = wi
    lines = ["graph dessin {"]
    for bi in range(len(black)):
        lines.append('  b%d [shape=circle, style=filled, fillcolor=black, '
                     'label=""];' % (bi + 1))
    for wi in range(len(white)):
        lines.append('  w%d [shape=circle, style=filled, fillcolor=white, '
                     'label=""];' % (wi + 1))
    for p in range(d.n):
        lines.append('  b%d -- w%d [label="%d"];'
                     % (black_of[p] + 1, white_of[p] + 1, p + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
