"""Point-line geometries stabilized by a transitive permutation group.

Unordered point pairs are partitioned by the fingerprint of their
two-point stabilizer; each class is an edge set on the points and yields
a line system.  The orbits of the group on pairs are read off the
suborbits of point 0, the orbits of its stabilizer G_0 (Cameron,
Permutation Groups, 1999, 1.11): the orbit of {0, q} is carried to every
point by a transversal, and its stabilizer has order |G_0| divided by
the length of the suborbit of q.  Fingerprints are taken on demand:
orbits are bucketed by that order, and only a bucket holding several
orbits builds two-point stabilizers and is split by fingerprint.  Lines
are found through point 0 and carried once, by the generators, to every
point.  On a complete class graph they are the fixed-point sets of the
stabilizers G_0q, one per suborbit (the pairs {0, q} themselves when
those stabilizers are trivial).  Otherwise they are the maximum-size
cliques of the class graph: the group is transitive and preserves the
graph, so the lines through 0 are 0 joined to the largest maximal
cliques of its neighbourhood (Bron-Kerbosch with pivoting, on int
bitsets).  Both kinds are checked against the named line systems they
must reproduce.

A geometry orders its lines once, when it is made: its constructor
sorts the lines it is given, and that order is the one its line
action, its statistics, its JSON and the contextuality verdicts read.
It carries the point permutations that preserve it (its
``symmetry``: the generators of the group it was built from) and their
line action, the index of each line's image under each of them, which
is computed once, when the geometry is built.  Incidence statistics
(diameter, girth, valency multisets) are computed once per geometry, by
breadth-first search on int bitsets from one representative of each
orbit of the symmetry on points and on lines: eccentricity and the
shortest cycle through a vertex are invariant under automorphisms.  They
feed the generalized-polygon test, which names the quadrangles, hexagons
and octagons with 3 or more points on a line, and a parameter table
naming the other geometries that occur in the census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import and_, getitem, itemgetter, lt

from .perms import PermGroup, _orbit, _orbits


def _image(perm, points):
    """The sorted image of a point tuple (a pair, a line, a fixed set)."""
    return tuple(sorted(map(perm.images.__getitem__, points)))


@dataclass(frozen=True)
class IncidenceGeometry:
    """Points 0..n-1 and lines as sorted point tuples.

    The constructor sorts the lines, in any order given, so lines is the
    one order every reader uses, and two geometries with the same lines
    compare equal.  symmetry holds point permutations that map the line
    set onto itself (generators of a group of automorphisms); it only
    speeds up stats.
    """

    n: int
    lines: tuple
    symmetry: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))
        for line in self.lines:
            if len(line) < 2:
                raise ValueError("line with fewer than 2 points")
            if not all(map(lt, line, line[1:])):
                raise ValueError("line must be sorted and duplicate-free")
            if line[0] < 0 or line[-1] >= self.n:
                raise ValueError("point out of range")
        if any(map(tuple.__eq__, self.lines, self.lines[1:])):
            raise ValueError("duplicate line")
        # a line lies in another iff its points share a second line, which
        # is longer: distinct lines of one size contain neither the other
        longest = max(map(len, self.lines), default=0)
        short = [line for line in self.lines if len(line) < longest]
        if short:
            masks = _incidence_masks(self)[0]
            for line in short:
                if reduce(and_, [masks[p] for p in line]).bit_count() > 1:
                    raise ValueError("one line contains another")
        if any(perm.degree != self.n for perm in self.symmetry):
            raise ValueError("symmetry does not preserve the lines")
        self.line_action    # raises unless the symmetry maps lines to lines

    @cached_property
    def line_action(self):
        """For each symmetry generator, the index of each line's image."""
        index = {line: li for li, line in enumerate(self.lines)}
        # a line has 2 points or more, so its getter returns a tuple
        getters = [itemgetter(*line) for line in self.lines]
        try:
            return tuple(
                tuple([index[tuple(sorted(get(images)))] for get in getters])
                for images in (perm.images for perm in self.symmetry))
        except KeyError:
            raise ValueError("symmetry does not preserve the lines") from None

    @cached_property
    def stats(self) -> GraphStats:
        """incidence_graph_stats of this geometry, computed once."""
        return incidence_graph_stats(self)

    def to_json_dict(self) -> dict:
        return {
            "points": self.n,
            "lines": [[p + 1 for p in line] for line in self.lines],
        }


@dataclass(frozen=True)
class PairClass:
    """All unordered pairs sharing a two-point-stabilizer fingerprint."""

    pairs: tuple
    stab_order: int


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    diameter: int
    girth: int | None            # None means acyclic
    points_per_line: tuple       # sorted ((size, count), ...)
    lines_per_point: tuple


@dataclass(frozen=True)
class PolygonCheck:
    is_gp: bool
    n: int | None                # gonality = incidence diameter
    s: int | None
    t: int | None


def _suborbits(g: PermGroup):
    """(least point, orbit) of each suborbit of g: each orbit of G_0, the
    stabilizer of point 0, on the points 1..n-1."""
    return _orbits(range(1, g.degree), g.point_stabilizer(0).generators,
                   lambda h, p: h.images[p])


def _pair_orbits(g: PermGroup):
    """(q, |G_0q|, sorted pairs) for each orbit of g on unordered pairs.

    The orbit of {0, q} is {p, t_p(r)} for every point p, every r in the
    suborbit D(q) of G_0 and in its paired suborbit D*(q), the one that
    holds t_q^-1(0).  Over D(q) u D*(q) each pair p < t_p(r) occurs once.
    q is the least point of D(q) u D*(q), so (0, q) is the least pair of
    the orbit, and |G_0q| = |G_0| / |D(q)|.  t_p is g's transversal, read
    off its stabilizer chain.
    """
    rows = g.transversal()
    suborbits = _suborbits(g)
    suborbit = {r: delta for _, delta in suborbits for r in delta}
    order = g.point_stabilizer(0).order()
    done = set()
    out = []
    for q, delta in suborbits:
        if q in done:
            continue
        both = delta | suborbit[rows[q].index(0)]
        done |= both
        pairs = []
        for p, row in enumerate(rows):
            pairs.extend((p, y) for y in sorted(map(row.__getitem__, both))
                         if y > p)
        out.append((q, order // len(delta), tuple(pairs)))
    return out


def pair_classes(g: PermGroup):
    """Pair classes sorted by (stabilizer order desc, class size asc).

    Pair orbits come from the suborbits of point 0 and are bucketed by
    two-point-stabilizer order; only orbits sharing a bucket are
    fingerprinted, and merged on equal fingerprints (equal fingerprints
    have equal orders, so a lone orbit is a class).
    """
    if not g.is_transitive():
        raise ValueError("group must be transitive")
    by_order = {}
    for q, order, pairs in _pair_orbits(g):
        by_order.setdefault(order, []).append((q, pairs))
    classes = []
    for order, bucket in by_order.items():
        merged = {}
        for q, pairs in bucket:
            key = (g.two_point_stabilizer(0, q).fingerprint()
                   if len(bucket) > 1 else None)
            merged.setdefault(key, []).append(pairs)
        classes.extend(PairClass(pairs=tuple(sorted(chain(*orbits))),
                                 stab_order=order)
                       for orbits in merged.values())
    classes.sort(key=lambda c: (-c.stab_order, len(c.pairs), c.pairs))
    return classes


def _bron_kerbosch(adj, r, p, x, out):
    """Extend clique r by candidates p (non-empty), excluding x; sets are
    int bitsets.  The pivot u in p | x leaves the fewest candidates, p
    minus the neighbours of u; a branch with no candidates left is not
    entered, and is a maximal clique when nothing is excluded."""
    best = -1
    rest = p | x
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        k = (adj[u] & p).bit_count()
        if k > best:
            best, pivot = k, u
    candidates = p & ~adj[pivot]
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        v = low.bit_length() - 1
        near = adj[v]
        if p & near:
            _bron_kerbosch(adj, r + (v,), p & near, x & near, out)
        elif not x & near:
            out.append(tuple(sorted(r + (v,))))
        p ^= low
        x |= low


def maximal_cliques(n, edges):
    """All maximal cliques, sorted (Bron-Kerbosch with pivoting)."""
    if n == 0:
        return [()]
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    out = []
    _bron_kerbosch(adj, (), (1 << n) - 1, 0, out)
    return sorted(out)


def geometry_from_class(g: PermGroup, pairs) -> IncidenceGeometry:
    """Line system of one pair class of a transitive g, with g's
    generators as symmetry.

    Complete class graph: lines are the fixed-point sets of the two-point
    stabilizers (the pairs themselves when the stabilizers are trivial).
    Otherwise: the maximum-size cliques of the class graph.  Either way
    the lines through point 0 are carried to every point by the
    generators.  The pairs must be a pair set that g preserves: each
    generator maps every pair, in either orientation, into the set.  A
    pair with a point outside the action, a loop, a repeated pair or a
    pair set g does not preserve is refused before any work.
    """
    if not g.is_transitive():
        raise ValueError("group must be transitive")
    pairs = tuple(sorted((p, q) if p < q else (q, p) for p, q in pairs))
    if not pairs:
        raise ValueError("empty pair class")
    n = g.degree
    if pairs[0][0] < 0 or max(q for _, q in pairs) >= n:
        raise ValueError("point out of range")
    if any(p == q for p, q in pairs):
        raise ValueError("pair of a point with itself")
    if any(map(tuple.__eq__, pairs, pairs[1:])):
        raise ValueError("repeated pair")
    if not _preserves(g, pairs):
        raise ValueError("the group does not preserve the pairs")
    if len(pairs) == n * (n - 1) // 2:
        seeds = _fixed_sets_through_0(g)
    else:
        seeds = _largest_cliques_through_0(pairs)
    lines = set()
    for seed in seeds:
        if seed not in lines:
            lines |= _orbit(seed, g.generators, _image)
    return IncidenceGeometry(n=n, lines=lines, symmetry=g.generators)


def _preserves(g: PermGroup, pairs):
    """Whether each generator of g maps every pair, in either
    orientation, to a pair of pairs.  The set of pairs is freed on
    return, before the lines are built, which keeps it out of the
    build's peak memory."""
    edges = set(pairs)
    for h in g.generators:
        images = h.images
        for p, q in pairs:
            a, b = images[p], images[q]
            if (a, b) not in edges and (b, a) not in edges:
                return False
    return True


def _fixed_sets_through_0(g: PermGroup):
    """Fix(G_0q) for the least point q of each suborbit, or the pairs
    {0, q} when some G_0q is trivial.  Every pair is an image of one of
    these {0, q}, and h maps Fix(G_pq) onto Fix(G_hp,hq)."""
    g0 = g.point_stabilizer(0)
    points = [q for q, _ in _suborbits(g)]
    stabs = [g0.point_stabilizer(q).generators for q in points]
    if not all(stabs):
        return [(0, q) for q in points]
    return [tuple(x for x in range(g.degree)
                  if all(h.images[x] == x for h in stab)) for stab in stabs]


def _largest_cliques_through_0(pairs):
    """0 joined to each largest maximal clique of the neighbourhood of 0
    in the graph on the sorted pairs.  When a transitive g preserves the
    graph, every maximum clique is an image of one of these."""
    near = [q for p, q in pairs if p == 0]
    local = {q: i for i, q in enumerate(near)}
    edges = [(local[p], local[q]) for p, q in pairs
             if p in local and q in local]
    cliques = maximal_cliques(len(near), edges)
    top = max(map(len, cliques))
    return [(0,) + tuple(near[i] for i in c) for c in cliques if len(c) == top]


#: the set bits of each byte value
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1)
                   for byte in range(256))


def _bits(mask):
    """The indices of the set bits of mask, ascending, read byte by byte:
    linear in the length of mask, where clearing the lowest bit one at a
    time would copy the whole mask once per bit."""
    return [8 * k + i
            for k, byte in enumerate(mask.to_bytes(-(-mask.bit_length() // 8),
                                                   "little")) if byte
            for i in _BYTE_BITS[byte]]


def _bfs(masks, side, start):
    """(vertices reached, eccentricity, shortest cycle seen or None) of a
    breadth-first search of a bipartite graph from vertex start of side
    0 or 1; masks[s][v] is the int bitset of the neighbours of vertex v
    of side s on the other side.

    A layer is the union of the unseen neighbours of the one before.  No
    edge joins two vertices of one layer, so the first vertex with two
    neighbours in the layer before, at distance k, closes a 2k-cycle.
    """
    seen = [0, 0]
    seen[side] = frontier = 1 << start
    reached, depth, girth = 1, 0, None
    while True:
        adj = masks[side]
        side ^= 1
        unseen = ~seen[side]
        once = twice = 0
        for u in _bits(frontier):
            near = adj[u] & unseen
            twice |= once & near
            once |= near
        if not once:
            return reached, depth, girth
        depth += 1
        if twice and girth is None:
            girth = 2 * depth
        seen[side] |= once
        reached += once.bit_count()
        frontier = once


def _incidence_masks(geom: IncidenceGeometry):
    """(lines through each point, points of each line) as int bitsets.

    A point's bitset spans all lines, so it is filled byte by byte: a sum
    of powers of two would copy it once per line.
    """
    rows = [bytearray(len(geom.lines) + 7 >> 3) for _ in range(geom.n)]
    for li, line in enumerate(geom.lines):
        byte, bit = li >> 3, 1 << (li & 7)
        for p in line:
            rows[p][byte] |= bit
    return ([int.from_bytes(row, "little") for row in rows],
            [sum(map((1).__lshift__, line)) for line in geom.lines])


def incidence_graph_stats(geom: IncidenceGeometry) -> GraphStats:
    """Stats of the point-line incidence graph.

    Breadth-first search runs from one representative of each orbit of
    geom.symmetry on points and on lines (from every vertex when the
    symmetry is empty); the line orbits are read off geom.line_action.
    Each search from a vertex on a shortest cycle finds that cycle, and
    automorphisms preserve eccentricities.
    """
    masks = _incidence_masks(geom)
    points = [h.images for h in geom.symmetry]
    starts = [(0, p) for p, _ in _orbits(range(geom.n), points, getitem)]
    starts += [(1, li) for li, _ in _orbits(range(len(geom.lines)),
                                            geom.line_action, getitem)]

    connected = True
    diameter = 0
    girth = None
    vertices = geom.n + len(geom.lines)
    for side, v in starts:
        reached, ecc, cyc = _bfs(masks, side, v)
        connected = connected and reached == vertices
        diameter = max(diameter, ecc)
        if cyc is not None and (girth is None or cyc < girth):
            girth = cyc

    ppl = Counter(len(line) for line in geom.lines)
    lpp = Counter(mask.bit_count() for mask in masks[0])
    return GraphStats(
        connected=connected,
        diameter=diameter,
        girth=girth,
        points_per_line=tuple(sorted(ppl.items())),
        lines_per_point=tuple(sorted(lpp.items())),
    )


def polygon_check(geom: IncidenceGeometry) -> PolygonCheck:
    """A generalized n-gon of order (s, t) (Van Maldeghem, 1998): connected,
    s + 1 points on each line, t + 1 lines through each point, and girth
    2n for incidence diameter n."""
    stats = geom.stats
    regular = (len(stats.points_per_line) == 1
               and len(stats.lines_per_point) == 1)
    if not regular or not stats.connected:
        return PolygonCheck(is_gp=False, n=None, s=None, t=None)
    return PolygonCheck(is_gp=stats.girth == 2 * stats.diameter,
                        n=stats.diameter,
                        s=stats.points_per_line[0][0] - 1,
                        t=stats.lines_per_point[0][0] - 1)


POLYGON_NAMES = {4: "GQ", 6: "GH", 8: "GO"}

# (points, lines, pts/line multiset, lines/pt multiset, diameter, girth)
RECOGNITION_TABLE = (
    ("K6", 6, 15, ((2, 15),), ((5, 6),), 4, 6),
    ("Fano plane", 7, 7, ((3, 7),), ((3, 7),), 3, 6),
    ("Hesse configuration", 9, 12, ((3, 12),), ((4, 9),), 4, 6),
    ("Mermin pentagram", 10, 5, ((4, 5),), ((2, 10),), 4, 6),
    ("Desargues configuration", 10, 10, ((3, 10),), ((3, 10),), 5, 6),
    ("Petersen graph", 10, 15, ((2, 15),), ((3, 10),), 6, 10),
    ("Petersen line graph", 15, 10, ((3, 10),), ((2, 15),), 6, 10),
)


def recognize(geom: IncidenceGeometry):
    """GQ(s,t), GH(s,t) or GO(s,t) for a generalized 4-, 6- or 8-gon with
    s >= 2, else the parameter table's name, or None."""
    check = polygon_check(geom)
    if check.is_gp and check.n in POLYGON_NAMES and check.s >= 2:
        return "%s(%d,%d)" % (POLYGON_NAMES[check.n], check.s, check.t)
    stats = geom.stats
    key = (geom.n, len(geom.lines), stats.points_per_line,
           stats.lines_per_point, stats.diameter, stats.girth)
    for name, *params in RECOGNITION_TABLE:
        if key == tuple(params):
            return name
    return None
