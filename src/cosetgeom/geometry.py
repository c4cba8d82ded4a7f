"""Point-line geometries stabilized by a transitive permutation group.

Unordered point pairs are partitioned by the fingerprint of their
two-point stabilizer; each class is an edge set on the points and yields
a line system.  Fingerprints are taken on demand: the orbits of the
group on pairs are bucketed by stabilizer order, and only a bucket
holding several orbits is split by fingerprint.  On a complete class
graph the lines are the fixed-point sets of the two-point stabilizers
(falling back to the edges themselves when those stabilizers are
trivial); one stabilizer is computed per orbit of the group on the pairs
and carried to the rest of the orbit by the generators.  Otherwise the
lines are the maximum-size cliques of the class graph: the group is
transitive and preserves the graph, so they are the largest cliques
through point 0, found among the maximal cliques of its neighbourhood
(Bron-Kerbosch with pivoting, on int bitsets) and carried by the
generators.  Both branches are checked against the named line systems
they must reproduce.

A geometry carries the point permutations that preserve it (its
``symmetry``: the generators of the group it was built from).
Incidence statistics (diameter, girth, valency multisets) are computed
once per geometry, by breadth-first search from one representative of
each orbit of the symmetry on points and on lines: eccentricity and the
shortest cycle through a vertex are invariant under automorphisms.  They
feed the generalized-polygon test and a parameter table naming the
geometries that occur in the census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .perms import PermGroup, _orbit, _orbits


def _image(perm, points):
    """The sorted image of a point tuple (a pair, a line, a fixed set)."""
    return tuple(sorted(perm.images[p] for p in points))


@dataclass(frozen=True)
class IncidenceGeometry:
    """Points 0..n-1 and lines as sorted point tuples.

    symmetry holds point permutations that map the line set onto itself
    (generators of a group of automorphisms); it only speeds up stats.
    """

    n: int
    lines: tuple
    symmetry: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        seen = set()
        for line in self.lines:
            if len(line) < 2:
                raise ValueError("line with fewer than 2 points")
            if list(line) != sorted(set(line)):
                raise ValueError("line must be sorted and duplicate-free")
            if not all(0 <= p < self.n for p in line):
                raise ValueError("point out of range")
            if line in seen:
                raise ValueError("duplicate line")
            seen.add(line)
        # a line lies in another iff its points share a second line, which
        # is longer: distinct lines of one size contain neither the other
        longest = max(map(len, self.lines), default=0)
        short = [line for line in self.lines if len(line) < longest]
        if short:
            incident = [set(ls) for ls in self.point_lines]
            for line in short:
                if len(set.intersection(*(incident[p] for p in line))) > 1:
                    raise ValueError("one line contains another")
        for perm in self.symmetry:
            if perm.degree != self.n or any(
                    _image(perm, line) not in seen for line in self.lines):
                raise ValueError("symmetry does not preserve the lines")

    @cached_property
    def point_lines(self):
        """For each point, the indices of the lines through it."""
        out = [[] for _ in range(self.n)]
        for li, line in enumerate(self.lines):
            for p in line:
                out[p].append(li)
        return tuple(tuple(ls) for ls in out)

    @cached_property
    def stats(self) -> GraphStats:
        """incidence_graph_stats of this geometry, computed once."""
        return incidence_graph_stats(self)

    def to_json_dict(self) -> dict:
        return {
            "points": self.n,
            "lines": [[p + 1 for p in line] for line in sorted(self.lines)],
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


def pair_classes(g: PermGroup):
    """Pair classes sorted by (stabilizer order desc, class size asc).

    Pair orbits are bucketed by two-point-stabilizer order; only orbits
    sharing a bucket are fingerprinted, and merged on equal fingerprints
    (equal fingerprints have equal orders, so a lone orbit is a class).
    """
    if not g.is_transitive():
        raise ValueError("group must be transitive")
    by_order = {}
    for seed, orbit in _orbits(combinations(range(g.degree), 2),
                               g.generators, _image):
        stab = g.two_point_stabilizer(*seed)
        by_order.setdefault(stab.order(), []).append((stab, orbit))
    classes = []
    for order, bucket in by_order.items():
        merged = {}
        for stab, orbit in bucket:
            key = stab.fingerprint() if len(bucket) > 1 else None
            merged.setdefault(key, set()).update(orbit)
        classes.extend(PairClass(pairs=tuple(sorted(pairs)), stab_order=order)
                       for pairs in merged.values())
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
    Otherwise: the maximum-size cliques of the class graph, which are the
    largest cliques through point 0 carried by the generators.
    """
    if not g.is_transitive():
        raise ValueError("group must be transitive")
    pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
    if not pairs:
        raise ValueError("empty pair class")
    n = g.degree
    if len(pairs) == n * (n - 1) // 2:
        lines = _fixed_point_lines(g, pairs)
    else:
        lines = _largest_clique_lines(g, pairs)
    return IncidenceGeometry(n=n, lines=lines, symmetry=g.generators)


def _largest_clique_lines(g: PermGroup, pairs):
    """The maximum-size cliques of the graph on the pairs, sorted.

    The graph is g-invariant and g is transitive, so every maximum clique
    is an image of one through point 0: 0 joined to a largest maximal
    clique of the subgraph induced on the neighbourhood of 0.  Each of
    those is carried to the rest of its orbit by the generators.
    """
    near = [q for p, q in pairs if p == 0]
    local = {q: i for i, q in enumerate(near)}
    edges = [(local[p], local[q]) for p, q in pairs
             if p in local and q in local]
    cliques = maximal_cliques(len(near), edges)
    top = max(len(c) for c in cliques)
    lines = set()
    for c in cliques:
        if len(c) == top:
            line = (0,) + tuple(near[i] for i in c)
            if line not in lines:
                lines.update(_orbit(line, g.generators, _image))
    return tuple(sorted(lines))


def _fixed_point_lines(g: PermGroup, pairs):
    """The sets Fix(Stab(p,q)), one stabilizer per orbit on the pairs.

    An element h maps Fix(Stab(p,q)) onto Fix(Stab(hp,hq)), so each
    orbit's sets follow from its least pair by the generators.  The pairs
    are returned as lines when the stabilizers are trivial.
    """
    lines = set()
    done = set()
    for seed in pairs:
        if seed in done:
            continue
        stab = g.two_point_stabilizer(*seed).generators
        if not stab:
            return pairs
        fix = tuple(x for x in range(g.degree)
                    if all(h.images[x] == x for h in stab))
        orbit = _orbit((seed, fix), g.generators,
                       lambda h, pf: (_image(h, pf[0]), _image(h, pf[1])))
        done.update(pair for pair, _ in orbit)
        lines.update(f for _, f in orbit)
    return tuple(sorted(lines))


def _bfs(adj, start):
    """(vertices reached, eccentricity, shortest cycle seen or None)."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[start] = 0
    queue = [start]
    girth = None
    for u in queue:
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                parent[v] = u
                queue.append(v)
            elif parent[u] != v and dist[v] >= du:
                cyc = du + dist[v] + 1
                if girth is None or cyc < girth:
                    girth = cyc
    return len(queue), dist[queue[-1]], girth


def incidence_graph_stats(geom: IncidenceGeometry) -> GraphStats:
    """Stats of the point-line incidence graph.

    Breadth-first search runs from one representative of each orbit of
    geom.symmetry on points and on lines (from every vertex when the
    symmetry is empty).  Each search from a vertex on a shortest cycle
    finds that cycle, and automorphisms preserve eccentricities.
    """
    n = geom.n
    index = {line: n + li for li, line in enumerate(geom.lines)}
    adj = [[n + li for li in ls] for ls in geom.point_lines]
    adj += [list(line) for line in geom.lines]
    sym = geom.symmetry
    starts = [p for p, _ in _orbits(range(n), sym, lambda h, p: h.images[p])]
    starts += [index[line] for line, _ in _orbits(geom.lines, sym, _image)]

    connected = True
    diameter = 0
    girth = None
    for s in starts:
        reached, ecc, cyc = _bfs(adj, s)
        connected = connected and reached == len(adj)
        diameter = max(diameter, ecc)
        if cyc is not None and (girth is None or cyc < girth):
            girth = cyc

    ppl = Counter(len(line) for line in geom.lines)
    lpp = Counter(len(ls) for ls in geom.point_lines)
    return GraphStats(
        connected=connected,
        diameter=diameter,
        girth=girth,
        points_per_line=tuple(sorted(ppl.items())),
        lines_per_point=tuple(sorted(lpp.items())),
    )


FEIT_HIGMAN = frozenset({2, 3, 4, 6, 8})


def polygon_check(geom: IncidenceGeometry) -> PolygonCheck:
    stats = geom.stats
    regular = (len(stats.points_per_line) == 1
               and len(stats.lines_per_point) == 1)
    if not regular or not stats.connected:
        return PolygonCheck(is_gp=False, n=None, s=None, t=None)
    s = stats.points_per_line[0][0] - 1
    t = stats.lines_per_point[0][0] - 1
    n = stats.diameter
    is_gp = stats.girth is not None and stats.girth == 2 * n
    if is_gp and s > 1 and t > 1 and n not in FEIT_HIGMAN:
        is_gp = False
    if is_gp:
        # double count flags a malformed regular structure
        npts = geom.n
        nlines = len(geom.lines)
        if npts * (t + 1) != nlines * (s + 1):
            is_gp = False
    return PolygonCheck(is_gp=is_gp, n=n if is_gp else stats.diameter,
                        s=s, t=t)


# (points, lines, pts/line multiset, lines/pt multiset, diameter, girth)
RECOGNITION_TABLE = (
    ("K6", 6, 15, ((2, 15),), ((5, 6),), 4, 6),
    ("Fano plane", 7, 7, ((3, 7),), ((3, 7),), 3, 6),
    ("Hesse configuration", 9, 12, ((3, 12),), ((4, 9),), 4, 6),
    ("GQ(2,1)", 9, 6, ((3, 6),), ((2, 9),), 4, 8),
    ("Mermin pentagram", 10, 5, ((4, 5),), ((2, 10),), 4, 6),
    ("Desargues configuration", 10, 10, ((3, 10),), ((3, 10),), 5, 6),
    ("Petersen graph", 10, 15, ((2, 15),), ((3, 10),), 6, 10),
    ("Petersen line graph", 15, 10, ((3, 10),), ((2, 15),), 6, 10),
    ("GH(2,1)", 21, 14, ((3, 14),), ((2, 21),), 6, 12),
    ("GO(2,1)", 45, 30, ((3, 30),), ((2, 45),), 8, 16),
)


def recognize(geom: IncidenceGeometry):
    """Name from the parameter table, or None."""
    stats = geom.stats
    key = (geom.n, len(geom.lines), stats.points_per_line,
           stats.lines_per_point, stats.diameter, stats.girth)
    for name, *params in RECOGNITION_TABLE:
        if key == tuple(params):
            return name
    return None
