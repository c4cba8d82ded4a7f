"""Permutations, permutation groups and isomorphism-class fingerprints.

Permutations act on 0..n-1 internally; cycle notation is printed and
parsed 1-based ("(2,3,5,4)(6,7,8,9)", identity "()").

Group work never builds a Permutation per element.  It runs on raw
images: bytes up to degree 256, where one composition is a single
bytes.translate in C, and tuples composed by one itemgetter above that.
Every group computation runs on a deterministic Schreier-Sims
stabilizer chain (_Chain); for an empty base prefix its base and strong
generators are sympy's.  A group keeps one chain, based at point 0 and
built once: its base, its strong generators per level and its level
transversals, which order(), the element walk and transversal() read.
Once built, that chain drops its check cursors and the inverse tables it
cached while sifting.  A point stabilizer is generated by the second
level of a chain whose base starts at the point, the kept one for point
0, and keeps that chain's deeper levels as its own chain.

Every element is the product of one transversal element per chain
level, and the chain's walk streams them holding |G_0| of them, never
|G|.  Only the identity fixes every base point (Seress 2003, ch. 4), so
the element-order histogram reads each element's order on the base
points alone.  It is computed only up to EXACT_ORDER_BOUND; above it a
fingerprint has no histogram.  The derived subgroup, the normal closure
of the generators' commutators, is one chain, built once and extended
by add() with each element that does not sift through it, at every
order.

Fingerprints are computed when asked for and cached per group:
identify(group) fingerprints only a group whose order is in its table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from math import lcm, prod

# The largest order with a histogram.  It bounds time, not memory: the sum
# of the element orders, each power walked on the base points alone.
EXACT_ORDER_BOUND = 10 ** 6


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other: (p*q)(i) = q(p(i))."""
        q = other.images
        return Permutation(tuple(q[i] for i in self.images))

    def inverse(self) -> "Permutation":
        return Permutation(_Tuples.inverse_table(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Every cycle, fixed points included, each from its least point,
        in order of least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if cyc:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths (fixed points included), sorted desc."""
        return tuple(sorted(map(len, self.cycles()), reverse=True))

    def order(self) -> int:
        return reduce(lcm, map(len, self.cycles()), 1)

    def __str__(self):
        return "".join("(%s)" % ",".join(str(p + 1) for p in c)
                       for c in self.cycles() if len(c) > 1) or "()"

    def __repr__(self):
        return "Permutation(%s)" % str(self)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        img = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return Permutation(tuple(img))


_CYCLE_RE = re.compile(r"\(\s*([0-9,\s]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like "(2,3,5,4)(6,7,8,9)"."""
    stripped = re.sub(r"\s", "", text)
    if not re.fullmatch(r"(\([0-9,]*\))+", stripped):
        raise ValueError("bad cycle notation: %r" % text)
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        body = m.group(1)
        if body:
            pts = [int(t) - 1 for t in body.split(",")]
            if any(p < 0 or p >= degree for p in pts):
                raise ValueError("point out of range in %r" % text)
            cycles.append(pts)
    return Permutation.from_cycles(cycles, degree)


class _Bytes:
    """Images of degree <= 256 as bytes.

    An element is its n image bytes and its table those bytes padded to
    256, so step(e, table) = e.translate(table), e then the table's
    permutation, is one call in C.
    """

    def __init__(self, degree):
        self.identity = bytes(range(degree))
        self._pad = bytes(range(degree, 256))

    encode = staticmethod(bytes)

    def table(self, element):
        return element + self._pad

    def inverse_table(self, element):
        return bytes.maketrans(element, self.identity)

    step = staticmethod(bytes.translate)


class _Tuples:
    """Images of degree > 256 as tuples; an element is its own table.

    step(e, table) is e then table, read by one itemgetter over e's
    images (a single point would come back bare, hence degree > 256).
    """

    def __init__(self, degree):
        self.identity = tuple(range(degree))

    encode = staticmethod(tuple)

    @staticmethod
    def table(element):
        return element

    @staticmethod
    def inverse_table(element):
        inverse = [0] * len(element)
        for i, image in enumerate(element):
            inverse[image] = i
        return tuple(inverse)

    @staticmethod
    def step(element, table):
        return itemgetter(*element)(table)


def _derived_order(enc, gens):
    """|G'| for G = <gens>: the normal closure of the generators'
    pairwise commutators.

    G' is one chain, which each queued element extends unless it sifts
    through it; an element that extends it queues its conjugates by G's
    generators.
    """
    step = enc.step
    tables = [enc.table(g) for g in gens]
    inverse_tables = [enc.inverse_table(g) for g in gens]
    inverses = [step(enc.identity, t) for t in inverse_tables]
    queue = [step(step(step(inverses[i], inverse_tables[j]), tables[i]),
                  tables[j])
             for i in range(len(gens)) for j in range(i + 1, len(gens))]
    chain = _Chain(enc, [])
    while queue:
        x = queue.pop()
        if chain.add(x):
            t = enc.table(x)
            queue.extend(step(step(i, t), g) for i, g in zip(inverses, tables))
    return chain.order()


def _orbit(seed, gens, image):
    """The orbit of seed under <gens>, acting by image(gen, x)."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = image(gen, x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _orbits(items, gens, image):
    """(least element, orbit) for each orbit of <gens> on items."""
    seen = set()
    out = []
    for seed in sorted(items):
        if seed not in seen:
            orbit = _orbit(seed, gens, image)
            seen |= orbit
            out.append((seed, orbit))
    return out


def _first_moved(element):
    return next(i for i, x in enumerate(element) if x != i)


class _Chain:
    """Base and strong generating set of <gens> by deterministic
    incremental Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003, ch. 4), on elements encoded by enc.

    gens are encoded elements, none the identity and none repeated.  The
    base starts with base_prefix; each generator fixing the base so far
    adds its first moved point.  _levels[l] holds the strong generators,
    with their tables, that generate the stabilizer of base[:l], and
    _orbits[l] maps each point of that group's orbit of base[l] to an
    element taking base[l] there, found breadth-first over _levels[l].

    For an empty prefix the base and strong_gens match sympy's
    schreier_sims_incremental.  Level i is checked only once every
    deeper level is complete, so a Schreier generator that sifted to the
    identity sifts to it again: a level resumes its check where it found
    a new strong generator instead of starting over.  add(h) extends a
    built chain by h in the same way, from the level h stops sifting at.
    """

    def __init__(self, enc, gens, base_prefix=()):
        self.enc = enc
        base = list(base_prefix)
        for g in gens:
            if all(g[b] == b for b in base):
                base.append(_first_moved(g))
        self.base = base
        self.strong_gens = list(gens)
        self._levels = self._distribute(gens)
        self._orbits = [None] * len(base)
        self._inverses = [None] * len(base)
        self._cursor = [None] * len(base)
        for level in range(len(base)):
            self._reset(level)
        self._complete(len(base) - 1)

    def add(self, h):
        """Extend the chain, not yet released, by h unless h is in it;
        whether the chain grew."""
        found = self._sift(h, 0)
        if found[0] is not None:
            self._complete(-1, found)
        return found[0] is not None

    def _complete(self, i, found=None):
        """Check levels i, i-1, ..., 0 in turn, each with every deeper
        level complete.  A residue h found at level i that stopped at
        level j, given as found or from the check, becomes a strong
        generator of levels i+1..j, its first moved point a new base
        point when j is past the base, and the checks resume at j."""
        base = self.base
        while found is not None or i >= 0:
            found = found or self._check(i)
            if found is None:
                i -= 1
                continue
            h, j = found
            if j == len(base):
                base.append(_first_moved(h))
                for per_level in (self._levels, self._orbits,
                                  self._inverses, self._cursor):
                    per_level.append([])
            self.strong_gens.append(h)
            t = self.enc.table(h)
            for level in range(i + 1, j + 1):
                self._levels[level].append((h, t))
                self._reset(level)
            i, found = j, None

    def _distribute(self, gens):
        """Per level, each of gens with its table, if it fixes the base
        points before that level (the last level takes the rest)."""
        base = self.base
        levels = [[] for _ in base]
        for g in gens:
            t = self.enc.table(g)
            depth = 0
            while depth < len(base) - 1 and g[base[depth]] == base[depth]:
                depth += 1
            for level in range(depth + 1):
                levels[level].append((g, t))
        return levels

    def _transversal(self, gens, point):
        step = self.enc.step
        tr = {point: self.enc.identity}
        orbit = [point]
        for x in orbit:
            u = tr[x]
            for g, t in gens:
                y = g[x]
                if y not in tr:
                    tr[y] = step(u, t)
                    orbit.append(y)
        return tr

    def _reset(self, level):
        self._orbits[level] = self._transversal(self._levels[level],
                                                self.base[level])
        self._inverses[level] = {}
        self._cursor[level] = (0, 0)

    def _inverse(self, level, point):
        inverses = self._inverses[level]
        t = inverses.get(point)
        if t is None:
            t = inverses[point] = self.enc.inverse_table(
                self._orbits[level][point])
        return t

    def _sift(self, h, start):
        """(residue, level) after stripping h from level start on: the
        level whose orbit lacks h's image of its base point, or len(base)
        when h fixes the whole base; (None, None) when h is in the chain."""
        step = self.enc.step
        base = self.base
        for level in range(start, len(base)):
            b = base[level]
            beta = h[b]
            if beta == b:
                continue
            u = self._orbits[level].get(beta)
            if u is None:
                return h, level
            if h == u:
                return None, None
            h = step(h, self._inverse(level, beta))
        if h == self.enc.identity:
            return None, None
        return h, len(base)

    def _check(self, i):
        """The first Schreier generator of level i, from the cursor on,
        that does not sift to the identity through the deeper levels, as
        (residue, level it stopped at); None when there is none."""
        step = self.enc.step
        gens, orbit = self._levels[i], self._orbits[i]
        points = list(orbit)
        b, k = self._cursor[i]
        while b < len(points):
            beta = points[b]
            u = orbit[beta]
            while k < len(gens):
                g, t = gens[k]
                k += 1
                g1 = step(u, t)
                gb = g[beta]
                if g1 != orbit[gb]:
                    h, j = self._sift(step(g1, self._inverse(i, gb)), i + 1)
                    if h is not None:
                        self._cursor[i] = (b, k)
                        return h, j
            b, k = b + 1, 0
        self._cursor[i] = (b, 0)
        return None

    def release(self):
        """Drop the build state: the check cursors, which only
        construction reads, and the inverse tables cached while sifting,
        which a later sift refills on demand."""
        self._cursor = None
        self._inverses = [{} for _ in self.base]

    def order(self):
        return prod(len(orbit) for orbit in self._orbits)

    def elements(self):
        """Every element once, as images: the stabilizer of base[0] is
        listed level by level, deepest first, as products of one
        transversal element per level, then each of those is taken times
        each element of the first level's transversal in turn."""
        identity, step, table = (self.enc.identity, self.enc.step,
                                 self.enc.table)
        stabilizer = [identity]
        for tr in reversed(self._orbits[1:]):
            tables = [table(u) for u in tr.values()]
            stabilizer = [step(e, t) for t in tables for e in stabilizer]
        for u in self._orbits[0].values() if self.base else [identity]:
            t = table(u)
            for e in stabilizer:
                yield step(e, t)

    def stabilizer_gens(self):
        """Strong generators of the stabilizer of base[0]."""
        return [g for g, _ in self._levels[1]] if len(self.base) > 1 else []

    def tail(self):
        """The chain of the stabilizer of base[0]: the deeper levels,
        shared with this chain, with no build state."""
        tail = _Chain.__new__(_Chain)
        tail.enc = self.enc
        tail.base = self.base[1:]
        tail.strong_gens = self.stabilizer_gens()
        tail._levels = self._levels[1:]
        tail._orbits = self._orbits[1:]
        tail.release()
        return tail


class PermGroup:
    """A permutation group with stabilizer-chain order and stabilizers.

    Generators are kept in order with identities and repeats dropped,
    and encoded once for the chain.
    """

    def __init__(self, generators, degree=None):
        generators = list(dict.fromkeys(g for g in generators
                                        if not g.is_identity()))
        if degree is None:
            if not generators:
                raise ValueError("degree required for the trivial group")
            degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("mixed degrees")
        self.degree = degree
        self.generators = tuple(generators)
        self._enc = _Bytes(degree) if degree <= 256 else _Tuples(degree)
        self._gens = [self._enc.encode(g.images) for g in generators]
        self._stabilizers = {}
        self._chain = None
        self._fingerprint = None

    def chain(self) -> _Chain:
        """The stabilizer chain this group keeps, with its build state
        released: built once with its base starting at point 0, unless
        the group is a point stabilizer, which inherits the deeper levels
        of the chain it was read from."""
        if self._chain is None:
            self._chain = _Chain(self._enc, self._gens, (0,))
            self._chain.release()
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def orbit(self, point: int):
        return frozenset(_orbit(point, self._gens, lambda g, p: g[p]))

    def point_stabilizer(self, point: int) -> "PermGroup":
        """The stabilizer of point, kept per point.  It is generated by
        the second level of a chain whose base starts at point, the kept
        chain when its base does, else a new one, and keeps that chain's
        deeper levels as its own chain."""
        stab = self._stabilizers.get(point)
        if stab is None:
            chain = self.chain()
            if chain.base[:1] != [point]:
                chain = _Chain(self._enc, self._gens, (point,))
            stab = PermGroup([Permutation(h) for h in chain.stabilizer_gens()],
                             degree=self.degree)
            stab._chain = chain.tail()
            self._stabilizers[point] = stab
        return stab

    def two_point_stabilizer(self, p: int, q: int) -> "PermGroup":
        if p == q:
            raise ValueError("points must differ")
        return self.point_stabilizer(p).point_stabilizer(q)

    def elements(self):
        """All elements as images, bytes for degree <= 256, else tuples,
        in a list of |G|: the kept chain's element walk.  The fingerprint
        streams that walk instead."""
        return list(self.chain().elements())

    def transversal(self):
        """For each point p, the images of an element taking 0 to p, or
        None off the orbit of 0: the kept chain's first level, found
        breadth-first over the generators in order.  A chain inherited
        from a point stabilizer's parent is not based at 0, and is
        refused."""
        chain = self.chain()
        if chain.base[:1] != [0]:
            raise ValueError("the kept chain is not based at point 0")
        return [chain._orbits[0].get(p) for p in range(self.degree)]

    def derived_index(self) -> int:
        """|G : G'|."""
        return self.order() // _derived_order(self._enc, self._gens)

    def fingerprint(self) -> "Fingerprint":
        if self._fingerprint is None:
            self._fingerprint = fingerprint(self)
        return self._fingerprint

    def __repr__(self):
        return "PermGroup(degree=%d, gens=[%s])" % (
            self.degree, ", ".join(str(g) for g in self.generators))


@dataclass(frozen=True)
class Fingerprint:
    """Conjugation-invariant stand-in for an isomorphism class: its
    order, element-order histogram and derived index.  Transitivity is a
    property of an action, not of the class, and is read off the group
    (PermGroup.is_transitive)."""

    order: int
    # sorted ((order, count), ...); None above EXACT_ORDER_BOUND
    element_order_histogram: tuple | None
    derived_index: int

    @property
    def exact(self):
        """Whether the element-order histogram was computed."""
        return self.element_order_histogram is not None

    def element_orders(self):
        """The set of element orders, or None without a histogram."""
        if not self.exact:
            return None
        return frozenset(o for o, _ in self.element_order_histogram)


def fingerprint(g: PermGroup) -> Fingerprint:
    """The group's order, derived index and, up to EXACT_ORDER_BOUND, its
    element-order histogram over the streamed chain walk: an element's
    order is the length of its power walk on the base points, their
    images stepped with the element's table until they return."""
    order = g.order()
    hist = None
    if order <= EXACT_ORDER_BOUND:
        chain = g.chain()
        step, table = chain.enc.step, chain.enc.table
        # the base twice, so that a tuple step never reads a lone point,
        # which itemgetter returns bare; the trivial group's empty base
        # reads point 0 twice
        start = chain.enc.encode(chain.base * 2 or [0, 0])
        counts = {}
        for e in chain.elements():
            t = table(e)
            x = step(start, t)
            k = 1
            while x != start:
                x = step(x, t)
                k += 1
            counts[k] = counts.get(k, 0) + 1
        hist = tuple(sorted(counts.items()))
    return Fingerprint(
        order=order,
        element_order_histogram=hist,
        derived_index=g.derived_index(),
    )


# Known groups: a name, its order and its set of element orders, or
# None for a group above EXACT_ORDER_BOUND, which has no histogram.
NAMED_GROUPS = (
    ("Z3^2:Z2^2", 36, frozenset({1, 2, 3, 6})),
    ("A5", 60, frozenset({1, 2, 3, 5})),
    ("S5", 120, frozenset({1, 2, 3, 4, 5, 6})),
    ("PSL(2,7)", 168, frozenset({1, 2, 3, 4, 7})),
    ("PGL(2,7)", 336, frozenset({1, 2, 3, 4, 6, 7, 8})),
    ("A6", 360, frozenset({1, 2, 3, 4, 5})),
    ("J2", 604800, frozenset({1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15})),
    # Tits T rests on two facts only: its order and that it is perfect
    # (derived index 1).
    ("Tits T", 17971200, None),
)


def identify(g: PermGroup):
    """Name from the built-in table, or None.

    Only a group whose order is in the table is fingerprinted.  A row
    with an element-order set needs exactly that set; a row without one
    needs a perfect group.
    """
    for name, order, orders in NAMED_GROUPS:
        if g.order() != order:
            continue
        fp = g.fingerprint()
        if orders is None:
            if fp.derived_index == 1:
                return name
        elif fp.element_orders() == orders:
            return name
    return None

