"""Permutations, permutation groups and isomorphism-class fingerprints.

Permutations act on 0..n-1 internally; cycle notation is printed and
parsed 1-based ("(2,3,5,4)(6,7,8,9)", identity "()").

Group work never builds a Permutation per element.  It runs on raw
images: bytes up to degree 256, where one composition is a single
bytes.translate in C, and tuples composed by one itemgetter above that.
Every group computation runs on a deterministic Schreier-Sims
stabilizer chain (_Chain); for an empty base prefix its base and strong
generators are sympy's.  A point stabilizer is the second level of a
chain whose base starts at the point, and comes with its order.  A
group keeps one chain, for the empty base prefix: its base, its strong
generators per level and its level transversals, which order() and
elements() read.  Once built, that chain drops its check cursors and
the inverse tables it cached while sifting.

Every element is the product of one transversal element per chain
level: the element-order histogram lists them all and walks the powers
of one element per cyclic subgroup, giving every power its order at
once.  It is computed only up to EXACT_ORDER_BOUND; above it a
fingerprint has no histogram.  The derived subgroup, the normal closure
of the generators' commutators, grows as a chain that an element joins
when it does not sift through it, at every order.

Fingerprints are computed when asked for and cached per group:
identify(group) fingerprints only a group whose order is in its table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from math import gcd, lcm, prod

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
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths (fixed points included), sorted desc."""
        lens = [len(c) for c in self.cycles()]
        lens += [1] * (self.degree - sum(lens))
        return tuple(sorted(lens, reverse=True))

    def order(self) -> int:
        return reduce(lcm, (len(c) for c in self.cycles()), 1)

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(%s)" % ",".join(str(p + 1) for p in c) for c in cycs
        )

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


def cycle_type_str(ct) -> str:
    """Compact exponent form, e.g. (3,3,3,1) -> "3^3 1^1"."""
    parts = []
    i = 0
    while i < len(ct):
        j = i
        while j < len(ct) and ct[j] == ct[i]:
            j += 1
        parts.append("%d^%d" % (ct[i], j - i))
        i = j
    return " ".join(parts)


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


def _powers(enc, element):
    """element, element^2, ..., up to and including the identity."""
    step, table, identity = enc.step, enc.table(element), enc.identity
    out = [element]
    p = element
    while p != identity:
        p = step(p, table)
        out.append(p)
    return out


def _order_histogram(enc, elements):
    """{order: count} over the elements, a closed set.

    One power walk per cyclic subgroup met: the walk from e finds its
    order k, and e^j gets order k // gcd(j, k).
    """
    hist = {}
    done = set()
    for e in elements:
        if e in done:
            continue
        powers = _powers(enc, e)
        k = len(powers)
        for j, p in enumerate(powers, 1):
            if p not in done:
                done.add(p)
                o = k // gcd(j, k)
                hist[o] = hist.get(o, 0) + 1
    return hist


def _derived_order(enc, gens):
    """|G'| for G = <gens>: the normal closure of the generators'
    pairwise commutators.

    G' is a chain, rebuilt each time a queued element it does not
    contain joins its generators; that element's conjugates by G's
    generators join the queue.
    """
    step = enc.step
    tables = [enc.table(g) for g in gens]
    inverse_tables = [enc.inverse_table(g) for g in gens]
    inverses = [step(enc.identity, t) for t in inverse_tables]
    queue = [step(step(step(inverses[i], inverse_tables[j]), tables[i]),
                  tables[j])
             for i in range(len(gens)) for j in range(i + 1, len(gens))]
    derived = []
    chain = _Chain(enc, derived)
    while queue:
        x = queue.pop()
        if x not in chain:
            derived.append(x)
            chain = _Chain(enc, derived)
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
    a new strong generator instead of starting over.
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
        i = len(base) - 1
        while i >= 0:
            found = self._check(i)
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
            t = enc.table(h)
            for level in range(i + 1, j + 1):
                self._levels[level].append((h, t))
                self._reset(level)
            i = j

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

    def __contains__(self, h):
        """Whether h sifts from level 0 to the identity."""
        residue, _ = self._sift(h, 0)
        return residue is None or residue == self.enc.identity

    def order(self, level=0):
        """The order of the stabilizer of base[:level]."""
        return prod(len(orbit) for orbit in self._orbits[level:])

    def stabilizer_gens(self):
        """Strong generators of the stabilizer of base[0]."""
        return [g for g, _ in self._levels[1]] if len(self.base) > 1 else []


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
        self._order = None if generators else 1
        self._stabilizers = {}
        self._chain = None
        self._fingerprint = None

    def chain(self, base_prefix=()) -> _Chain:
        """A stabilizer chain whose base starts with base_prefix.

        The chain for the empty prefix, which elements() reads, is kept,
        with its build state released.  Its base starts at the first
        point the first generator moves, so it is also the chain for that
        one point.
        """
        gens = self._gens
        first = _first_moved(gens[0]) if gens else None
        if tuple(base_prefix) not in ((), (first,)):
            return _Chain(self._enc, gens, base_prefix)
        if self._chain is None:
            self._chain = _Chain(self._enc, gens)
            self._chain.release()
        return self._chain

    def order(self) -> int:
        """The product of the orbit lengths of the chain that
        point_stabilizer(0) builds."""
        if self._order is None:
            self.point_stabilizer(0)
        return self._order

    def is_transitive(self) -> bool:
        """Orbit-stabilizer on the chain point_stabilizer(0) builds."""
        return self.order() == self.degree * self.point_stabilizer(0).order()

    def orbit(self, point: int):
        return frozenset(_orbit(point, self._gens, lambda g, p: g[p]))

    def point_stabilizer(self, point: int) -> "PermGroup":
        """The stabilizer of point, generated by the second level of a
        chain whose base starts at point; kept per point.  Its order, and
        this group's, come with the chain."""
        stab = self._stabilizers.get(point)
        if stab is None:
            if not self.generators:
                return self
            chain = self.chain((point,))
            stab = PermGroup([Permutation(h) for h in chain.stabilizer_gens()],
                             degree=self.degree)
            stab._order = chain.order(1)
            self._order = chain.order()
            self._stabilizers[point] = stab
        return stab

    def two_point_stabilizer(self, p: int, q: int) -> "PermGroup":
        if p == q:
            raise ValueError("points must differ")
        return self.point_stabilizer(p).point_stabilizer(q)

    def elements(self):
        """All elements as images, bytes for degree <= 256, else tuples,
        in a list: each the product of one element per chain level, from
        the chain's level transversals, deepest level first.

        Only for groups of order <= EXACT_ORDER_BOUND.
        """
        step = self._enc.step
        elements = [self._enc.identity]
        for tr in reversed(self.chain()._orbits):
            tables = [self._enc.table(u) for u in tr.values()]
            elements = [step(e, t) for t in tables for e in elements]
        return elements

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
    """Conjugation-invariant stand-in for an isomorphism class."""

    order: int
    # sorted ((order, count), ...); None above EXACT_ORDER_BOUND
    element_order_histogram: tuple | None
    derived_index: int
    transitive: bool

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
    order = g.order()
    hist = None
    if order <= EXACT_ORDER_BOUND:
        hist = tuple(sorted(_order_histogram(g._enc, g.elements()).items()))
    return Fingerprint(
        order=order,
        element_order_histogram=hist,
        derived_index=g.derived_index(),
        transitive=g.is_transitive(),
    )


# Known groups: a name, its order and its set of element orders, or
# None for a group too large to list its elements.
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


def simultaneously_conjugate(pair_a, pair_b):
    """A relabeling taking generator pair a to pair b, or None.

    Both pairs must generate transitive groups of equal degree; the image
    of point 0 then determines the whole relabeling, which is checked.
    """
    n = pair_a[0].degree
    if any(p.degree != n for p in (*pair_a, *pair_b)):
        return None
    for base in range(n):
        sigma = [None] * n
        sigma[0] = base
        stack = [0]
        ok = True
        while stack and ok:
            p = stack.pop()
            for ga, gb in zip(pair_a, pair_b):
                q, r = ga(p), gb(sigma[p])
                if sigma[q] is None:
                    sigma[q] = r
                    stack.append(q)
                elif sigma[q] != r:
                    ok = False
                    break
        if ok and all(s is not None for s in sigma) \
                and sorted(sigma) == list(range(n)):
            return Permutation(tuple(sigma))
    return None
