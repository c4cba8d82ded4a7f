"""Todd-Coxeter coset enumeration and coset-table derived data.

The enumerator is the HLT strategy (relator scanning with filling) with
a standard union-find coincidence queue.  It holds its table by column,
one list per letter with None while a cell is undefined, as the
low-index search does, and grows each column as cosets are defined.  A
finished enumeration is numbered by renumber from coset 0, the BFS that
lowindex.least_table minimizes over base cosets, so equal subgroups
always yield byte-identical tables.

Cosets are 0-based internally and in the Python API; JSON output is
1-based to match the human-facing reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Permutation
from .words import Word, Presentation, SubgroupSpec

NLETTERS = 4
LETTER_ORDER = (0, 1, 2, 3)  # x, x^-1, y, y^-1


# the default coset cap, also analyze's --max-cosets; only a cap, since
# the enumerator grows its columns as it defines cosets
MAX_COSETS = 4 * 10 ** 6


class CosetLimitExceeded(RuntimeError):
    """Enumeration did not complete within the coset cap."""


@dataclass(frozen=True)
class CosetTable:
    """Complete action of x, x^-1, y, y^-1 on the cosets of a subgroup.

    The table alone determines its subgroup, so it holds no generator
    words: subgroup reads a free basis off the table on each access.
    """

    action: tuple            # one row of 4 cosets per coset
    presentation: Presentation

    @property
    def n(self) -> int:
        """The index: the number of cosets."""
        return len(self.action)

    @property
    def subgroup(self) -> SubgroupSpec:
        """The Schreier generators of the stabilizer of coset 0, the
        table's replay certificate; see schreier_generators.

        Recomputed on each read, O(n^2) letters for index n, and never
        cached, so a table costs only its action: a caller that needs
        the words twice should hold them.
        """
        return schreier_generators(self)

    def word_action(self, w: Word, coset: int) -> int:
        c = coset
        for l in w.letters:
            c = self.action[c][l]
        return c

    def perm_rep(self):
        """Permutations (pi_x, pi_y) of the coset set; see pair_rows."""
        px = Permutation(tuple(row[0] for row in self.action))
        py = Permutation(tuple(row[2] for row in self.action))
        return px, py

    def check_invariants(self):
        """Raise AssertionError unless the table is a valid coset table."""
        n = self.n
        for c, row in enumerate(self.action):
            assert len(row) == NLETTERS
            for l, d in enumerate(row):
                assert 0 <= d < n, "entry out of range"
                assert self.action[d][l ^ 1] == c, "inverse mismatch"
        for r in self.presentation.relators:
            for c in range(n):
                assert self.word_action(r, c) == c, "relator not closed"
        for g in self.subgroup.generators:
            assert self.word_action(g, 0) == 0, "certificate word leaves coset 0"


def pair_rows(x, y):
    """The rows (x, x^-1, y, y^-1) of a generator pair: perm_rep's inverse."""
    return list(zip(x.images, x.inverse().images,
                    y.images, y.inverse().images))


def renumber(row, base, bound=None):
    """The rows row(c), c's images under x, x^-1, y and y^-1, of base's
    orbit renumbered by BFS: base is 0 and each coset takes the next
    number when first read.  With a bound, a table, None at the first
    row above the bound's, every earlier row equal: never above it."""
    new, order, out = {base: 0}, [base], []
    below = bound is None
    for c in order:
        numbered = []
        for d in row(c):
            k = new.get(d)
            if k is None:
                k = new[d] = len(order)
                order.append(d)
            numbered.append(k)
        numbered = tuple(numbered)
        if not below:
            if numbered > bound[len(out)]:
                return None
            below = numbered < bound[len(out)]
        out.append(numbered)
    return tuple(out)


class _Enumerator:
    def __init__(self, relators, max_cosets):
        self.max_cosets = max_cosets
        self.relators = [r.cyclically_reduced().letters for r in relators]
        constrained = {l for r in self.relators for l in r}
        constrained |= {l ^ 1 for l in constrained}
        # letters no relator scan can ever define need eager filling
        self.free_letters = [l for l in range(NLETTERS)
                             if l not in constrained]
        # the table by column: cols[l][c] is coset c times letter l, None
        # while undefined
        self.cols = [[] for _ in range(NLETTERS)]
        self.p = []                       # union-find over cosets
        self.nalive = 0
        self.queue = []
        self.new_coset()                  # coset 0 counts against the cap

    def rep(self, k):
        # find with path compression
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def new_coset(self):
        if self.nalive >= self.max_cosets:
            raise CosetLimitExceeded(
                "coset cap %d reached; index may be infinite or the cap too small"
                % self.max_cosets)
        for col in self.cols:
            col.append(None)
        self.p.append(len(self.p))
        self.nalive += 1
        return len(self.p) - 1

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            self.nalive -= 1
            self.queue.append(b)

    def coincidence(self, a, b):
        self.merge(a, b)
        cols = self.cols
        while self.queue:
            g = self.queue.pop()
            for l in range(NLETTERS):
                col, inv = cols[l], cols[l ^ 1]
                d = col[g]
                if d is None:
                    continue
                inv[d] = None
                mu, nu = self.rep(g), self.rep(d)
                ent = col[mu]
                if ent is not None:
                    self.merge(nu, ent)
                else:
                    ent2 = inv[nu]
                    if ent2 is not None:
                        self.merge(mu, ent2)
                    else:
                        col[mu] = nu
                        inv[nu] = mu

    def scan_and_fill(self, a, word):
        cols = self.cols
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j:
                d = cols[word[i]][f]
                if d is None:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                d = cols[word[j] ^ 1][b]
                if d is None:
                    break
                b = d
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                cols[word[i]][f] = b
                cols[word[i] ^ 1][b] = f
                return
            d = self.new_coset()
            cols[word[i]][f] = d
            cols[word[i] ^ 1][d] = f
            f = d
            i += 1

    def run(self, subgroup_words):
        for w in subgroup_words:
            self.scan_and_fill(0, w.letters)
        cols, p = self.cols, self.p
        a = 0
        # a coset is live while it is its own root, p[a] == a, which is
        # rep(a) == a without the walk
        while a < len(p):
            if p[a] == a:
                for r in self.relators:
                    self.scan_and_fill(a, r)
                    if p[a] != a:
                        break
                else:
                    for l in self.free_letters:
                        if p[a] == a and cols[l][a] is None:
                            d = self.new_coset()
                            cols[l][a] = d
                            cols[l ^ 1][d] = a
            a += 1


def todd_coxeter(spec: SubgroupSpec,
                 max_cosets: int = MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of the subgroup; raises CosetLimitExceeded."""
    enum = _Enumerator(spec.parent.relators, max_cosets)
    enum.run(spec.generators)
    # number the live cosets reached from coset 0; with no coincidence
    # every coset is live and its own root
    cols, rep = enum.cols, enum.rep
    merged = enum.nalive != len(enum.p)

    def row(c):
        images = [col[c] for col in cols]     # columns in LETTER_ORDER
        assert None not in images, "HLT left an undefined entry"
        return [rep(d) for d in images] if merged else images

    action = renumber(row, 0)
    assert len(action) == enum.nalive, "coset graph is not connected"
    return CosetTable(action=action, presentation=spec.parent)


def _transversal_letters(table: CosetTable):
    """Letter tuples of the BFS transversal; see transversal."""
    reps = [None] * table.n
    reps[0] = ()
    order = [0]
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for l in LETTER_ORDER:
            d = table.action[c][l]
            if reps[d] is None:
                reps[d] = reps[c] + (l,)
                order.append(d)
    return reps


def transversal(table: CosetTable):
    """Shortest coset representative words, BFS in canonical letter order.

    reps[0] = e and applying reps[i] from coset 0 lands on coset i.
    """
    return [Word(r, reduced=True) for r in _transversal_letters(table)]


def schreier_generators(table: CosetTable) -> SubgroupSpec:
    """Subgroup generators read off the BFS transversal (a replay certificate).

    One word rep[c]*l*rep[d]^-1 per edge (c, l, d) of the coset graph
    outside the BFS tree, taken in the direction met first, that is when
    (c, l) < (d, l^-1).  The transversal is prefix-closed, so the words
    need no reduction and form a free basis of the subgroup: n + 1 words
    for index n.  Guarantees todd_coxeter on the result rebuilds a
    table of equal index, the same table if it is BFS-numbered.
    CosetTable.subgroup returns this: the words, O(n^2) letters, are
    built on request and no table stores them.
    """
    reps = _transversal_letters(table)
    inverses = [tuple(m ^ 1 for m in reversed(r)) for r in reps]
    # the letter by which BFS reached each coset, -1 at coset 0
    via = [r[-1] if r else -1 for r in reps]
    gens = []
    for c, row in enumerate(table.action):
        for l in LETTER_ORDER:
            d = row[l]
            if via[d] == l or via[c] == l ^ 1 or (d, l ^ 1) < (c, l):
                continue
            gens.append(Word(reps[c] + (l,) + inverses[d], reduced=True))
    return SubgroupSpec(parent=table.presentation, generators=tuple(gens))
