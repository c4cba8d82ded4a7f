"""Backtracking low-index subgroup search.

Enumerates one coset table per conjugacy class of subgroups of index
<= max_index.  Partial tables are extended at the first undefined entry
in row-major order (letter order x, x^-1, y, y^-1), relator scans
propagate deductions, and a first-in-class test prunes tables that are
not lexicographically minimal over the choice of base coset, so each
conjugacy class is produced exactly once.  A completed table is its own
least_table, Sims's standard form (*Computation with Finitely Presented
Groups*, 1994): the least over base cosets of toddcox.renumber, the BFS
that numbers a finished Todd-Coxeter enumeration from coset 0.  Equal
least tables are the package's one test of simultaneous conjugacy.  The
depth-first search runs on an explicit stack of branch points, each
trying its values in place, so Python's recursion limit does not bound
how deep a search path may go.

The search runs modulo the letter automorphisms of the presentation:
the signed permutations s of x, x^-1, y, y^-1 that map every relator,
read by columns, onto a rotation of a relator or of its inverse.  The
table T of a subgroup H read with column l taken from column s(l) is a
table of the twin subgroup s^-1(H).  A table is kept only if it is no
larger than the least renumbering of each twin, so of each class and its
twins only the least is searched for; its twins' least tables are
emitted with it.  Each s adds one base at coset 0 to the first-in-class
test, comparing the table with its twin renumbered from 0, which prunes
early most of the tables that are not the least of their twins; at a
complete table the twins' renumbering from every base decides.  A
presentation with no such s, as k19, runs the plain search.

Entries are only ever added inside a subtree of the search.  So a base
coset whose renumbering is found larger than the table at an entry
defined on both sides, with every earlier entry defined and equal,
stays larger in every extension; the first-in-class test hands only the
undecided bases down to the children.  A base only ever waits on the
undefined cell of its own renumbering that its comparison stopped at,
which is read off where it stopped, not stored: a descendant resumes
that comparison only once that cell is defined, from where it stopped
rather than from coset 0.
The columns grow as cosets are created, never up front by max_index.

The partial table is held by column, one list per letter.  An
involution, a generator l with a relator that cyclically reduces to l^2
or l^-2, has one self-inverse column for l and l^-1, so setting
(a, l) = b also sets (b, l) = a.  The search reads the rotations of
every relator and of its inverse by columns once, into one set: the
letter automorphisms are checked against it, and each of its rotations
is compiled once, by the columns it reads, except an even power of a
self-inverse column, which holds in every table.  A new entry
(a, l) = b is scanned along each rotation that starts with l, from a
only, beginning after the new edge: a cycle through the edge read from
b is, read backwards, one of those rotations read from a.  A scan that
stops one entry short of closing its cycle forces that entry, set where
it is found: a later conflicting deduction fails the scan that walks
into it.  The undo trail is the queue of deductions: a forced entry is
appended to it, and the entries from the new edge on are scanned in
turn until its end.  Nothing skips a closed rotation: a forced entry is
scanned along every rotation that starts with its letter, and the one
it was read from walks the cycle it closed.  A relator that cyclically
reduces to one letter l is read from no other entry, so (c, l) = c is
set through the trail when coset c is made, coset 0 included.
Propagation ends at the closure of the deductions whatever the order it
finds them in, so every node's verdict is that of scanning every relator
from every coset.

The tables of one search share their rows: each emitted row is the one
tuple the search holds for its value, and that map is dropped with the
search.  The classes of one search repeat each other's rows (k4 <= 24:
587 tables of 11 539 rows, 2 135 of them distinct), so the results hold
about a third of the memory that a tuple per row would take.  Every
row and table is built at its size, never from a generator, whose freed
tuples would park on CPython's free lists (see toddcox).
"""

from __future__ import annotations

from operator import itemgetter

from .toddcox import CosetTable, NLETTERS, renumber
from .words import Presentation


class SearchBudgetExceeded(RuntimeError):
    """The node budget was hit before the search finished."""


def _compile_rotations(rotations, read, cols):
    """The rotations to scan from a new entry, compiled against the
    column table cols: rotations is the one set of the search, the
    rotations of every relator and of its inverse read by columns, and
    read maps each letter to the letter of its column.

    For a new entry (f, l) = b, the list for l holds the rotations that
    start with l, scanned from f.  A cycle through the new edge read from
    b, along l^-1 first, is read backwards one of these read from f, so
    nothing is scanned from b.  For an involution l, whose column cols[l]
    is cols[l^-1], the lists for l and l^-1 are one list.  An even power
    of a self-inverse column holds in every table and is not compiled.

    Rotations that read the same by columns are one rotation of the set:
    a reversible relator, whose inverse read so is one of its rotations,
    adds none by its inverse.  The compiled w is a list of steps (column,
    gap), one per letter w[i] of w[1:]: column is the column of w[i], and
    gap, the stop record of a forward scan stopped before w[i], is
    (w[i], backward, last): the columns of the first len(w) - i - 1
    letters of w^-1 and the column of the letter w[i]^-1 that ends that
    backward scan.
    """
    from_f = [[] for _ in range(NLETTERS)]
    for rot in rotations:
        if len(set(rot)) == 1 and read[rot[0] ^ 1] == rot[0] \
                and len(rot) % 2 == 0:
            continue        # an even power of a self-inverse column
        inverse = [cols[k ^ 1] for k in reversed(rot)]     # its columns
        from_f[rot[0]].append([
            (cols[rot[i]], (rot[i], tuple(inverse[:-i - 1]), inverse[-i - 1]))
            for i in range(1, len(rot))])
    return [from_f[k] for k in read]


#: the signed letter permutations, as the images of x, x^-1, y, y^-1:
#: x goes to x or x^-1 before y or y^-1, and each generator to an image
#: before its inverse
SIGNED_PERMUTATIONS = tuple((gx ^ sx, gx ^ sx ^ 1, gy ^ sy, gy ^ sy ^ 1)
                            for gx, gy in ((0, 2), (2, 0))
                            for sx in (0, 1) for sy in (0, 1))


def _letter_automorphisms(relators, read, rotations):
    """The signed letter permutations, other than those acting as the
    identity on the columns, that map every relator to a relator.

    A signed letter permutation s, a tuple of the images of x, x^-1, y,
    y^-1, commutes with inversion.  It is kept when it maps each
    relator, a cyclically reduced letter tuple read by columns with read,
    into rotations, the one set of the search: the rotations of every
    relator and of its inverse, read the same way.  Then it induces an
    automorphism of the group.  One s is kept per map of columns, the
    first in SIGNED_PERMUTATIONS.  So the list and its order depend only
    on the rotations of the relators and of their inverses, not on how
    the relators are written.
    """
    found, seen = [], {tuple(read)}
    for s in SIGNED_PERMUTATIONS:
        key = tuple(read[k] for k in s)
        if key not in seen and all(
                tuple(read[s[l]] for l in rel) in rotations
                for rel in relators):
            seen.add(key)
            found.append(s)
    return found


def least_table(rows):
    """The least BFS renumbering over all base points, in row-major order,
    of the action on 0..n-1 whose row c holds the images of c under x,
    x^-1, y and y^-1: toddcox.renumber from each base, bounded by the
    least so far.

    Two transitive actions are simultaneously conjugate exactly when
    their least tables are equal: a relabeling carries the renumbering
    from each base point to the one from its image.  Every table that
    low_index_subgroups returns is its own least table.  A renumbering
    reaches one orbit only, so an intransitive action's least table has
    fewer rows than points and is no transitive action's table.
    """
    best = None
    for beta in range(len(rows)):
        best = renumber(rows.__getitem__, beta, best) or best
    return best


class _Search:
    def __init__(self, pres, max_index, node_budget):
        self.pres = pres
        self.max_index = max_index
        self.node_budget = node_budget
        self.nodes = 0
        # the partial table by column: cols[l][c] is coset c times letter
        # l, None while undefined; columns only ever grow in place, since
        # the compiled rotations hold them.  An involution's two letters
        # share one column, so columns holds each column once.
        relators = [r.cyclically_reduced().letters for r in pres.relators]
        self.cols, self.letters = [], []
        for l in range(NLETTERS):
            if l & 1 and ((l, l) in relators or (l ^ 1, l ^ 1) in relators):
                self.cols.append(self.cols[l ^ 1])
            else:
                self.cols.append([None])
                self.letters.append(l)
        self.columns = [self.cols[l] for l in self.letters]
        # read[l] is the letter of l's column: l & ~1 for both letters of
        # an involution
        read = [l & ~1 if self.cols[l] is self.cols[l ^ 1] else l
                for l in range(NLETTERS)]
        # the rotations of every relator and of its inverse, read by
        # columns, once each and in the order they are first read
        rotations = {}
        for rel in relators:
            w = tuple(read[l] for l in rel)
            for word in (w, tuple(read[k ^ 1] for k in reversed(w))):
                rotations.update(dict.fromkeys(
                    word[i:] + word[:i] for i in range(len(word))))
        self.from_f = _compile_rotations(rotations, read, self.cols)
        # the letter of each relator that cyclically reduces to one
        # letter: (c, l) = c is set when coset c is made, as no scan of
        # an entry elsewhere deduces it
        self.fixed = [r[0] for r in relators if len(r) == 1]
        # the twisted bases of the first-in-class test; an empty list
        # runs the plain search
        self.automorphisms = _letter_automorphisms(relators, read, rotations)
        self.trail = []
        # the renumbering of each base of the first-in-class test, a pair
        # (mu, nu) of lists new -> old and old -> new with one int per
        # allocated coset: one pair per twisted base, made by run, then
        # one per base coset c >= 1.  nu[g] counts only if nu[g] < count
        # and mu[nu[g]] == g, for the count of cosets the comparison has
        # renumbered, so what a sibling subtree wrote needs no reset; an
        # unset slot holds 0, which counts only for the base, mu[0].
        # Two lists of k ints per base for k allocated cosets: on
        # < x, y | x^2, y^3 > with a 2000-node budget, about 12 MB at 858
        # cosets, beside about 31 MB of emitted tables (tracemalloc).
        self.renumberings = []
        self.results = []
        # each distinct row of the emitted tables, held once (see _emit)
        self.rows = {}

    # -- deduction propagation ------------------------------------------

    def _propagate(self, a, l, b):
        """Set entry (a, l) = b and process all consequences.

        Every entry set goes on the trail, and the trail is the queue of
        deductions: the entries from the new edge on are scanned in turn
        until the trail's end, so a forced entry is queued by being
        appended.  False on a forced coincidence.  An entry is set where
        it is found, the new edge first and a forced entry at its scan's
        one gap: a conflicting deduction fails the scan that walks into
        it.  A forced entry is scanned along every rotation, the one it
        closes too, whose scan walks back round to the entry.
        """
        cols, trail, from_f = self.cols, self.trail, self.from_f
        cols[l][a] = b
        cols[l ^ 1][b] = a
        i = len(trail)
        trail.append((a, l, b))
        while i < len(trail):
            f, l, b = trail[i]
            i += 1
            # scan the rotations through the new edge from f, starting
            # after the edge itself
            for r in from_f[l]:
                x = b
                for step, gap in r:
                    y = step[x]
                    if y is None:
                        break
                    x = y
                else:
                    if x != f:
                        return False
                    continue
                # scan back from f along the inverse for the rest
                letter, backward, last = gap
                y = f
                for step in backward:
                    y = step[y]
                    if y is None:
                        break
                else:
                    if last[y] is not None:
                        # entries are set in inverse pairs, so this one,
                        # defined while (x, letter) is not, leads back to
                        # another coset than x
                        return False
                    # one undefined entry left: the relator forces it,
                    # and appending it queues it
                    cols[letter][x] = y
                    last[y] = x
                    trail.append((x, letter, y))
        return True

    # -- first-in-class pruning -----------------------------------------

    def _first_in_class(self, live):
        """The entries of live whose bases are still undecided, or None if
        one of them gives a lex-smaller table.

        An entry is (pairs, mu, nu, alpha, pos, count): the column pairs
        its renumbering reads; its renumbering pair, mu new -> old and nu
        old -> new, with mu[0] its base; and where its last comparison
        stopped, at row alpha and pair pos with count cosets renumbered.
        It waits on the cell that comparison stopped at,
        pairs[pos][0][mu[alpha]], and is compared again, from where it
        stopped, once that cell is defined: the rows and cells before it
        are defined and equal, and stay so.  A new base, at row 0 and
        pair 0, waits on the first cell its comparison reads.  An entry
        compared equal to the end, alpha == count, is kept only on a
        complete table, which is emitted and never extended.

        A base only ever waits on its own renumbering's cell: the table's
        cell col[alpha] is defined wherever it is read.  The test runs
        only on a table T closed under the relators, and every definition
        on the search path lies before T's first undefined cell s.  A
        renumbering T' that agrees with T before s holds them all; T' is
        closed too (a twisted base's as s maps relators onto relators),
        so it holds their closure T, and with no more cells, T' = T.  So
        T' is undefined at s as well and the gamma check stops first; a
        counterexample would raise TypeError at g > col[alpha].

        A base coset reads each column from itself.  The bases at coset 0
        under the letter automorphisms s of the presentation read column
        l from column s(l): the table renumbered from 0 is then that of
        the automorphic twin of the subgroup, and a table larger than it
        is not the least of its class and its twins' classes.
        """
        width = len(self.columns)
        undecided = []
        for entry in live:
            pairs, mu, nu, alpha, pos, count = entry
            if pairs[pos][0][mu[alpha]] is None:
                undecided.append(entry)
                continue
            order = 0          # sign of the first difference, new - old
            while alpha < count:
                m = mu[alpha]
                while pos < width:
                    src, col = pairs[pos]
                    gamma = src[m]
                    if gamma is None:
                        break
                    g = nu[gamma]
                    if g >= count or mu[g] != gamma:
                        nu[gamma] = g = count
                        mu[count] = gamma
                        count += 1
                    if g != col[alpha]:
                        order = 1 if g > col[alpha] else -1
                        break
                    pos += 1
                else:
                    alpha += 1
                    pos = 0
                    continue
                break
            if order < 0:
                return None
            if order == 0:
                undecided.append((pairs, mu, nu, alpha, pos, count))
        return undecided

    # -- main backtracking ----------------------------------------------

    def run(self):
        """Depth-first search on an explicit stack of branch points.

        A branch point is (spot, n, live, candidates, mark): the row-major
        position spot of its undefined entry (a, l) = divmod(spot,
        NLETTERS), the coset count n and the live entries of its
        undecided bases when it was reached, an iterator over the values
        b to try for it, and the trail length to undo to before each try.
        The top branch point's values are tried in place: a child is
        entered by pushing it and leaving the loop, which resumes when
        the child is used up.

        A live entry is (pairs, mu, nu, alpha, pos, count), as
        _first_in_class reads it.  A new base starts at row 0, pair 0,
        with its base renumbered 0.  A child replaces an entry by a new
        tuple and leaves its parent's as it was, so a sibling resumes from
        the parent's state; what the child wrote into mu and nu at or
        beyond that count does not count.
        """
        cols, trail = self.cols, self.trail
        propagate, first_in_class = self._propagate, self._first_in_class
        branch = self._branch
        budget = self.node_budget
        nodes = self.nodes
        # a base reads column l of its renumbering from the first column
        # of each pair, and compares it with the second, column l itself:
        # a base coset reads column l, a twisted base column s(l)
        plain = tuple((col, col) for col in self.columns)
        renumberings = self.renumberings
        live = []
        for s in self.automorphisms:
            mu, nu = [0], [0]
            renumberings.append((mu, nu))
            live.append((tuple((cols[s[l]], cols[l]) for l in self.letters),
                         mu, nu, 0, 0, 1))
        # the pair of base coset c >= 1 is renumberings[first + c]
        first = len(renumberings) - 1
        stack = []
        fix = self._fix
        fix(0)              # no scan fails on one coset
        branch(0, 1, live, stack)
        while stack:
            spot, n, live, candidates, mark = stack[-1]
            a, l = divmod(spot, NLETTERS)
            for b in candidates:
                while len(trail) > mark:
                    f, k, d = trail.pop()
                    cols[k][f] = None
                    cols[k ^ 1][d] = None
                nodes += 1
                if budget is not None and nodes > budget:
                    self.nodes = nodes
                    raise SearchBudgetExceeded(
                        "node budget %d exceeded" % budget)
                size, bases = n, live
                if b == n:
                    if n == len(cols[0]):
                        for col in self.columns:
                            col.append(None)
                        for mu, nu in renumberings:
                            mu.append(0)
                            nu.append(0)
                        renumberings.append(([n] + [0] * n, [0] * (n + 1)))
                    mu, nu = renumberings[first + n]
                    size, bases = n + 1, live + [(plain, mu, nu, 0, 0, 1)]
                if propagate(a, l, b) and (b < n or fix(n)):
                    bases = first_in_class(bases)
                    if bases is not None and branch(spot + 1, size, bases,
                                                    stack):
                        break
            else:
                stack.pop()
        self.nodes = nodes
        return self.results

    def _fix(self, c):
        """Set (c, l) = c at the new coset c, through the trail, for the
        letter l of each one-letter relator; False on a forced
        coincidence."""
        for l in self.fixed:
            if self.cols[l][c] is None and not self._propagate(c, l, c):
                return False
        return True

    def _branch(self, start, n, live, stack):
        """Push the branch point at the first undefined entry at
        row-major position >= start of a table with n cosets and return
        True, or emit the table if it is full; live holds the entries of
        the bases not yet decided larger."""
        cols = self.cols
        end = n * NLETTERS
        spot = start
        while spot < end and cols[spot % NLETTERS][spot // NLETTERS] \
                is not None:
            spot += 1
        if spot == end:
            self._emit(n)
            return False
        a, l = divmod(spot, NLETTERS)
        inv = cols[l ^ 1]
        # every row above a is complete, so (b, l^-1) is defined for b < a
        candidates = [b for b in range(a, n) if inv[b] is None]
        if n < self.max_index:
            candidates.append(n)
        stack.append((spot, n, live, iter(candidates), len(self.trail)))
        return True

    def _emit(self, n):
        """Emit the complete table with n cosets if it is the least of its
        class and its twins' classes, then the least table of each twin.

        The twin under an automorphism s reads column l from column s(l);
        its least_table is its class's table.  The table is dropped when
        a twin's least table is smaller: then it is not the least of its
        class and its twins' classes.

        The emitted tables repeat each other's rows (k4 <= 24: 11 539
        rows, 2 135 of them distinct), so every emitted row is the one
        tuple self.rows holds for its value: equal rows of one search's
        tables are one object, and the results hold a third as much.

        Every tuple here is built at its size: rows by zip and
        itemgetter(*s), tables from lists.  A tuple built from a
        generator is allocated at ten slots and shrunk, so the free list
        for its size never takes it back, and every emitted table would
        park the twin rows and tables it frees there until a full
        collection.
        """
        action = tuple(list(zip(*[col[:n] for col in self.cols])))
        tables = [action]
        for s in self.automorphisms:
            twin = least_table(list(map(itemgetter(*s), action)))
            if twin < action:
                return
            if twin not in tables:
                tables.append(twin)
        rows = self.rows
        for action in tables:
            action = tuple([rows.setdefault(row, row) for row in action])
            self.results.append(CosetTable(action=action,
                                           presentation=self.pres))


def low_index_subgroups(pres: Presentation, max_index: int,
                        node_budget: int | None = None):
    """One standardized CosetTable per conjugacy class of index <= max_index.

    Deterministic output, sorted by (index, table bytes).  A table holds
    only its action: its replay certificate, table.subgroup, is read off
    the table on each access.  Raises SearchBudgetExceeded when
    node_budget definitions have been tried.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    search = _Search(pres, max_index, node_budget)
    results = search.run()
    results.sort(key=lambda t: (t.n, t.action))
    return results
