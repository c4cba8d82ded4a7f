"""Backtracking low-index subgroup search.

Enumerates one coset table per conjugacy class of subgroups of index
<= max_index.  Partial tables are extended at the first undefined entry
in row-major order (letter order x, x^-1, y, y^-1), relator scans
propagate deductions, and a first-in-class test prunes tables that are
not lexicographically minimal over the choice of base coset, so each
conjugacy class is produced exactly once.  Completed tables are already
in BFS-standard numbering by construction.  The depth-first search runs
on an explicit stack, so Python's recursion limit does not bound how
deep a search path may go.

Entries are only ever added inside a subtree of the search.  So a base
coset whose renumbering is found larger than the table at an entry
defined on both sides, with every earlier entry defined and equal,
stays larger in every extension; the first-in-class test hands only the
undecided base cosets down to the children.  Rows are allocated as
cosets are created, never up front by max_index.
"""

from __future__ import annotations

from .toddcox import CosetTable, NLETTERS, schreier_generators
from .words import Presentation, SubgroupSpec


class SearchBudgetExceeded(RuntimeError):
    """The node budget was hit before the search finished."""


def _rotations_by_letter(relators):
    """For each letter, (rotation, rotation^-1) letter tuples of each
    relator rotation starting with it."""
    by_letter = [[] for _ in range(NLETTERS)]
    seen = [set() for _ in range(NLETTERS)]
    for rel in relators:
        w = rel.cyclically_reduced().letters
        for i, l in enumerate(w):
            rot = w[i:] + w[:i]
            if rot not in seen[l]:
                seen[l].add(rot)
                inverse = tuple(k ^ 1 for k in reversed(rot))
                by_letter[l].append((rot, inverse))
    return by_letter


class _Search:
    def __init__(self, pres, max_index, node_budget):
        self.pres = pres
        self.max_index = max_index
        self.node_budget = node_budget
        self.nodes = 0
        self.rot = _rotations_by_letter(pres.relators)
        self.table = [[None] * NLETTERS]
        self.ncosets = 1
        self.trail = []
        # scratch renumbering of the first-in-class test: new -> old and
        # old -> new, -1 where unset; one entry per allocated row
        self.mu = [0]
        self.nu = [-1]
        self.results = []

    # -- deduction propagation ------------------------------------------

    def _propagate(self, a, l, b):
        """Set entry (a, l) = b and process all consequences.

        Every entry set goes on the trail; False on a forced coincidence.
        """
        table, trail, rot = self.table, self.trail, self.rot
        pending = [(a, l, b)]
        while pending:
            f, l, b = pending.pop()
            cur = table[f][l]
            if cur is not None:
                if cur != b:
                    return False
                continue
            back = table[b][l ^ 1]
            if back is not None and back != f:
                return False
            table[f][l] = b
            table[b][l ^ 1] = f
            trail.append((f, l, b))
            # scan every relator rotation through the new edge, from
            # both of its ends
            for c, rots in ((f, rot[l]), (b, rot[l ^ 1])):
                for word, inverse in rots:
                    size = len(word)
                    x, i = c, 0
                    while i < size:
                        y = table[x][word[i]]
                        if y is None:
                            break
                        x = y
                        i += 1
                    else:
                        if x != c:
                            return False
                        continue
                    # scan back from c along the inverse for the rest
                    rest = size - i
                    y, j = c, 0
                    while j < rest:
                        z = table[y][inverse[j]]
                        if z is None:
                            break
                        y = z
                        j += 1
                    if j == rest:
                        if x != y:
                            return False
                    elif j == rest - 1:
                        # one undefined entry left: the relator forces it
                        pending.append((x, word[i], y))
        return True

    # -- first-in-class pruning -----------------------------------------

    def _first_in_class(self, live):
        """The base cosets of live still undecided, or None if one of
        them gives a lex-smaller table."""
        table, mu, nu = self.table, self.mu, self.nu
        undecided = []
        for beta in live:
            mu[0] = beta
            nu[beta] = 0
            count = 1
            order = 0          # sign of the first difference, new - old
            alpha = 0
            while alpha < count:
                row_old = table[alpha]
                row_new = table[mu[alpha]]
                for l in range(NLETTERS):
                    gamma = row_new[l]
                    orig = row_old[l]
                    if gamma is None or orig is None:
                        break      # undecided on a partial table
                    g = nu[gamma]
                    if g == -1:
                        nu[gamma] = g = count
                        mu[count] = gamma
                        count += 1
                    if g != orig:
                        order = 1 if g > orig else -1
                        break
                else:
                    alpha += 1
                    continue
                break
            for k in range(count):
                nu[mu[k]] = -1
            if order < 0:
                return None
            if order == 0:
                undecided.append(beta)
        return undecided

    # -- main backtracking ----------------------------------------------

    def run(self):
        """Depth-first search on an explicit stack of branch points.

        A branch point is (a, l, spot, n, live, candidates, mark): the
        undefined entry (a, l) at row-major position spot, the coset
        count n and the undecided base cosets live when it was reached,
        the values b still to try for it, and the trail length to undo
        to before each try.
        """
        table, trail = self.table, self.trail
        propagate, first_in_class = self._propagate, self._first_in_class
        budget = self.node_budget
        stack = []
        self._branch(0, [], stack)
        while stack:
            a, l, spot, n, live, candidates, mark = stack[-1]
            while len(trail) > mark:
                f, k, d = trail.pop()
                table[f][k] = None
                table[d][k ^ 1] = None
            self.ncosets = n
            b = next(candidates, None)
            if b is None:
                stack.pop()
                continue
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise SearchBudgetExceeded("node budget %d exceeded" % budget)
            bases = live
            if b == n:
                self.ncosets = n + 1
                bases = live + [n]
                if n == len(table):
                    table.append([None] * NLETTERS)
                    self.mu.append(0)
                    self.nu.append(-1)
            if propagate(a, l, b):
                bases = first_in_class(bases)
                if bases is not None:
                    self._branch(spot + 1, bases, stack)
        return self.results

    def _branch(self, start, live, stack):
        """Push the branch point at the first undefined entry at
        row-major position >= start, or emit the table if it is full;
        live holds the base cosets not yet decided larger."""
        table = self.table
        n = self.ncosets
        end = n * NLETTERS
        spot = start
        while spot < end and table[spot // NLETTERS][spot % NLETTERS] \
                is not None:
            spot += 1
        if spot == end:
            self._emit()
            return
        a, l = divmod(spot, NLETTERS)
        candidates = [b for b in range(n) if table[b][l ^ 1] is None]
        if n < self.max_index:
            candidates.append(n)
        stack.append((a, l, spot, n, live, iter(candidates),
                      len(self.trail)))

    def _emit(self):
        n = self.ncosets
        action = tuple(tuple(row) for row in self.table[:n])
        table = CosetTable(n=n, action=action,
                           subgroup=SubgroupSpec(self.pres, ()))
        spec = schreier_generators(table)
        self.results.append(CosetTable(n=n, action=action, subgroup=spec))


def low_index_subgroups(pres: Presentation, max_index: int,
                        node_budget: int | None = None):
    """One standardized CosetTable per conjugacy class of index <= max_index.

    Deterministic output, sorted by (index, table bytes).  Raises
    SearchBudgetExceeded when node_budget definitions have been tried.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    search = _Search(pres, max_index, node_budget)
    results = search.run()
    results.sort(key=lambda t: (t.n, t.action))
    return results
