"""Coset labelings of geometries and per-line commutation verdicts.

Each point of a geometry built from an index-n coset table is labeled by
the BFS-shortest representative word of its coset.  A line "commutes"
when every unordered pair of its representatives has commutator equal to
the identity, in one of two senses:

  perm  - the commutator word acts as the identity on all cosets
          (identity in the quotient permutation group);
  coset - the commutator word fixes the subgroup coset (it lies in H).

perm implies coset.  Both modes are kept because published verdict
tables are not reached by either mode under the BFS transversal (see
the repository notes); the default is the weaker, well-defined-on-cosets
mode.

One labeling per table serves every geometry on its cosets; the verdicts
take the geometry as an argument.  A labeling holds, computed once when
made, the permutation of the cosets by each representative's inverse
(refusing a word that misses its coset); both modes compare k*a^-1*b^-1
with k*b^-1*a^-1 for a pair a, b, and no word is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import ne

from .geometry import IncidenceGeometry
from .toddcox import CosetTable, transversal

MODES = ("perm", "coset")
DEFAULT_MODE = "coset"


@dataclass(frozen=True)
class CosetLabeling:
    """The cosets of one table, coset i labeled by the word transversal[i]."""

    transversal: tuple
    table: CosetTable

    def __post_init__(self):
        if len(self.transversal) != self.table.n:
            raise ValueError("transversal length must equal the coset count")
        if any(a[c] != 0 for c, a in enumerate(self.actions)):
            raise ValueError("a representative misses its coset")

    @cached_property
    def actions(self):
        """Each representative's inverse action, one permutation per
        coset: actions[c][k] is k*w^-1 for c's word w, so actions[c][c] is 0.

        A word's action is its longest known prefix's, read through the
        column of each further letter's inverse, so a BFS transversal
        costs one column per representative.
        """
        columns = tuple(zip(*self.table.action))
        known = {(): tuple(range(self.table.n))}
        out = []
        for w in self.transversal:
            letters = w.letters
            k = len(letters)
            while letters[:k] not in known:
                k -= 1
            a = known[letters[:k]]
            for j in range(k, len(letters)):
                a = tuple(map(a.__getitem__, columns[letters[j] ^ 1]))
                known[letters[:j + 1]] = a
            out.append(a)
        return tuple(out)


@dataclass(frozen=True)
class ContextualityReport:
    mode: str
    per_line: tuple              # ((line, commutes), ...) in sorted line order
    score: Fraction              # fraction of non-commuting lines
    maximal: bool

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "lines": [{"points": [p + 1 for p in line], "commutes": c}
                      for line, c in self.per_line],
            "score": "%d/%d" % (self.score.numerator, self.score.denominator),
            "maximal": self.maximal,
        }


def labeling_from_table(table: CosetTable) -> CosetLabeling:
    return CosetLabeling(transversal=tuple(transversal(table)), table=table)


def line_commutes(labeling: CosetLabeling, line, mode: str = DEFAULT_MODE) -> bool:
    """Pairwise commutation of the line's coset representatives.

    The commutator a^-1 b^-1 a b of representatives a, b fixes coset k
    exactly when k*a^-1*b^-1 = k*b^-1*a^-1, read from the labeling's
    inverse actions; free reduction does not change the action on a
    complete table.  Coset mode compares at coset 0, perm mode at every
    coset, so perm implies coset.  The verdict ignores point order:
    [b, a] = [a, b]^-1 is trivial, or lies in H, exactly when [a, b] does.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    actions = labeling.actions
    for i, j in combinations(line, 2):
        a, b = actions[i], actions[j]
        if mode == "coset":
            if b[a[0]] != a[b[0]]:
                return False
        elif any(map(ne, map(b.__getitem__, a), map(a.__getitem__, b))):
            return False
    return True


def contextuality_report(labeling: CosetLabeling, geometry: IncidenceGeometry,
                         mode: str = DEFAULT_MODE) -> ContextualityReport:
    """Verdicts on the lines of a geometry whose points are the cosets,
    in the geometry's line order; a verdict ignores point order.  The
    mode is checked here, so a geometry with no lines refuses a bad one."""
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    if geometry.n != labeling.table.n:
        raise ValueError("geometry has %d points, the table %d cosets"
                         % (geometry.n, labeling.table.n))
    lines = geometry.lines
    per_line = tuple((line, line_commutes(labeling, line, mode))
                     for line in lines)
    bad = sum(1 for _, c in per_line if not c)
    score = Fraction(bad, len(lines)) if lines else Fraction(0)
    # maximal: exactly the lines through the identity coset commute
    maximal = all((0 in line) == commutes for line, commutes in per_line)
    return ContextualityReport(mode=mode, per_line=per_line, score=score,
                               maximal=maximal)


def to_dot(labeling: CosetLabeling, geometry: IncidenceGeometry,
           mode: str = DEFAULT_MODE) -> str:
    """Incidence DOT with non-commuting ("thick") lines drawn bold."""
    report = contextuality_report(labeling, geometry, mode)
    out = ["graph contextuality {"]
    for p in range(geometry.n):
        out.append('  p%d [shape=circle];' % (p + 1))
    for li, (line, commutes) in enumerate(report.per_line):
        style = "solid" if commutes else "bold"
        color = "black" if commutes else "red"
        out.append('  L%d [shape=box, style=%s, color=%s];'
                   % (li + 1, style, color))
        for p in line:
            out.append('  p%d -- L%d [style=%s, color=%s];'
                       % (p + 1, li + 1, style, color))
    out.append("}")
    return "\n".join(out) + "\n"
