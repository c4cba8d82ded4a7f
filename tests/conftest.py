import os
from functools import reduce

import pytest
from hypothesis import strategies as st

from cosetgeom import census_entry, low_index_subgroups
from cosetgeom.lowindex import SIGNED_PERMUTATIONS
from cosetgeom.perms import PermGroup, Permutation
from cosetgeom.words import Presentation, Word

FULL_SUITE = os.environ.get("COSETGEOM_FULL") == "1"

requires_full = pytest.mark.skipif(
    not FULL_SUITE, reason="full suite only (set COSETGEOM_FULL=1)")


def record(id, index):
    """The KnownResult of census entry id at index."""
    (r,) = [r for r in census_entry(id).known_results if r.index == index]
    return r


def differs(id, statement):
    """The reason of census entry id's "differs" claim statement."""
    for c in census_entry(id).claims:
        if c.statement == statement and c.status == "differs":
            return c.reason
    raise LookupError("%s has no differs claim %r" % (id, statement))


def published(id, statement, raises=AssertionError, **kwargs):
    """The strict xfail of a published claim about census entry id that
    the code does not reproduce; its reason is the claim's census
    record, which must have status "differs".  Only a failed assertion
    is the claim failing: any other exception fails the test."""
    return pytest.mark.xfail(strict=True, reason=differs(id, statement),
                             raises=raises, **kwargs)


def group_of(table):
    px, py = table.perm_rep()
    return PermGroup([px, py], degree=table.n)


def order_of(table):
    return group_of(table).order()


def quotient_pairs(relators, xs, ys, order):
    """(satisfying, generating): how many pairs (x, y), x in xs and y in
    ys, make every relator the identity, and how many of those generate
    a group of the given order.

    A quotient scan (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 9): xs and ys are the candidate images of x
    and y, such as the elements of the orders the relators allow, or one
    element per conjugacy class for y; only a pair that satisfies the
    relators is tested for generation.  Relators are read on images as
    bytes, one bytes.translate per letter, so the degree is at most 256.
    """
    n = xs[0].degree
    pad = bytes(range(n, 256))
    one = bytes(range(n))

    def letters(p):
        # p and its inverse as translate tables: "then p" on an image
        return bytes(p.images) + pad, bytes(p.inverse().images) + pad

    y_letters = [letters(y) for y in ys]
    satisfying = generating = 0
    for x in xs:
        x_letters = letters(x)
        for y, yl in zip(ys, y_letters):
            table = x_letters + yl
            if all(reduce(bytes.translate, (table[l] for l in r.letters), one)
                   == one for r in relators):
                satisfying += 1
                generating += PermGroup([x, y], degree=n).order() == order
    return satisfying, generating


def brute_force_order(gens):
    """Group order by closing over products of Permutations, an oracle
    independent of stabilizer chains and of the bytes closure."""
    gens = list(gens)
    elements = {Permutation.identity(gens[0].degree)}
    frontier = list(elements)
    while frontier:
        frontier = [h for h in {e * g for e in frontier for g in gens}
                    if h not in elements]
        elements.update(frontier)
    return len(elements)


@st.composite
def presentations(draw):
    """Two-generator presentations with 1-3 relators of length <= 12.

    A relator is a power of a word of length <= 6, so proper powers are
    common; after each relator may come a rotation of it, or of its
    inverse, so that two relators share their rotations.
    """
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)
                    .map(Word).filter(len))
        power = Word(base.letters * draw(st.integers(1, 12 // len(base))))
        relators.append(power)
        if draw(st.booleans()):
            w = draw(st.sampled_from([power, power.inverse()])).letters
            i = draw(st.integers(0, len(w) - 1))
            rotated = Word(w[i:] + w[:i])
            if rotated.letters:
                relators.append(rotated)
    return Presentation(tuple(relators))


@st.composite
def symmetric_presentations(draw):
    """presentations() closed under a drawn signed letter permutation s:
    each relator is followed by its images under s until they come back
    round, so s maps the relators onto themselves."""
    s = draw(st.sampled_from(SIGNED_PERMUTATIONS))
    relators = []
    for r in draw(presentations()).relators:
        while r not in relators:
            relators.append(r)
            r = Word(tuple(s[l] for l in r.letters))
    return Presentation(tuple(relators))


def relabel(p, sigma):
    """Conjugate p: the same permutation after renaming i -> sigma(i)."""
    img = [0] * p.degree
    for i in range(p.degree):
        img[sigma(i)] = sigma(p(i))
    return Permutation(img)


def sympy_fp_group(pres):
    """pres as a sympy FpGroup, and the map from a Word to its free group.

    sympy is a test-only oracle; building an FpGroup is slow, so build one
    per presentation.
    """
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, x, y = free_group("x, y")
    letters = (x, x ** -1, y, y ** -1)

    def word(w):
        out = free.identity
        for l in w.letters:
            out = out * letters[l]
        return out
    return FpGroup(free, [word(r) for r in pres.relators]), word


@pytest.fixture(scope="session")
def k1_pres():
    return census_entry("k1").presentation


@pytest.fixture(scope="session")
def k4_pres():
    return census_entry("k4").presentation


@pytest.fixture(scope="session")
def k19_pres():
    return census_entry("k19").presentation


@pytest.fixture(scope="session")
def k1_to_10(k1_pres):
    return low_index_subgroups(k1_pres, 10)


@pytest.fixture(scope="session")
def k1_to_12(k1_pres):
    return low_index_subgroups(k1_pres, 12)


@pytest.fixture(scope="session")
def k4_to_9(k4_pres):
    return low_index_subgroups(k4_pres, 9)


@pytest.fixture(scope="session")
def k19_to_9(k19_pres):
    return low_index_subgroups(k19_pres, 9)


@pytest.fixture(scope="session")
def k19_grids(k19_to_9):
    """The class that k19@9's record counts, the one class at index 9 of
    the record's order; both its pair classes are grids."""
    r = record("k19", 9)
    (t,) = [t for t in k19_to_9 if t.n == r.index and order_of(t) == r.order]
    return t


@pytest.fixture(scope="session")
def census_tables(k1_to_10, k4_to_9):
    """Tables of k1 <= 10, k4 <= 9 and the bundled k1@21 and k5@45."""
    from cosetgeom.cli import bundled_certificate
    from cosetgeom.toddcox import todd_coxeter
    return list(k1_to_10) + list(k4_to_9) + [
        todd_coxeter(bundled_certificate(cid, n))
        for cid, n in (("k1", 21), ("k5", 45))]


@pytest.fixture(scope="session")
def census_groups(census_tables):
    """Groups of k1 <= 10, k4 <= 9 and the bundled k1@21 and k5@45."""
    return [group_of(t) for t in census_tables if t.n >= 3]


@pytest.fixture(scope="session")
def differential_tables(census_tables, k19_to_9):
    """census_tables plus k19 <= 9, the inputs of the differential tests."""
    return list(census_tables) + list(k19_to_9)


@pytest.fixture(scope="session")
def h1_table():
    """g1's coset table on h1, index 1755: the Tits group's action.  HLT
    defines ~3M cosets before collapsing to it, so the session
    enumerates it once."""
    from cosetgeom.toddcox import todd_coxeter
    return todd_coxeter(census_entry("g1").subgroup("h1"))


@pytest.fixture(scope="session")
def h1_group(h1_table):
    """The group of h1_table, one for the session, so that its order
    and stabilizer chain are computed once."""
    return group_of(h1_table)
