import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import presentations, requires_full, sympy_fp_group
from cosetgeom import census_entry
from cosetgeom.lowindex import SearchBudgetExceeded, _Search, \
    low_index_subgroups
from cosetgeom.toddcox import (LETTER_ORDER, MAX_COSETS, CosetLimitExceeded,
                               CosetTable, _Enumerator, schreier_generators,
                               todd_coxeter, transversal)
from cosetgeom.words import (Presentation, SubgroupSpec, Word, _reduce,
                             parse_presentation, parse_word)


def spec(pres_text, *words):
    pres = parse_presentation(pres_text)
    return SubgroupSpec(pres, tuple(parse_word(w) for w in words))


def test_trivial_subgroup_of_finite_group():
    # S3 = < x, y | x^2, y^3, (x*y)^2 >
    s = spec("< x, y | x^2, y^3, (x*y)^2 >")
    table = todd_coxeter(s)
    assert table.n == 6
    table.check_invariants()
    assert all(table.word_action(g, 0) == 0 for g in s.generators)


def test_cyclic_subgroup_index():
    table = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >", "y"))
    assert table.n == 2


def test_whole_group():
    table = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >", "x", "y"))
    assert table.n == 1


def test_coset_cap_raises():
    # free product Z2 * Z (infinite), trivial subgroup never closes
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(spec("< x, y | x^2 >"), max_cosets=500)


def test_coset_0_counts_against_the_cap():
    whole = spec("< x, y | x^2, y^3, (x*y)^2 >", "x", "y")
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(whole, max_cosets=0)
    assert todd_coxeter(whole, max_cosets=1).n == 1


# (a presentation and its subgroup's words, or a census id and the name
# of its subgroup; the cosets defined, and those alive at the end)
@pytest.mark.parametrize("source, words, defined, alive", [
    ("< x, y | x^2, y^3, (x*y)^7, [x,y]^4 >", (), 542, 168),
    ("< x, y | x^2, y^3, (x*y)^7, [x,y]^4 >", ("y",), 200, 56),
    ("< x, y | x^2, y^3, (x*y)^5 >", (), 82, 60),
    ("g2", "h2", 5863, 100),
    pytest.param("g1", "h1", 1536225, 1755, marks=requires_full)])
def test_hlt_work_is_pinned(source, words, defined, alive):
    # the cosets HLT defines before its coincidences leave the index:
    # another definition order, with the same final table, moves them
    if isinstance(words, str):
        s = census_entry(source).subgroup(words)
    else:
        s = spec(source, *words)
    enum = _Enumerator(s.parent.relators, MAX_COSETS)
    enum.run(s.generators)
    assert (len(enum.p), enum.nalive) == (defined, alive)


def test_table_is_bfs_numbered():
    table = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >"))
    seen = {0}
    for c in range(table.n):
        for d in table.action[c]:
            if d not in seen:
                # every new coset appears after all smaller ones
                assert d == len(seen)
                seen.add(d)
    assert seen == set(range(table.n))


def test_transversal_lands_on_cosets():
    table = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >", "y"))
    reps = transversal(table)
    assert reps[0].is_identity()
    for i, w in enumerate(reps):
        assert table.word_action(w, 0) == i


def test_schreier_generators_replay():
    # S4 = < x, y | x^2, y^3, (x*y)^4 >
    table = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^4 >", "x*y*x*y^-1"))
    regen = schreier_generators(table)
    replay = todd_coxeter(regen)
    assert replay.n == table.n
    assert replay.action == table.action


def test_subgroup_words_fix_coset_zero():
    s = spec("< x, y | x^2, y^3, (x*y)^4 >", "x*y*x*y^-1")
    table = todd_coxeter(s)
    for g in s.generators:
        assert table.word_action(g, 0) == 0


def test_equal_subgroups_give_identical_tables():
    a = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >", "y"))
    b = todd_coxeter(spec("< x, y | x^2, y^3, (x*y)^2 >", "y^-1"))
    assert a.action == b.action


def test_index_matches_sympy_coset_enumeration(k4_to_9):
    # sympy's HLT coset enumeration as an independent oracle, on the
    # bundled certificates and the Schreier certificates of k4 <= 9
    from sympy.combinatorics.coset_table import coset_enumeration_r

    from cosetgeom.cli import bundled_certificate

    specs = [bundled_certificate(cid, n)
             for cid, n in (("k1", 21), ("k5", 45))]
    specs += [t.subgroup for t in k4_to_9]
    oracles = {}
    for s in specs:
        if s.parent not in oracles:
            oracles[s.parent] = sympy_fp_group(s.parent)
        group, word = oracles[s.parent]
        theirs = coset_enumeration_r(group, [word(g) for g in s.generators])
        theirs.compress()
        assert todd_coxeter(s).n == len(theirs.table)


# sympy's cap on the cosets it defines.  Ours caps live cosets, with room
# for an HLT run that defines its cosets in another order.
SYMPY_MAX_COSETS = 1000

subgroup_words = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=6).map(Word).filter(len),
    max_size=2)


@st.composite
def triangle_quotients(draw):
    """< x, y | x^a, y^b, (x*y)^c, [x,y]^d >, a quotient of a triangle
    group, with a subgroup of known index: a transitive pair (px, py) of
    degree 3..8 is drawn, a, b, c and d are the orders of px, py, px*py
    and [px, py], and the subgroup is the stabilizer of point 0, given
    by the Schreier generators of the pair's coset table.

    Returns the subgroup and its index, the degree of the pair.
    """
    from sympy.combinatorics import Permutation, PermutationGroup

    n = draw(st.integers(3, 8))
    perm = st.permutations(range(n))
    px, py = draw(st.tuples(perm, perm).filter(lambda p: PermutationGroup(
        [Permutation(p[0]), Permutation(p[1])]).is_transitive()))
    xi, yi = [0] * n, [0] * n
    for c in range(n):
        xi[px[c]], yi[py[c]] = c, c
    action = tuple(zip(px, xi, py, yi))
    words = [(0,), (2,), (0, 2), (0, 2, 1, 3)]  # x, y, x*y, [x,y]
    relators = []
    for w in words:
        img = list(range(n))
        for l in w:
            img = [action[c][l] for c in img]
        relators.append(Word(w * Permutation(img).order()))
    pres = Presentation(tuple(relators))
    table = CosetTable(action=action, presentation=pres)
    return schreier_generators(table), n


@settings(max_examples=25, deadline=None, derandomize=True)
@given(presentations(), subgroup_words)
@example(parse_presentation("< x, y | x^2, y^3, (x*y)^5 >"), [])   # A5
# trivial groups whose enumerations merge a coset through the inverse
# column of a coincidence, and kill a coset during its own relator scans
@example(parse_presentation("< x, y | x*y*x^-1*y^-2, y*x*y^-1*x^-2 >"), [])
@example(parse_presentation("< x, y | x^5, y^2, (x*y)^3, (x^2*y)^3 >"), [])
def test_index_matches_sympy_on_random_presentations(pres, words):
    from sympy.combinatorics.coset_table import coset_enumeration_r

    group, word = sympy_fp_group(pres)
    try:
        theirs = coset_enumeration_r(group, [word(w) for w in words],
                                     max_cosets=SYMPY_MAX_COSETS)
    except ValueError:          # sympy's cap: infinite or large index
        return
    theirs.compress()
    table = todd_coxeter(SubgroupSpec(pres, tuple(words)),
                         max_cosets=100 * SYMPY_MAX_COSETS)
    assert table.n == len(theirs.table)
    table.check_invariants()
    assert all(table.word_action(w, 0) == 0 for w in words)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(triangle_quotients())
def test_index_matches_sympy_on_triangle_quotients(quotient):
    # the check above, on subgroups whose index is known in advance
    from sympy.combinatorics.coset_table import coset_enumeration_r

    spec, index = quotient
    table = todd_coxeter(spec)
    assert table.n == index
    table.check_invariants()
    assert all(table.word_action(g, 0) == 0 for g in spec.generators)
    group, word = sympy_fp_group(spec.parent)
    theirs = coset_enumeration_r(group, [word(w) for w in spec.generators],
                                 max_cosets=SYMPY_MAX_COSETS)
    theirs.compress()
    assert len(theirs.table) == index


def oracle_schreier_generators(table):
    """The Schreier generators as first built: every edge's word
    rep[c]*l*rep[d]^-1, freely reduced, kept unless empty or already
    kept, itself or as its inverse."""
    reps = [w.letters for w in transversal(table)]
    gens, seen = [], set()
    for c in range(table.n):
        for l in LETTER_ORDER:
            d = table.action[c][l]
            w = _reduce(reps[c] + (l,)
                        + tuple(m ^ 1 for m in reversed(reps[d])))
            if not w:
                continue
            if w in seen or tuple(m ^ 1 for m in reversed(w)) in seen:
                continue
            seen.add(w)
            gens.append(Word(w, reduced=True))
    return tuple(gens)


def modular_tables(max_index, node_budget):
    """The tables a budgeted search of < x, y | x^2, y^3 > emits before
    its budget runs out: deep paths reach max_index early."""
    search = _Search(parse_presentation("< x, y | x^2, y^3 >"), max_index,
                     node_budget)
    with pytest.raises(SearchBudgetExceeded):
        search.run()
    return search.results


@pytest.fixture(scope="module")
def certificate_tables(differential_tables, k4_pres):
    modular = modular_tables(40, 1000)
    assert max(t.n for t in modular) == 40
    return (list(differential_tables) + low_index_subgroups(k4_pres, 16)
            + modular)


def test_schreier_generators_match_oracle(certificate_tables):
    for t in certificate_tables:
        assert schreier_generators(t).generators == \
            oracle_schreier_generators(t)



def test_schreier_generators_ignore_numbering(k4_to_9):
    # cosets 1..n-1 renumbered in reverse: a BFS-tree edge is then met
    # first from its child, and must still yield no word
    for t in k4_to_9:
        new = [0] + list(range(t.n - 1, 0, -1))
        action = [None] * t.n
        for c, row in enumerate(t.action):
            action[new[c]] = tuple(new[d] for d in row)
        renumbered = CosetTable(tuple(action), presentation=t.presentation)
        assert schreier_generators(renumbered).generators == \
            oracle_schreier_generators(renumbered)


def test_certificate_has_schreier_rank(certificate_tables):
    # Schreier's index formula: a subgroup of index n in the free group
    # of rank 2 is free of rank n + 1
    for t in certificate_tables:
        assert len(schreier_generators(t).generators) == t.n + 1


def test_replays_park_no_tuples(k4_pres):
    # a tuple built from a generator is allocated at ten slots and shrunk,
    # so the free list for its size never takes it back: with the
    # collector off, replaying the 190 certificates of k4 <= 16 grew
    # traced memory by about 157 KB after the 20th replay when each
    # representative's inverse was built so, and grows about 10 KB with
    # every tuple built at its size.  A full collection empties the free
    # lists first.
    tables = low_index_subgroups(k4_pres, 16)
    assert len(tables) == 190
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for i, t in enumerate(tables):
            todd_coxeter(t.subgroup)
            if i == 19:
                warm = tracemalloc.get_traced_memory()[0]
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 32 * 2 ** 10
