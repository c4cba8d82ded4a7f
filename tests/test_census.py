import ast
import re
from functools import cache
from pathlib import Path

import pytest
from mpmath import (catalan, cos, dirichlet, exp, matrix, mp, mpc, mpf, pi,
                    sqrt, zeta)

from conftest import (differs, group_of, published, quotient_pairs, record,
                      requires_full)
from cosetgeom import Permutation, todd_coxeter
from cosetgeom.census import (CENSUS_IDS, UnknownId, census_entry,
                              list_census)
from cosetgeom.cli import _compare
from cosetgeom.words import parse_presentation


def test_entry_ids_in_order():
    # one id per entry, in the order the census writes them
    entries = list_census()
    assert [e.id for e in entries] == list(CENSUS_IDS)
    assert [census_entry(id) for id in CENSUS_IDS] == entries
    assert len(set(CENSUS_IDS)) == len(entries)


def test_unknown_id():
    with pytest.raises(UnknownId):
        census_entry("k7")


def test_presentations_roundtrip():
    for e in list_census():
        assert parse_presentation(str(e.presentation)) == e.presentation
        assert e.presentation.relators


def test_kleinian_metadata():
    # the published metadata no other test derives: a covolume's last
    # digit lies inside the 5e-5 test_covolume_is_a_bianchi_multiple
    # allows, and k19's relators fail with its p, q and gamma (strict
    # xfail) whatever they are; the others fail the relator test or the
    # covolume test when changed
    covolumes = {"k1": "0.33831", "k2": "0.67664", "k4": "0.45798",
                 "k5": "0.91596", "k19": "0.21145"}
    assert {id: census_entry(id).covolume for id in covolumes} == covolumes
    k19 = census_entry("k19")
    assert (k19.p, k19.q, k19.gamma) == (4, 6, "-1")


def test_large_entries_have_no_kleinian_metadata():
    for id in ("g1", "g2"):
        e = census_entry(id)
        assert e.p is None and e.q is None and e.gamma is None


def test_k19_relator_count():
    assert len(census_entry("k19").presentation.relators) == 6


def test_distinguished_subgroups():
    h1 = census_entry("g1").subgroup("h1")
    assert len(h1.generators) == 2
    h2 = census_entry("g2").subgroup("h2")
    assert str(h2.generators[0]) == "y"
    k = census_entry("g1").subgroup("K")
    assert k.generators[0] == h1.generators[0]
    assert k.generators[2] == h1.generators[1] ** 2
    with pytest.raises(KeyError):
        census_entry("g1").subgroup("h9")
    assert census_entry("k1").subgroups == ()


TESTS = Path(__file__).resolve().parent

# strict xfails that test a property of the code, not a published claim
PROPERTY_XFAILS = ["test_rep_change_invariance"]


def _xfail_marks():
    """(claimed, written): the (id, statement) of every published() call
    in the test modules, and for every xfail written out in full, the
    name of the test it decorates (None when it decorates none)."""
    claimed, written = [], []
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        decorates = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for d in fn.decorator_list:
                    decorates.update((id(n), fn.name) for n in ast.walk(d))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "published":
                claimed.append(tuple(map(ast.literal_eval, node.args[:2])))
            elif name == "xfail":
                written.append(decorates.get(id(node)))
    return claimed, written


def test_differs_claims_are_the_strict_xfails():
    # each "differs" claim is the reason of exactly one strict xfail,
    # through published(); any other xfail tests a listed property
    claims = [(e.id, c) for e in list_census() for c in e.claims]
    assert {c.status for _, c in claims} <= {"differs", "unchecked"}
    differs = [(id, c.statement) for id, c in claims
               if c.status == "differs"]
    claimed, written = _xfail_marks()
    assert sorted(claimed) == sorted(differs)
    assert len(set(differs)) == len(differs)
    assert written == PROPERTY_XFAILS


# each count a "differs" claim's reason cites: the entry, the claim's
# statement, the phrase with the count, and the index and field of the
# record that states it
REASON_COUNTS = [
    ("k1", "5 classes at index 6", "search finds %d classes", 6, "count"),
    ("k4", "4 classes at index 4", "search finds %d conjugacy classes", 4,
     "raw_count"),
    ("k1", "1 class at index 21", "%d conjugacy classes exist", 21,
     "raw_count"),
]


def test_known_results_have_published_divergence_records():
    # the reason's count is its record's, which reproduce's check of the
    # record computes
    for id, statement, phrase, index, field in REASON_COUNTS:
        r = record(id, index)
        value = getattr(r, field)
        assert phrase % value in differs(id, statement), (id, statement)
        _, expected, computed = _compare(census_entry(id), r)
        assert expected[field] == computed[field] == value, (id, index)


def test_json_dump_shape():
    d = census_entry("k4").to_json_dict()
    assert d["id"] == "k4"
    assert "presentation" in d and "known_results" in d
    assert all("index" in r and "count" in r for r in d["known_results"])


def _gamma(text):
    """A census gamma string ("-1+i", "(-3+sqrt(3)i)/2", ...) as an mpc."""
    expr = re.sub(r"(sqrt\(\d+\))?i",
                  lambda m: (m.group(1) + "*" if m.group(1) else "") + "I",
                  text)
    return eval(expr, {"__builtins__": {}, "sqrt": sqrt, "I": mpc(0, 1)})


def _generators(entry):
    """(f, g, gamma): y -> f = diag(lam, 1/lam) with lam = e^(i pi/p), and
    x -> g = [[a, 1], [c, d]] with a + d = 2cos(pi/q), ad - c = 1 and
    c = -gamma/(lam - 1/lam)^2, so that tr[f, g] - 2 = gamma."""
    lam = exp(mpc(0, 1) * pi / entry.p)
    gamma = _gamma(entry.gamma)
    c = -gamma / (lam - 1 / lam) ** 2
    t = 2 * cos(pi / entry.q)
    a = (t + sqrt(t * t - 4 * (1 + c))) / 2
    return (matrix([[lam, 0], [0, 1 / lam]]), matrix([[a, 1], [c, t - a]]),
            gamma)


def _inverse(m):
    return matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


# the entries with Kleinian metadata
KLEINIAN = tuple(e.id for e in list_census() if e.p is not None)


@pytest.mark.parametrize("id", KLEINIAN)
def test_commutator_parameter_is_gamma(id):
    # gamma is an algebraic integer of Q(sqrt(-d)): gamma = (x + y sqrt(-d))/2
    # with x and y integers, of one parity when d = 3 mod 4 and both even
    # otherwise; _generators then gives tr[f, g] - 2 = gamma in SL(2, C)
    entry = census_entry(id)
    with mp.workdps(50):
        f, g, gamma = _generators(entry)
        x, y = 2 * gamma.real, 2 * gamma.imag / sqrt(entry.d)
        assert max(abs(x - mp.nint(x)), abs(y - mp.nint(y))) \
            < mp.mpf(10) ** -45, (entry.d, entry.gamma)
        assert (mp.nint(x) - mp.nint(y)) % 2 == 0, (entry.d, entry.gamma)
        assert entry.d % 4 == 3 or mp.nint(x) % 2 == 0, (entry.d, entry.gamma)
        comm = _inverse(f) * _inverse(g) * f * g
        assert abs(comm[0, 0] + comm[1, 1] - 2 - gamma) < mp.mpf(10) ** -45
        assert abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] - 1) \
            < mp.mpf(10) ** -45


@pytest.mark.parametrize("id", [
    pytest.param("k19", marks=published(
        "k19", "p, q and gamma give a representation of the presentation"))
    if id == "k19" else id
    for id in KLEINIAN
])
def test_relators_are_plus_or_minus_identity(id):
    """The census (p, q, gamma) give a representation in SL(2, C) in
    which every relator is +-I, to 50 digits."""
    entry = census_entry(id)
    with mp.workdps(50):
        f, g, _ = _generators(entry)
        letters = (g, _inverse(g), f, _inverse(f))
        eye = matrix([[1, 0], [0, 1]])
        failing = []
        for r in entry.presentation.relators:
            m = eye
            for l in r.letters:
                m = m * letters[l]
            if min(mp.mnorm(m - eye, 1), mp.mnorm(m + eye, 1)) \
                    > mp.mpf(10) ** -40:
                failing.append(str(r))
        assert failing == []


def _bianchi_covolume(d):
    """Covolume of PSL(2, O_d) for d = 1, 3 by Humbert's formula
    |D|^(3/2) zeta(2) L(2, chi_D) / (4 pi^2), D the discriminant of
    Q(sqrt(-d)) (Maclachlan & Reid 2003, section 11.1)."""
    disc, chi = {1: (4, [0, 1, 0, -1]), 3: (3, [0, 1, -1])}[d]
    return mpf(disc) ** 1.5 * zeta(2) * dirichlet(2, chi) / (4 * pi ** 2)


def test_bianchi_covolumes():
    assert abs(dirichlet(2, [0, 1, 0, -1]) - catalan) < mpf(10) ** -12
    assert abs(_bianchi_covolume(1) - mpf("0.3053219")) < mpf(10) ** -7
    assert abs(_bianchi_covolume(3) - mpf("0.1691569")) < mpf(10) ** -7


@pytest.mark.parametrize("id, ratio", [
    ("k4", mpf(3) / 2), ("k5", 3), ("k1", 2), ("k2", 4), ("k19", mpf(5) / 4)])
def test_covolume_is_a_bianchi_multiple(id, ratio):
    """The published covolume is a multiple of PSL(2, O_d)'s, d the
    entry's own, to the 5 * 10^-5 its five printed digits allow."""
    entry = census_entry(id)
    assert abs(mpf(entry.covolume) - ratio * _bianchi_covolume(entry.d)) \
        < mpf("5e-5")


# k2's reason, its figures as groups: the fixed points of y's two
# involutions, the elements of order 3, the pairs that satisfy k2's
# relators and those that generate J2
_FIGURE = r"(\d+(?: \d{3})*|none)"
K2_FIGURES = re.compile(
    r"\(%s and %s fixed points\) and x each of the %s elements of order "
    r"3, %s pairs satisfy k2's relators and %s generates J2"
    % ((_FIGURE,) * 5))


def _k2_figures():
    """(fixed-point counts, elements of order 3, satisfying pairs,
    generating pairs) as k2's differs reason writes them: digits grouped
    by spaces, or "none"."""
    m = K2_FIGURES.search(differs("k2", "J2 is a quotient (a J2 geometry)"))
    assert m, "k2's reason no longer states its figures"
    a, b, threes, pairs, generating = (
        0 if g == "none" else int(g.replace(" ", "")) for g in m.groups())
    return sorted((a, b)), threes, pairs, generating


def test_k2_reason_states_its_figures():
    # the full suite's k2 tests read them; one involution per class, and
    # the classes differ in their fixed points
    fixed, *_ = _k2_figures()
    assert len(fixed) == len(set(fixed)) == 2


@cache
def _k2_in_j2():
    """quotient_pairs for k2's relators in J2 on 100 points (g2/h2): x
    over the elements of order 3, y over one involution per number of
    fixed points (one per class), which must be as many and have as many
    fixed points as k2's reason says."""
    j2 = group_of(todd_coxeter(census_entry("g2").subgroup("h2")))
    one, pad = bytes(range(100)), bytes(range(100, 256))
    threes, involutions = [], {}
    for e in j2.elements():
        square = e.translate(e + pad)
        if square == one and e != one:
            involutions.setdefault(sum(p == i for i, p in enumerate(e)), e)
        elif square != one and square.translate(e + pad) == one:
            threes.append(Permutation(e))
    fixed, count, _, _ = _k2_figures()
    assert (len(threes), sorted(involutions)) == (count, fixed)
    ys = [Permutation(e) for e in involutions.values()]
    return quotient_pairs(census_entry("k2").presentation.relators,
                          threes, ys, record("g2", 100).order)


@requires_full
def test_k2_relators_in_j2():
    assert _k2_in_j2() == _k2_figures()[2:]


@requires_full
@published("k2", "J2 is a quotient (a J2 geometry)")
def test_k2_has_j2_quotient():
    assert _k2_in_j2()[1] > 0
