"""Built-in catalog of the census groups and their published claims.

Five two-generator Kleinian group classes (k1, k2, k4, k5, k19) with
their elliptic degrees p, q, Bianchi discriminant d, commutator-trace
parameter gamma and covolume, plus the two large finitely presented
groups g1, g2 and their distinguished finite-index subgroups.

The arithmetic metadata (p, q, d, gamma, covolume) is reference data
only; nothing here computes traces or covolumes.  The tests check it:
y -> diag(l, 1/l) with l = e^(i pi/p) and x -> [[a, 1], [c, d]] with
a + d = 2cos(pi/q), ad - c = 1 and c = -gamma/(l - 1/l)^2 give
tr[y, x] - 2 = gamma, and every relator of k1, k2, k4 and k5 is +-I;
k19's first Claim records that two of its relators are not.

Each published claim about an entry is stated once, here, in one of
two records; CENSUS_IDS and list_census read the entry list, and the
command line and the tests read the records.  A claim the code
reproduces is a KnownResult, every field of which ``cosetgeom
reproduce`` checks, as the tests do.  A claim it does not reproduce is
a Claim with its status and reason: "unchecked" when nothing computes
it, or "differs" when the code computes something else; the tests check
the figures such a reason cites, and its claim is one strict xfail,
whose reason is the record's and which alone writes out the published value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .words import Presentation, SubgroupSpec, parse_presentation, parse_word


class UnknownId(KeyError):
    """No census entry with the requested id."""

    def __str__(self):
        # the message itself, not KeyError's repr of its argument
        return str(self.args[0])


@dataclass(frozen=True)
class KnownResult:
    """A published claim at one index that the code reproduces.

    count is the number of conjugacy classes at the index that satisfy
    the filter (image order and/or a geometry among the recognized names
    of its pair classes); raw_count, the total number of classes at the
    index when the filter is proper, makes the check a search.  Without
    it the tables come from the entry's distinguished subgroup named by
    subgroup when it is set.  The remaining fields hold published data
    about the counted classes: generator pairs (x, y) in 1-based cycle
    notation, each the action of a different counted class up to
    simultaneous relabeling, and the passport, signature (B, W, F, g)
    and modular data (nu2, nu3, c, f) of every counted class's dessin.
    """

    index: int
    count: int
    order: int | None = None
    geometry: str | None = None
    raw_count: int | None = None
    subgroup: str | None = None
    pairs: tuple = ()
    passport: str | None = None
    signature: tuple | None = None
    modular_data: tuple | None = None


@dataclass(frozen=True)
class Claim:
    """A published statement the code does not reproduce.

    status is "differs" when the code computes something else and
    "unchecked" when nothing computes it; reason says what is computed
    instead, or what is known, and why.
    """

    statement: str
    status: str
    reason: str


@dataclass(frozen=True)
class CensusEntry:
    id: str
    presentation: Presentation
    p: int | None = None
    q: int | None = None
    d: int | None = None
    gamma: str | None = None
    covolume: str | None = None
    known_results: tuple = ()
    claims: tuple = ()
    subgroups: tuple = ()        # ((name, SubgroupSpec), ...)

    def subgroup(self, name: str) -> SubgroupSpec:
        for n, spec in self.subgroups:
            if n == name:
                return spec
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "presentation": str(self.presentation),
            "p": self.p, "q": self.q, "d": self.d,
            "gamma": self.gamma,
            "covolume": self.covolume,
            "claims": [vars(c) for c in self.claims],
            "known_results": [
                {f.name: getattr(r, f.name) for f in fields(r)
                 if getattr(r, f.name) not in (None, ())}
                for r in self.known_results
            ],
            "subgroups": {n: [str(g) for g in s.generators]
                          for n, s in self.subgroups},
        }


def _entry(id, pres_text, subgroup_words=(), **kw):
    pres = parse_presentation(pres_text)
    subs = tuple(
        (name, SubgroupSpec(pres, tuple(parse_word(w) for w in words)))
        for name, words in subgroup_words
    )
    return CensusEntry(id=id, presentation=pres, subgroups=subs, **kw)


# h1 = <x, w>; K = <x, w*x*w^-1, w^2> is its one subgroup of index 2
_W = "y^-1*(x*y)^2*x*y^-1*(x*y)^3*(x*y^-1)^2"

_ENTRIES = (
    _entry(
        "k1",
        "< x, y | y^2, x^3, ((y*x^-1)^2*(y^-1*x)^2)^3 >",
        p=2, q=3, d=3, gamma="(-3+sqrt(3)i)/2", covolume="0.33831",
        known_results=(
            KnownResult(index=6, count=4),
            KnownResult(index=7, count=2, order=168, geometry="Fano plane"),
            KnownResult(index=10, count=1, order=60,
                        geometry="Mermin pentagram", raw_count=2,
                        signature=(4, 6, 2, 0), modular_data=(1, 2, 2, 4)),
            KnownResult(index=21, count=1, order=336, geometry="GH(2,1)",
                        raw_count=10,
                        passport="[3^7, 2^9 1^3, 8^2 4^1 1^1]"),
        ),
        claims=(
            Claim("5 classes at index 6", "differs",
                  "search finds 4 classes at index 6 (the published "
                  "'five' has no filtered reading; treated as a misprint)"),
            Claim("the K6 at index 6 is maximally contextual", "differs",
                  "computed K6 verdict is 9/15 non-commuting; one line "
                  "avoiding the identity coset commutes, so the maximal "
                  "pattern fails"),
            Claim("the Fano planes at index 7 are maximally contextual",
                  "differs",
                  "the order-168 image is 2-transitive on 7 cosets, so "
                  "every representative-independent pairwise relation is "
                  "constant; a maximal Fano verdict, which depends on the "
                  "representatives, is not reached under the BFS "
                  "transversal"),
            Claim("1 class at index 21", "differs",
                  "10 conjugacy classes exist at index 21; exactly one has "
                  "order 336 (the published count is property-filtered)"),
        ),
    ),
    _entry(
        "k2",
        "< x, y | y^2, x^3, ((y*x^-1)^3*(y^-1*x)^3)^3 >",
        p=2, q=3, d=3, gamma="(-1+sqrt(3)i)/2", covolume="0.67664",
        known_results=(
            KnownResult(index=21, count=1, order=336, geometry="GH(2,1)",
                        raw_count=20),
        ),
        claims=(
            Claim("J2 is a quotient (a J2 geometry)", "differs",
                  "in J2 on 100 points (g2/h2), with y one involution per "
                  "class (20 and 0 fixed points) and x each of the 17 360 "
                  "elements of order 3, 19 480 pairs satisfy k2's relators "
                  "and none generates J2"),
        ),
    ),
    _entry(
        "k4",
        "< x, y | y^2, x^4, ((y*x^-1)^2*(y^-1*x)^2)^2 >",
        p=2, q=4, d=1, gamma="-1+i", covolume="0.45798",
        known_results=(
            KnownResult(index=4, count=4, order=8, raw_count=7,
                        pairs=(("(2,3)", "(1,2)(3,4)"),
                               ("(1,2)(3,4)", "(2,3)"),
                               ("(1,2,4,3)", "(1,2)(3,4)"),
                               ("(1,2,4,3)", "(2,3)"))),
            KnownResult(index=9, count=2, order=144,
                        geometry="Hesse configuration"),
            KnownResult(index=10, count=2, order=120,
                        geometry="Petersen graph", raw_count=9),
            KnownResult(index=15, count=2, order=120,
                        geometry="Petersen line graph"),
        ),
        claims=(
            Claim("4 classes at index 4", "differs",
                  "search finds 7 conjugacy classes at index 4; the 3 "
                  "extras have image order 4 (the published count is "
                  "property-filtered to the faithful S4-type actions "
                  "P1-P4)"),
            Claim("the Hesse configuration at index 9 is maximally "
                  "contextual", "differs",
                  "all 12 Hesse lines non-commute in both modes; the "
                  "all-and-only-through-e pattern is not reached under the "
                  "BFS transversal (calibration ledgered as inconclusive)"),
            Claim("2 classes of order 120 at index 10", "differs",
                  "4 classes of order 120 (all S5) exist at index 10; "
                  "exactly 2 of them stabilize the Petersen graph, which "
                  "is the published pair"),
        ),
    ),
    _entry(
        "k5",
        "< x, y | y^2, x^4, (y*x*y^-1*x*y*x^-1)^4 >",
        p=2, q=4, d=1, gamma="-2+i", covolume="0.91596",
        known_results=(
            KnownResult(index=45, count=1, order=360, geometry="GO(2,1)"),
        ),
        claims=(
            Claim("GO(2,1) at index 45 is maximally contextual", "differs",
                  "all 30 GO(2,1) lines non-commute in both modes; the "
                  "maximal pattern is not reached under the BFS transversal "
                  "(calibration ledgered as inconclusive)"),
            Claim("a GO(2,4) geometry", "unchecked",
                  "GO(2,4) is the index-1755 geometry of g1/h1, which g1's "
                  "KnownResult checks; k5 has no subgroup of index 1755 on "
                  "record.  A random scan in the Tits group on those 1755 "
                  "points found, of 49 783 pairs (x of order 4, y an "
                  "involution), 6 398 satisfying k5's long relator and none "
                  "generating: evidence, not proof, and it does not cover "
                  "2F4(2)"),
        ),
    ),
    _entry(
        "k19",
        "< x, y | y^4, x^6, [x,y]^3, ([y,x]*y)^2, (y^-1*[y,x])^2, "
        "(x^-1*[y,x]*y)^2 >",
        p=4, q=6, d=3, gamma="-1", covolume="0.21145",
        known_results=(
            KnownResult(index=9, count=1, order=36, geometry="GQ(2,1)",
                        raw_count=3),
        ),
        claims=(
            Claim("p, q and gamma give a representation of the "
                  "presentation", "differs",
                  "k19's p, q, gamma fail ([y,x]*y)^2 and "
                  "(x^-1*[y,x]*y)^2; its other four relators hold (the "
                  "metadata is left as published)"),
            Claim("the grids (Mermin squares) at index 9 are 0/6 and 1/6 "
                  "non-commuting", "differs",
                  "computed coset verdicts are 4/6 and 6/6 non-commuting "
                  "lines (both modes); the published 0/6 and 1/6 is not "
                  "reached under the BFS transversal"),
        ),
    ),
    _entry(
        "g1",
        "< x, y | x^2, y^3, (x*y)^13, [x,y]^5, [x,y*x*y]^4, "
        "((x*y)^4*(x*y^-1))^6 >",
        subgroup_words=(
            ("h1", ("x", _W)),
            ("K", ("x", "(%s)*x*(%s)^-1" % (_W, _W), "(%s)^2" % _W)),
        ),
        known_results=(
            KnownResult(index=1755, count=1, order=17971200,
                        geometry="GO(2,4)", subgroup="h1"),
            KnownResult(index=3510, count=1, order=17971200,
                        subgroup="K", signature=(1846, 1170, 270, 113)),
        ),
        claims=(
            Claim("dessin signature (1846, 1170, 270, 113) at index 1755",
                  "differs",
                  "the published signature violates Euler's relation at "
                  "n=1755 (B+W+F=3286 > 1757); h1's dessin has exactly "
                  "half, (923, 585, 135, 57).  It is the signature of K, "
                  "h1's one subgroup of index 2, at index 3510: an "
                  "unramified double cover, so B, W and F double and the "
                  "genus goes 57 -> 113"),
        ),
    ),
    _entry(
        "g2",
        "< x, y | x^2, y^3, (x*y)^7, [x,y]^12, ((x*y)^2*x*y^-1*x*y*"
        "(x*y^-1)^2*(x*y)^2*(x*y^-1)^2*x*y*x*y^-1)^3 >",
        subgroup_words=(
            ("h2", ("y", "(x*y)^2*x*y^-1*x*y*x")),
        ),
        known_results=(
            KnownResult(index=100, count=1, order=604800, subgroup="h2"),
        ),
    ),
)

_BY_ID = {e.id: e for e in _ENTRIES}
CENSUS_IDS = tuple(_BY_ID)


def census_entry(id: str) -> CensusEntry:
    try:
        return _BY_ID[id]
    except KeyError:
        raise UnknownId("unknown census id %r (known: %s)"
                        % (id, ", ".join(CENSUS_IDS))) from None


def list_census():
    return list(_ENTRIES)
