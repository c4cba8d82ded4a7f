"""Built-in catalog of the census groups and their reference metadata.

Five two-generator Kleinian group classes (k1, k2, k4, k5, k19) with
their elliptic degrees p, q, Bianchi discriminant d, commutator-trace
parameter gamma and covolume, plus the two large finitely presented
groups g1, g2 and their distinguished finite-index subgroups h1, h2.

The arithmetic metadata (p, q, d, gamma, covolume) is reference data
only; nothing here computes traces or covolumes.  The tests check it:
y -> diag(l, 1/l) with l = e^(i pi/p) and x -> [[a, 1], [c, d]] with
a + d = 2cos(pi/q), ad - c = 1 and c = -gamma/(l - 1/l)^2 give
tr[y, x] - 2 = gamma, and every relator of k1, k2, k4 and k5 is +-I.
For k19 the relators ([y,x]*y)^2 and (x^-1*[y,x]*y)^2 are not, so its
metadata and presentation disagree (recorded as a strict xfail, with
the metadata left as published).  known_results records
the verified subgroup counts at each index; where a published count
differs from the verified one, both are kept.  These records are the
claims ``cosetgeom reproduce`` checks: a class passes the geometry
filter when the named geometry is among the names ``recognize`` gives
its pair classes.
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
    """A verified enumeration fact at one index.

    count is the number of conjugacy classes at the index that satisfy
    the filter (image order and/or a geometry among the recognized names
    of its pair classes); raw_count is the total number of classes at
    the index when the filter is proper; published_count is kept when a
    published table states a different number.  The remaining fields
    hold published data about the counted classes: generator pairs
    (x, y) in 1-based cycle notation, each the action of some counted
    class up to simultaneous relabeling, and the passport, signature
    (B, W, F, g) and modular data (nu2, nu3, c, f) of every counted
    class's dessin.
    """

    index: int
    count: int
    order: int | None = None
    geometry: str | None = None
    raw_count: int | None = None
    published_count: int | None = None
    pairs: tuple = ()
    passport: str | None = None
    signature: tuple | None = None
    modular_data: tuple | None = None


@dataclass(frozen=True)
class CensusEntry:
    id: str
    presentation: Presentation
    p: int | None = None
    q: int | None = None
    d: int | None = None
    gamma: str | None = None
    covolume: str | None = None
    geometries: str | None = None
    known_results: tuple = ()
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
            "geometries": self.geometries,
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


_ENTRIES = (
    _entry(
        "k1",
        "< x, y | y^2, x^3, ((y*x^-1)^2*(y^-1*x)^2)^3 >",
        p=2, q=3, d=3, gamma="(-3+sqrt(3)i)/2", covolume="0.33831",
        geometries="Mermin pentagram, GH(2,1)",
        known_results=(
            KnownResult(index=6, count=4, published_count=5),
            KnownResult(index=7, count=2, order=168, geometry="Fano plane"),
            KnownResult(index=10, count=1, order=60,
                        geometry="Mermin pentagram", raw_count=2,
                        signature=(4, 6, 2, 0), modular_data=(1, 2, 2, 4)),
            KnownResult(index=21, count=1, order=336, geometry="GH(2,1)",
                        raw_count=10,
                        passport="[3^7, 2^9 1^3, 8^2 4^1 1^1]"),
        ),
    ),
    _entry(
        "k2",
        "< x, y | y^2, x^3, ((y*x^-1)^3*(y^-1*x)^3)^3 >",
        p=2, q=3, d=3, gamma="(-1+sqrt(3)i)/2", covolume="0.67664",
        geometries="GH(2,1), \"J2\"",
        known_results=(
            KnownResult(index=21, count=1, order=336, geometry="GH(2,1)",
                        raw_count=20),
        ),
    ),
    _entry(
        "k4",
        "< x, y | y^2, x^4, ((y*x^-1)^2*(y^-1*x)^2)^2 >",
        p=2, q=4, d=1, gamma="-1+i", covolume="0.45798",
        geometries="Hesse, Petersen",
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
    ),
    _entry(
        "k5",
        "< x, y | y^2, x^4, (y*x*y^-1*x*y*x^-1)^4 >",
        p=2, q=4, d=1, gamma="-2+i", covolume="0.91596",
        geometries="GO(2,1), \"GO(2,4)\"",
        known_results=(
            KnownResult(index=45, count=1, order=360, geometry="GO(2,1)"),
        ),
    ),
    _entry(
        "k19",
        "< x, y | y^4, x^6, [x,y]^3, ([y,x]*y)^2, (y^-1*[y,x])^2, "
        "(x^-1*[y,x]*y)^2 >",
        p=4, q=6, d=3, gamma="-1", covolume="0.21145",
        geometries="GQ(2,1) (Mermin square)",
        known_results=(
            KnownResult(index=9, count=1, order=36, geometry="GQ(2,1)",
                        raw_count=3),
        ),
    ),
    _entry(
        "g1",
        "< x, y | x^2, y^3, (x*y)^13, [x,y]^5, [x,y*x*y]^4, "
        "((x*y)^4*(x*y^-1))^6 >",
        subgroup_words=(
            ("h1", ("x", "y^-1*(x*y)^2*x*y^-1*(x*y)^3*(x*y^-1)^2")),
        ),
        known_results=(
            KnownResult(index=1755, count=1, order=17971200,
                        geometry="GO(2,4)"),
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
            KnownResult(index=100, count=1, order=604800),
        ),
    ),
)

_BY_ID = {e.id: e for e in _ENTRIES}
CENSUS_IDS = ("k1", "k2", "k4", "k5", "k19", "g1", "g2")


def census_entry(id: str) -> CensusEntry:
    try:
        return _BY_ID[id]
    except KeyError:
        raise UnknownId("unknown census id %r (known: %s)"
                        % (id, ", ".join(CENSUS_IDS))) from None


def list_census():
    return [_BY_ID[i] for i in CENSUS_IDS]
