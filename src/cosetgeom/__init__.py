"""Coset geometries of finitely presented groups.

Low-index subgroup enumeration and Todd-Coxeter coset tables for a
bundled census of two-generator groups, with the derived permutation
groups, bipartite maps (dessins), stabilized point-line geometries and
per-line coset-commutation (contextuality) reports.
"""

from .census import (CensusEntry, Claim, KnownResult, UnknownId, census_entry,
                     list_census)
from .contextuality import (ContextualityReport, CosetLabeling,
                            contextuality_report, labeling_from_table,
                            line_commutes)
from .dessins import (Dessin, ModularData, Passport, Signature,
                      dessin_from_table, modular_data, passport, signature)
from .geometry import (GraphStats, IncidenceGeometry, PairClass, PolygonCheck,
                       geometry_from_class, incidence_graph_stats,
                       maximal_cliques, pair_classes, polygon_check, recognize)
from .lowindex import SearchBudgetExceeded, least_table, low_index_subgroups
from .perms import (Fingerprint, PermGroup, Permutation, fingerprint,
                    identify, parse_cycles)
from .toddcox import (CosetLimitExceeded, CosetTable, pair_rows,
                      schreier_generators, todd_coxeter, transversal)
from .words import (Presentation, SubgroupSpec, Word, commutator_word,
                    parse_presentation, parse_word)

__version__ = "1.0.0"
