"""Bipartite graph matching algorithms for Clean-Clean ER.

This package implements the paper's eight learning-free algorithms
(Section 3 / appendix pseudocode) plus two exact oracles that the paper
excludes for complexity reasons but that are useful as references:

================================  ====  =========================================
Algorithm                         Code  Module
================================  ====  =========================================
Connected Components              CNC   :mod:`repro.matching.connected_components`
Ricochet Sequential Rippling      RSR   :mod:`repro.matching.ricochet`
Row-Column Assignment             RCA   :mod:`repro.matching.row_column`
Best Assignment Heuristic         BAH   :mod:`repro.matching.best_assignment`
Best Match Clustering             BMC   :mod:`repro.matching.best_match`
Exact Clustering                  EXC   :mod:`repro.matching.exact`
Kiraly's Clustering               KRC   :mod:`repro.matching.kiraly`
Unique Mapping Clustering         UMC   :mod:`repro.matching.unique_mapping`
Hungarian (exact MWM oracle)      HUN   :mod:`repro.matching.hungarian`
Gale-Shapley (stable marriage)    GSM   :mod:`repro.matching.gale_shapley`
================================  ====  =========================================

All algorithms share the :class:`repro.matching.base.Matcher` interface
with two equivalent entry points: ``match(graph, threshold)`` — a thin
wrapper that compiles the graph (cached on the graph instance) — and
the sweep-native ``match_compiled(view, threshold)``, which consumes a
:class:`~repro.graph.compiled.CompiledGraph` so that all algorithms
and all thresholds of a sweep share one edge sort, one CSR adjacency
and cached per-threshold edge selections.  Both return a
:class:`MatchingResult` whose pairs satisfy the unique-mapping
constraint of CCER.  The pre-compiled implementations are frozen as
test oracles (``tests/oracles/matching.py``); the differential
test-suite and ``benchmarks/bench_matching_sweep.py`` pin the compiled
path to bit-identical output.
"""

from repro.matching.base import Matcher, MatchingResult
from repro.matching.best_assignment import BestAssignmentHeuristic
from repro.matching.best_match import BestMatchClustering
from repro.matching.connected_components import ConnectedComponentsClustering
from repro.matching.exact import ExactClustering
from repro.matching.gale_shapley import GaleShapleyMatching
from repro.matching.hungarian import HungarianMatching
from repro.matching.kiraly import KiralyClustering
from repro.matching.registry import (
    ALGORITHM_CODES,
    PAPER_ALGORITHM_CODES,
    create_matcher,
    default_matchers,
    paper_matchers,
)
from repro.matching.ricochet import RicochetSRClustering
from repro.matching.row_column import RowColumnClustering
from repro.matching.unique_mapping import UniqueMappingClustering

__all__ = [
    "Matcher",
    "MatchingResult",
    "ConnectedComponentsClustering",
    "RicochetSRClustering",
    "RowColumnClustering",
    "BestAssignmentHeuristic",
    "BestMatchClustering",
    "ExactClustering",
    "KiralyClustering",
    "UniqueMappingClustering",
    "HungarianMatching",
    "GaleShapleyMatching",
    "ALGORITHM_CODES",
    "PAPER_ALGORITHM_CODES",
    "create_matcher",
    "default_matchers",
    "paper_matchers",
]
