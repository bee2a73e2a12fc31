"""Similarity-graph generation pipeline (Section 4 + 5 of the paper).

Turns a :class:`~repro.datasets.generator.CleanCleanDataset` into the
four families of similarity graphs the paper evaluates:

* schema-based syntactic — 16 string measures per selected attribute;
* schema-agnostic syntactic — 6 n-gram vector models x 6 measures plus
  6 n-gram graph models x 4 measures (60 functions);
* schema-based semantic — 2 embedding models x 3 measures per attribute;
* schema-agnostic semantic — 2 embedding models x 3 measures.

By default no blocking is applied: *all* entity pairs with similarity
above zero become edges, exactly as in the paper's protocol.  The
optional blocking layer (:mod:`repro.pipeline.blocking`, enabled via
``blocking=`` on the engine / corpus config) generates a deterministic
:class:`~repro.pipeline.blocking.CandidateSet` and scores only those
pairs — bit-identical values on every retained cell, but a sparse
graph.  The all-pairs computations run on the deduplicated, blocked
pairwise-kernel engine (:mod:`repro.pipeline.kernels`, consumed by
:mod:`repro.pipeline.batched_strings`), and corpus generation shares
expensive artifacts across functions (see
:mod:`repro.pipeline.engine`) — and, with an
:class:`~repro.pipeline.store.ArtifactStore` configured, across runs
and corpus configs — so the protocol stays laptop-feasible.
"""

from repro.pipeline.blocking import (
    CandidateSet,
    build_candidate_set,
    canonical_blocking,
    parse_blocking_spec,
)
from repro.pipeline.engine import (
    ArtifactCache,
    SimilarityEngine,
    SpecGroup,
    SpecScores,
    group_specs,
)
from repro.pipeline.store import ArtifactStore, dataset_store_key
from repro.pipeline.kernels import SparsePlan, UniquePlan
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.similarity_functions import (
    FAMILIES,
    SimilarityFunctionSpec,
    enumerate_function_specs,
    enumerate_functions,
)
from repro.pipeline.workbench import (
    GraphCorpusConfig,
    GraphRecord,
    generate_corpus,
    generate_dirty_corpus,
)

__all__ = [
    "FAMILIES",
    "SimilarityFunctionSpec",
    "enumerate_functions",
    "enumerate_function_specs",
    "pairs_to_graph",
    "CandidateSet",
    "build_candidate_set",
    "canonical_blocking",
    "parse_blocking_spec",
    "ArtifactCache",
    "ArtifactStore",
    "dataset_store_key",
    "SimilarityEngine",
    "SpecGroup",
    "SpecScores",
    "group_specs",
    "GraphCorpusConfig",
    "GraphRecord",
    "generate_corpus",
    "generate_dirty_corpus",
    "UniquePlan",
    "SparsePlan",
]
