"""Frozen direct scoring path: the shared-artifact engine's oracle.

Before :class:`~repro.pipeline.engine.SimilarityEngine` shared
artifacts across a spec group, every similarity function built its own
string encodings, vector or graph models and embeddings from scratch
and scored the whole dense matrix: :func:`compute_similarity_matrix`,
with :func:`_vector_matrix`, :func:`_graph_model_matrix` and
:func:`_semantic_matrix` behind it.  :func:`matrix_to_graph` turned
that matrix into a graph through
:func:`~repro.pipeline.graph_builder.pairs_to_graph`.  The bodies are
kept here verbatim.  ``SimilarityEngine.score`` must equal the matrix
on every positive cell, whole range and row ranges alike, and a corpus
graph must equal ``matrix_to_graph`` of it bit for bit
(``tests/pipeline/test_engine.py``, ``tests/pipeline/test_sharding.py``,
``benchmarks/bench_corpus_engine.py``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.generator import CleanCleanDataset
from repro.graph.bipartite import SimilarityGraph
from repro.ngramgraph import entity_graph_matrices
from repro.pipeline.batched_strings import schema_based_matrix
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.similarity_functions import (
    SimilarityFunctionSpec,
    graph_measure_matrix,
    make_semantic_model,
    semantic_matrix_from_embeddings,
    vector_measure_matrix,
    weighting_for_measure,
)
from repro.vectorspace import build_vector_models

__all__ = ["compute_similarity_matrix", "matrix_to_graph"]


def compute_similarity_matrix(
    dataset: CleanCleanDataset, spec: SimilarityFunctionSpec
) -> np.ndarray:
    """The all-pairs similarity matrix of ``spec`` on ``dataset``.

    This is the *direct* path: every artifact (string encodings,
    vector/graph models, embeddings) is built from scratch.  The
    engine path (:class:`repro.pipeline.engine.SimilarityEngine`)
    shares artifacts across specs and produces bit-identical matrices.
    """
    if spec.family == "schema_based_syntactic":
        lefts = dataset.left.attribute_values(spec.details["attribute"])
        rights = dataset.right.attribute_values(spec.details["attribute"])
        return schema_based_matrix(lefts, rights, spec.details["measure"])
    if spec.family == "schema_agnostic_syntactic":
        if spec.details["model"] == "vector":
            return _vector_matrix(dataset, spec)
        return _graph_model_matrix(dataset, spec)
    if spec.family == "schema_based_semantic":
        attribute = spec.details["attribute"]
        lefts = dataset.left.attribute_values(attribute)
        rights = dataset.right.attribute_values(attribute)
        return _semantic_matrix(lefts, rights, spec)
    # schema_agnostic_semantic
    return _semantic_matrix(dataset.left.texts(), dataset.right.texts(), spec)


def _vector_matrix(
    dataset: CleanCleanDataset, spec: SimilarityFunctionSpec
) -> np.ndarray:
    measure = spec.details["measure"]
    left, right = build_vector_models(
        dataset.left.texts(),
        dataset.right.texts(),
        n=spec.details["n"],
        unit=spec.details["unit"],
        weighting=weighting_for_measure(measure),
    )
    return vector_measure_matrix(left, right, measure)


def _graph_model_matrix(
    dataset: CleanCleanDataset, spec: SimilarityFunctionSpec
) -> np.ndarray:
    sparse_left, sparse_right = entity_graph_matrices(
        dataset.left.value_lists(),
        dataset.right.value_lists(),
        n=spec.details["n"],
        unit=spec.details["unit"],
    )
    return graph_measure_matrix(sparse_left, sparse_right, spec.details["measure"])


def _semantic_matrix(
    lefts: list[str], rights: list[str], spec: SimilarityFunctionSpec
) -> np.ndarray:
    model = make_semantic_model(spec.details["model"])
    measure = spec.details["measure"]
    if measure == "wmd":
        embeddings_left = model.embed_collection(lefts)
        embeddings_right = model.embed_collection(rights)
    else:
        embeddings_left = model.embed_texts(lefts)
        embeddings_right = model.embed_texts(rights)
    return semantic_matrix_from_embeddings(
        lefts, rights, measure, embeddings_left, embeddings_right
    )


def matrix_to_graph(
    matrix: np.ndarray,
    name: str = "",
    normalize: bool = True,
    metadata: dict | None = None,
) -> SimilarityGraph:
    """Build a :class:`SimilarityGraph` from an all-pairs matrix.

    Parameters
    ----------
    matrix:
        Dense ``n_left x n_right`` similarity matrix.  Values at or
        below zero are dropped (pairs "with a similarity higher than
        0" form the graph).
    normalize:
        Min-max normalize the retained edge weights (the default,
        matching the paper).
    metadata:
        Optional metadata dict attached to the graph (dataset code,
        similarity family, function name ...).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    left, right = np.nonzero(matrix > 0.0)
    return pairs_to_graph(
        *matrix.shape,
        left,
        right,
        matrix[left, right],
        name=name,
        normalize=normalize,
        metadata=metadata,
    )
