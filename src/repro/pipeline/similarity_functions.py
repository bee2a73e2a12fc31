"""The similarity-function taxonomy of Section 4.

Enumerates the learning-free similarity functions of the paper's four
input families and holds the per-family measures the engine
(:class:`~repro.pipeline.engine.SimilarityEngine`) applies to its
shared artifacts:

===========================  ====================================  =====
Family                       Functions                             Count
===========================  ====================================  =====
schema-based syntactic       16 string measures x attribute        16/attr
schema-agnostic syntactic    6 vector models x 6 vector measures    36
                             6 graph models x 4 graph measures      24
schema-based semantic        2 embedding models x 3 measures        6/attr
schema-agnostic semantic     2 embedding models x 3 measures        6
===========================  ====================================  =====

(The paper's 60 schema-agnostic syntactic functions are exactly the
36 + 24 above.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.generator import CleanCleanDataset, DatasetSpec
from repro.embeddings import (
    ContextualModel,
    FastTextLikeModel,
    cosine_similarity_matrix,
    euclidean_similarity_matrix,
    word_mover_similarity_matrix,
)
from repro.ngramgraph import (
    containment_matrix,
    normalized_value_matrix,
    overall_matrix,
    value_matrix,
)
from repro.pipeline.batched_strings import SCHEMA_BASED_MEASURES
from repro.pipeline.kernels import UniquePlan
from repro.vectorspace import (
    arcs_matrix,
    cosine_matrix,
    generalized_jaccard_matrix,
    jaccard_matrix,
)

__all__ = [
    "FAMILIES",
    "SimilarityFunctionSpec",
    "enumerate_functions",
    "enumerate_function_specs",
    "vector_measure_matrix",
    "graph_measure_matrix",
    "semantic_matrix_from_embeddings",
    "make_semantic_model",
    "weighting_for_measure",
]

#: The paper's four input families.
FAMILIES = (
    "schema_based_syntactic",
    "schema_agnostic_syntactic",
    "schema_based_semantic",
    "schema_agnostic_semantic",
)

#: N-gram model configurations, as in the paper: character n in
#: {2, 3, 4} and token n in {1, 2, 3}.
NGRAM_MODELS: tuple[tuple[str, int], ...] = (
    ("char", 2),
    ("char", 3),
    ("char", 4),
    ("token", 1),
    ("token", 2),
    ("token", 3),
)

VECTOR_MEASURES = (
    "arcs",
    "cosine_tf",
    "cosine_tfidf",
    "jaccard",
    "gjs_tf",
    "gjs_tfidf",
)

GRAPH_MEASURES = ("containment", "value", "normalized_value", "overall")

SEMANTIC_MODELS = ("fasttext_like", "albert_like")

SEMANTIC_MEASURES = ("cosine", "euclidean", "wmd")


@dataclass(frozen=True)
class SimilarityFunctionSpec:
    """One similarity function of the taxonomy.

    ``details`` holds the family-specific configuration: the measure
    name, the n-gram model, the embedding model, etc.
    """

    family: str
    details: dict = field(default_factory=dict, hash=False, compare=False)
    name: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def scope(self) -> str:
        """``schema_based`` or ``schema_agnostic``."""
        return (
            "schema_based"
            if self.family.startswith("schema_based")
            else "schema_agnostic"
        )

    @property
    def form(self) -> str:
        """``syntactic`` or ``semantic``."""
        return "syntactic" if self.family.endswith("syntactic") else "semantic"


def enumerate_functions(
    dataset: CleanCleanDataset,
    families: tuple[str, ...] = FAMILIES,
    schema_based_measures: tuple[str, ...] | None = None,
    ngram_models: tuple[tuple[str, int], ...] = NGRAM_MODELS,
    vector_measures: tuple[str, ...] = VECTOR_MEASURES,
    graph_measures: tuple[str, ...] = GRAPH_MEASURES,
    semantic_models: tuple[str, ...] = SEMANTIC_MODELS,
    semantic_measures: tuple[str, ...] = SEMANTIC_MEASURES,
    max_attributes: int | None = None,
) -> list[SimilarityFunctionSpec]:
    """All similarity-function specs applicable to ``dataset``."""
    return enumerate_function_specs(
        dataset.spec,
        families=families,
        schema_based_measures=schema_based_measures,
        ngram_models=ngram_models,
        vector_measures=vector_measures,
        graph_measures=graph_measures,
        semantic_models=semantic_models,
        semantic_measures=semantic_measures,
        max_attributes=max_attributes,
    )


def enumerate_function_specs(
    dataset_spec: DatasetSpec,
    families: tuple[str, ...] = FAMILIES,
    schema_based_measures: tuple[str, ...] | None = None,
    ngram_models: tuple[tuple[str, int], ...] = NGRAM_MODELS,
    vector_measures: tuple[str, ...] = VECTOR_MEASURES,
    graph_measures: tuple[str, ...] = GRAPH_MEASURES,
    semantic_models: tuple[str, ...] = SEMANTIC_MODELS,
    semantic_measures: tuple[str, ...] = SEMANTIC_MEASURES,
    max_attributes: int | None = None,
) -> list[SimilarityFunctionSpec]:
    """All similarity-function specs applicable to ``dataset_spec``.

    The schema-based families iterate the dataset's high-coverage
    attributes (``spec.schema_attributes``), exactly as the paper
    restricts schema-based settings to such attributes;
    ``max_attributes`` truncates that list for reduced-size corpora.
    Only the blueprint is needed (not the generated data), which lets
    the workbench plan work before — and without — generating datasets.
    """
    if schema_based_measures is None:
        schema_based_measures = SCHEMA_BASED_MEASURES
    specs: list[SimilarityFunctionSpec] = []
    attributes = dataset_spec.schema_attributes
    if max_attributes is not None:
        attributes = attributes[:max_attributes]

    if "schema_based_syntactic" in families:
        for attribute in attributes:
            for measure in schema_based_measures:
                specs.append(
                    SimilarityFunctionSpec(
                        family="schema_based_syntactic",
                        details={"attribute": attribute, "measure": measure},
                        name=f"sb-syn:{attribute}:{measure}",
                    )
                )

    if "schema_agnostic_syntactic" in families:
        for unit, n in ngram_models:
            for measure in vector_measures:
                specs.append(
                    SimilarityFunctionSpec(
                        family="schema_agnostic_syntactic",
                        details={
                            "model": "vector",
                            "unit": unit,
                            "n": n,
                            "measure": measure,
                        },
                        name=f"sa-syn:vec:{unit}{n}:{measure}",
                    )
                )
            for measure in graph_measures:
                specs.append(
                    SimilarityFunctionSpec(
                        family="schema_agnostic_syntactic",
                        details={
                            "model": "graph",
                            "unit": unit,
                            "n": n,
                            "measure": measure,
                        },
                        name=f"sa-syn:gra:{unit}{n}:{measure}",
                    )
                )

    if "schema_based_semantic" in families:
        for attribute in attributes:
            for model in semantic_models:
                for measure in semantic_measures:
                    specs.append(
                        SimilarityFunctionSpec(
                            family="schema_based_semantic",
                            details={
                                "attribute": attribute,
                                "model": model,
                                "measure": measure,
                            },
                            name=f"sb-sem:{attribute}:{model}:{measure}",
                        )
                    )

    if "schema_agnostic_semantic" in families:
        for model in semantic_models:
            for measure in semantic_measures:
                specs.append(
                    SimilarityFunctionSpec(
                        family="schema_agnostic_semantic",
                        details={"model": model, "measure": measure},
                        name=f"sa-sem:{model}:{measure}",
                    )
                )
    return specs


def weighting_for_measure(measure: str) -> str:
    """The vector-model weighting a vector measure consumes."""
    return "tfidf" if measure.endswith("tfidf") else "tf"


def vector_measure_matrix(left, right, measure: str) -> np.ndarray:
    """A vector measure on prebuilt :class:`VectorModel` pairs."""
    if measure == "arcs":
        return arcs_matrix(left, right)
    if measure.startswith("cosine"):
        return cosine_matrix(left, right)
    if measure == "jaccard":
        return jaccard_matrix(left, right)
    if measure.startswith("gjs"):
        return generalized_jaccard_matrix(left, right)
    raise KeyError(f"unknown vector measure {measure!r}")


def graph_measure_matrix(
    sparse_left,
    sparse_right,
    measure: str,
    ratio: np.ndarray | None = None,
    common: np.ndarray | None = None,
) -> np.ndarray:
    """A graph measure on prebuilt sparse entity-graph matrices.

    ``ratio`` / ``common`` optionally supply the pairwise ratio-sum and
    common-edge intermediates shared by Value/NormValue/Overall and
    Containment/Overall respectively.
    """
    if measure == "containment":
        return containment_matrix(sparse_left, sparse_right, common=common)
    if measure == "value":
        return value_matrix(sparse_left, sparse_right, ratio=ratio)
    if measure == "normalized_value":
        return normalized_value_matrix(
            sparse_left, sparse_right, ratio=ratio
        )
    if measure == "overall":
        return overall_matrix(
            sparse_left, sparse_right, ratio=ratio, common=common
        )
    raise KeyError(f"unknown graph measure {measure!r}")


def make_semantic_model(name: str):
    """Instantiate a semantic model of the taxonomy by name."""
    if name == "fasttext_like":
        return FastTextLikeModel()
    if name == "albert_like":
        return ContextualModel()
    raise KeyError(f"unknown semantic model {name!r}")


def semantic_matrix_from_embeddings(
    lefts: list[str],
    rights: list[str],
    measure: str,
    embeddings_left,
    embeddings_right,
    wmd_stats=None,
) -> np.ndarray:
    """A semantic measure on precomputed embeddings.

    ``embeddings_*`` are stacked text embeddings (arrays) for
    ``cosine``/``euclidean`` and per-text token-embedding matrices
    (lists of arrays) for ``wmd``.  ``lefts``/``rights`` are the source
    strings, needed for the empty-evidence convention.  ``wmd_stats``
    optionally carries the two per-text statistics lists of
    :func:`repro.embeddings.wmd.token_stats` for the ``wmd`` measure.

    The ``wmd`` measure routes through a
    :class:`~repro.pipeline.kernels.UniquePlan` over the source
    strings: duplicated texts have identical (deterministic) token
    embeddings, so each unique text pair is evaluated once and the
    result is scattered back — bit-identical to the full pair loop.
    """
    if measure == "wmd":
        stats_left, stats_right = (
            wmd_stats if wmd_stats is not None else (None, None)
        )
        plan = UniquePlan.build(lefts, rights)
        unique = word_mover_similarity_matrix(
            [embeddings_left[i] for i in plan.left_index],
            [embeddings_right[j] for j in plan.right_index],
            stats_left=(
                None
                if stats_left is None
                else [stats_left[i] for i in plan.left_index]
            ),
            stats_right=(
                None
                if stats_right is None
                else [stats_right[j] for j in plan.right_index]
            ),
        )
        result = plan.expand(unique)
    elif measure == "cosine":
        result = cosine_similarity_matrix(embeddings_left, embeddings_right)
    elif measure == "euclidean":
        result = euclidean_similarity_matrix(
            embeddings_left, embeddings_right
        )
    else:
        raise KeyError(f"unknown semantic measure {measure!r}")
    # No evidence for pairs with an empty side (mirrors the builder
    # convention of the syntactic families).
    left_empty = np.array([not text for text in lefts], dtype=bool)
    right_empty = np.array([not text for text in rights], dtype=bool)
    result[left_empty, :] = 0.0
    result[:, right_empty] = 0.0
    return result
