"""Table 7: bipartite matching vs the state-of-the-art stand-ins.

The paper pits UMC over schema-agnostic TF-IDF cosine graphs (the
best n-gram model and threshold per dataset) against ZeroER
(unsupervised) and DITTO (supervised deep learning) on D2-D5.  This
driver reproduces the comparison with the offline stand-ins of
:mod:`repro.baselines`:

* UMC sweeps the TF-IDF cosine graphs of every n-gram model (scored
  by one :class:`~repro.pipeline.engine.SimilarityEngine` per dataset)
  and keeps the best (model, threshold) pair, exactly the two free
  parameters the paper tunes;
* the ZeroER-like matcher runs unsupervised on the same graphs;
* the learned matcher trains on half the ground truth (DITTO's
  labelled-data advantage) and is evaluated on the full task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.learned import LearnedMatcher, stack_feature_matrices
from repro.baselines.zeroer_like import ZeroERLikeMatcher
from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import generate_dataset
from repro.evaluation.metrics import evaluate_pairs
from repro.evaluation.sweep import threshold_sweep
from repro.matching import UniqueMappingClustering
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.similarity_functions import (
    NGRAM_MODELS,
    SimilarityFunctionSpec,
)

__all__ = ["SotaComparison", "run_sota_comparison"]

#: The paper's Table 7 datasets.
TABLE7_DATASETS = ("d2", "d3", "d4", "d5")


@dataclass(frozen=True)
class SotaComparison:
    """One Table 7 row."""

    dataset: str
    zeroer_f1: float
    learned_f1: float
    umc_f1: float
    umc_model: str  # best n-gram model, e.g. "char2"
    umc_threshold: float


def _tfidf_cosine_spec(unit: str, n: int) -> SimilarityFunctionSpec:
    return SimilarityFunctionSpec(
        family="schema_agnostic_syntactic",
        details={
            "model": "vector",
            "unit": unit,
            "n": n,
            "measure": "cosine_tfidf",
        },
        name=f"sa-syn:vec:{unit}{n}:cosine_tfidf",
    )


def run_sota_comparison(
    datasets: tuple[str, ...] = TABLE7_DATASETS,
    scale: float | None = None,
    max_pairs: int | None = None,
    seed: int = 42,
    ngram_models: tuple[tuple[str, int], ...] = NGRAM_MODELS,
    training_fraction: float = 0.5,
) -> list[SotaComparison]:
    """Run the Table 7 comparison on the given dataset profiles."""
    rows: list[SotaComparison] = []
    for code in datasets:
        dataset = generate_dataset(
            dataset_spec(code, scale=scale, max_pairs=max_pairs), seed=seed
        )
        scores = SimilarityEngine(dataset).score(
            [_tfidf_cosine_spec(unit, n) for unit, n in ngram_models]
        )
        graphs = {
            f"{unit}{n}": pairs_to_graph(
                len(dataset.left),
                len(dataset.right),
                *spec_scores.edges,
                name=f"{code}:{unit}{n}:cosine_tfidf",
            )
            for (unit, n), spec_scores in zip(ngram_models, scores)
        }

        # UMC: best (model, threshold) pair over the TF-IDF cosine graphs.
        best_f1, best_model, best_threshold = 0.0, "", 0.0
        umc = UniqueMappingClustering()
        for model, graph in graphs.items():
            sweep = threshold_sweep(umc, graph, dataset.ground_truth)
            if sweep.best_scores.f_measure > best_f1:
                best_f1 = sweep.best_scores.f_measure
                best_model = model
                best_threshold = sweep.best_threshold

        # ZeroER-like: unsupervised on the same family of graphs; it
        # gets the same model-selection freedom (best graph by F1).
        zeroer_f1 = 0.0
        for graph in graphs.values():
            result = ZeroERLikeMatcher(seed=seed).match(graph, 0.0)
            scores = evaluate_pairs(result.pairs, dataset.ground_truth)
            zeroer_f1 = max(zeroer_f1, scores.f_measure)

        # Learned: trains on half the matches over stacked features.
        features = stack_feature_matrices(list(graphs.values()))
        matches = sorted(dataset.ground_truth)
        n_train = max(1, int(len(matches) * training_fraction))
        training = set(matches[:n_train])
        learned = LearnedMatcher(seed=seed).fit(features, training)
        predicted = learned.predict(features)
        learned_scores = evaluate_pairs(
            predicted.pairs, dataset.ground_truth
        )

        rows.append(
            SotaComparison(
                dataset=code,
                zeroer_f1=zeroer_f1,
                learned_f1=learned_scores.f_measure,
                umc_f1=best_f1,
                umc_model=best_model,
                umc_threshold=best_threshold,
            )
        )
    return rows
