"""Bibliographic linkage: DBLP-ACM style misplaced-value noise.

The paper singles out the bibliographic datasets (D4, D9) for their
*misplaced values* — author names leaking into titles — which defeat
schema-based similarity.  This example reproduces that finding: the
schema-based title graph loses to the schema-agnostic graph that sees
every attribute value, exactly the paper's explanation for D4.

It also demonstrates the statistical machinery: a Friedman/Nemenyi
analysis over the per-graph F1 samples of the eight algorithms.

Run:  python examples/publication_dedup.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets import dataset_spec, generate_dataset
from repro.evaluation import threshold_sweep
from repro.evaluation.stats import friedman_test, nemenyi_diagram
from repro.matching import paper_matchers
from repro.matching.registry import PAPER_ALGORITHM_CODES
from repro.pipeline import SimilarityEngine, pairs_to_graph
from repro.pipeline.similarity_functions import (
    SimilarityFunctionSpec,
    enumerate_functions,
)


def build_graph(engine, spec):
    """``spec``'s similarity graph: its positive scores as edges."""
    [scores] = engine.score([spec])
    return pairs_to_graph(*engine.shape(), *scores.edges)


def main() -> None:
    dataset = generate_dataset(dataset_spec("d4"), seed=42)
    print(
        f"DBLP-ACM counterpart: {len(dataset.left)} x "
        f"{len(dataset.right)} publications, "
        f"{dataset.n_duplicates} true matches\n"
    )

    # --- The misplaced-value effect -------------------------------
    schema_based = SimilarityFunctionSpec(
        family="schema_based_syntactic",
        details={"attribute": "title", "measure": "cosine_tokens"},
        name="title-only cosine",
    )
    schema_agnostic = SimilarityFunctionSpec(
        family="schema_agnostic_syntactic",
        details={"model": "vector", "unit": "token", "n": 1,
                 "measure": "cosine_tfidf"},
        name="all-attributes cosine",
    )
    # One engine shares the n-gram models and profiles across specs.
    engine = SimilarityEngine(dataset)
    matchers = paper_matchers(bah_max_moves=1_000, bah_time_limit=2.0)
    umc = matchers["UMC"]
    for spec in (schema_based, schema_agnostic):
        graph = build_graph(engine, spec)
        sweep = threshold_sweep(umc, graph, dataset.ground_truth)
        print(
            f"UMC on {spec.name:>22}: F1 = "
            f"{sweep.best_scores.f_measure:.3f} "
            f"(t* = {sweep.best_threshold:.2f}, m = {graph.n_edges})"
        )
    print(
        "\nThe schema-agnostic graph absorbs the misplaced authors "
        "inherently\n(the paper's explanation for D4/D9).\n"
    )

    # --- Statistical comparison across many graphs ----------------
    specs = enumerate_functions(
        dataset,
        families=("schema_agnostic_syntactic",),
        ngram_models=(("char", 3), ("token", 1)),
    )
    scores = []
    for spec in specs:
        graph = build_graph(engine, spec)
        row = []
        for code in PAPER_ALGORITHM_CODES:
            sweep = threshold_sweep(
                matchers[code], graph, dataset.ground_truth
            )
            row.append(sweep.best_scores.f_measure)
        scores.append(row)
    scores = np.array(scores)

    result = friedman_test(scores)
    print(
        f"Friedman test over {len(specs)} schema-agnostic graphs: "
        f"chi2 = {result.statistic:.1f}, p = {result.p_value:.2e}, "
        f"significant = {result.rejected}"
    )
    print(nemenyi_diagram(list(PAPER_ALGORITHM_CODES), scores))


if __name__ == "__main__":
    main()
