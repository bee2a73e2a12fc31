"""Movie linkage at scale: scarce collections and the speed/quality axis.

An IMDb-TMDb style scenario (the paper's D5): two large movie
catalogues where only a minority of entries match ("scarce"
collections).  This example runs a miniature version of the paper's
efficiency study:

1. builds one similarity graph per size step (scaling the dataset);
2. times every algorithm at its optimal threshold;
3. prints the runtime-vs-size series (Figure 4 in miniature) and the
   F1/runtime trade-off (Figure 5 in miniature), including the exact
   Hungarian oracle the paper excludes for its cubic complexity.

Run:  python examples/movie_linkage.py
"""

from __future__ import annotations

import time

from repro.datasets import dataset_spec, generate_dataset
from repro.evaluation import threshold_sweep
from repro.evaluation.report import render_table
from repro.matching import create_matcher, paper_matchers
from repro.pipeline import SimilarityEngine, pairs_to_graph
from repro.pipeline.similarity_functions import SimilarityFunctionSpec

SIZE_STEPS = (0.02, 0.04, 0.08)

COSINE_SPEC = SimilarityFunctionSpec(
    family="schema_agnostic_syntactic",
    details={"model": "vector", "unit": "char", "n": 3,
             "measure": "cosine_tfidf"},
    name="char3 cosine tf-idf",
)


def build_graph(scale: float):
    dataset = generate_dataset(
        dataset_spec("d5", scale=scale, max_pairs=150_000), seed=42
    )
    [scores] = SimilarityEngine(dataset).score([COSINE_SPEC])
    graph = pairs_to_graph(
        len(dataset.left), len(dataset.right), *scores.edges
    )
    return dataset, graph


def main() -> None:
    matchers = paper_matchers(bah_max_moves=2_000, bah_time_limit=2.0)

    print("Scalability (runtime in ms at the optimal threshold):")
    scalability_rows = []
    last = None
    for scale in SIZE_STEPS:
        dataset, graph = build_graph(scale)
        row: list[object] = [f"{graph.n_edges:,}"]
        for code, matcher in matchers.items():
            sweep = threshold_sweep(matcher, graph, dataset.ground_truth)
            row.append(f"{1000 * sweep.best_seconds:.1f}")
        scalability_rows.append(row)
        last = (dataset, graph)
    print(
        render_table(
            ["edges", *matchers.keys()],
            scalability_rows,
            title="Figure 4 in miniature (IMDb-TMDb counterpart)",
        )
    )

    dataset, graph = last
    print(
        f"\nTrade-off on the largest graph ({graph.n_edges:,} edges, "
        f"{dataset.n_duplicates} true matches):"
    )
    tradeoff_rows = []
    for code, matcher in matchers.items():
        sweep = threshold_sweep(matcher, graph, dataset.ground_truth)
        tradeoff_rows.append(
            [
                code,
                f"{sweep.best_scores.f_measure:.3f}",
                f"{1000 * sweep.best_seconds:.1f}",
                f"{sweep.best_threshold:.2f}",
            ]
        )
    # The exact oracle, for scale: cubic, but optimal in weight.
    hungarian = create_matcher("HUN")
    start = time.perf_counter()
    result = hungarian.match(graph, 0.5)
    elapsed = time.perf_counter() - start
    from repro.evaluation import evaluate_pairs

    scores = evaluate_pairs(result.pairs, dataset.ground_truth)
    tradeoff_rows.append(
        ["HUN*", f"{scores.f_measure:.3f}", f"{1000 * elapsed:.1f}", "0.50"]
    )
    print(
        render_table(
            ["alg", "F1", "ms", "t*"],
            tradeoff_rows,
            title="Figure 5 in miniature (* = exact oracle, excluded by "
                  "the paper)",
        )
    )


if __name__ == "__main__":
    main()
