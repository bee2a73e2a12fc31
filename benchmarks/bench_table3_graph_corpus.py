"""Table 3 — number of similarity graphs and average edges per dataset.

Aggregates the generated corpus exactly like the paper's Table 3:
per dataset and input family, the number of retained graphs |G|, the
average edge count |E| and its ratio to the Cartesian product.  The
benchmark measures building one schema-agnostic TF-IDF cosine graph
end to end (the workhorse similarity function of the corpus) through
the frozen direct path in ``tests/oracles/similarity.py``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
from conftest import save_report

# The frozen oracles are the tests.oracles package under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.datasets import dataset_spec, generate_dataset
from repro.evaluation.report import render_table
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from tests.oracles.similarity import compute_similarity_matrix, matrix_to_graph

FAMILY_SHORT = {
    "schema_based_syntactic": "sb-syn",
    "schema_agnostic_syntactic": "sa-syn",
    "schema_based_semantic": "sb-sem",
    "schema_agnostic_semantic": "sa-sem",
}


def _build_cosine_graph():
    dataset = generate_dataset(dataset_spec("d2"), seed=42)
    spec = SimilarityFunctionSpec(
        family="schema_agnostic_syntactic",
        details={"model": "vector", "unit": "char", "n": 3,
                 "measure": "cosine_tfidf"},
        name="sa-syn:vec:char3:cosine_tfidf",
    )
    matrix = compute_similarity_matrix(dataset, spec)
    return matrix_to_graph(matrix)


def test_table3_corpus_statistics(benchmark, experiment_results):
    graph = benchmark(_build_cosine_graph)
    assert graph.n_edges > 0

    grouped: dict[tuple[str, str], list] = defaultdict(list)
    for result in experiment_results:
        grouped[(result.dataset, result.family)].append(result)

    datasets = sorted({r.dataset for r in experiment_results},
                      key=lambda c: int(c[1:]))
    families = [f for f in FAMILY_SHORT if any(
        (d, f) in grouped for d in datasets)]
    rows = []
    for dataset in datasets:
        row: list[object] = [dataset]
        for family in families:
            group = grouped.get((dataset, family))
            if not group:
                row.extend(["-", "-"])
                continue
            edges = np.array([r.n_edges for r in group])
            ratio = np.mean([r.normalized_size for r in group])
            row.append(len(group))
            row.append(f"{edges.mean():,.0f} ({100 * ratio:.1f}%)")
        rows.append(row)

    headers = ["ds"]
    for family in families:
        headers.extend([f"{FAMILY_SHORT[family]} |G|",
                        f"{FAMILY_SHORT[family]} |E| (%)"])
    table = render_table(
        headers, rows,
        title=(
            "Table 3 — retained graphs and average edges per dataset "
            f"(total |G| = {len(experiment_results)})"
        ),
    )
    save_report("table3_graph_corpus", table)
