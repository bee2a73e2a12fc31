"""The shipped package: one metadata file, numpy and scipy at run time.

networkx is a test dependency only (the frozen dirty-ER oracles under
``tests/oracles`` run on it), and the oracles themselves are test code.
A fresh interpreter that can import neither networkx nor the ``tests``
package must still load every entry point, cluster with all four
dirty-ER algorithms, batch and streamed, score all 16 schema-based
measures and build the vector models and entity graphs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WITHOUT_NETWORKX = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = None  # every import of it now fails
    sys.modules["tests"] = None  # and so does every import of an oracle

    import repro.cli
    import repro.experiments.runner
    import repro.pipeline.streaming
    import repro.service.app
    import repro.extensions
    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, DirtyClusterer
    from repro.graph.unipartite import UnipartiteGraph
    from repro.ngramgraph import containment_matrix, entity_graph_matrices
    from repro.pipeline.batched_strings import (
        SCHEMA_BASED_MEASURES,
        StringBatch,
        schema_based_rows,
    )
    from repro.pipeline.streaming import replay_stream
    from repro.vectorspace import build_vector_models, cosine_matrix

    edges = [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.8), (2, 3, 0.4)]
    graph = UnipartiteGraph.from_edges(5, edges)
    for code in DIRTY_ALGORITHM_CODES:
        clusters = DirtyClusterer(code).cluster(graph, 0.5)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4]], code
    streamed = replay_stream(
        ["golden dragon", "blue whale", "golden dragon inn",
         "blue whale cafe", "red fox"],
        measure="jaccard",
        blocking="tokens",
        threshold=0.5,
        batch_size=2,
    ).partitions()
    assert sorted(streamed) == sorted(DIRTY_ALGORITHM_CODES)
    for code, clusters in streamed.items():
        assert clusters == [(0, 2), (1, 3), (4,)], code
    strings = StringBatch(["golden dragon", ""], ["golden dragoon", "inn"])
    for measure in SCHEMA_BASED_MEASURES:
        scores = schema_based_rows(strings, measure)
        assert scores.shape == (2, 2) and scores[0, 0] > 0, measure
        assert not scores[1].any(), measure
    texts = (["golden dragon inn", ""], ["golden dragoon", "inn"])
    for weighting in ("tf", "tfidf"):
        left, right = build_vector_models(*texts, 2, "char", weighting)
        assert left.vocabulary is right.vocabulary, weighting
        assert cosine_matrix(left, right)[0, 0] > 0, weighting
    graphs = entity_graph_matrices(
        [[text] for text in texts[0]], [[text] for text in texts[1]], 3
    )
    assert containment_matrix(*graphs)[0, 0] > 0
    print("ok")
    """
)


def test_package_runs_without_networkx():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_pyproject_is_the_only_metadata():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        for requirement in project["dependencies"]
    }
    assert names == {"numpy", "scipy"}
    # The version is read from repro.__version__, not written twice.
    assert "version" not in project
    assert "version" in project["dynamic"]
    assert not (ROOT / "setup.py").exists()
