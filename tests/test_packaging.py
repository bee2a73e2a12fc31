"""The shipped package: one metadata file, numpy and scipy at run time.

networkx is a test dependency only (the frozen dirty-ER oracles under
``tests/oracles`` run on it).  A fresh interpreter that cannot import
networkx must still load every entry point and cluster with all four
dirty-ER algorithms, batch and incremental.
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

    import repro.cli
    import repro.experiments.runner
    import repro.pipeline.streaming
    import repro.service.app
    import repro.extensions
    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, DirtyClusterer
    from repro.extensions.incremental import IncrementalClusterer
    from repro.graph.unipartite import UnipartiteGraph

    edges = [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.8), (2, 3, 0.4)]
    graph = UnipartiteGraph.from_edges(5, edges)
    for code in DIRTY_ALGORITHM_CODES:
        clusterer = DirtyClusterer(code)
        batch = clusterer.cluster(graph, 0.5)
        maintained = IncrementalClusterer(
            clusterer, graph.compiled(), 0.5
        ).partition()
        for clusters in (batch, maintained):
            assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4]], code
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
