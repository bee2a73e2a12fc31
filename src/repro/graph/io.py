"""(De)serialization of similarity graphs.

The experiment workbench persists the generated graph corpus to disk so
that benchmark runs re-use it instead of recomputing all-pairs
similarities.  The format is a compressed ``.npz`` bundle of the edge
arrays (named after the graph kind's endpoints: ``left``/``right`` or
``u``/``v``, plus ``weight``) and a small JSON header holding the
format version, the node counts, the name and the metadata.  One
codec serves both graph kinds: a unipartite header carries
``"kind": "unipartite"``, a bipartite header no marker (its format
predates the marker), and :func:`load_graph` returns whichever kind
the header names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.graph.bipartite import SimilarityGraph
from repro.graph.core import EdgeGraph
from repro.graph.unipartite import UnipartiteGraph

__all__ = ["save_graph", "load_graph"]

_FORMAT_VERSION = 1

#: Each graph class by the ``kind`` marker of its file header.
_CLASSES: dict[str | None, type[EdgeGraph]] = {
    None: SimilarityGraph,
    "unipartite": UnipartiteGraph,
}
_KINDS = {cls: kind for kind, cls in _CLASSES.items()}


def save_graph(graph: EdgeGraph, path: str | Path | BinaryIO) -> None:
    """Write ``graph`` (either kind) to ``path`` as a compressed
    ``.npz`` bundle.

    ``path`` may also be an open binary handle, such as the temp file
    of :func:`repro.pipeline.store.atomic_write`; the caller owns its
    directory and name.
    """
    if not hasattr(path, "write"):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
    header: dict = {"version": _FORMAT_VERSION}
    kind = _KINDS[type(graph)]
    if kind is not None:
        header["kind"] = kind
    header.update(zip(graph.SIZES, graph.sizes))
    header.update(name=graph.name, metadata=graph.metadata)
    np.savez_compressed(
        path,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **dict(zip(graph.ENDS, graph.ends())),
        weight=graph.weight,
    )


def load_graph(path: str | Path) -> EdgeGraph:
    """Load a graph previously written by :func:`save_graph`, as the
    class its header names."""
    with np.load(Path(path), allow_pickle=False) as bundle:
        header = json.loads(bytes(bundle["header"]).decode("utf-8"))
        kind = header.get("kind")
        if kind not in _CLASSES:
            raise ValueError(f"unknown graph file kind: {kind!r}")
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph file version: {header.get('version')!r}"
            )
        cls = _CLASSES[kind]
        graph = cls(
            *(header[attr] for attr in cls.SIZES),
            *(bundle[attr] for attr in cls.ENDS),
            bundle["weight"],
            name=header.get("name", ""),
            validate=False,
        )
        graph.metadata = dict(header.get("metadata", {}))
    return graph
