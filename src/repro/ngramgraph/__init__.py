"""N-gram graph models — Appendix B.2.2 (JInsect substitute).

An entity value becomes an undirected graph whose nodes are character
or token n-grams and whose edges connect grams co-occurring within a
window of size ``n``, weighted by co-occurrence frequency.  Value
graphs are merged into one entity graph with the update (running
average) operator.  Four graph similarities are defined: Containment,
Value, Normalized Value and Overall.

For the all-pairs experimental protocol the graphs are flattened into
sparse vectors over an *edge vocabulary*, which turns the graph
measures into the same kind of sparse linear algebra the vector models
use.  The same first-occurrence encoder numbers both vocabularies
(:func:`repro.vectorspace.profiles.count_matrices`: edges in the order
they are first seen, left collection first).
"""

from repro.ngramgraph.measures import (
    common_edge_matrix,
    containment_matrix,
    normalized_value_matrix,
    overall_matrix,
    pairwise_ratio_sum,
    value_matrix,
)
from repro.ngramgraph.model import (
    NGramGraph,
    build_entity_graphs,
    build_value_graph,
    entity_graph_matrices,
    graphs_to_sparse,
    merge_graphs,
)

__all__ = [
    "NGramGraph",
    "build_value_graph",
    "merge_graphs",
    "build_entity_graphs",
    "graphs_to_sparse",
    "entity_graph_matrices",
    "containment_matrix",
    "value_matrix",
    "normalized_value_matrix",
    "overall_matrix",
    "common_edge_matrix",
    "pairwise_ratio_sum",
]
