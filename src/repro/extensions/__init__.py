"""Extensions beyond the paper's evaluated scope.

The paper's related-work section describes algorithms it deliberately
leaves out of the CCER evaluation; this package implements them:

* :mod:`repro.extensions.dirty_er` — clustering algorithms for *Dirty
  ER* (a single collection with internal duplicates, clusters of any
  size): Connected Components, Maximum Clique Clustering, Extended
  Maximum Clique Clustering and Global Edge Consistency Gain;
* :mod:`repro.extensions.qlearning` — the reinforcement-learning
  bipartite matcher of Wang et al. (state ``(|L|, |R|)``, reward = sum
  of selected edge weights) that the paper flags as future work,
  implemented as tabular Q-learning over the greedy edge stream.
"""

from repro.extensions.dirty_er import (
    DIRTY_ALGORITHM_CODES,
    DirtyClusterer,
    connected_components_clusters,
    create_clusterer,
    extended_maximum_clique_clustering,
    global_edge_consistency_gain,
    maximum_clique_clustering,
)
from repro.extensions.qlearning import QLearningMatcher

__all__ = [
    "DirtyClusterer",
    "DIRTY_ALGORITHM_CODES",
    "create_clusterer",
    "connected_components_clusters",
    "maximum_clique_clustering",
    "extended_maximum_clique_clustering",
    "global_edge_consistency_gain",
    "QLearningMatcher",
]
