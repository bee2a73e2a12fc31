"""Schema-agnostic n-gram vector ("bag") models — Appendix B.2.1.

An entity is represented as a sparse vector over the distinct character
or token n-grams of the collection pair, weighted by TF or TF-IDF.  Six
similarity measures are defined on these models (ARCS, Jaccard, Cosine
and Generalized Jaccard with TF or TF-IDF weights); combined with the
six representation models (character n in {2,3,4}, token n in {1,2,3})
they yield the paper's 36 vector-based similarity functions.

All measures are computed *all-pairs* as dense ``n1 x n2`` matrices via
sparse linear algebra, which is what makes the no-blocking experimental
protocol feasible.

:mod:`repro.vectorspace.profiles` numbers every profile vocabulary of
the package, these grams included.
"""

from repro.vectorspace.measures import (
    arcs_matrix,
    cosine_matrix,
    generalized_jaccard_matrix,
    jaccard_matrix,
)
from repro.vectorspace.ngram_vector import (
    ProfileSpace,
    VectorModel,
    build_profile_space,
    build_vector_models,
    ngram_profiles,
)

__all__ = [
    "VectorModel",
    "ProfileSpace",
    "build_profile_space",
    "build_vector_models",
    "ngram_profiles",
    "cosine_matrix",
    "jaccard_matrix",
    "generalized_jaccard_matrix",
    "arcs_matrix",
]
