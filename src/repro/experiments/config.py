"""Experiment configurations.

``DEFAULT_BENCH_CONFIG`` is the laptop-scale counterpart of the
paper's full protocol: all ten datasets, all four input families, a
reduced but representative similarity-function taxonomy, and BAH
budgets scaled from the paper's (10,000 steps / 2 minutes) to keep the
stochastic search meaningful without dominating the wall clock.

``SMOKE_CONFIG`` is the tiny profile used by integration tests.

Environment knobs: ``REPRO_SCALE`` / ``REPRO_MAX_PAIRS`` resize the
datasets (see :mod:`repro.datasets.catalog`), ``REPRO_CACHE`` moves
the cache directory (default ``.repro_cache/`` in the working
directory).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.evaluation.sweep import DEFAULT_THRESHOLD_GRID
from repro.graph.selection import check_non_negative_int, check_threshold
from repro.pipeline.workbench import GraphCorpusConfig

__all__ = [
    "ExperimentConfig",
    "DEFAULT_BENCH_CONFIG",
    "SMOKE_CONFIG",
    "default_cache_dir",
]


def default_cache_dir() -> Path:
    """Cache directory, from ``REPRO_CACHE`` (default .repro_cache)."""
    return Path(os.environ.get("REPRO_CACHE", ".repro_cache"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full protocol configuration: corpus + sweep + BAH budgets.

    Construction checks the sweep and BAH settings, so a bad value
    fails here, before any corpus is built or journal written, with a
    :class:`ValueError` naming the field: every ``grid`` point must be
    a number (not NaN), ``bah_max_moves`` and ``bah_seed``
    non-negative integers, and ``bah_time_limit`` positive.
    """

    corpus: GraphCorpusConfig = field(default_factory=GraphCorpusConfig)
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
    bah_max_moves: int = 2_000
    bah_time_limit: float = 2.0
    bah_seed: int = 42
    apply_noise_filter: bool = True
    apply_duplicate_filter: bool = True

    def __post_init__(self) -> None:
        for point in self.grid:
            try:
                check_threshold(point)
            except ValueError as error:
                raise ValueError(f"grid: {error}") from None
        check_non_negative_int("bah_max_moves", self.bah_max_moves)
        check_non_negative_int("bah_seed", self.bah_seed)
        # ``not >`` also rejects NaN, as BAH itself does.
        if not self.bah_time_limit > 0:
            raise ValueError(
                "bah_time_limit must be positive, got "
                f"{self.bah_time_limit!r}"
            )

    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "corpus": self.corpus.cache_key(),
                "grid": self.grid,
                "bah": [self.bah_max_moves, self.bah_time_limit,
                        self.bah_seed],
                "filters": [self.apply_noise_filter,
                            self.apply_duplicate_filter],
            },
            sort_keys=True,
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=8
        ).hexdigest()


#: Laptop-scale default: every dataset, every family, a representative
#: slice of the similarity-function taxonomy (6 schema-based measures,
#: 2 n-gram models, all vector measures, 2 graph measures, both
#: semantic models with all 3 measures, first schema attribute only).
DEFAULT_BENCH_CONFIG = ExperimentConfig(
    corpus=GraphCorpusConfig(
        scale=0.05,
        max_pairs=20_000,
        schema_based_measures=(
            "levenshtein",
            "jaro",
            "qgrams",
            "cosine_tokens",
            "jaccard",
            "monge_elkan",
        ),
        ngram_models=(("char", 3), ("token", 1)),
        graph_measures=("containment", "overall"),
        max_attributes=1,
    ),
)

#: Tiny profile for integration tests: two datasets, a handful of
#: functions, reduced sweep budgets.
SMOKE_CONFIG = ExperimentConfig(
    corpus=GraphCorpusConfig(
        datasets=("d1", "d2"),
        scale=0.03,
        max_pairs=4_000,
        schema_based_measures=("levenshtein", "jaccard"),
        ngram_models=(("token", 1),),
        vector_measures=("cosine_tfidf", "jaccard"),
        graph_measures=("containment",),
        semantic_models=("fasttext_like",),
        semantic_measures=("cosine",),
        max_attributes=1,
    ),
    bah_max_moves=300,
    bah_time_limit=1.0,
)
