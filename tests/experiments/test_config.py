"""``ExperimentConfig`` rejects bad sweep and BAH settings when built.

A bad grid point or BAH budget used to surface only inside the first
sweep task, after the corpus was built and a journal written, and the
resilient pool retried that deterministic ``ValueError`` twice before
the run died.  Construction now fails at once, naming the field.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import SMOKE_CONFIG, ExperimentConfig, run_experiments

BAD_VALUES = [
    ("grid", (0.5, math.nan)),
    ("grid", (math.nan,)),
    ("bah_max_moves", -1),
    ("bah_max_moves", 1.5),
    ("bah_max_moves", None),
    ("bah_max_moves", True),
    ("bah_seed", None),
    ("bah_seed", -1),
    ("bah_seed", 2.0),
    ("bah_seed", "7"),
    ("bah_time_limit", 0),
    ("bah_time_limit", -1.0),
    ("bah_time_limit", math.nan),
]


@pytest.mark.parametrize(
    "field, value", BAD_VALUES, ids=[f"{f}={v!r}" for f, v in BAD_VALUES]
)
def test_bad_value_fails_before_any_work(field, value, tmp_path):
    with pytest.raises(ValueError, match=field):
        run_experiments(
            dataclasses.replace(SMOKE_CONFIG, **{field: value}),
            cache_dir=tmp_path,
        )
    # No corpus, results cache or journal was written.
    assert list(tmp_path.iterdir()) == []


def test_boundary_values_are_valid():
    ExperimentConfig()
    dataclasses.replace(SMOKE_CONFIG, bah_max_moves=0, bah_seed=0)
    dataclasses.replace(SMOKE_CONFIG, bah_seed=np.int64(7), grid=(0.0, 1.0))
