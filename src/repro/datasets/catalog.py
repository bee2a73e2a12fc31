"""The catalog of the ten dataset profiles (Table 2 counterparts).

Each profile records the *paper's* statistics (for documentation and
the Table 2 benchmark) and a factory producing a scaled-down
:class:`~repro.datasets.generator.DatasetSpec` whose relative shape —
size ratio, duplicate-ratio category, domain, noise character —
matches the original.

Scaling: dataset sizes are multiplied by ``scale`` (default from the
``REPRO_SCALE`` environment variable, 0.08).  Because the experimental
protocol computes *all* pairwise similarities (no blocking), the
Cartesian product is additionally capped at ``REPRO_MAX_PAIRS``
(default 80,000) pairs; oversized datasets are shrunk proportionally.
Both knobs only change the amount of data, never its shape; a value
that is not a positive number raises :class:`SettingError` naming its
variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.datasets.generator import DatasetSpec
from repro.datasets.noise import NoiseConfig

__all__ = [
    "PaperDatasetStats",
    "PAPER_STATS",
    "SettingError",
    "DATASET_CODES",
    "CATEGORY_BY_DATASET",
    "DOMAIN_BY_DATASET",
    "dataset_spec",
    "default_scale",
    "default_max_pairs",
]


@dataclass(frozen=True)
class PaperDatasetStats:
    """The real dataset's characteristics as reported in Table 2."""

    code: str
    source_left: str
    source_right: str
    n_left: int
    n_right: int
    n_duplicates: int
    domain: str
    category: str  # BLC / OSD / SCR (Section 6, QE(4))


PAPER_STATS: dict[str, PaperDatasetStats] = {
    "d1": PaperDatasetStats("d1", "Rest.1", "Rest.2", 339, 2256, 89,
                            "restaurant", "SCR"),
    "d2": PaperDatasetStats("d2", "Abt", "Buy", 1076, 1076, 1076,
                            "product", "BLC"),
    "d3": PaperDatasetStats("d3", "Amazon", "Google Pr.", 1354, 3039, 1104,
                            "product", "OSD"),
    "d4": PaperDatasetStats("d4", "DBLP", "ACM", 2616, 2294, 2224,
                            "bibliographic", "BLC"),
    "d5": PaperDatasetStats("d5", "IMDb", "TMDb", 5118, 6056, 1968,
                            "movie", "SCR"),
    "d6": PaperDatasetStats("d6", "IMDb", "TVDB", 5118, 7810, 1072,
                            "movie", "SCR"),
    "d7": PaperDatasetStats("d7", "TMDb", "TVDB", 6056, 7810, 1095,
                            "movie", "SCR"),
    "d8": PaperDatasetStats("d8", "Walmart", "Amazon", 2554, 22074, 853,
                            "product", "SCR"),
    "d9": PaperDatasetStats("d9", "DBLP", "Scholar", 2516, 61353, 2308,
                            "bibliographic", "OSD"),
    "d10": PaperDatasetStats("d10", "IMDb", "DBpedia", 27615, 23182, 22863,
                             "movie", "BLC"),
}

DATASET_CODES: tuple[str, ...] = tuple(PAPER_STATS)

CATEGORY_BY_DATASET: dict[str, str] = {
    code: stats.category for code, stats in PAPER_STATS.items()
}

DOMAIN_BY_DATASET: dict[str, str] = {
    code: stats.domain for code, stats in PAPER_STATS.items()
}

#: The high-coverage, high-distinctiveness attributes per dataset used
#: by the schema-based settings (Section 5; adapted to the synthetic
#: attribute schemas of each domain).
SCHEMA_ATTRIBUTES: dict[str, tuple[str, ...]] = {
    "d1": ("name", "phone"),
    "d2": ("name",),
    "d3": ("title",),
    "d4": ("title", "authors"),
    "d5": ("title", "name"),
    "d6": ("title", "name"),
    "d7": ("name", "title"),
    "d8": ("title", "name"),
    "d9": ("title", "abstract"),
    "d10": ("title",),
}

# Per-dataset noise character, mirroring the paper's discussion in the
# per-dataset trade-off analysis (Section 3.3 of the appendix):
# d4/d9 suffer misplaced values, d5-d7 missing values, d8 is "highly
# noisy", d10 has "the highest portion of missing values".
_LIGHT = NoiseConfig(typo_rate=0.01, token_drop_rate=0.03,
                     token_shuffle_prob=0.02, abbreviation_prob=0.01,
                     missing_value_rate=0.03)
_MODERATE = NoiseConfig(typo_rate=0.02, token_drop_rate=0.10,
                        token_shuffle_prob=0.05, abbreviation_prob=0.03,
                        missing_value_rate=0.08)
_HEAVY = NoiseConfig(typo_rate=0.04, token_drop_rate=0.18,
                     token_shuffle_prob=0.10, abbreviation_prob=0.05,
                     missing_value_rate=0.15)

_NOISE_BY_DATASET: dict[str, tuple[NoiseConfig, NoiseConfig]] = {
    "d1": (_LIGHT, _LIGHT),
    "d2": (_MODERATE, _MODERATE),
    "d3": (_MODERATE, _HEAVY),
    "d4": (
        _LIGHT,
        NoiseConfig(typo_rate=0.01, token_drop_rate=0.03,
                    token_shuffle_prob=0.02, abbreviation_prob=0.05,
                    missing_value_rate=0.03, misplaced_value_rate=0.20,
                    protected_attributes=("title",)),
    ),
    "d5": (
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.08,
                    token_shuffle_prob=0.05, abbreviation_prob=0.02,
                    missing_value_rate=0.25, protected_attributes=("title",)),
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.08,
                    token_shuffle_prob=0.05, abbreviation_prob=0.02,
                    missing_value_rate=0.25, protected_attributes=("title",)),
    ),
    "d6": (
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.08,
                    token_shuffle_prob=0.05, abbreviation_prob=0.02,
                    missing_value_rate=0.20, protected_attributes=("title",)),
        NoiseConfig(typo_rate=0.03, token_drop_rate=0.12,
                    token_shuffle_prob=0.06, abbreviation_prob=0.03,
                    missing_value_rate=0.30, protected_attributes=("title",)),
    ),
    "d7": (
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.10,
                    token_shuffle_prob=0.05, abbreviation_prob=0.02,
                    missing_value_rate=0.25, protected_attributes=("title",)),
        NoiseConfig(typo_rate=0.03, token_drop_rate=0.12,
                    token_shuffle_prob=0.06, abbreviation_prob=0.03,
                    missing_value_rate=0.30, protected_attributes=("title",)),
    ),
    "d8": (_HEAVY, _HEAVY),
    "d9": (
        _LIGHT,
        NoiseConfig(typo_rate=0.03, token_drop_rate=0.12,
                    token_shuffle_prob=0.08, abbreviation_prob=0.06,
                    missing_value_rate=0.12, misplaced_value_rate=0.25,
                    protected_attributes=("title",)),
    ),
    "d10": (
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.08,
                    token_shuffle_prob=0.05, abbreviation_prob=0.02,
                    missing_value_rate=0.35, protected_attributes=("title",)),
        NoiseConfig(typo_rate=0.02, token_drop_rate=0.10,
                    token_shuffle_prob=0.05, abbreviation_prob=0.03,
                    missing_value_rate=0.35, protected_attributes=("title",)),
    ),
}

# Schema heterogeneity: one side of some datasets lacks attributes the
# other provides (cf. the differing |A_1| / |A_2| of Table 2).
_ASYMMETRY: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # (left_only_attributes, right_only_attributes) to *exclude* from
    # the opposite side.
    "d3": ((), ("category",)),
    "d5": ((), ("actors",)),
    "d6": (("actors",), ()),
    "d9": ((), ("abstract",)),
    "d10": (("genre",), ()),
}


class SettingError(ValueError):
    """An environment setting holds a value it cannot take."""


def default_scale() -> float:
    """Dataset scale factor, from ``REPRO_SCALE`` (default 0.08)."""
    text = os.environ.get("REPRO_SCALE", "0.08")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not scale > 0:  # ``not`` of the comparison also rejects NaN
        raise SettingError(
            f"REPRO_SCALE must be a positive number, got {text!r}"
        )
    return scale


def default_max_pairs() -> int:
    """Cartesian-product cap, from ``REPRO_MAX_PAIRS`` (default 80,000)."""
    text = os.environ.get("REPRO_MAX_PAIRS", "80000")
    try:
        max_pairs = int(text)
    except ValueError:
        max_pairs = 0
    if max_pairs < 1:
        raise SettingError(
            f"REPRO_MAX_PAIRS must be a positive integer, got {text!r}"
        )
    return max_pairs


def dataset_spec(
    code: str,
    scale: float | None = None,
    max_pairs: int | None = None,
) -> DatasetSpec:
    """The scaled :class:`DatasetSpec` for dataset ``code``."""
    code = code.lower()
    if code not in PAPER_STATS:
        known = ", ".join(DATASET_CODES)
        raise KeyError(f"unknown dataset {code!r}; known: {known}")
    if scale is None:
        scale = default_scale()
    if max_pairs is None:
        max_pairs = default_max_pairs()
    if not scale > 0:  # ``not`` of the comparison also rejects NaN
        raise ValueError(f"scale must be positive, got {scale!r}")
    if max_pairs <= 0:
        raise ValueError("max_pairs must be positive")

    stats = PAPER_STATS[code]
    effective = scale
    if (stats.n_left * scale) * (stats.n_right * scale) > max_pairs:
        effective = math.sqrt(max_pairs / (stats.n_left * stats.n_right))

    n_left = max(int(round(stats.n_left * effective)), 10)
    n_right = max(int(round(stats.n_right * effective)), 10)
    n_duplicates = int(round(stats.n_duplicates * effective))
    n_duplicates = min(max(n_duplicates, 5), n_left, n_right)

    noise_left, noise_right = _NOISE_BY_DATASET[code]
    left_only, right_only = _ASYMMETRY.get(code, ((), ()))
    return DatasetSpec(
        code=code,
        domain=stats.domain,
        n_left=n_left,
        n_right=n_right,
        n_duplicates=n_duplicates,
        noise_left=noise_left,
        noise_right=noise_right,
        schema_attributes=SCHEMA_ATTRIBUTES[code],
        left_only_attributes=left_only,
        right_only_attributes=right_only,
    )
