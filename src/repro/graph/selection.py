"""The single home of the library's threshold-selection convention.

The paper's algorithms disagree on the boundary case: most pseudocode
keeps edges with ``sim > t`` (strict), while CNC's Algorithm 2 prunes
``sim < t`` (i.e. keeps ``sim >= t``) and RCA filters its assignment
with ``sim >= t`` at the very end.  Before this module, every call
site hand-rolled its own mask and the convention could drift silently;
now ``prune`` and the compiled prefix slicing of ``select``, written
once in :mod:`repro.graph.core` for both graph kinds, resolve the
comparison here.

A NaN threshold selects nothing under either comparison and would
cache under a key that never hits again, so both helpers reject it
with a :class:`ValueError` that names the threshold.  The same check,
:func:`check_threshold`, guards every matcher entry point, including
the kernels that never take a selection.  Its sibling
:func:`check_non_negative_int` is the one check of the integer budgets
and counts (BAH's moves and seed, GECG's flips, grown node counts).

Two equivalent selection forms are provided:

* :func:`selection_mask` — a boolean mask over an arbitrary weight
  array (the legacy form, one O(m) pass per call);
* :func:`prefix_length` — the number of selected edges given weights
  sorted *ascending*, so that on a descending-sorted edge permutation
  the selection is the O(log m) prefix ``[0:k)``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "check_non_negative_int",
    "check_threshold",
    "selection_mask",
    "prefix_length",
]


def selection_mask(
    weights: np.ndarray, threshold: float, inclusive: bool = False
) -> np.ndarray:
    """Boolean mask of the edges selected at ``threshold``.

    ``inclusive=False`` (the default) keeps ``weight > threshold``;
    ``inclusive=True`` keeps ``weight >= threshold``.
    """
    check_threshold(threshold)
    if inclusive:
        return weights >= threshold
    return weights > threshold


def prefix_length(
    ascending_weights: np.ndarray, threshold: float, inclusive: bool = False
) -> int:
    """Number of selected edges, given weights sorted ascending.

    Equals ``selection_mask(w, threshold, inclusive).sum()`` but runs
    in O(log m): the selected edges are exactly the top ``k`` of the
    descending sort, i.e. the suffix of the ascending sort.
    """
    check_threshold(threshold)
    side = "left" if inclusive else "right"
    cut = int(np.searchsorted(ascending_weights, threshold, side=side))
    return int(len(ascending_weights) - cut)


def check_threshold(threshold: float) -> None:
    """Raise :class:`ValueError` if ``threshold`` is NaN."""
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold!r}")


def check_non_negative_int(name: str, value) -> int:
    """``value`` as an ``int``, or a :class:`ValueError` naming ``name``.

    numpy integers pass; bools, floats, ``None`` and negatives do not.
    """
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < 0
    ):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return int(value)
