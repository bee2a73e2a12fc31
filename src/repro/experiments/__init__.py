"""Experiment drivers regenerating every table and figure of the paper.

The :mod:`repro.experiments.runner` executes the full protocol —
corpus generation, per-algorithm threshold sweeps on the
compiled-graph matching engine (optionally cell-parallel over a
process pool via the ``workers`` knob, results invariant under the
worker count), noise filtering — and caches the results; the analysis
modules aggregate those results into the paper's tables and figures:

* :mod:`repro.experiments.effectiveness` — Table 4, Table 5, Figure 3,
  and the score matrices behind the Nemenyi diagrams (Figures 2/7/8);
* :mod:`repro.experiments.efficiency` — Table 6 and Figure 4;
* :mod:`repro.experiments.thresholds` — Tables 8/9 and Figure 9;
* :mod:`repro.experiments.tradeoff` — Figures 5/10;
* :mod:`repro.experiments.sota` — Table 7.
"""

from repro.experiments.config import (
    DEFAULT_BENCH_CONFIG,
    SMOKE_CONFIG,
    ExperimentConfig,
)
from repro.experiments.runner import (
    GraphRunResult,
    run_dirty_er_sweeps,
    run_experiments,
)

__all__ = [
    "ExperimentConfig",
    "DEFAULT_BENCH_CONFIG",
    "SMOKE_CONFIG",
    "GraphRunResult",
    "run_experiments",
    "run_dirty_er_sweeps",
]
