"""Experiment harness: one module per figure/table of the paper's evaluation.

Every experiment module lists its points exactly once:

* ``ARCHITECTURES`` declares, in order, the
  :class:`~repro.experiments.common.Architecture` objects the experiment
  compares; every benchmark of the active suites runs on each of them.
  :func:`~repro.experiments.runner.plan_experiments` turns them into
  simulation points, which the scheduler deduplicates across experiments
  and fans out over worker processes.
* ``render(settings, results)`` assembles an
  :class:`~repro.experiments.common.ExperimentResult` (whose ``render()``
  prints the same rows/series the paper reports) from a read-only
  :class:`~repro.experiments.common.ResultsView`.  It never simulates: a
  missing point raises :class:`~repro.errors.MissingResultError`.

The :mod:`repro.experiments.runner` module ties them together for the
command line::

    python -m repro.experiments.runner --experiment figure6 --instructions 8000
    python -m repro.experiments.runner --experiment all --jobs 8 --cache-dir .simcache
"""

from repro.experiments.common import (
    Architecture,
    ExperimentSettings,
    ExperimentResult,
    ResultsView,
    architecture_factories,
    one_cycle_factory,
    two_cycle_full_bypass_factory,
    two_cycle_one_bypass_factory,
    register_file_cache_factory,
)
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_table2,
    value_reuse,
    headline,
)

__all__ = [
    "Architecture",
    "ExperimentSettings",
    "ExperimentResult",
    "ResultsView",
    "architecture_factories",
    "one_cycle_factory",
    "two_cycle_full_bypass_factory",
    "two_cycle_one_bypass_factory",
    "register_file_cache_factory",
    "figure1",
    "figure2",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9_table2",
    "value_reuse",
    "headline",
    "ablations",
]
