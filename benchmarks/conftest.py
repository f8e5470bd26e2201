"""Shared helpers for the per-figure claim checks.

Every paper-claim script (``bench_figNN.py``, ``bench_table2.py``,
``bench_ablations.py``, ``bench_faults.py``, ``bench_recovery.py``) loads
its table or figure from ``results/figures.json`` — the default-scale rows
that ``python -m repro.bench all --json`` regenerates byte for byte — and
asserts the paper's qualitative claims (who wins, by roughly what factor)
on those rows.  The claims therefore face the same numbers EXPERIMENTS.md
quotes.  Only ``bench_fig16.py`` still re-runs its figure at a private
scale, attaching the rows to its benchmark report with :func:`record`.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.bench.results import FigureResult

#: The committed default-scale payload of every paper experiment.
FIGURES_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "results", "figures.json")


def committed(name):
    """The committed :class:`FigureResult` of experiment ``name``."""
    with open(FIGURES_JSON) as handle:
        (entry,) = [entry for entry in json.load(handle) if entry["name"] == name]
    return FigureResult.from_dict(entry)


def record(benchmark, result):
    """Attach a FigureResult's rows to the benchmark report."""
    benchmark.extra_info["figure"] = result.name
    benchmark.extra_info["rows"] = result.rows
