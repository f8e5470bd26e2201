#!/usr/bin/env python
"""Thin CLI over :mod:`repro.bench.determinism` for the CI smoke cells.

Usage (from the repo root, ``PYTHONPATH=src`` or the package installed)::

    python benchmarks/determinism_gate.py jobs -- \
        python -m repro.bench fig10 --set page_sizes=4096,8192 --set sizes=2000

``jobs`` appends ``--jobs 1`` / ``--jobs 2`` to the command and diffs the
wall-clock-normalized stdout.  Exit status 0 on identical, 1 with the
first diverging line otherwise.  Scenario matrices gate themselves: ``python -m repro.bench
scenario --matrix FILE --jobs 2 --gate``.
"""

import sys

from repro.bench.determinism import main

if __name__ == "__main__":
    sys.exit(main())
