"""Smoke tests: every example script runs end-to-end (at reduced scale).

Each example is imported as a module, its scale constants are shrunk, and
``main()`` is executed.  This keeps the examples from rotting as the
library evolves.
"""

import importlib.util
import io
import os
from contextlib import redirect_stdout


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(module, **overrides):
    for attribute, value in overrides.items():
        setattr(module, attribute, value)
    captured = io.StringIO()
    with redirect_stdout(captured):
        module.main()
    return captured.getvalue()


def test_quickstart(monkeypatch):
    module = load_example("quickstart")
    out = run_main(module, NUM_KEYS=20_000, OPERATIONS=60)
    assert "faster" in out
    assert "Results agree" in out


def test_index_shootout():
    module = load_example("index_shootout")
    module.NUM_KEYS = 20_000
    module.OPERATIONS = 50
    captured = io.StringIO()
    with redirect_stdout(captured):
        for page_size in (8192,):
            module.run_page_size(page_size)
    out = captured.getvalue()
    assert "disk-first fpB+tree" in out


def test_index_tuning(monkeypatch):
    module = load_example("index_tuning")
    captured = io.StringIO()
    with redirect_stdout(captured):
        module.print_table2()
        module.sweep_widths(8192, num_keys=15_000, searches=40)
    out = captured.getvalue()
    assert "selected by the optimizer" in out


def test_multidisk_scan():
    module = load_example("multidisk_scan")
    out = run_main(module, NUM_KEYS=20_000, SPAN=5_000)
    assert "speedup" in out
    assert "disk parallelism" in out


def test_mini_dbms():
    module = load_example("mini_dbms")
    out = run_main(module, ROWS=10_000, DISKS=8)
    assert "correct" in out
    assert "prefetchers" in out


def test_persistence():
    module = load_example("persistence")
    out = run_main(module, NUM_KEYS=8_000)
    assert "verified identical" in out
    assert "line-slot utilization" in out


def test_cursors_and_reverse():
    module = load_example("cursors_and_reverse")
    out = run_main(module, NUM_KEYS=15_000)
    assert "identical results" in out
    assert "jump-pointer array" in out
