"""Tests for the experiment harness: results, runner, CLI, tiny figure runs."""

import pytest

from repro.bench import FigureResult, make_index, measure_operations
from repro.bench.__main__ import _parse_value, main
from repro.bench.cache_runner import INDEX_KINDS, build_tree
from repro.bench.figures import ALL_EXPERIMENTS, fig03, fig16, table1, table2
from repro.mem import MemorySystem
from repro.workloads import KeyWorkload


class TestFigureResult:
    def make(self):
        result = FigureResult("figX", "demo", ["a", "b"])
        result.add(a=1, b="x")
        result.add(a=2, b="y")
        return result

    def test_add_and_column(self):
        result = self.make()
        assert result.column("a") == [1, 2]

    def test_filter(self):
        result = self.make()
        assert result.filter(b="y") == [{"a": 2, "b": "y"}]
        assert result.filter(a=1, b="y") == []

    def test_format_table_contains_everything(self):
        result = self.make()
        result.notes.append("a note")
        text = result.format_table()
        assert "figX" in text
        assert "a note" in text
        assert "y" in text

    def test_format_empty_table(self):
        empty = FigureResult("figY", "nothing", ["only"])
        assert "figY" in empty.format_table()


class TestCacheRunner:
    def test_make_index_all_kinds(self):
        for kind in INDEX_KINDS:
            index = make_index(kind, page_size=4096, buffer_pages=64, num_keys_hint=10_000)
            index.insert(5, 50)
            assert index.search(5) == 50

    def test_make_index_unknown_kind(self):
        with pytest.raises(ValueError):
            make_index("btree-9000", page_size=4096)

    def test_build_tree_untraced_bulkload(self):
        mem = MemorySystem()
        workload = KeyWorkload(2000)
        keys, tids = workload.bulkload_arrays()
        tree = build_tree("disk", keys, tids, page_size=4096, mem=mem, buffer_pages=64)
        assert mem.stats.total_cycles == 0  # bulkload paused measurement
        assert tree.num_entries == 2000

    def test_measure_operations_counts(self):
        mem = MemorySystem()
        workload = KeyWorkload(2000)
        keys, tids = workload.bulkload_arrays()
        tree = build_tree("disk", keys, tids, page_size=4096, mem=mem, buffer_pages=64)
        phase = measure_operations(mem, tree.search, [int(k) for k in keys[:10]])
        assert phase.operations == 10
        assert phase.cycles_per_op > 0


class TestTinyFigureRuns:
    """Smoke-run the figure functions at minuscule scale."""

    def test_table1_lists_parameters(self):
        result = table1()
        names = result.column("parameter")
        assert any("T1" in name for name in names)

    def test_table2_has_all_schemes(self):
        result = table2()
        assert set(result.column("scheme")) == {"disk-first", "cache-first", "micro-indexing"}
        assert len(result.rows) == 12

    def test_fig03_normalized_to_baseline(self):
        result = fig03(num_keys=5000, searches=40)
        disk = next(r for r in result.rows if "disk" in r["index"])
        assert disk["total"] == 100.0
        assert disk["busy"] + disk["dcache_stalls"] + disk["other_stalls"] == pytest.approx(
            100.0, abs=0.5
        )

    def test_fig16_reports_fp_indexes_only(self):
        result = fig16(num_keys=8000, page_sizes=(4096,))
        assert set(result.column("index")) == {"fp-disk", "fp-cache"}

    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table1", "table2", "fig03", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        }
        assert expected <= set(ALL_EXPERIMENTS)
        assert any(name.startswith("ablation") for name in ALL_EXPERIMENTS)


class TestCli:
    def test_parse_value(self):
        assert _parse_value("5") == 5
        assert _parse_value("0.5") == 0.5
        assert _parse_value("1,2,3") == (1, 2, 3)
        assert _parse_value("hello") == "hello"

    def test_set_float_list(self, capsys):
        """Regression: list parts were parsed with int(), so a float list
        like ``limp_factors=2.5,5`` died with a ValueError traceback."""
        assert _parse_value("2.5,5") == (2.5, 5)
        assert _parse_value("10,") == (10,)
        assert main(["fault-resilience", "--set", "limp_factors=2.5,5"]) == 0
        out = capsys.readouterr().out
        assert "limp x5:" in out
        assert "2.5  retry only" in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out

    def test_single_experiment_with_overrides(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "simulation parameters" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_override_changes_run(self, capsys):
        assert main(["fig03", "--set", "num_keys=4000", "--set", "searches=20"]) == 0
        out = capsys.readouterr().out
        assert "pB+tree" in out
