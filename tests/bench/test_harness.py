"""Tests for the benchmark harness."""

import pytest

from repro.bench.experiments import (
    average_runs,
    clear_workbench_cache,
    get_workbench,
    run_algorithm,
)
from repro.bench.harness import (
    AlgoRun,
    fmt_seconds,
    measure,
    print_series,
    print_table,
    speedup_summary,
    time_call,
)
from repro.storage.iostats import IOCostModel, IOCounter


class TestTiming:
    def test_time_call(self):
        seconds, result = time_call(lambda: 41 + 1)
        assert result == 42
        assert seconds >= 0

    def test_measure_isolates_io(self):
        counter = IOCounter()
        counter.record_read(10)

        def work():
            counter.record_read(4)
            return "done"

        run, result = measure("alg", counter, work)
        assert result == "done"
        assert run.io_counter.blocks_read == 1
        assert run.io_counter.entries_read == 4

    def test_algorun_costs(self):
        counter = IOCounter()
        for _ in range(5):
            counter.record_read(1)
        run = AlgoRun(
            "x", cpu_seconds=0.5, io_counter=counter,
            cost_model=IOCostModel(seconds_per_block=0.1, seconds_per_open=0),
        )
        assert run.io_seconds == pytest.approx(0.5)
        assert run.total_seconds == pytest.approx(1.0)


class TestFormatting:
    def test_fmt_seconds_scales(self):
        assert fmt_seconds(2e-6).strip().endswith("us")
        assert fmt_seconds(2e-3).strip().endswith("ms")
        assert fmt_seconds(2.0).strip().endswith("s")

    def test_print_table(self, capsys):
        print_table(["a", "b"], [[1, 2.5], ["xx", 3]], title="T")
        out = capsys.readouterr().out
        assert "T" in out and "xx" in out and "2.5" in out

    def test_print_series(self, capsys):
        print_series("k", [10, 20], {"alg": [0.1, 0.2]}, unit="s")
        out = capsys.readouterr().out
        assert "alg" in out and "0.1s" in out

    def test_speedup_summary(self):
        series = {"slow": [1.0, 4.0], "fast": [0.1, 0.4]}
        text = speedup_summary(series, "slow", "fast")
        assert "10.0x" in text

    def test_speedup_summary_empty(self):
        assert "n/a" in speedup_summary({"a": [0], "b": [0]}, "a", "b")


class TestWorkbench:
    def test_cached(self):
        clear_workbench_cache()
        a = get_workbench("GS1", scale=1 / 100)
        b = get_workbench("GS1", scale=1 / 100)
        assert a is b
        clear_workbench_cache()
        c = get_workbench("GS1", scale=1 / 100)
        assert c is not a

    def test_run_algorithm_phases(self):
        wb = get_workbench("GS1", scale=1 / 100)
        query = wb.query(4, seed=1)
        for alg in ("Topk", "Topk-EN", "DP-B", "DP-P"):
            result = run_algorithm(wb.store, query, 3, alg)
            assert result.matches, alg
            assert result.total_seconds >= 0
            assert result.top1.io_counter.blocks_read >= 0
        with pytest.raises(ValueError):
            run_algorithm(wb.store, query, 3, "nope")

    def test_algorithms_agree_on_workbench(self):
        wb = get_workbench("GS1", scale=1 / 100)
        query = wb.query(5, seed=2)
        scores = {
            alg: [m.score for m in run_algorithm(wb.store, query, 5, alg).matches]
            for alg in ("Topk", "Topk-EN", "DP-B", "DP-P")
        }
        baseline = scores["Topk"]
        assert all(s == baseline for s in scores.values())

    def test_query_sets(self):
        wb = get_workbench("GS1", scale=1 / 100)
        queries = wb.queries(4, count=3, seed=5)
        assert len(queries) == 3

    def test_average_runs(self):
        wb = get_workbench("GS1", scale=1 / 100)
        queries = wb.queries(4, count=2, seed=6)
        summary = average_runs(wb.store, queries, 5, "Topk-EN")
        assert set(summary) == {"total", "top1", "enum", "io", "edges_loaded"}
        assert summary["total"] >= summary["top1"] >= 0
        assert summary["edges_loaded"] >= 0
