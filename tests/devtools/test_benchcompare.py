"""``python -m repro.devtools.benchcompare``: every exit path, on synthetic lines."""

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.benchcompare import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
BASELINE = REPO_ROOT / "config" / "perfbench_baseline"

E2E = {
    "setup_s": 1.0,
    "ops_per_s": 100.0,
    "read_p50_ms": 5.0,
    "read_p99_ms": 20.0,
    "peak_rss_mb": 80.0,
    "disk_mb": 3.0,
}


def _line(seed=0, correct=True, failed=0, attempted=1000, **overrides):
    values = {**E2E, **overrides}
    # Spread the seeds a little so the median is a real median.
    metrics = {
        name: {"value": value * (1 + 0.01 * seed), "unit": "x"}
        for name, value in values.items()
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _write(directory, workload="paper_topk", lines=None):
    directory.mkdir(exist_ok=True)
    lines = lines if lines is not None else [_line(seed) for seed in range(5)]
    (directory / f"{workload}.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines)
    )
    return directory


@pytest.fixture
def run(monkeypatch, capsys):
    """Compare a parent and a change directory from the repository root."""
    monkeypatch.chdir(REPO_ROOT)

    def compare(parent, change):
        code = main([str(parent), str(change)])
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    return compare


def test_identical_sides_pass(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change")
    code, out = run(parent, change)
    assert code == 0, out
    assert "read_p50_ms" in out and "ok:" in out


def test_a_move_inside_the_bound_passes(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s, read_p50_ms=6.0) for s in range(5)])
    assert run(parent, change)[0] == 0  # +20% against a 25% bound


def test_latency_past_its_bound_fails(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s, read_p50_ms=7.0) for s in range(5)])
    code, out = run(parent, change)
    assert code == 1
    assert "paper_topk: read_p50_ms" in out and "WORSE" in out


def test_throughput_drop_past_its_bound_fails(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s, ops_per_s=70.0) for s in range(5)])
    code, out = run(parent, change)
    assert code == 1 and "ops_per_s" in out


def test_a_gain_is_not_a_finding(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(
        tmp_path / "change",
        lines=[_line(s, ops_per_s=200.0, read_p50_ms=1.0) for s in range(5)],
    )
    assert run(parent, change)[0] == 0


def test_per_layer_metrics_are_reported_not_gated(tmp_path, run):
    parent = _write(tmp_path / "parent", lines=[_line(s, **{"kernel.bind.ms": 1.0})
                                                for s in range(5)])
    change = _write(tmp_path / "change", lines=[_line(s, **{"kernel.bind.ms": 3.0})
                                                for s in range(5)])
    code, out = run(parent, change)
    assert code == 0 and "kernel.bind.ms" in out and "+200.0%" in out


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_wrong_answer_on_either_side_fails(tmp_path, run, side):
    lines = [_line(s) for s in range(5)]
    wrong = [_line(0, correct=False)] + lines[1:]
    parent = _write(tmp_path / "parent", lines=wrong if side == "parent" else lines)
    change = _write(tmp_path / "change", lines=wrong if side == "change" else lines)
    code, out = run(parent, change)
    assert code == 1 and "correct: false" in out


def test_a_higher_failed_share_fails(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s, failed=s) for s in range(5)])
    code, out = run(parent, change)
    assert code == 1 and "failed share rose" in out


def test_four_seeds_are_too_few(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s) for s in range(4)])
    code, out = run(parent, change)
    assert code == 2 and "at least 5 seeds" in out


def test_an_unknown_workload_is_refused(tmp_path, run):
    parent = _write(tmp_path / "parent", workload="nightly")
    change = _write(tmp_path / "change", workload="nightly")
    code, out = run(parent, change)
    assert code == 2 and "unknown workload" in out


def test_an_unknown_metric_is_refused(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", lines=[_line(s, made_up_ms=1.0) for s in range(5)])
    code, out = run(parent, change)
    assert code == 2 and "unknown metric 'made_up_ms'" in out


def test_sides_with_different_workloads_are_refused(tmp_path, run):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", workload="serve_zipf")
    assert run(parent, change)[0] == 2


def test_runs_with_different_metrics_are_refused(tmp_path, run):
    parent = _write(tmp_path / "parent")
    lines = [_line(s) for s in range(5)]
    del lines[0]["metrics"]["disk_mb"]
    change = _write(tmp_path / "change", lines=lines)
    code, out = run(parent, change)
    assert code == 2 and "different metrics" in out


def test_usage_errors_exit_2(tmp_path, run):
    assert main(["only-one"]) == 2
    assert run(tmp_path / "missing", tmp_path / "missing")[0] == 2
    parent = _write(tmp_path / "parent")
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "paper_topk.jsonl").write_text('{"metrics": {}}\n' * 5)
    code, out = run(parent, tmp_path / "change")
    assert code == 2 and "not a perfbench result line" in out


def test_committed_baseline_covers_every_workload_with_five_seeds():
    names = {entry["name"] for entry in SPEC["workloads"]}
    assert {path.stem for path in BASELINE.glob("*.jsonl")} == names
    for path in BASELINE.glob("*.jsonl"):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 5
        assert all(line["correct"] and line["failed"] == 0 for line in lines)
        assert all(set(line["metrics"]) == set(E2E) for line in lines)


def test_committed_baseline_against_itself_and_a_slower_copy(tmp_path, run):
    assert run(BASELINE, BASELINE)[0] == 0
    slower = tmp_path / "slower"
    shutil.copytree(BASELINE, slower)
    path = slower / "serve_zipf.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for line in lines:
        line["metrics"]["read_p50_ms"]["value"] *= 1.5
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out = run(BASELINE, slower)
    assert code == 1 and "serve_zipf: read_p50_ms" in out
    (slower / "serve_zipf.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines[:4])
    )
    assert run(BASELINE, slower)[0] == 2
