"""Tests of the benchmark itself: inputs, statistics, tracing and smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import WORKLOADS  # noqa: E402
from perfbench.layers import METRICS  # noqa: E402
from perfbench.measure import (  # noqa: E402
    MIN_SAMPLES_P99,
    REFERENCE_SLICE_S,
    percentile,
    samples_beyond,
    speed_factors,
)
from perfbench.tracing import Tracer, covered_ns, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digest_new_seed_new_digest(name):
    wl = WORKLOADS[name]
    first = wl.make_inputs(3, tiny=True).digest
    assert wl.make_inputs(3, tiny=True).digest == first
    assert wl.make_inputs(4, tiny=True).digest != first


def test_digest_is_stable_across_processes():
    code = ("import sys; sys.path[:0] = [%r, %r]; from perfbench import WORKLOADS; "
            "print(WORKLOADS['mixed_rw'].make_inputs(5, tiny=True).digest)"
            % (str(ROOT), str(ROOT / "src")))
    digests = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": str(hashseed)},
                       check=True).stdout.strip()
        for hashseed in (1, 2)
    }
    assert len(digests) == 1


def test_nearest_rank_percentile_leaves_ten_samples_beyond_p99():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(MIN_SAMPLES_P99, 99) >= 10
    assert percentile([7.0], 99) == 7.0


def test_speed_factors_follow_the_local_median_slice():
    slow = 2 * REFERENCE_SLICE_S
    slices = [REFERENCE_SLICE_S] * 10 + [slow] * 10
    slices[3] = 50 * REFERENCE_SLICE_S  # one interrupted slice barely matters
    factors = speed_factors(slices, window=2)
    assert factors[0] == factors[3] == 1.0
    assert factors[-1] == pytest.approx(0.5)


def test_union_of_intervals():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert covered_ns([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_what_children_cover():
    ms = 1_000_000
    spans = [
        (1, None, 0, "op.read", 0, 10 * ms),
        (2, 1, 0, "query.compile", 1 * ms, 3 * ms),
        (3, 1, 0, "kernel.bind", 4 * ms, 8 * ms),
        (4, 3, 0, "kernel.lower", 5 * ms, 6 * ms),
        (5, None, 1, "op.read", 20 * ms, 22 * ms),
    ]
    summary = summarize(spans)
    assert summary["op.read"] == (2, pytest.approx(4.0 + 2.0))
    assert summary["query.compile"] == (1, pytest.approx(2.0))
    assert summary["kernel.bind"] == (1, pytest.approx(3.0))
    assert summary["kernel.lower"] == (1, pytest.approx(1.0))


def test_tracer_nests_spans_and_unwraps_everything():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        def own(self):
            return self.run() + 1

    tracer = Tracer()
    original = Child.__dict__["own"]
    tracer.wrap(Child, "own", "outer")
    tracer.wrap(Child, "run", "inner", on_result=lambda result, _args: tracer.add("runs"))
    tracer.request_id = 9
    assert Child().own() == 2
    tracer.uninstall()
    assert Child.__dict__["own"] is original
    assert "run" not in Child.__dict__
    (inner,), (outer,) = ([s for s in tracer.spans if s[3] == n] for n in ("inner", "outer"))
    assert inner[1] == outer[0] and inner[2] == outer[2] == 9
    assert tracer.counts["runs"] == 1


def test_benchmark_json_names_the_metrics_the_runs_print():
    assert [m["name"] for m in SPEC["per_layer"]] == list(METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "ops_per_s"}


def _run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, env=env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, trace):
    done = _run(["--workload", name, "--seed", "2", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert "input_digest" in done.stdout


def test_refuses_non_default_code_paths():
    done = _run(["--workload", "paper_topk", "--seed", "1", "--seconds", "1", "--tiny"],
                env={**os.environ, "REPRO_KERNEL": "0"})
    assert done.returncode != 0
    assert "REPRO_KERNEL" in done.stderr
    assert not done.stdout.strip().endswith("}")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "paper_topk", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _session_processes(sid: int) -> list[str]:
    """Live or zombie processes of session ``sid`` (the run's own is reaped)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.getsid(int(entry)) == sid:
                found.append(Path(f"/proc/{entry}/status").read_text().splitlines()[0])
        except OSError:
            continue
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sharded_run_leaves_no_process_behind():
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "sharded_scatter", "--seed", "1",
         "--seconds", "0.5", "--tiny"],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _out, err = run.communicate(timeout=170)
    assert run.returncode == 0, err
    assert _session_processes(run.pid) == []
