"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_topk --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it are for people: the input digest,
the environment, every metric with its unit, and the checks made.  See
perfbench/README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: An untraced run takes the median of at least ``SETUPS`` independent
#: set-ups, and of more (up to ``MAX_SETUPS``) while they add up to less
#: than ``SETUP_SECONDS``: a short set-up needs more samples to be steady.
SETUPS = 3
MAX_SETUPS = 9
SETUP_SECONDS = 1.5
#: Every ``SAMPLE_EVERY``-th op keeps its answer for the checks and for
#: comparing the traced pass with the untraced one, up to ``MAX_SAMPLED``.
SAMPLE_EVERY = 7
MAX_SAMPLED = 300
#: A run that has not reached enough reads for a p99 keeps going, but
#: never past this multiple of ``--seconds``.
MAX_STRETCH = 4.0
#: Seconds of measured time between two calibration slices.
CALIBRATE_EVERY = 0.1
#: Calibration slices taken just before and just after each set-up.
SETUP_SLICES = 8


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src / 'repro'}; run from a full checkout")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Pass:
    """One closed-loop measured phase.

    Latencies are kept raw with the index of the calibration slice taken
    just before the op; :meth:`finish` scales them to the reference host.
    Per-op storage is flat arrays, so the client's own memory hardly grows
    with throughput; the ops themselves are kept only for a later replay.
    """

    ops: list | None = None
    done: int = 0
    samples: dict = field(default_factory=dict)
    sampled: dict = field(default_factory=dict)
    failed: int = 0
    errors: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)
    wall: float = 0.0
    cpu: float = 0.0
    scaled_wall: float = 0.0

    def record(self, key: str, seconds: float) -> None:
        if key not in self.samples:
            self.samples[key] = (array("f"), array("I"))
        latencies, slots = self.samples[key]
        latencies.append(seconds)
        slots.append(len(self.calibration) - 1)

    def count(self, key: str) -> int:
        return len(self.samples[key][0]) if key in self.samples else 0

    def finish(self) -> None:
        from perfbench.measure import speed_factors

        factors = speed_factors(self.calibration)
        self.latencies = {
            key: [seconds * factors[slot] for seconds, slot in zip(*values)]
            for key, values in self.samples.items()
        }
        self.scaled_wall = sum(d * f for d, f in zip(self.segments, factors))

    @property
    def speed(self) -> float:
        """How much faster the reference host is than this pass's host."""
        from perfbench.measure import REFERENCE_SLICE_S

        return REFERENCE_SLICE_S / statistics.median(self.calibration)


def measure(wl, system, state, seconds: float, *, replay=None, tracer=None,
            min_reads: int = 0, keep_ops: bool = False) -> Pass:
    """Closed loop, one client: send the next op when the last one returns.

    Live mode asks the workload for ops until ``seconds`` of measured time
    have passed and at least ``min_reads`` reads were made; replay mode
    re-sends exactly the ops of an earlier pass.  Every
    ``CALIBRATE_EVERY`` seconds the client times a calibration slice; that
    time is not measured time.
    """
    from contextlib import nullcontext

    from perfbench.measure import calibration_slice

    run = Pass(ops=[] if keep_ops else None)
    gc.collect()
    cpu_started = time.process_time()
    measured = 0.0
    segment_start = None
    index = 0
    while True:
        now = time.perf_counter()
        if segment_start is None or now - segment_start >= CALIBRATE_EVERY:
            if segment_start is not None:
                run.segments.append(now - segment_start)
                measured += now - segment_start
            run.calibration.append(calibration_slice(len(run.calibration)))
            segment_start = now = time.perf_counter()
        elapsed = measured + (now - segment_start)
        if replay is not None:
            if index >= len(replay):
                break
            op = replay[index]
        else:
            enough = elapsed >= seconds and run.count("read") >= min_reads
            op = wl.next_op(state, elapsed, seconds, enough or elapsed >= seconds * MAX_STRETCH)
            if op is None:
                break
        if run.ops is not None:
            run.ops.append(op)
        run.done += 1
        if tracer is not None:
            tracer.request_id = index
        span = tracer.span(f"op.{wl.op_kind(op)}") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                outcome = wl.execute(system, op, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(f"{type(exc).__name__}: {exc}")
            index += 1
            continue
        latency = time.perf_counter() - t0
        run.record(outcome.kind, latency)
        if outcome.tag is not None and tracer is not None:
            run.record(f"{outcome.kind}.{outcome.tag}", latency)
        if (outcome.kind == "read" and index % SAMPLE_EVERY == 0
                and len(run.sampled) < MAX_SAMPLED):
            run.sampled[index] = (op, outcome.answer)
        index += 1
    last = time.perf_counter() - segment_start
    run.segments.append(last)
    run.wall = measured + last
    run.cpu = time.process_time() - cpu_started - sum(run.calibration)
    return run


def _setup(wl, inputs, workdir: Path, tracer=None):
    """One set-up, bracketed by calibration slices; returns its wall time
    scaled to the reference host, and its raw wall and CPU times."""
    from perfbench.measure import REFERENCE_SLICE_S, calibration_slice

    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    slices = [calibration_slice(turn) for turn in range(SETUP_SLICES)]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    system = wl.setup(inputs, workdir, tracer)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    slices += [calibration_slice(turn) for turn in range(SETUP_SLICES)]
    return system, wall * REFERENCE_SLICE_S / statistics.median(slices), wall, cpu


def _latency_metrics(run: Pass, kind: str) -> dict:
    from perfbench.measure import percentile, samples_beyond

    values = run.latencies.get(kind, ())
    if not values:
        return {}
    raw = run.samples[kind][0]
    return {
        f"{kind}_p50_ms": percentile(values, 50) * 1e3,
        f"{kind}_p99_ms": percentile(values, 99) * 1e3,
        f"{kind}_p50_raw_ms": percentile(raw, 50) * 1e3,
        f"{kind}_p99_raw_ms": percentile(raw, 99) * 1e3,
        f"{kind}_count": len(values),
        f"{kind}_beyond_p99": samples_beyond(len(values), 99),
    }


def run_untraced(wl, inputs, seconds: float, tmp: Path, tiny: bool) -> dict:
    from perfbench.measure import MIN_SAMPLES_P99, child_hwm_mb, peak_rss_mb, tree_bytes

    scaled, walls, cpus = [], [], []
    system = None
    least, most = (1, 1) if tiny else (SETUPS, MAX_SETUPS)
    while len(walls) < least or (len(walls) < most and sum(walls) < SETUP_SECONDS):
        if system is not None:
            wl.close(system)
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = tmp / f"setup-{len(walls)}"
        system, setup_scaled, wall, cpu = _setup(wl, inputs, workdir)
        scaled.append(setup_scaled)
        walls.append(wall)
        cpus.append(cpu)
    try:
        state = wl.start(inputs, system)
        run = measure(wl, system, state, seconds,
                      min_reads=0 if tiny else MIN_SAMPLES_P99)
        rss = peak_rss_mb() + child_hwm_mb()
        disk = tree_bytes(workdir)
        checked, wrong = wl.check(inputs, system, state, run)
    finally:
        wl.close(system)
    run.finish()
    ops = run.done
    metrics = {
        "setup_s": statistics.median(scaled),
        "setup_raw_s": statistics.median(walls),
        "setup_cpu_s": statistics.median(cpus),
        "setup_count": len(walls),
        "ops_per_s": ops / run.scaled_wall,
        "ops_per_s_raw": ops / run.wall,
        "measure_wall_s": run.wall,
        "measure_cpu_s": run.cpu,
        "host_speed": run.speed,
        "peak_rss_mb": rss,
        "disk_mb": disk / 1e6,
        **_latency_metrics(run, "read"),
        **_latency_metrics(run, "write"),
    }
    return {"metrics": metrics, "attempted": ops, "failed": run.failed + wrong,
            "checked": checked, "wrong": wrong, "errors": run.errors}


def run_traced(wl, inputs, seconds: float, tmp: Path, tiny: bool, dump: Path) -> dict:
    """An untraced pass, then the same ops again on a fresh traced set-up."""
    from perfbench import layers
    from perfbench.measure import MIN_SAMPLES_P99, exact_form
    from perfbench.tracing import Tracer

    system = _setup(wl, inputs, tmp / "untraced")[0]
    try:
        state = wl.start(inputs, system)
        plain = measure(wl, system, state, seconds,
                        min_reads=0 if tiny else MIN_SAMPLES_P99, keep_ops=True)
        checked, wrong = wl.check(inputs, system, state, plain)
    finally:
        wl.close(system)
    plain.finish()

    tracer = Tracer()
    layers.install(wl, tracer)
    try:
        system = _setup(wl, inputs, tmp / "traced", tracer)[0]
        try:
            # Warm-up spans and counts are not the pass's; set-up spans stay.
            mark = len(tracer.spans)
            state = wl.start(inputs, system)
            del tracer.spans[mark:]
            tracer.counts.clear()
            before = layers.snapshot(wl, system)
            tracer.install_gc()
            traced = measure(wl, system, state, seconds, replay=plain.ops, tracer=tracer)
            traced.finish()
            metrics = layers.collect(wl, tracer, system, before, traced)
        finally:
            wl.close(system)
    finally:
        tracer.uninstall()
    mismatched = sum(
        1 for index, (_op, answer) in plain.sampled.items()
        if index not in traced.sampled
        or exact_form(traced.sampled[index][1]) != exact_form(answer)
    )
    tracer.dump(dump)
    ops = plain.done
    untraced_rate = ops / plain.scaled_wall
    traced_rate = traced.done / traced.scaled_wall
    failed = plain.failed + traced.failed + wrong + mismatched
    write = _latency_metrics(plain, "write")
    metrics.update({
        "trace.overhead_ratio": untraced_rate / traced_rate - 1.0,
        "trace.spans_per_op": len(tracer.spans) / max(1, traced.done),
        "trace.answers_compared": len(plain.sampled),
        "trace.answers_mismatched": mismatched,
        "error_ratio": failed / max(1, ops),
        "write_p50_ms": write.get("write_p50_ms", 0.0),
        "write_p99_ms": write.get("write_p99_ms", 0.0),
    })
    return {"metrics": metrics, "attempted": ops, "failed": failed,
            "checked": checked, "wrong": wrong + mismatched,
            "errors": plain.errors + traced.errors,
            "untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate}


def _child_pids() -> list[int]:
    """Every live or zombie process whose parent is this one."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def reap_children(grace: float = 5.0) -> None:
    """Stop and wait for every process this run started.

    The shard workers are joined by the service's ``close``; what is left
    is multiprocessing's resource tracker, which would otherwise outlive
    this process as an orphan.  Anything else still running gets SIGTERM,
    then SIGKILL after ``grace`` seconds, and is waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    multiprocessing.active_children()
    resource_tracker._resource_tracker._stop()
    if not os.path.isdir("/proc"):
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.05)
        if not pids:
            return


def _spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    from perfbench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up (smoke tests only)")
    args = parser.parse_args(argv)

    from perfbench.measure import environment, forbidden_env

    refused = forbidden_env()
    if refused:
        print(f"error: unset {', '.join(refused)}: they select non-default code paths",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, args.tiny)
    print(f"workload {args.workload} seed {args.seed} input_digest {inputs.digest}")
    print("env " + json.dumps(environment(), sort_keys=True))
    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            dump = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = run_traced(wl, inputs, args.seconds, tmp, args.tiny, dump)
            print(f"trace spans written to {dump.relative_to(ROOT)}")
            print(f"tracing overhead: {result['untraced_ops_per_s']:.1f} ops/s untraced, "
                  f"{result['traced_ops_per_s']:.1f} ops/s traced")
        else:
            result = run_untraced(wl, inputs, args.seconds, tmp, args.tiny)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    metrics.setdefault("error_ratio", result["failed"] / max(1, result["attempted"]))
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]}")
    print(f"checked {result['checked']} answers against the reference, "
          f"{result['wrong']} wrong; {result['failed']} of {result['attempted']} ops failed")
    for error in result["errors"]:
        print(f"  error: {error}")
    reported = {}
    for entry in _spec_metrics(bool(args.trace)):
        reported[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    _bootstrap()
    # SIGTERM unwinds like an exit, so the ``finally`` below still runs.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
