"""polarsim benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload transmit_exact --seed 1 --seconds 30 --trace 0

Runs from the root of a polarsim source tree and imports polarsim from its
`src/`. With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (see README.md). The last line of
standard output is one JSON object; the lines above it name every metric with
its unit. The full result, with the machine and code it was measured on, is
written to `.bench_results/` (or `--results`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# setup_s is the median of this many fresh-interpreter set-ups per run
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# latencies kept for percentiles; beyond this a uniform reservoir sample
LATENCY_SAMPLES = 100_000
# host-speed tracking: the reference kernel runs after this much call time,
# its fastest of REFERENCE_REPEATS runs is taken, and times are scaled to a
# host where that takes NOMINAL_REFERENCE_S
REFERENCE_EVERY_S = 0.025
REFERENCE_REPEATS = 3
NOMINAL_REFERENCE_S = 0.0003

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=json.loads(BENCHMARK_JSON.read_text())["run_seconds"],
                   help="measured time of the run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=ROOT / ".bench_results",
                   help="directory for the full result record")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, generate inputs and warm up (times setup_s)")
    return p.parse_args(argv)


class Reservoir:
    """Uniform sample of at most `capacity` values (Vitter's algorithm R).

    The buffer is allocated in full up front, so the harness's own memory
    does not grow with polarsim's throughput and skew `peak_rss_mb`.
    """

    def __init__(self, capacity: int, seed: int) -> None:
        self.buffer = array("d", bytes(8 * capacity))
        self.seen = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        if self.seen < len(self.buffer):
            self.buffer[self.seen] = value
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < len(self.buffer):
                self.buffer[j] = value
        self.seen += 1

    @property
    def values(self) -> List[float]:
        return list(self.buffer[: min(self.seen, len(self.buffer))])


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated q-th percentile, 0 <= q <= 100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_kernel() -> float:
    """Fixed work unrelated to polarsim, in the same mix of interpreter and
    small-array numpy operations, used to track the host's speed."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in range(40):
        v = np.array([math.cos(k), math.sin(k)], dtype=complex)
        acc = acc + 0.01 * np.outer(v, v.conj())
    return float(np.trace(acc @ acc).real)


def time_reference() -> float:
    """Fastest of REFERENCE_REPEATS kernel runs, with the garbage collector
    off: a stall or a collection that polarsim's own garbage made due would
    otherwise rescale every call around it."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Meter:
    """Turns timed calls into scaled latencies and throughput windows.

    Calls wait in `pending` until the reference kernel has run after them;
    `settle` then scales their times by the host speed measured around them.
    """

    def __init__(self, window_calls: int, seed: int) -> None:
        self.window_calls = window_calls
        self.latencies = Reservoir(LATENCY_SAMPLES, seed)
        self.windows: List[float] = []
        self.scales: List[float] = []
        self.calls = self.attempted = self.failed = 0
        self.pending = []
        self.pending_seconds = 0.0
        self.unscaled_seconds = 0.0
        self._ops = self._calls = 0
        self._seconds = 0.0

    def add(self, result) -> None:
        self.calls += 1
        self.attempted += result.ops
        self.failed += result.failed
        self.pending.append(result)
        self.pending_seconds += result.seconds

    def settle(self, scale: float) -> None:
        self.scales.append(scale)
        for result in self.pending:
            self.latencies.add(result.seconds * scale)
            self.unscaled_seconds += result.seconds
            self._ops += result.ops - result.failed
            self._calls += 1
            self._seconds += result.seconds * scale
            if self._calls == self.window_calls:
                self.close_window()
        self.pending = []
        self.pending_seconds = 0.0

    def close_window(self) -> None:
        if self._calls:
            self.windows.append(self._ops / self._seconds)
        self._ops = self._calls = 0
        self._seconds = 0.0


def measure(workload, seconds: float, seed: int, tracer=None) -> Dict[str, object]:
    """Closed loop for `seconds`: one caller, the next call issued as soon as
    the previous one returned and was checked.

    On a shared host the speed of the CPU drifts by tens of percent within
    seconds. The loop therefore runs the reference kernel after every
    REFERENCE_EVERY_S of calls and scales each call's time by
    NOMINAL_REFERENCE_S / (mean kernel time just before and after it), so
    times read as on a host where the kernel takes NOMINAL_REFERENCE_S.

    Throughput is taken per window of `workload.window_calls` calls, as
    completed ops over the scaled time spent inside calls; the median window
    is reported.
    """
    meter = Meter(workload.window_calls, seed)
    before = time_reference()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        meter.add(workload.call(meter.calls, tracer))
        if meter.pending_seconds >= REFERENCE_EVERY_S:
            after = time_reference()
            meter.settle(NOMINAL_REFERENCE_S / (0.5 * (before + after)))
            before = after
    if meter.pending:
        meter.settle(NOMINAL_REFERENCE_S / (0.5 * (before + time_reference())))
    if not meter.windows:
        meter.close_window()

    samples = meter.latencies.values
    tail = percentile(samples, workload.tail_percentile)
    return {
        "calls": meter.calls,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "ops_per_s": statistics.median(meter.windows),
        "latency_p50_us": percentile(samples, 50.0) * 1e6,
        "latency_tail_us": tail * 1e6,
        "tail_percentile": workload.tail_percentile,
        "latency_samples": len(samples),
        "samples_above_tail": sum(1 for v in samples if v > tail),
        "latency_p99_us": percentile(samples, 99.0) * 1e6,
        "windows": len(meter.windows),
        "host_scale_quartiles": statistics.quantiles(meter.scales, n=4) if len(meter.scales) > 1
        else meter.scales * 3,
        "unscaled_mean_ops_per_s": (meter.attempted - meter.failed) / meter.unscaled_seconds,
    }


def setup_times(workload: str, seed: int) -> List[float]:
    """Time from starting a fresh interpreter until it has imported polarsim,
    generated the inputs and warmed up: what every new process pays before
    its first call.

    The probe prints its own reading of the system-wide monotonic clock when
    it is ready. Waiting for its exit instead would add the polling interval
    of a wait with a timeout, up to 50 ms, to each sample.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def layer_metrics(tracer, ops: int, untraced_ops_per_s: float, traced_ops_per_s: float) -> Dict[str, float]:
    """Per-layer metrics; times are self times per op in microseconds."""
    ops = max(ops, 1)
    per_op = lambda ns: ns / 1e3 / ops  # noqa: E731
    self_us = lambda name: per_op(tracer.self_ns.get(name, 0))  # noqa: E731
    counts = tracer.counts
    reconstructions = counts.get("tomography.reconstructions", 0)
    cli_calls = tracer.calls.get("cli.main", 0)
    return {
        "polarization.self_us": per_op(tracer.layer_self_ns("polarization")),
        "polarization.ensemble_density.self_us": self_us("polarization.ensemble_density"),
        "polarization.eigendecompose.self_us": self_us("polarization.eigendecompose"),
        "polarization.density_matrix.constructions": tracer.calls.get("polarization.density_matrix", 0) / ops,
        "tomography.self_us": per_op(tracer.layer_self_ns("tomography")),
        "tomography.sample_counts.self_us": self_us("tomography.sample_counts"),
        "tomography.reconstruct.self_us": self_us("tomography.reconstruct"),
        "tomography.clip_share": counts.get("tomography.clipped", 0) / reconstructions if reconstructions else 0.0,
        "protocol.self_us": per_op(tracer.layer_self_ns("protocol")),
        "protocol.run_protocol.self_us": self_us("protocol.run_protocol"),
        "protocol.decide.self_us": self_us("protocol.decide"),
        "protocol.config_build_us": self_us("protocol.config_build"),
        "protocol.render_us": self_us("protocol.render"),
        "protocol.decisions.Bit0": counts.get("protocol.decisions.Bit0", 0) / ops,
        "protocol.decisions.Bit1": counts.get("protocol.decisions.Bit1", 0) / ops,
        "protocol.decisions.EveDetected": counts.get("protocol.decisions.EveDetected", 0) / ops,
        "sweeps.self_us": per_op(tracer.layer_self_ns("sweeps")),
        "sweeps.sweep_siphon.self_us": self_us("sweeps.sweep_siphon"),
        "sweeps.sweep_delta_family.self_us": self_us("sweeps.sweep_delta_family"),
        "sweeps.csv_write.self_us": self_us("sweeps.csv_write"),
        "sweeps.csv_bytes": counts.get("sweeps.csv_bytes", 0) / ops,
        "cli.main.self_us": tracer.self_ns.get("cli.main", 0) / 1e3 / cli_calls if cli_calls else 0.0,
        "bench.call.self_us": self_us("bench.call"),
        "tracing.overhead_ops_per_s": untraced_ops_per_s - traced_ops_per_s,
    }


LAYER_UNITS = {
    "polarization.density_matrix.constructions": "count/op",
    "tomography.clip_share": "ratio",
    "protocol.decisions.Bit0": "ratio",
    "protocol.decisions.Bit1": "ratio",
    "protocol.decisions.EveDetected": "ratio",
    "sweeps.csv_bytes": "B/op",
    "cli.main.self_us": "us/call",
    "tracing.overhead_ops_per_s": "1/s",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "us/op")


def source_digest() -> str:
    """sha256 over polarsim's sources, identifying the code measured when
    the tree is not a git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polarsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> Dict[str, object]:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import polarsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    args.results.mkdir(parents=True, exist_ok=True)
    workdir = args.results / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.create(args.workload, args.seed, workdir)
        workload.warm_up()
        if args.setup_probe:
            print(time.monotonic())
            return 0
        record = run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'error_rate':45s} {record['error_rate']:>16.6f} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    print("details: " + json.dumps(record["details"]))
    print("environment: " + json.dumps(record["environment"]))
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def run(args: argparse.Namespace, workload) -> Dict[str, object]:
    if args.trace:
        from tracing import Tracer, patched

        untraced = measure(workload, args.seconds / 2, args.seed)
        tracer = Tracer()
        with patched(tracer):
            traced = measure(workload, args.seconds / 2, args.seed, tracer)
        tracer.write_spans(str(args.results / f"{args.workload}-seed{args.seed}.spans.jsonl"))
        values = layer_metrics(tracer, traced["attempted"], untraced["ops_per_s"], traced["ops_per_s"])
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        details = {"untraced": untraced, "traced": traced, "spans_kept": len(tracer.spans)}
    else:
        setups = setup_times(args.workload, args.seed)
        result = measure(workload, args.seconds, args.seed)
        values = {
            "ops_per_s": result["ops_per_s"],
            "latency_p50_us": result["latency_p50_us"],
            "latency_tail_us": result["latency_tail_us"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        attempted, failed = result["attempted"], result["failed"]
        details = dict(result, setup_samples_s=setups)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "details": details,
        "environment": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
