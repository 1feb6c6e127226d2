"""bie2d benchmark: seeded workloads, one closed-loop caller each.

    python3 perfbench/run.py --workload cold-sessions --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in its own process

One caller sends the next op only when the previous one has returned;
nothing runs concurrently.  BLAS runs on one thread.  The library is
imported from ``src/`` next to this directory.

Each op is followed by the workload's calibration kernel, fixed numpy
work of the same kind as the op, and each op's latency is divided by the
mean time of the kernel runs just before and just after it.  Latencies
are reported in these units (``cal``): the host's speed drifts over
minutes and moves op and kernel alike, so the ratio repeats from run to
run where raw times do not.  The raw times are printed as well.

``--trace 0`` measures the end-to-end metrics: set-up time in seconds
(median of several set-ups), ops per cal of op time, the median op
latency, the tail latency at the workload's fixed ``tail_pct`` percentile,
and peak RSS after the workload's first ``min_ops`` ops.  The percentile
and the op count are fixed rather than taken from the number of ops a run
fits in, so that a faster library is measured at the same point of the
latency distribution and is not charged for the extra leaking ops it runs.

``--trace 1`` measures the per-layer metrics instead: half of the time
untraced, then half traced with spans and tracemalloc, giving each site's
calls, median time, share of op time, allocation peak, retained bytes and
raised calls, the bytes an op leaves behind after ``gc.collect()``, and the
tracing overhead on the median op latency in cal.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
raw times, the sample counts, the failure ratio and an environment stamp.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

from spans import Tracer, site_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cold-sessions", "dirichlet-warm")
MB = 1024.0 * 1024.0
BLAS_THREADS = 1


def pin_blas_threads(threads=BLAS_THREADS):
    """Fix the BLAS thread count; call before numpy loads.

    The workloads run BLAS on one thread: on a 2-core machine two threads
    made Neumann solve ops slower (about 600 ms against 500 ms) and their
    times less repeatable.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def env_stamp(seed, blas_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Phase:
    """Outcome of one closed loop of ops."""

    def __init__(self):
        self.latencies = []
        self.calibrations = []
        self.failed = 0
        self.leaked = []
        self.rss_mb = None

    @property
    def passed(self):
        return len(self.latencies) - self.failed

    @property
    def relative(self):
        """Each op's latency in units of the calibrations around it."""
        c = self.calibrations
        return [2.0 * t / (a + b) for t, a, b in zip(self.latencies, c, c[1:])]


def closed_loop(workload, tracer, seconds, track_leaks=False):
    """Run whole cycles of ops until both min_ops and the time are used up.

    A run stops at max_ops, which bounds the memory of a workload whose
    ops leak.
    """
    phase = Phase()
    phase.calibrations.append(timed(workload.calibrate))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.max_ops and (
        i < workload.min_ops or i % workload.cycle or time.perf_counter() < deadline
    ):
        if track_leaks:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        case = workload.prepare(i)
        tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(case)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            out = None
        phase.latencies.append(time.perf_counter() - t0)
        tracer.op = None
        if out is None or not workload.check(case, out):
            phase.failed += 1
            print(f"op {i} failed its check", file=sys.stderr)
        case = out = None
        if track_leaks:
            gc.collect()
            phase.leaked.append(tracemalloc.get_traced_memory()[0] - held)
        phase.calibrations.append(timed(workload.calibrate))
        i += 1
        if i == workload.min_ops:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def tail(latencies, pct):
    """Latency at the pct-th percentile, by nearest rank."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def measure(workload, tracer, seconds):
    setups = [timed(workload.setup) for _ in range(workload.setup_repeats)]
    phase = closed_loop(workload, tracer, seconds)
    rel = phase.relative
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_cal": (phase.passed / sum(rel), "1/cal"),
        "op_p50_cal": (statistics.median(rel), "cal"),
        "op_tail_cal": (tail(rel, workload.tail_pct), "cal"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }
    raw = {
        "ops_per_s": (phase.passed / sum(phase.latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(phase.latencies), "ms"),
        "op_tail_ms": (1e3 * tail(phase.latencies, workload.tail_pct), "ms"),
        "cal_p50_ms": (1e3 * statistics.median(phase.calibrations), "ms"),
    }
    n = len(phase.latencies)
    samples = {"setup_s": len(setups), "ops_per_cal": n, "op_p50_cal": n,
               "op_tail_cal": n, "peak_rss_mb": workload.min_ops, **dict.fromkeys(raw, n)}
    detail = {"tail_percentile": workload.tail_pct, "samples": samples, "raw": raw}
    return [phase], metrics, detail


def measure_traced(workload, tracer, seconds):
    with tracer.on():
        workload.setup()
    plain = closed_loop(workload, tracer, seconds / 2)
    with tracer.on():
        traced = closed_loop(workload, tracer, seconds / 2, track_leaks=True)

    metrics = site_metrics(tracer.spans, sum(traced.latencies))
    metrics["op.leaked_mb"] = (statistics.median(traced.leaked) / MB, "MB")
    metrics["trace.overhead"] = (
        statistics.median(traced.relative) / statistics.median(plain.relative),
        "ratio",
    )
    detail = {"samples": {"untraced_ops": len(plain.latencies),
                          "traced_ops": len(traced.latencies),
                          "spans": len(tracer.spans)}}
    return [plain, traced], metrics, detail


def run_workload(name, seed, seconds, trace):
    import workloads  # loads numpy, so only after pin_blas_threads()

    tracer = Tracer()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, tracer, SRC)
        phases, metrics, detail = (measure_traced if trace else measure)(
            workload, tracer, seconds
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    detail.update(
        workload=name, trace=trace, fail_ratio=failed / attempted,
        env=env_stamp(seed, BLAS_THREADS),
    )
    for metric, (value, unit) in {**metrics, **detail.get("raw", {})}.items():
        count = detail["samples"].get(metric)
        print(f"{name:15s} {metric:45s} {value:14.6g} {unit:6s}"
              + (f" n={count}" if count is not None else ""))
    print(f"{name:15s} {'fail_ratio':45s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    print(json.dumps({"detail": detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; prints each one's lines and a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: remove the scratch directory, stop any child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bie2d" / "__init__.py").is_file():
        print(f"bie2d sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
