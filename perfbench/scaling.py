"""One-shot scaling sweep on the stock annulus; not a gated workload.

    python3 perfbench/scaling.py            # writes perfbench/scaling_sweep.json

Each N (total nodes, N/2 per curve) runs in a fresh process and times, in
order: the OperatorSet build, the S_plus build, ``neumann_interior`` (S_plus
already built), the ``nullspace`` SVD of -1/2 I + Wt, ``dirichlet_interior``
and evaluation at 2000 interior points, both through ``HarmonicField.eval``
(band check and point location included) and as the plain quadrature
``eval_unchecked``; the baseline's 0.33 s is set against the latter.  One
more fresh process times the default ``run_verify()``.  Every figure sits
next to the baseline table measured before the benchmark existed (2 cores,
OpenBLAS 0.3.31), with a flag for agreement within 30 %, so the O(N^3)
growth is on record.  Like that table, and unlike the gated workloads, it
gives BLAS every core.  At N = 4096 a process peaks near 2 GB.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from run import HERE, SRC, env_stamp, pin_blas_threads

SIZES = (512, 1024, 2048, 4096)
SEED = 1
# seconds; a pair is a measured range
BASELINE = {
    1024: {"operator_set": 0.24, "S_plus": 0.08, "neumann_interior": (0.5, 0.6),
           "nullspace": 0.6},
    4096: {"operator_set": 5.1, "S_plus": 2.2, "neumann_interior": (21.0, 24.0),
           "nullspace": 27.0, "dirichlet_interior": 0.02, "eval_unchecked_2000": 0.33},
    "run_verify": {"run_verify": 4.9},
}


def _stopwatch():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


def sweep_one(n_total):
    import numpy as np
    from bie2d.geometry import stock_mesh
    from bie2d.operators import operator_set
    from bie2d.solvers import dirichlet_interior, neumann_interior, nullspace

    from reference import annulus_nodes, interior_harmonic, region_points

    rng = np.random.default_rng([SEED, n_total])
    u = interior_harmonic(rng)
    x, normal = annulus_nodes(n_total // 2)
    pts = region_points(rng, 2000, "interior")
    mesh = stock_mesh("annulus", n_total // 2)
    out = {}
    lap = _stopwatch()
    ops = operator_set(mesh)
    out["operator_set"] = lap()
    lap = _stopwatch()
    ops.S_plus
    out["S_plus"] = lap()
    lap = _stopwatch()
    neumann_interior(mesh, u.normal_derivative(x, normal))
    out["neumann_interior"] = lap()
    lap = _stopwatch()
    nullspace(mesh, "minus_half_plus_Wt")
    out["nullspace"] = lap()
    lap = _stopwatch()
    field = dirichlet_interior(mesh, u.value(x)).field
    out["dirichlet_interior"] = lap()
    lap = _stopwatch()
    values = field.eval(pts)
    out["eval_2000"] = lap()
    lap = _stopwatch()
    field.eval_unchecked(pts)
    out["eval_unchecked_2000"] = lap()
    if not np.allclose(values, u.value(pts), rtol=0, atol=1e-8 * np.max(np.abs(values))):
        raise SystemExit(f"N={n_total}: evaluated field disagrees with the closed form")
    return out


def sweep_run_verify():
    from bie2d.verify import run_verify

    lap = _stopwatch()
    report = run_verify()
    seconds = lap()
    if not report.passed:
        raise SystemExit("default run_verify failed")
    return {"run_verify": seconds}


def _within(measured, baseline):
    lo, hi = baseline if isinstance(baseline, tuple) else (baseline, baseline)
    return 0.7 * lo <= measured <= 1.3 * hi


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas_threads = pin_blas_threads(len(os.sched_getaffinity(0)))
    if args.one is not None:
        sys.path.insert(0, str(SRC))
        stages = sweep_run_verify() if args.one == "run_verify" else sweep_one(int(args.one))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"stages": stages, "peak_rss_mb": rss}))
        return 0

    rows = []
    for key in SIZES + ("run_verify",):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", str(key)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        baseline = BASELINE.get(key, {})
        for stage, seconds in result["stages"].items():
            row = {"N": key, "stage": stage, "seconds": seconds,
                   "peak_rss_mb": result["peak_rss_mb"]}
            if stage in baseline:
                row["baseline_s"] = baseline[stage]
                row["within_30pct"] = _within(seconds, baseline[stage])
            rows.append(row)
            flag = {True: "ok", False: "OUT"}.get(row.get("within_30pct"), "")
            print(f"{key!s:>10} {stage:20s} {seconds:10.4f} s  "
                  f"baseline {row.get('baseline_s', '-')!s:12} {flag}")
    doc = {"env": env_stamp(SEED, blas_threads), "rows": rows}
    out = HERE / "scaling_sweep.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
