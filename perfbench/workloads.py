"""The two benchmark workloads and the op kinds they are made of.

Each op has three steps: ``prepare`` builds the op's seeded inputs
(untimed), ``run`` makes the library calls (timed, one span per call into
a layer) and ``check`` compares the outputs with an analytic or
deterministic reference (untimed).  An op whose check fails counts as
failed.  ``cycle`` ops make one balanced round of the op kinds; the
harness always runs whole cycles.  A workload also has a set-up, a
``calibrate`` kernel and a ``tail_pct``, the percentile reported as the
tail latency: the highest with at least ten ops beyond it in a 45 s run at
the seed commit, fixed so that it stays on the same kind of op however
many ops a run fits in.

The calibration kernel is fixed numpy work of the same kind as the
workload's ops, run after every op; op times are reported in units of it.
On a shared host the speed can drift by 15-30 % over minutes (measured on
a 2-vCPU Xeon VM); the drift moves the kernel and the ops alike, so the
ratio repeats where raw times do not.
The kernel's inputs are fixed, not seeded, so that the unit is the same in
every run and on every commit.

- cold-sessions: cold CLI sessions on fresh meshes, solve and verify ops
  in turn.  A solve op is one ``bie2d solve`` session on an N = 768
  annulus, composed from the calls ``cli.cmd_solve`` makes: the O(N^3)
  steps (the density map, SVD least squares, Dirichlet-to-Neumann
  products) carry it.  A verify op is the identity suite on one stock
  geometry, as ``bie2d verify`` runs it: the J-inverse least squares and
  the null-space SVDs carry it, with many applications of the cached
  dense maps.  Every discarded mesh stays resident.
- dirichlet-warm: one N = 2048 annulus and its OperatorSet built in set-up;
  ops are O(N^2) Dirichlet solves on the factors plus O(M N) evaluation,
  so the O(N^3) steps show only in set-up and memory.
"""

import json
import os
import subprocess
import sys

import numpy as np
import scipy.linalg

from bie2d import cli
from bie2d.geometry import build_mesh, stock_specs
from bie2d.operators import operator_set
from bie2d.solvers import (
    dirichlet_exterior,
    dirichlet_interior,
    neumann_exterior,
    neumann_interior,
)
from bie2d.verify import run_verify

from reference import (
    R_INNER,
    R_OUTER,
    annulus_nodes,
    exterior_harmonic,
    interior_harmonic,
    region_component,
    region_points,
)

# The field CSV is evaluated with plain quadrature down to the
# near-boundary band (two node spacings), where its error is about
# exp(-4 pi) ~ 4e-6 of the density; the solves themselves are at rounding.
NEUMANN_FIELD_TOL = 1e-4
# Dirichlet probes keep 0.1 (eight node spacings) from the boundary.
DIRICHLET_TOL = 1e-8


def fresh_import(src):
    """Start-up of a fresh bie2d process: interpreter plus ``import bie2d``."""
    subprocess.run(
        [sys.executable, "-c", "import bie2d"],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )


class QuadratureKernel:
    """Log-distances from 300 points to 2048 nodes, summed with weights.

    The elementwise work of evaluating a layer potential off the boundary,
    on temporaries of the size the dirichlet-warm ops make.
    """

    def __init__(self):
        self.points = np.random.default_rng(0).uniform(-0.5, 0.5, (300, 2))
        self.nodes, _ = annulus_nodes(1024)
        self.weights = np.full(self.nodes.shape[0], 1.0 / self.nodes.shape[0])

    def __call__(self):
        d = self.points[:, None, :] - self.nodes[None, :, :]
        return np.log(np.linalg.norm(d, axis=-1)) @ self.weights


class DenseKernel:
    """An LU factorisation of a 768 x 768 matrix and an SVD of a 384 x 384 one.

    The dense LAPACK work that carries the cold-sessions ops.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((768, 768))

    def __call__(self):
        scipy.linalg.lu_factor(self.a)
        return np.linalg.svd(self.a[:384, :384], compute_uv=False)


def annulus_config(nodes):
    """The stock annulus as a ``bie2d solve`` domain config."""
    return {
        "components": [
            {"kind": "circle", "center": [0, 0], "radius": R_OUTER, "nodes": nodes},
            {"kind": "circle", "center": [0, 0], "radius": R_INNER,
             "orientation": "negative", "nodes": nodes},
        ]
    }


class NeumannCold:
    """``bie2d solve`` sessions: interior/exterior x csv/pairjson data."""

    cycle = 4
    nodes = 384

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config_path = workdir / "annulus.json"
        self.config_path.write_text(json.dumps(annulus_config(self.nodes)))
        self.x, self.normal = annulus_nodes(self.nodes)
        # near-boundary band: two spacings of the outer curve's nodes
        self.band = 2.0 * R_OUTER * 2.0 * np.pi / self.nodes

    def prepare(self, i):
        interior = i % 2 == 0
        pair = (i // 2) % 2 == 1
        harmonic = interior_harmonic if interior else exterior_harmonic
        rng = np.random.default_rng([self.seed, i])
        u = harmonic(rng)
        # datum: the normal derivative along the normal out of the annulus,
        # from the side of the field's region
        flux = u.normal_derivative(self.x, self.normal)
        if pair:
            # mu0 + S_side^t mu1 with mu1 the trace of a second harmonic h:
            # S_plus^t h = dn h (interior), S_minus^t h = -dn h (exterior)
            h = harmonic(rng)
            dn = h.normal_derivative(self.x, self.normal)
            pair_dict = {
                "side": "plus" if interior else "minus",
                "mu0": (flux - dn if interior else flux + dn).tolist(),
                "mu1": h.value(self.x).tolist(),
            }
            path = self.workdir / "data.json"
            path.write_text(json.dumps(pair_dict))
            spec = f"pairjson:{path}"
        else:
            path = self.workdir / "data.csv"
            path.write_text("".join("%.17g\n" % v for v in flux))
            spec = f"csv:{path}"
        return {
            "problem": "neumann-int" if interior else "neumann-ext",
            "region": "interior" if interior else "exterior",
            "spec": spec,
            "u": u,
            "field_path": self.workdir / "field.csv",
        }

    def run(self, case):
        span = self.tracer.span
        with span("cli.load_config"):
            cfg = cli.load_config(
                str(self.config_path), problem=case["problem"],
                data=case["spec"], out_dir=str(self.workdir),
            )
        with span("geometry.build_mesh"):
            mesh = cfg.build_mesh()
        with span("cli.build_data"):
            data = cli.build_data(cfg, mesh)
        with span("operators.operator_set"):
            operator_set(mesh)
        solver = neumann_interior if case["region"] == "interior" else neumann_exterior
        with span(f"solvers.{solver.__name__}"):
            report = solver(mesh, data)
        with span("cli.write_field_csv"):
            cli.write_field_csv(report.field, cli.default_grid(mesh), case["field_path"])
        return report

    def check(self, case, report):
        """Field CSV equals the seeded function up to a constant per component."""
        table = np.genfromtxt(case["field_path"], delimiter=",", skip_header=1)
        pts, vals = table[:, :2], table[:, 2]  # empty cells read as NaN
        label = region_component(pts, case["region"])
        usable = ~np.isnan(vals)
        r = np.hypot(pts[:, 0], pts[:, 1])
        clear = (label >= 0) & (np.minimum(abs(r - R_INNER), abs(r - R_OUTER)) > self.band)
        if np.any(usable & (label < 0)) or not np.all(usable[clear]):
            return False
        exact = case["u"].value(pts[usable])
        scale = max(1.0, float(np.max(np.abs(exact))))
        diff = vals[usable] - exact
        for comp in np.unique(label[usable]):
            d = diff[label[usable] == comp]
            if np.max(np.abs(d - np.mean(d))) > NEUMANN_FIELD_TOL * scale:
                return False
        return True


class DirichletWarm:
    """Dirichlet solves and evaluation on one prebuilt N = 2048 annulus."""

    cycle = 2
    min_ops = 20
    tail_pct = 96  # about 310 ops in 45 s
    max_ops = 1000
    setup_repeats = 3
    nodes = 1024
    eval_points = 300

    def __init__(self, seed, workdir, tracer, src):
        self.seed = seed
        self.tracer = tracer
        self.x, _ = annulus_nodes(self.nodes)
        self.mesh = None
        self.calibrate = QuadratureKernel()

    def setup(self):
        span = self.tracer.span
        specs = stock_specs("annulus")
        with span("geometry.build_mesh"):
            mesh = build_mesh(specs, [self.nodes] * len(specs))
        with span("operators.operator_set"):
            operator_set(mesh)
        self.mesh = mesh

    def prepare(self, i):
        region = "interior" if i % 2 == 0 else "exterior"
        rng = np.random.default_rng([self.seed, i])
        u = interior_harmonic(rng) if region == "interior" else exterior_harmonic(rng)
        pts = region_points(rng, self.eval_points, region)
        return {"region": region, "g": u.value(self.x), "points": pts,
                "exact": u.value(pts), "u_infinity": u.const}

    def run(self, case):
        span = self.tracer.span
        solver = dirichlet_interior if case["region"] == "interior" else dirichlet_exterior
        with span(f"solvers.{solver.__name__}"):
            report = solver(self.mesh, case["g"])
        with span("potentials.HarmonicField.eval"):
            values = report.field.eval(case["points"])
        return report, values

    def check(self, case, out):
        """Values at the probes, and the value at infinity, match the closed form."""
        report, values = out
        tol = DIRICHLET_TOL * max(1.0, float(np.max(np.abs(case["exact"]))))
        if not np.max(np.abs(values - case["exact"])) <= tol:
            return False
        if case["region"] == "exterior":
            return abs(report.u_infinity - case["u_infinity"]) <= tol
        return True


class VerifySuite:
    """The identity suite on disk, ellipse and annulus in turn (n = 256)."""

    cycle = 3
    nodes = 256
    trio = ("disk", "ellipse", "annulus")

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.first_rows = {}

    def prepare(self, i):
        return self.trio[i % len(self.trio)]

    def run(self, geom):
        span = self.tracer.span
        specs = stock_specs(geom)
        with span("geometry.build_mesh"):
            mesh = build_mesh(specs, [self.nodes] * len(specs))
        with span("operators.operator_set"):
            operator_set(mesh)
        with span("verify.run_verify"):
            return run_verify(meshes={geom: mesh}, n=self.nodes, seed=self.seed)

    def check(self, geom, report):
        """Every identity passes, with rows bit-identical to the first op on geom."""
        rows = [row.to_dict() for row in report.rows]
        return report.passed and rows == self.first_rows.setdefault(geom, rows)


class ColdSessions:
    """Solve and verify sessions in turn, each on a fresh mesh.

    One cycle is the four solve kinds and the three verify geometries,
    about 7.6 s at the seed commit: the four solves take about 0.55 s
    each, the disk and ellipse suites about 0.75 s and the annulus suite
    about 3.9 s.
    """

    cycle = NeumannCold.cycle + VerifySuite.cycle
    min_ops = 2 * cycle
    # about 42 ops in 45 s; p75 always falls on a disk or ellipse verify op
    tail_pct = 75
    max_ops = 10 * cycle  # about 36 MB stays resident per solve op
    setup_repeats = 9

    def __init__(self, seed, workdir, tracer, src):
        self.src = src
        self.solve = NeumannCold(seed, workdir, tracer)
        self.verify = VerifySuite(seed, tracer)
        self.calibrate = DenseKernel()

    def setup(self):
        fresh_import(self.src)

    def prepare(self, i):
        # even places of a cycle are solves, odd places verifies
        k, j = divmod(i, self.cycle)
        kind = self.solve if j % 2 == 0 else self.verify
        return kind, kind.prepare(k * kind.cycle + j // 2)

    def run(self, case):
        kind, inputs = case
        return kind.run(inputs)

    def check(self, case, out):
        kind, inputs = case
        return kind.check(inputs, out)


WORKLOADS = {
    "cold-sessions": ColdSessions,
    "dirichlet-warm": DirichletWarm,
}
