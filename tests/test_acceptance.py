"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Tolerances are fixed here and nowhere else.
"""

import numpy as np
import pytest
from conftest import near_probe_points

from bie2d.errors import IncompatibleData
from bie2d.geometry import CurveSpec, build_mesh, pairing, stock_mesh
from bie2d.operators import operator_set
from bie2d.potentials import value_at_infinity
from bie2d.verify import (
    _MeshCache,
    _third_green,
    check_plemelj_classical,
    check_vst_identities,
    check_w1_half,
    probe_points,
    seeded_density,
)
from bie2d.distributions import (
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    dist_pairing,
)
from bie2d.solvers import (
    _subspace_angle,
    dirichlet_exterior,
    dirichlet_exterior_via_decomposition,
    dirichlet_interior,
    dirichlet_interior_via_decomposition,
    neumann_exterior,
    neumann_interior,
    nullspace,
    poisson_interior,
    transpose_kernel_pair_basis,
)
from bie2d.cli import cmd_demo_hadamard

# residuals this small are indistinguishable from double-precision roundoff;
# a further tenfold decrease under refinement is not observable
ROUNDOFF_FLOOR = 1e-12

RNG_SEED = 20260810


def _report(num, name, residual, tol, extra=""):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"ACCEPT {num:02d} {name}: residual={residual:.3e} tol={tol:.0e} {status} {extra}")
    return residual <= tol


@pytest.fixture(scope="module")
def meshes():
    return {name: stock_mesh(name, 256) for name in
            ("disk", "ellipse", "annulus", "kite", "two-disks")}


def test_criterion_01_w_half_identity(meshes):
    tol = 1e-10
    worst = 0.0
    for name in ("disk", "ellipse", "annulus", "kite"):
        rng = np.random.default_rng(RNG_SEED)
        worst = max(worst, check_w1_half(meshes[name], rng, _MeshCache(meshes[name])))
    assert _report(1, "W-of-one-is-half", worst, tol)


def test_criterion_02_circle_diagonalization():
    tol = 1e-7
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        mesh = build_mesh([CurveSpec("circle", radius=a)], [128])
        ops = operator_set(mesh)
        for k in (1, 2, 3):
            f = np.cos(k * mesh.t)
            worst = max(worst, np.max(np.abs(ops.single_layer(f) + (a / (2 * k)) * f)))
            worst = max(worst, np.max(np.abs(ops.S_plus @ f - (k / a) * f)))
            worst = max(worst, np.max(np.abs(ops.S_minus @ f - (k / a) * f)))
    assert _report(2, "circle-diagonalization", worst, tol)


def test_criterion_03_classical_plemelj(meshes):
    tol = 1e-7
    worst = 0.0
    for name in ("disk", "ellipse", "annulus", "kite"):
        rng = np.random.default_rng(RNG_SEED)
        worst = max(worst, check_plemelj_classical(meshes[name], rng, _MeshCache(meshes[name])))
    assert _report(3, "classical-plemelj", worst, tol)


def test_criterion_04_distributional_plemelj_and_symmetry(meshes):
    tol = 1e-6
    worst = 0.0
    for name in ("disk", "ellipse", "annulus"):
        mesh = meshes[name]
        ops = operator_set(mesh)
        rng = np.random.default_rng(RNG_SEED)
        for i in range(10):
            side = "plus" if i % 2 == 0 else "minus"
            tau = PairDistribution(
                side, seeded_density(mesh, rng), seeded_density(mesh, rng), mesh
            )
            lhs = V_of_distribution(Wt_on_distribution(tau))
            rhs = ops.W @ V_of_distribution(tau)
            worst = max(worst, np.max(np.abs(lhs - rhs)))
            psi = seeded_density(mesh, rng)
            worst = max(
                worst,
                abs(dist_pairing(tau, ops.single_layer(psi))
                    - pairing(mesh, V_of_distribution(tau), psi)),
            )
    assert _report(4, "distributional-plemelj-symmetry", worst, tol)


def test_criterion_05_nullspace_dimensions(meshes):
    expected = {"disk": (0, 1), "annulus": (1, 1), "two-disks": (0, 2)}
    ok = True
    worst_angle = 0.0
    min_gap = float("inf")
    for name, (dplus, dminus) in expected.items():
        mesh = meshes[name]
        for kind, dim in (
            ("half_plus_W", dplus),
            ("minus_half_plus_W", dminus),
            ("half_plus_Wt", dplus),
            ("minus_half_plus_Wt", dminus),
        ):
            basis = nullspace(mesh, kind)
            ok = ok and basis.dimension == dim
            min_gap = min(min_gap, basis.gap)
        for kind in ("half_plus_Wt", "minus_half_plus_Wt"):
            angle = _subspace_angle(nullspace(mesh, kind).vectors,
                                    transpose_kernel_pair_basis(mesh, kind))
            worst_angle = max(worst_angle, angle)
    residual = worst_angle if ok and min_gap >= 1e6 else float("inf")
    assert _report(5, "nullspace-dimensions", residual, 1e-5,
                   extra=f"(min gap {min_gap:.1e})")


def test_criterion_06_closed_trace_identities(meshes):
    tol = 1e-6
    worst = 0.0
    for name in ("disk", "ellipse", "annulus"):
        rng = np.random.default_rng(RNG_SEED)
        worst = max(worst, check_vst_identities(meshes[name], rng, _MeshCache(meshes[name])))
    assert _report(6, "closed-trace-identities", worst, tol)


def test_criterion_07_third_green_identities(meshes):
    tol = 1e-6
    worst = 0.0
    for name in ("disk", "ellipse", "annulus"):
        mesh, rng = meshes[name], np.random.default_rng(RNG_SEED)
        worst = max(worst, _third_green(mesh, rng, _MeshCache(mesh), "interior"))
        worst = max(worst, _third_green(mesh, rng, _MeshCache(mesh), "exterior"))
    assert _report(7, "third-green-identities", worst, tol)


def test_criterion_08_neumann_solvers(meshes):
    mesh = meshes["disk"]
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    worst = 0.0

    rep = neumann_interior(mesh, np.cos(mesh.t))
    ring = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = rep.field.eval_unchecked(ring)
    err = u - 0.5 * np.cos(theta)
    worst = max(worst, np.max(np.abs(err - np.mean(err))))

    rep = neumann_exterior(mesh, np.cos(mesh.t))
    ring = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = rep.field.eval_unchecked(ring)
    worst = max(worst, np.max(np.abs(u + np.cos(theta) / 2.0)))
    ok8 = _report(8, "neumann-solvers", worst, 1e-7)

    out = value_at_infinity(rep.field, 8.0)
    uinf_err = abs(out.mean - rep.u_infinity)
    ok8b = _report(8, "neumann-value-at-infinity", uinf_err, 1e-6)
    assert ok8 and ok8b


def test_criterion_09_compatibility_rejection(meshes):
    mesh = meshes["disk"]
    ones = np.ones(mesh.n)
    worst = float("inf")
    try:
        neumann_interior(mesh, ones)
    except IncompatibleData as err:
        worst = abs(err.pairings[0] - 2 * np.pi)
    try:
        neumann_exterior(mesh, ones)
    except IncompatibleData as err:
        worst = max(worst, abs(err.pairings[0] - 2 * np.pi))
    assert _report(9, "compatibility-rejection", worst, 1e-10)


def test_criterion_10_poisson_representations(meshes):
    tol = 1e-6
    worst = 0.0
    mesh = meshes["ellipse"]
    rng = np.random.default_rng(RNG_SEED)
    g = seeded_density(mesh, rng)
    rd = dirichlet_interior(mesh, g)
    for p in probe_points(mesh, "interior", count=10):
        worst = max(
            worst,
            abs(poisson_interior(mesh, g, p) - rd.field.eval_unchecked(p[None])[0]),
        )
    for p in probe_points(mesh, "exterior", count=10):
        worst = max(worst, abs(poisson_interior(mesh, g, p)))
    assert _report(10, "poisson-representations", worst, tol)


def test_criterion_11_cross_solver_agreement(meshes):
    tol = 1e-6
    worst = 0.0
    for name in ("disk", "annulus"):
        mesh = meshes[name]
        rng = np.random.default_rng(RNG_SEED)
        g = seeded_density(mesh, rng)
        r1 = dirichlet_interior(mesh, g)
        r2 = dirichlet_interior_via_decomposition(mesh, g)
        pts = probe_points(mesh, "interior", count=10)
        worst = max(
            worst,
            np.max(np.abs(r1.field.eval_unchecked(pts) - r2.field.eval_unchecked(pts))),
        )
        r1 = dirichlet_exterior(mesh, g)
        r2 = dirichlet_exterior_via_decomposition(mesh, g)
        pts = probe_points(mesh, "exterior", count=10)
        worst = max(
            worst,
            np.max(np.abs(r1.field.eval_unchecked(pts) - r2.field.eval_unchecked(pts))),
        )
    assert _report(11, "cross-solver-agreement", worst, tol)


def test_criterion_12_hadamard_demo(tmp_path):
    _, out = cmd_demo_hadamard(4, 256, str(tmp_path))
    recovery = out["recovery_sup_error_at_half_radius"]
    ok_rec = _report(12, "hadamard-recovery", recovery, 1e-5)
    sums = np.array([row["energy_partial_sum"] for row in out["energy_table"]])
    expected = np.pi * np.cumsum([2.0**k / k**4 for k in range(1, 5)])
    table_err = float(np.max(np.abs(sums - expected)))
    monotone = bool(np.all(np.diff(sums) > 0))
    ok_tab = _report(
        12, "hadamard-energy-table", table_err if monotone else float("inf"), 1e-10,
        extra="(monotone)" if monotone else "(not monotone)",
    )
    assert ok_rec and ok_tab


class _NearProbes(_MeshCache):
    """A mesh cache whose probes are the closest admissible ones (near_probe_points)."""

    def probes(self, region, count=25):
        return near_probe_points(self.mesh, region, count)


def test_criterion_13_convergence():
    names = {
        "w1-half": check_w1_half,
        "plemelj": check_plemelj_classical,
        "closed-trace": check_vst_identities,
        "third-green": lambda m, r, c: max(
            _third_green(m, r, _NearProbes(m), "interior"),
            _third_green(m, r, _NearProbes(m), "exterior"),
        ),
    }
    coarse = stock_mesh("ellipse", 128)
    fine = stock_mesh("ellipse", 256)
    all_ok = True
    for label, fn in names.items():
        res = {}
        for mesh, tag in ((coarse, 128), (fine, 256)):
            rng = np.random.default_rng(RNG_SEED)
            res[tag] = fn(mesh, rng, _MeshCache(mesh))
        decreased = res[256] <= res[128] / 10.0
        floored = res[256] <= ROUNDOFF_FLOOR
        ok = decreased or floored
        all_ok = all_ok and ok
        note = "10x-decrease" if decreased else (
            "at-roundoff-floor" if floored else "no-decrease")
        print(
            f"ACCEPT 13 convergence[{label}]: N128={res[128]:.3e} "
            f"N256={res[256]:.3e} {note} {'PASS' if ok else 'FAIL'}"
        )
    assert all_ok
