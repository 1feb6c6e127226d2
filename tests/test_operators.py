import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from bie2d.errors import LengthMismatch, OutOfRange, SingularPoint
from bie2d.geometry import CurveSpec, build_mesh, pairing, stock_mesh
from bie2d.operators import (
    OperatorMatrix,
    assemble_V,
    assemble_W,
    assemble_Wt,
    fundamental_solution,
    grad_fundamental_solution,
    operator_set,
    save_matrix,
    steklov,
)


def circle_mesh(radius, n):
    return build_mesh([CurveSpec("circle", radius=radius)], [n])


def test_fundamental_solution_values():
    assert abs(fundamental_solution(2, np.array([1.0, 0.0]))) < 1e-15
    assert abs(fundamental_solution(2, np.array([np.e, 0.0])) - 1 / (2 * np.pi)) < 1e-15
    with pytest.raises(SingularPoint):
        fundamental_solution(2, np.zeros(2))
    with pytest.raises(SingularPoint):
        fundamental_solution(3, np.array([0.0, 1.0, 0.0]))


def test_gradient_matches_finite_differences():
    h = 1e-6
    xi = np.array([0.7, -0.4])
    g = grad_fundamental_solution(2, xi)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (fundamental_solution(2, xi + e) - fundamental_solution(2, xi - e)) / (2 * h)
        assert abs(g[axis] - fd) < 1e-8


def log_kernel_mode_integral(k):
    """Independent oracle: int_0^{2pi} log(4 sin^2(t/2)) cos(k t) dt by quadrature."""
    val, err = quad(
        lambda t: np.log(4.0 * np.sin(t / 2.0) ** 2) * np.cos(k * t),
        0.0,
        2.0 * np.pi,
        points=[0.0, 2.0 * np.pi],
        limit=200,
    )
    assert err < 1e-7
    return val


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_layer_circle_modes(a, k):
    # on a circle of radius a the mode cos(k t) is an eigenfunction of V
    # with eigenvalue (a / 4 pi) * (oracle integral) = -a / (2k)
    eigval = (a / (4.0 * np.pi)) * log_kernel_mode_integral(k)
    assert abs(eigval + a / (2 * k)) < 1e-10
    mesh = circle_mesh(a, 128)
    f = np.cos(k * mesh.t)
    V = assemble_V(mesh)
    assert np.max(np.abs(V.apply(f) - eigval * f)) < 1e-8


def test_single_layer_circle_constants():
    mesh = circle_mesh(1.0, 64)
    V = assemble_V(mesh)
    assert np.max(np.abs(V.apply(np.ones(64)))) < 1e-10
    mesh = circle_mesh(2.0, 64)
    V = assemble_V(mesh)
    assert np.max(np.abs(V.apply(np.ones(64)) - 2 * np.log(2.0))) < 1e-10


def test_w_of_one_is_half(disk, ellipse, annulus, kite):
    for mesh in (disk, ellipse, annulus, kite):
        W = assemble_W(mesh)
        assert np.max(np.abs(W.apply(np.ones(mesh.n)) - 0.5)) < 1e-10


def test_w_kills_circle_modes():
    mesh = circle_mesh(2.0, 64)
    W = assemble_W(mesh)
    for k in (1, 2, 3):
        assert np.max(np.abs(W.apply(np.cos(k * mesh.t)))) < 1e-10
    Wt = assemble_Wt(mesh)
    assert np.max(np.abs(Wt.apply(np.ones(64)) - 0.5)) < 1e-10


def test_wt_duality_exact(ellipse, rng):
    W = assemble_W(ellipse)
    Wt = assemble_Wt(ellipse)
    f = rng.standard_normal(ellipse.n)
    g = rng.standard_normal(ellipse.n)
    lhs = pairing(ellipse, Wt.apply(f), g)
    rhs = pairing(ellipse, f, W.apply(g))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_v_symmetry(kite, rng):
    V = assemble_V(kite)
    f = rng.standard_normal(kite.n)
    g = rng.standard_normal(kite.n)
    assert abs(pairing(kite, V.apply(f), g) - pairing(kite, f, V.apply(g))) < 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_steklov_circle_modes(a):
    mesh = circle_mesh(a, 128)
    Sp = steklov(mesh, "plus")
    Sm = steklov(mesh, "minus")
    for k in (1, 2, 3):
        f = np.cos(k * mesh.t)
        assert np.max(np.abs(Sp.apply(f) - (k / a) * f)) < 1e-8
        assert np.max(np.abs(Sm.apply(f) - (k / a) * f)) < 1e-8


def test_steklov_of_constant_vanishes(ellipse, annulus):
    for mesh in (ellipse, annulus):
        Sp = steklov(mesh, "plus")
        assert np.max(np.abs(Sp.apply(np.ones(mesh.n)))) < 1e-9
        Sm = steklov(mesh, "minus")
        assert np.max(np.abs(Sm.apply(np.ones(mesh.n)))) < 1e-9


def test_steklov_flux_vanishes_per_component(annulus, rng):
    from bie2d.geometry import indicator, topology_of

    ops = operator_set(annulus)
    topo = topology_of(annulus)
    v = np.cos(annulus.t) + 0.5 * np.sin(2 * annulus.t) + 0.3
    flux = ops.S_plus @ v
    for j in range(1, topo.kappa_plus + 1):
        assert abs(pairing(annulus, flux, indicator(topo, "omega", j))) < 1e-8


def test_plemelj_symmetrization(disk, ellipse, kite, rng):
    from bie2d.verify import seeded_density

    for mesh in (disk, ellipse, kite):
        ops = operator_set(mesh)
        for _ in range(5):
            f = seeded_density(mesh, rng)
            res = np.max(np.abs(ops.V @ (ops.Wt @ f) - ops.W @ (ops.V @ f)))
            assert res < 1e-7


def test_apply_validation(disk):
    V = assemble_V(disk)
    assert np.max(np.abs(V.apply(np.zeros(disk.n)))) == 0.0
    with pytest.raises(LengthMismatch):
        V.apply(np.ones(disk.n + 2))


def test_spectral_convergence_of_w_identity():
    # on the kite the residual is still visible at N=64 and must collapse
    # geometrically as the node count doubles
    residuals = []
    for n in (64, 128, 256):
        mesh = stock_mesh("kite", n)
        W = assemble_W(mesh)
        residuals.append(np.max(np.abs(W.apply(np.ones(n)) - 0.5)))
    assert residuals[1] < residuals[0] / 10 or residuals[1] < 1e-13
    assert residuals[2] < residuals[1] / 10 or residuals[2] < 1e-13


def test_matrix_dump_roundtrip(tmp_path, disk128):
    V = assemble_V(disk128)
    path = tmp_path / "v.csv"
    save_matrix(V, path)
    with open(path) as fh:
        header = fh.readline()
    assert "kind=V" in header and f"n={disk128.n}" in header
    back = np.loadtxt(path, delimiter=",")
    assert np.allclose(back, V.matrix, atol=1e-12)
    save_matrix(V, tmp_path / "v.npy", fmt="npy")
    assert np.array_equal(np.load(tmp_path / "v.npy"), V.matrix)


def test_operator_matrix_kind_tags(disk128):
    assert np.all(np.isfinite(assemble_V(disk128).matrix))
    assert np.all(np.isfinite(assemble_W(disk128).matrix))
    assert assemble_V(disk128).kind == "V"
    assert assemble_W(disk128).kind == "W"
    assert assemble_Wt(disk128).kind == "Wt"
    assert steklov(disk128, "plus").kind == "Splus"
    assert steklov(disk128, "minus").kind == "Sminus"
    assert isinstance(steklov(disk128, "plus"), OperatorMatrix)


def test_steklov_rejects_unknown_side(disk128):
    from bie2d.errors import OutOfRange

    with pytest.raises(OutOfRange):
        steklov(disk128, "sideways")


def test_steklov_against_harmonic_oracles(ellipse, kite):
    # independent oracle: normal derivatives of explicit harmonic functions
    for mesh in (ellipse, kite):
        ops = operator_set(mesh)
        x, y = mesh.x[:, 0], mesh.x[:, 1]
        g = x**2 - y**2
        dn = 2.0 * (mesh.normal[:, 0] * x - mesh.normal[:, 1] * y)
        assert np.max(np.abs(ops.S_plus @ g - dn)) < 1e-9
        # x / (x^2 + y^2) is harmonic outside and vanishes at infinity
        r2 = x**2 + y**2
        u = x / r2
        ux = (y**2 - x**2) / r2**2
        uy = -2.0 * x * y / r2**2
        dn_minus = -(mesh.normal[:, 0] * ux + mesh.normal[:, 1] * uy)
        assert np.max(np.abs(ops.S_minus @ u - dn_minus)) < 1e-9


def _held_bytes(ops):
    """nbytes of the arrays each OperatorSet attribute holds, containers included."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in arrays(v)]
        return []

    held = {name: arrays(value) for name, value in vars(ops).items()}
    return {name: sum(a.nbytes for a in found) for name, found in held.items() if found}


def test_operator_set_holds_only_its_factors():
    from bie2d.distributions import PairDistribution, dist_jump_check
    from bie2d.solvers import neumann_exterior, neumann_interior
    from bie2d.verify import run_verify

    mesh = stock_mesh("annulus", 96)
    n = mesh.n
    ops = operator_set(mesh)
    held = _held_bytes(ops)
    assert set(held) == {"V", "W", "q", "weights", "_bordered_lu"}
    assert sum(held.values()) <= 8 * (2 * n**2 + (n + 1) ** 2) + 64 * (n + 1)

    g = np.cos(mesh.t)  # no flux through any component of either side
    neumann_interior(mesh, g)
    neumann_exterior(mesh, g)
    dist_jump_check(PairDistribution("minus", g - np.mean(g), np.sin(mesh.t), mesh))
    assert run_verify(meshes={"annulus": mesh}, n=96).passed
    ops.S_plus, ops.S_minus
    assert mesh.operators is ops
    assert _held_bytes(ops) == held


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_rep_is_the_weighted_transpose_of_the_dense_map(annulus, kite, rng, side):
    # independent route: the dense map, transposed in the weighted pairing
    for mesh in (annulus, kite):
        ops = operator_set(mesh)
        w = mesh.weights
        S = steklov(mesh, side).matrix
        dense = (S.T * w[None, :]) / w[:, None]
        for _ in range(3):
            mu = rng.standard_normal(mesh.n)
            expected = dense @ mu
            err = np.max(np.abs(ops.rep(side, mu) - expected))
            assert err <= 1e-10 * np.max(np.abs(expected))


def test_dtn_applies_blocks_and_checks_its_input(ellipse, rng):
    ops = operator_set(ellipse)
    block = rng.standard_normal((ellipse.n, 3))
    for side in ("plus", "minus"):
        out = ops.dtn(side, block)
        for j in range(3):
            col = ops.dtn(side, block[:, j])
            assert np.max(np.abs(out[:, j] - col)) <= 1e-12 * np.max(np.abs(col))
    for apply in (ops.dtn, ops.rep):
        with pytest.raises(OutOfRange):
            apply("sideways", block[:, 0])
        with pytest.raises(LengthMismatch):
            apply("plus", np.ones(ellipse.n + 1))


def _reversed(mesh, curve):
    """The mesh with the normal and curvature of one curve flipped."""
    sl = mesh.component_slice(curve)
    normal, curvature = mesh.normal.copy(), mesh.curvature.copy()
    normal[sl] *= -1.0
    curvature[sl] *= -1.0
    return dataclasses.replace(mesh, normal=normal, curvature=curvature, operators=None)


def test_w1_check_tells_under_resolution_from_orientation():
    from bie2d.errors import InvalidGeometry

    two_close = build_mesh(
        [CurveSpec("circle", center=(-1.05, 0.0), radius=1.0),
         CurveSpec("circle", center=(1.05, 0.0), radius=1.0)], [64, 64]
    )
    for mesh, curves in ((stock_mesh("kite", 16), "0"), (two_close, "[01]")):
        with pytest.raises(InvalidGeometry, match=f"under-resolved.* on curve {curves} "):
            assemble_W(mesh)
    # a reversed normal moves W 1 by about 1 on its curve: to -1/2 on an
    # outer curve, to 3/2 on a hole
    for name, curve in (("disk", 0), ("annulus", 1)):
        with pytest.raises(InvalidGeometry, match=f"orientation.* on curve {curve} "):
            assemble_W(_reversed(stock_mesh(name, 64), curve))
