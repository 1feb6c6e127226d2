import tracemalloc

import numpy as np
import pytest
from conftest import (BorderedLU, dense_v, dense_wt, negated_single_layer, reversed_curve,
                      rows_per_block)
from scipy.integrate import quad

from bie2d import cli
from bie2d.distributions import PairDistribution, Wt_on_distribution, dist_normal_derivative
from bie2d.errors import LengthMismatch, OutOfRange, SingularSystem
from bie2d.geometry import CurveSpec, _TargetBlocks, build_mesh, pairing, stock_mesh
from bie2d.operators import (OperatorSet, _assemble_V, _log_correction, _Nodes, _w_pass,
                             operator_set)
from bie2d.potentials import trace_single
from bie2d.solvers import (dirichlet_exterior, dirichlet_interior, green_h, neumann_interior,
                           poisson_interior)
from bie2d.verify import run_verify


def circle_mesh(radius, n):
    return build_mesh([CurveSpec("circle", radius=radius)], [n])


def _kernels(mesh, points):
    """Both layer kernels of the points against every node of the mesh."""
    (_, targets), = _TargetBlocks(mesh, points)
    return targets.single_kernel.copy(), targets.double_kernel.copy()


def test_fundamental_solution_values():
    # the single-layer kernel is the fundamental solution log|x - y| / 2 pi
    mesh = circle_mesh(1.0, 16)
    y = mesh.x[0]
    single, _ = _kernels(mesh, [y + (1.0, 0.0), y + (np.e, 0.0)])
    assert abs(single[0, 0]) < 1e-15
    assert abs(single[1, 0] - 1 / (2 * np.pi)) < 1e-15


def test_gradient_matches_finite_differences():
    # the double-layer kernel is the derivative of the single-layer kernel
    # along nu(y), the node's normal, at fixed x
    h = 1e-6
    mesh = circle_mesh(1.0, 16)
    x = np.array([0.7, -0.4])
    _, double = _kernels(mesh, x)
    for j in range(mesh.n):
        e = h * mesh.normal[j]
        # moving x by -e moves x - y as moving y by +e does
        fd = (_kernels(mesh, x - e)[0][0, j] - _kernels(mesh, x + e)[0][0, j]) / (2 * h)
        assert abs(double[0, j] - fd) < 1e-8


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
    V = operator_set(mesh).single_layer
    assert np.max(np.abs(V(f) - eigval * f)) < 1e-8


def test_single_layer_circle_constants():
    mesh = circle_mesh(1.0, 64)
    V = operator_set(mesh).single_layer
    assert np.max(np.abs(V(np.ones(64)))) < 1e-10
    mesh = circle_mesh(2.0, 64)
    V = operator_set(mesh).single_layer
    assert np.max(np.abs(V(np.ones(64)) - 2 * np.log(2.0))) < 1e-10


def test_w_of_one_is_half(disk, ellipse, annulus, kite):
    for mesh in (disk, ellipse, annulus, kite):
        W = operator_set(mesh).W
        assert np.max(np.abs(W @ np.ones(mesh.n) - 0.5)) < 1e-10


def test_w_kills_circle_modes():
    mesh = circle_mesh(2.0, 64)
    ops = operator_set(mesh)
    for k in (1, 2, 3):
        assert np.max(np.abs(ops.W @ np.cos(k * mesh.t))) < 1e-10
    assert np.max(np.abs(dense_wt(mesh) @ np.ones(64) - 0.5)) < 1e-10


def test_wt_duality_exact(ellipse, rng):
    ops = operator_set(ellipse)
    f = rng.standard_normal(ellipse.n)
    g = rng.standard_normal(ellipse.n)
    lhs = pairing(ellipse, dense_wt(ellipse) @ f, g)
    rhs = pairing(ellipse, f, ops.W @ g)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_v_symmetry(kite, rng):
    V = operator_set(kite).single_layer
    f = rng.standard_normal(kite.n)
    g = rng.standard_normal(kite.n)
    assert abs(pairing(kite, V(f), g) - pairing(kite, f, V(g))) < 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_steklov_circle_modes(a):
    mesh = circle_mesh(a, 128)
    ops = operator_set(mesh)
    Sp, Sm = ops.S_plus, ops.S_minus
    for k in (1, 2, 3):
        f = np.cos(k * mesh.t)
        assert np.max(np.abs(Sp @ f - (k / a) * f)) < 1e-8
        assert np.max(np.abs(Sm @ f - (k / a) * f)) < 1e-8


def test_steklov_of_constant_vanishes(ellipse, annulus):
    for mesh in (ellipse, annulus):
        ops = operator_set(mesh)
        assert np.max(np.abs(ops.S_plus @ np.ones(mesh.n))) < 1e-9
        assert np.max(np.abs(ops.S_minus @ np.ones(mesh.n))) < 1e-9


def test_steklov_flux_vanishes_per_component(annulus, rng):
    from bie2d.geometry import indicator

    ops = operator_set(annulus)
    topo = annulus.topology
    v = np.cos(annulus.t) + 0.5 * np.sin(2 * annulus.t) + 0.3
    flux = ops.S_plus @ v
    for j in range(1, topo.kappa_plus + 1):
        assert abs(pairing(annulus, flux, indicator(topo, "omega", j))) < 1e-8


def test_plemelj_symmetrization(disk, ellipse, kite, rng):
    from bie2d.verify import seeded_density

    for mesh in (disk, ellipse, kite):
        ops, Wt = operator_set(mesh), dense_wt(mesh)
        for _ in range(5):
            f = seeded_density(mesh, rng)
            res = np.max(np.abs(ops.single_layer(Wt @ f) - ops.W @ ops.single_layer(f)))
            assert res < 1e-7


def test_apply_validation(disk):
    assert np.max(np.abs(trace_single(disk, np.zeros(disk.n)))) == 0.0
    with pytest.raises(LengthMismatch):
        trace_single(disk, np.ones(disk.n + 2))


def test_spectral_convergence_of_w_identity():
    # on the kite the residual is still visible at N=64 and must collapse
    # geometrically as the node count doubles
    residuals = []
    for n in (64, 128, 256):
        mesh = stock_mesh("kite", n)
        W = operator_set(mesh).W
        residuals.append(np.max(np.abs(W @ np.ones(n) - 0.5)))
    assert residuals[1] < residuals[0] / 10 or residuals[1] < 1e-13
    assert residuals[2] < residuals[1] / 10 or residuals[2] < 1e-13


def test_operator_matrix_kind_tags(disk128):
    ops = operator_set(disk128)
    assert np.all(np.isfinite(dense_v(disk128)))
    assert np.all(np.isfinite(ops.W))


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
    """nbytes of the arrays each OperatorSet attribute holds, containers included,
    each array counted once however many times the attribute holds it."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):  # a view holds its base
                value = value.base
            return [value]
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in arrays(v)]
        return []

    held = {name: arrays(value) for name, value in vars(ops).items()}
    return {name: sum(a.nbytes for a in {id(a): a for a in found}.values())
            for name, found in held.items() if found}


def test_operator_set_holds_only_its_factors():
    from bie2d.distributions import PairDistribution, Wt_on_distribution, dist_jump_check
    from bie2d.solvers import neumann_exterior, neumann_interior
    from bie2d.verify import run_verify

    mesh = stock_mesh("annulus", 96)
    n = mesh.n
    ops = operator_set(mesh)
    # O(n) alone: the nodes and normals, two columns each, and the speeds,
    # curvatures and weights that the passes read
    built = {"_nodes": 56 * n}
    assert _held_bytes(ops) == built
    # a Dirichlet solve builds the factor alone: its (n - 1)^2 array,
    # L_ii - T_ii, and u, row 0 of H A H, row 0 and column 0 of A and q, five
    # vectors of n
    dirichlet_interior(mesh, np.cos(mesh.t))
    factored = {**built, "_single": 8 * (n - 1) ** 2 + 8 * (n - 1) + 40 * n}
    assert _held_bytes(ops) == factored
    ops.W
    held = {**factored, "W": 8 * n**2}
    assert _held_bytes(ops) == held

    g = np.cos(mesh.t)  # no flux through any component of either side
    tau = PairDistribution("minus", g - np.mean(g), np.sin(mesh.t), mesh)
    dist_jump_check(tau)
    # the J map inverts through the single layer's factor and keeps nothing
    Wt_on_distribution(tau)
    assert _held_bytes(ops) == held
    neumann_interior(mesh, g)
    neumann_exterior(mesh, g)
    assert run_verify(meshes={"annulus": mesh}, n=96).passed
    ops.S_plus, ops.S_minus
    assert mesh.operators is ops
    # besides, each side solved keeps the border and kernel of its bordered
    # Neumann system, two (n, k) arrays, k its component count, and the LU
    # of its preconditioner's (m + k) square coarse system with its int32
    # pivots; the m coarse nodes (every second node of a 96-node curve) and
    # the (m, n) coarse rule are held once, by both sides' records
    assert set(ops.bordered) == {"plus", "minus"}
    widths = (mesh.topology.kappa_plus, mesh.topology.kappa_minus)
    m = n // 2
    record = 8 * (m + m * n) + sum(8 * (2 * n * k + (m + k) ** 2) + 4 * (m + k) for k in widths)
    assert _held_bytes(ops) == {**held, "bordered": record}


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_rep_is_the_weighted_transpose_of_the_dense_map(annulus, kite, rng, side):
    # independent route: the dense map, transposed in the weighted pairing
    for mesh in (annulus, kite):
        ops = operator_set(mesh)
        w = mesh.weights
        S = ops.dtn(side, np.eye(mesh.n))
        dense = (S.T * w[None, :]) / w[:, None]
        for _ in range(3):
            mu = rng.standard_normal(mesh.n)
            expected = dense @ mu
            err = np.max(np.abs(ops.rep(side, mu) - expected))
            assert err <= 1e-10 * np.max(np.abs(expected))


def test_dtn_applies_blocks_and_checks_its_input(ellipse, rng):
    # a block applies Wt as ((D x)^T W)^T, a grid function as W^T (D x)
    ops = operator_set(ellipse)
    block = rng.standard_normal((ellipse.n, 3))
    for side in ("plus", "minus"):
        for apply in (ops.dtn, ops.rep):
            out = apply(side, block)
            for j in range(3):
                col = apply(side, block[:, j])
                assert np.max(np.abs(out[:, j] - col)) <= 1e-14 * np.max(np.abs(col))
    for apply in (ops.dtn, ops.rep):
        with pytest.raises(OutOfRange):
            apply("sideways", block[:, 0])
        with pytest.raises(LengthMismatch):
            apply("plus", np.ones(ellipse.n + 1))


def _relative(x, reference):
    return np.max(np.abs(x - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("name", ["disk", "disk2", "ellipse", "annulus", "kite", "two-disks"])
def test_projected_cholesky_matches_the_bordered_lu(name, rng):
    mesh = stock_mesh(name, 256)
    ops, lu = operator_set(mesh), BorderedLU(mesh)
    g = np.cos(3.0 * mesh.t) + mesh.x[:, 0] ** 2
    eta, c = ops.harmonic_density(g)
    eta_lu, c_lu = lu.harmonic_density(g)
    assert _relative(eta, eta_lu) <= 1e-10
    assert abs(c - c_lu) <= 1e-10 * max(1.0, abs(c_lu))
    assert _relative(ops.q, lu.q) <= 1e-10
    block = rng.standard_normal((mesh.n, 3))
    for side in ("plus", "minus"):
        assert _relative(ops.dtn(side, block), lu.dtn(side, block)) <= 1e-10
        assert _relative(ops.rep(side, block), lu.rep(side, block)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_set_refuses_non_finite_input(ellipse, bad):
    ops = operator_set(ellipse)
    f = np.ones(ellipse.n)
    f[7] = bad
    for apply in (ops.harmonic_density, lambda f: ops.dtn("plus", f),
                  lambda f: ops.rep("minus", f[:, None])):
        with pytest.raises(OutOfRange, match="NaN or infinity") as info:
            apply(f)
        assert len(str(info.value).splitlines()) == 1


def test_grid_functions_must_be_real(ellipse):
    ops = operator_set(ellipse)
    for apply in (ops.harmonic_density, lambda f: ops.dtn("plus", f)):
        with pytest.raises(OutOfRange, match="complex") as info:
            apply(np.ones(ellipse.n) + 1j)
        assert len(str(info.value).splitlines()) == 1
    with pytest.raises(OutOfRange, match="complex"):
        pairing(ellipse, np.ones(ellipse.n), np.ones(ellipse.n, dtype=complex))


def test_indefinite_single_layer_names_the_failed_minor(monkeypatch):
    # the set is built; the factor fails on its first use, and on every use
    # after it, since nothing is kept
    negated_single_layer(monkeypatch)
    mesh = stock_mesh("disk", 64)
    ops = OperatorSet(mesh)
    for use in (lambda: ops.q, lambda: ops.harmonic_density(np.cos(mesh.t))):
        with pytest.raises(SingularSystem, match="not definite: leading minor 1 of") as info:
            use()
        assert len(str(info.value).splitlines()) == 1
    assert "_single" not in vars(ops)


_FIRST_USES = {
    "W": lambda mesh: operator_set(mesh).W,
    "q": lambda mesh: operator_set(mesh).q,
    "dirichlet": lambda mesh: dirichlet_interior(mesh, np.ones(mesh.n)),
}


@pytest.mark.parametrize("use", list(_FIRST_USES))
def test_w1_check_tells_under_resolution_from_orientation(use):
    # the gate runs in the set's first dense pass, W's or the row sums that
    # come before the single layer's factor; building the set checks nothing
    from bie2d.errors import InvalidGeometry

    two_close = build_mesh(
        [CurveSpec("circle", center=(-1.05, 0.0), radius=1.0),
         CurveSpec("circle", center=(1.05, 0.0), radius=1.0)], [64, 64]
    )
    # x = cos t + 0.3 cos 10t, y = sin t at 64 nodes: its largest miss is
    # about 2, but most of its rows miss by far less than 1/2
    wiggly = build_mesh([CurveSpec("fourier", cos_x=(0.0, 1.0) + (0.0,) * 8 + (0.3,),
                                   sin_y=(0.0, 1.0))], [64])
    under = "double layer under-resolved: |W 1 - 1/2| = "
    # a reversed normal moves W 1 by about 1 on every row of its curve: to
    # -1/2 on an outer curve, to 3/2 on a hole
    reversed_ = "double layer sign/orientation check failed: |W 1 - 1/2| = 1.000e+00 on curve "
    cases = [(stock_mesh("kite", 16), under + "5.052e-03 on curve 0 with 16 nodes"),
             (two_close, under + "2.248e-03 on curve 1 with 64 nodes"),
             (wiggly, under + "2.042e+00 on curve 0 with 64 nodes"),
             (reversed_curve(stock_mesh("disk", 64), 0), reversed_ + "0 with 64 nodes"),
             (reversed_curve(stock_mesh("annulus", 64), 1), reversed_ + "1 with 64 nodes")]
    for mesh, message in cases:
        operator_set(mesh)
        # a failed pass keeps nothing, so the next use fails the same way
        for _ in range(2):
            with pytest.raises(InvalidGeometry) as caught:
                _FIRST_USES[use](mesh)
            assert str(caught.value) == message


def _separate_assembly(mesh):
    """V and W by the formulas of two independent passes over the node pairs."""
    d = mesh.x[:, None, :] - mesh.x[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    # V's smooth fill reads speed^2 on the diagonal, W's kernel 1
    limit = dist2.copy()
    np.fill_diagonal(limit, mesh.speed**2)
    np.fill_diagonal(dist2, 1.0)
    V = (0.25 / np.pi) * np.log(limit) * mesh.weights[None, :]
    for c, nc in enumerate(mesh.n_per_comp):
        sl = mesh.component_slice(c)
        idx = np.arange(nc)
        G = _log_correction(nc)[(idx[:, None] - idx[None, :]) % nc]
        V[sl, sl] += G * ((0.25 / np.pi) * mesh.speed[sl][None, :])
    num = d[:, :, 0] * mesh.normal[None, :, 0] + d[:, :, 1] * mesh.normal[None, :, 1]
    kw = -num / (2.0 * np.pi * dist2)
    np.fill_diagonal(kw, mesh.curvature / (4.0 * np.pi))
    return V, kw * mesh.weights[None, :]


def _cosine_log_row(nc):
    """Kress's product-quadrature row of the log kernel, summed as its cosine series."""
    m = np.arange(nc)
    k = np.arange(1, nc // 2)
    cosines = np.cos(2.0 * np.pi * np.outer(m, k) / nc)
    row = -(4.0 * np.pi / nc) * (cosines @ (1.0 / k))
    row -= (4.0 * np.pi / nc**2) * np.cos(np.pi * m)
    return row


def _sin_log_V(mesh):
    """V by the Kussmaul-Martensen split itself: on each curve's own block the
    product rule of the log-sin factor plus the trapezoid rule of
    k2 = log(r2 / 4 sin^2((t - s)/2)), with the limit speed^2 on the diagonal."""
    d = mesh.x[:, None, :] - mesh.x[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(dist2, 1.0)
    V = (0.25 / np.pi) * np.log(dist2) * mesh.weights[None, :]
    for c, nc in enumerate(mesh.n_per_comp):
        sl = mesh.component_slice(c)
        tc, scale = mesh.t[sl], (0.25 / np.pi) * mesh.speed[sl][None, :]
        s2 = 4.0 * np.sin((tc[:, None] - tc[None, :]) / 2.0) ** 2
        np.fill_diagonal(s2, 1.0)
        ratio = dist2[sl, sl] / s2
        np.fill_diagonal(ratio, mesh.speed[sl] ** 2)
        idx = np.arange(nc)
        R = _cosine_log_row(nc)[(idx[:, None] - idx[None, :]) % nc]
        V[sl, sl] = R * scale + (2.0 * np.pi / nc) * scale * np.log(ratio)
    return V


def _v_pass(mesh):
    """_assemble_V of the mesh: A = V D^-1 as A[1:, 1:], A[0] and A[:, 0]."""
    return _assemble_V(_Nodes.of(mesh))


def _assembled_V(mesh):
    """V from what _assemble_V writes: A[1:, 1:], A[0] and A[:, 0], times D."""
    inner, row, col = _v_pass(mesh)
    A = np.empty((mesh.n, mesh.n))
    A[0], A[1:, 0], A[1:, 1:] = row, col[1:], inner
    return A * mesh.weights


_SEVEN_MESHES = [("disk", 64), ("disk", 1024), ("disk2", 128), ("ellipse", 256), ("kite", 512),
                 ("annulus", 384), ("two-disks", 128)]


@pytest.mark.parametrize("name, n", _SEVEN_MESHES)
def test_single_layer_matches_the_sin_log_split(name, n):
    mesh = stock_mesh(name, n)
    assert np.max(np.abs(_assembled_V(mesh) - _sin_log_V(mesh))) <= 1e-15


@pytest.mark.parametrize("nc", [16, 18, 64, 250, 1024, 2048])
def test_log_correction_matches_the_cosine_series(nc):
    m = np.arange(1, nc)
    reference = _cosine_log_row(nc)
    reference[1:] -= (2.0 * np.pi / nc) * np.log(4.0 * np.sin(np.pi * m / nc) ** 2)
    assert np.max(np.abs(_log_correction(nc) - reference)) <= 2e-15


def test_log_correction_allocates_no_table():
    # the cosine series through an (nc, nc/2) table peaks at 32 MiB here
    tracemalloc.start()
    try:
        _log_correction(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _assembly_is(mesh, V, W):
    """Whether the two passes and the OperatorSet write W, and A = V D^-1 by its parts,
    bit for bit."""
    w = mesh.weights
    inner, row, col = _v_pass(mesh)
    return (np.array_equal(_w_pass(_Nodes.of(mesh), np.empty(W.shape)), W)
            and np.array_equal(OperatorSet(mesh).W, W)
            and np.array_equal(inner, V[1:, 1:] / w[1:])
            and np.array_equal(row, V[0] / w) and np.array_equal(col, V[:, 0] / w[0]))


@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus", "kite", "two-disks"])
def test_shared_pass_matches_separate_assembly(name):
    mesh = stock_mesh(name, 64)
    assert _assembly_is(mesh, *_separate_assembly(mesh))


@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus", "kite", "two-disks"])
def test_assembly_in_ragged_blocks_matches_separate_assembly(monkeypatch, name):
    mesh = stock_mesh(name, 64)
    # blocks of 3 rows, and of 4 rows where the 64 rows of a curve end
    rows_per_block(monkeypatch, 3)
    assert _assembly_is(mesh, *_separate_assembly(mesh))


def _neumann_datum(mesh):
    """The normal derivative of x^2 - y^2: a grid datum of no flux through any curve."""
    x, normal = mesh.x, mesh.normal
    return 2.0 * (x[:, 0] * normal[:, 0] - x[:, 1] * normal[:, 1])


@pytest.mark.parametrize("region", ["interior", "exterior"])
def test_a_grid_neumann_solve_leaves_the_factor_unbuilt(region):
    from bie2d.solvers import neumann_exterior, neumann_interior
    from bie2d.verify import probe_points

    mesh = stock_mesh("annulus", 96)
    solve = neumann_interior if region == "interior" else neumann_exterior
    report = solve(mesh, _neumann_datum(mesh))
    report.field.eval(probe_points(mesh, region, count=3))
    # W, the node arrays the single layer's pass would read, and the side's record
    assert set(_held_bytes(mesh.operators)) == {"W", "_nodes", "bordered"}


def _cli_dirichlet(mesh, tmp_path):
    """bie2d solve --problem dirichlet-int on mesh, which the test's patched
    RunConfig.build_mesh returns; the config only passes the memory check."""
    config = tmp_path / "domain.json"
    config.write_text('{"components": [{"kind": "circle", "radius": 1.0, "nodes": 96}]}')
    assert cli.main(["solve", "--problem", "dirichlet-int", "--data", "fourier:1",
                     "--config", str(config), "--out", str(tmp_path / "out")]) == 0


# each flow of the pass-count test, and whether it reads W
_FLOWS = {
    "dirichlet-interior": (lambda mesh, _: dirichlet_interior(mesh, np.cos(mesh.t)), False),
    "dirichlet-exterior": (lambda mesh, _: dirichlet_exterior(mesh, np.cos(mesh.t)), False),
    "green-h": (lambda mesh, _: green_h(mesh, np.array([0.0, 1.5]), "interior"), False),
    "poisson": (lambda mesh, _: poisson_interior(mesh, np.cos(mesh.t), np.array([0.0, 1.5])),
                True),
    "grid-neumann": (lambda mesh, _: neumann_interior(mesh, _neumann_datum(mesh)), True),
    "pair-neumann": (lambda mesh, _: neumann_interior(
        mesh, dist_normal_derivative(mesh, np.cos(mesh.t), "plus")), True),
    "dtn": (lambda mesh, _: operator_set(mesh).dtn("minus", np.cos(mesh.t)), True),
    "wt-on-distribution": (lambda mesh, _: Wt_on_distribution(
        PairDistribution("minus", np.cos(mesh.t), np.sin(mesh.t), mesh)), True),
    "verify": (lambda mesh, _: run_verify(meshes={"annulus": mesh}, n=96), True),
    "cli-dirichlet-int": (_cli_dirichlet, True),
}


@pytest.mark.parametrize("flow", list(_FLOWS))
def test_each_flow_computes_each_row_of_w_once(monkeypatch, tmp_path, flow):
    # the W 1 = 1/2 gate runs in the first dense pass: W's, or the row sums
    # that come before the single layer's factor when W is not read; no flow
    # makes both, or either twice, and none makes V's pass twice
    from bie2d import operators

    run, reads_w = _FLOWS[flow]
    mesh = stock_mesh("annulus", 96)
    monkeypatch.setattr(cli.RunConfig, "build_mesh", lambda self: mesh)
    rows, v_passes = [], []

    def block(nodes, lo, hi, *arrays):
        rows.append(hi - lo)
        return w_block(nodes, lo, hi, *arrays)

    def v_pass(*args):
        v_passes.append(1)
        return assemble_v(*args)

    w_block, assemble_v = operators._w_block, operators._assemble_V
    monkeypatch.setattr(operators, "_w_block", block)
    monkeypatch.setattr(operators, "_assemble_V", v_pass)
    run(mesh, tmp_path)
    assert sum(rows) == mesh.n and len(v_passes) <= 1
    # a Dirichlet-only set holds the factor alone
    assert ("W" in vars(mesh.operators)) == reads_w


@pytest.mark.parametrize("use", ["pair-neumann", "dirichlet", "verify", "dtn"])
def test_each_use_of_the_single_layer_builds_its_factor_once(monkeypatch, use):
    from bie2d import operators
    from bie2d.distributions import dist_normal_derivative
    from bie2d.solvers import dirichlet_exterior, neumann_interior
    from bie2d.verify import run_verify

    mesh = stock_mesh("annulus", 96)
    g = np.cos(mesh.t)
    run = {
        "pair-neumann": lambda: neumann_interior(mesh, dist_normal_derivative(mesh, g, "plus")),
        "dirichlet": lambda: dirichlet_exterior(mesh, g),
        "verify": lambda: run_verify(meshes={"annulus": mesh}, n=96),
        "dtn": lambda: operator_set(mesh).dtn("minus", g),
    }[use]
    factored = []

    def counting(*args):
        factored.append(1)
        return cholesky(*args)

    cholesky = operators._projected_cholesky
    monkeypatch.setattr(operators, "_projected_cholesky", counting)
    run()
    run()
    assert len(factored) == 1 and "_single" in vars(mesh.operators)


@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus", "kite", "two-disks"])
def test_the_factor_built_after_w_matches_the_separate_assembly(monkeypatch, name, rng):
    # the reference set factors the separate assembly's V; the mesh's own set
    # builds W for a Neumann solve, and its factor on the product after it
    from bie2d import operators
    from bie2d.solvers import neumann_interior

    mesh = stock_mesh(name, 64)
    V, W = _separate_assembly(mesh)
    w = mesh.weights
    reference = OperatorSet(mesh)
    with monkeypatch.context() as patched:
        patched.setattr(operators, "_assemble_V",
                        lambda *args: (V[1:, 1:] / w[1:], V[0] / w, V[:, 0] / w[0]))
        reference.q
    neumann_interior(mesh, _neumann_datum(mesh))
    ops = mesh.operators
    assert "_single" not in vars(ops) and np.array_equal(ops.W, W)
    x, block = rng.standard_normal(mesh.n), rng.standard_normal((mesh.n, 8))
    assert np.array_equal(ops.single_layer(x), reference.single_layer(x))
    assert np.array_equal(ops.single_layer(block), reference.single_layer(block))
    assert all(np.array_equal(got, want) for got, want in zip(ops._single, reference._single))
    assert np.array_equal(ops.q, reference.q)


def test_operator_set_build_allocates_two_bordered_sized_arrays():
    # nothing of size n when the set is built; W on its first read, and on
    # first use the array in which the single layer is assembled and
    # factored; each pass allocates only block-sized arrays besides, and so
    # does the pass that sums W's rows when the single layer comes first
    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mesh = stock_mesh("annulus", 512)
    n = mesh.n
    assert peak(lambda: operator_set(mesh)) <= 8 * n
    assert peak(lambda: mesh.operators.W) <= 8 * (n + 1) ** 2 + 2 * 2**20
    assert peak(lambda: mesh.operators.q) <= 8 * (n + 1) ** 2 + 2 * 2**20
    assert peak(lambda: OperatorSet(mesh).q) <= 8 * (n + 1) ** 2 + 2 * 2**20


@pytest.mark.parametrize("name, n", _SEVEN_MESHES)
def test_single_layer_products_match_the_assembled_V(name, n, rng):
    # V lives only in the factor's array; A is symmetric to rounding, so its
    # products move in their trailing digits
    mesh = stock_mesh(name, n)
    ops, V = operator_set(mesh), _assembled_V(mesh)
    x, block = rng.standard_normal(mesh.n), rng.standard_normal((mesh.n, 3))
    assert _relative(ops.single_layer(x), V @ x) <= 1e-14
    assert _relative(ops.single_layer(block), V @ block) <= 1e-14
    assert ops.single_layer(block[:, :0]).shape == (mesh.n, 0)
    dense = dense_v(mesh)
    assert _relative(dense @ x, ops.single_layer(x)) <= 1e-14
    # both triangles of the dense V come from one of A's, symmetric to about 1e-14
    assert _relative(dense, V) <= 2e-14
    with pytest.raises(LengthMismatch):
        ops.single_layer(np.ones(mesh.n + 1))


def test_single_layer_product_copies_no_factor():
    # a copy of the (n - 1)^2 factor, as f2py makes of an array of another
    # layout, would take 32 MiB here
    ops = operator_set(stock_mesh("disk", 2048))
    ops.q  # the factor is built outside the measured product
    x = np.cos(np.arange(ops.n))
    tracemalloc.start()
    try:
        ops.single_layer(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("width", [1, 3, 7, 8, 20])
def test_single_layer_block_takes_one_dsymm_from_eight_columns(monkeypatch, width):
    # dsymm expands the symmetric factor first, so a block narrower than
    # _DSYMM_COLUMNS takes one dsymv per column and a wider one a single dsymm
    from bie2d import operators

    mesh = stock_mesh("annulus", 64)
    ops = operator_set(mesh)
    block = np.random.default_rng(4).standard_normal((mesh.n, width))
    columns = np.column_stack([ops.single_layer(column) for column in block.T])
    calls = []

    def counting(name):
        real = getattr(operators, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("dsymm", "dsymv"):
        monkeypatch.setattr(operators, name, counting(name))
    out = ops.single_layer(block)
    wide = width >= operators._DSYMM_COLUMNS
    assert calls == (["dsymm"] if wide else ["dsymv"] * width)
    assert _relative(out, columns) <= 1e-14


def test_single_layer_block_product_copies_no_factor():
    ops = operator_set(stock_mesh("disk", 2048))
    ops.q  # the factor is built outside the measured product
    block = np.cos(np.outer(np.arange(ops.n), np.arange(1, 9)))
    tracemalloc.start()
    try:
        ops.single_layer(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
