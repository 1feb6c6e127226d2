import gc
import json
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from conftest import (
    NESTED_SPECS,
    bordered_norm,
    dense_wt,
    j_forward_matrix,
    lu_decompose,
    lu_wt_solve,
    min_norm_j_inverse,
    named_mesh,
    shifted_density,
    svd_nullspace,
    svd_pair_basis,
)
from scipy.linalg import subspace_angles
from scipy.linalg.lapack import dgetrf

from bie2d import solvers, verify
from bie2d.errors import (
    ConditioningWarning,
    IncompatibleData,
    LengthMismatch,
    NearBoundary,
    OutOfRange,
    SingularSystem,
)
from bie2d.geometry import (
    CurveSpec,
    build_mesh,
    indicator,
    integrate,
    locate_points,
    stock_mesh,
    stock_specs,
)
from bie2d.operators import OperatorSet, _side, operator_set
from bie2d.potentials import HarmonicField, value_at_infinity
from bie2d.cli import default_grid, write_field_csv
from bie2d.verify import probe_points, run_verify, seeded_density
from bie2d.distributions import (
    J_preimage,
    PairDistribution,
    Wt_on_distribution,
    dist_pairing,
    dist_single_layer_field,
    mass_of,
    to_grid_representer,
)
from bie2d.solvers import (
    check_compat_exterior,
    check_compat_interior,
    decompose,
    dirichlet_exterior,
    dirichlet_exterior_via_decomposition,
    dirichlet_interior,
    dirichlet_interior_via_decomposition,
    green_h,
    neumann_exterior,
    neumann_interior,
    nullspace,
    poisson_exterior,
    poisson_interior,
)


def test_dirichlet_interior_examples(disk128, annulus):
    disk2 = build_mesh([CurveSpec("circle", radius=2.0)], [128])
    rep = dirichlet_interior(disk2, np.cos(disk2.t))
    assert abs(rep.field.eval(np.array([1.0, 0.0])) - 0.5) < 1e-8
    # constants are harmonic; the capacity-one contour stays well posed
    rep = dirichlet_interior(disk128, np.ones(disk128.n))
    assert abs(rep.field.eval(np.array([0.3, 0.2])) - 1.0) < 1e-12
    assert np.max(np.abs(rep.densities["eta"])) < 1e-10
    assert abs(rep.densities["constant"] - 1.0) < 1e-12
    g = np.log(np.linalg.norm(annulus.x, axis=1))
    rep = dirichlet_interior(annulus, g)
    assert abs(rep.field.eval(np.array([1.5, 0.0])) - np.log(1.5)) < 1e-7


def test_dirichlet_exterior_examples(disk128):
    rep = dirichlet_exterior(disk128, np.cos(disk128.t))
    assert abs(rep.field.eval(np.array([2.0, 0.0])) - 0.5) < 1e-8
    assert abs(rep.u_infinity) < 1e-10
    rep = dirichlet_exterior(disk128, np.ones(disk128.n))
    assert abs(rep.field.eval(np.array([3.0, 0.0])) - 1.0) < 1e-12
    assert abs(rep.u_infinity - 1.0) < 1e-12
    # mean over a probe circle agrees with the representation value
    out = value_at_infinity(rep.field, 8.0)
    assert abs(out.mean - rep.u_infinity) < 1e-6


def test_compat_interior_examples(disk128, two_disks):
    vals = check_compat_interior(disk128, np.cos(disk128.t))
    assert np.max(np.abs(vals)) < 1e-10
    vals = check_compat_interior(disk128, np.ones(disk128.n))
    assert abs(vals[0] - 2 * np.pi) < 1e-10
    g = np.where(two_disks.comp == 0, 1.0, -1.0)
    vals = check_compat_interior(two_disks, g)
    assert abs(vals[0] - 2 * np.pi) < 1e-9
    assert abs(vals[1] + 2 * np.pi) < 1e-9
    assert abs(vals.sum()) < 1e-9  # total flux cancels, component fluxes do not


def test_compat_exterior_examples(disk128, annulus):
    vals = check_compat_exterior(disk128, np.cos(disk128.t))
    assert vals.shape == (1,) and abs(vals[0]) < 1e-10
    vals = check_compat_exterior(disk128, np.ones(disk128.n))
    assert abs(vals[0] - 2 * np.pi) < 1e-10
    topo = annulus.topology
    g = indicator(topo, "omega_minus", 1) * np.cos(annulus.t)
    vals = check_compat_exterior(annulus, g)
    assert np.max(np.abs(vals)) < 1e-9


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_compat_of_a_pair_matches_its_distributional_pairings(annulus, side):
    # the pairings of the grid representer against <tau, indicator> by the pair's own route
    t = annulus.t
    tau = PairDistribution(side, np.cos(2 * t) + 0.1 * annulus.comp, np.sin(t) + 0.3, annulus)
    topo = annulus.topology
    for check, region, rows in ((check_compat_interior, "omega", range(1, 2)),
                                (check_compat_exterior, "omega_minus", range(0, 2))):
        expected = [dist_pairing(tau, indicator(topo, region, k)) for k in rows]
        assert np.max(np.abs(check(annulus, tau) - expected)) < 1e-13


def test_neumann_interior_disk(disk128):
    rep = neumann_interior(disk128, np.cos(disk128.t))
    diff = rep.field.eval(np.array([0.5, 0.0])) - rep.field.eval(np.array([0.0, 0.0]))
    assert abs(diff - 0.5) < 1e-7
    assert rep.rank_info["deficiency"] == 1
    # rep(side, V phi) = sign (shift I + Wt) phi, which the report no longer carries
    assert set(rep.residuals) == {"equation"}
    ops, phi = operator_set(disk128), rep.densities["phi"]
    A_phi = -0.5 * phi + ops._wt(phi)
    assert np.max(np.abs(ops.rep("plus", ops.single_layer(phi)) - A_phi)) < 1e-8


def test_neumann_interior_rejects_constant(disk128):
    with pytest.raises(IncompatibleData) as err:
        neumann_interior(disk128, np.ones(disk128.n))
    assert abs(err.value.pairings[0] - 2 * np.pi) < 1e-10


def test_neumann_interior_zero_datum(disk128):
    rep = neumann_interior(disk128, np.zeros(disk128.n))
    h = 1e-3
    u = rep.field.eval_unchecked(
        np.array([[0.2, 0.1], [0.2 + h, 0.1], [0.2, 0.1 + h]])
    )
    grad = np.hypot(u[1] - u[0], u[2] - u[0]) / h
    assert grad < 1e-7


def _shifted(report, region, seed):
    """A Neumann solution's field, its density shifted by a seeded transpose-kernel vector."""
    mesh = report.field.mesh
    kernel = nullspace(mesh, _KERNEL_KINDS[region]).vectors
    coeff = np.random.default_rng(seed).uniform(-1.0, 1.0, size=kernel.shape[1])
    return HarmonicField(mesh, [("single", report.densities["phi"] + kernel @ coeff)],
                         region=region)


def test_neumann_interior_uniqueness(annulus):
    g = seeded_density(annulus, np.random.default_rng(7), zero_mean=True)
    rep1 = neumann_interior(annulus, g)
    fld2 = _shifted(rep1, "interior", 11)
    pts = probe_points(annulus, "interior", count=8)
    d = fld2.eval_unchecked(pts) - rep1.field.eval_unchecked(pts)
    # difference is constant on the (single) component of the open set
    assert np.max(np.abs(d - np.mean(d))) < 1e-6
    h = 1e-3
    p = pts[0]
    stencil = np.array([p, p + [h, 0.0], p + [0.0, h]])
    du = fld2.eval_unchecked(stencil) - rep1.field.eval_unchecked(stencil)
    assert np.hypot(du[1] - du[0], du[2] - du[0]) / h < 1e-6


def test_neumann_exterior_disk(disk128):
    rep = neumann_exterior(disk128, np.cos(disk128.t))
    assert abs(rep.field.eval(np.array([2.0, 0.0])) + 0.5) < 1e-7
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    ring = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = rep.field.eval_unchecked(ring)
    assert np.max(np.abs(u + np.cos(theta) / 2.0)) < 1e-7
    assert rep.residuals["density_mass"] < 1e-8
    out = value_at_infinity(rep.field, 8.0)
    assert abs(out.mean - rep.u_infinity) < 1e-6


def test_neumann_exterior_rejects_constant(disk128):
    with pytest.raises(IncompatibleData) as err:
        neumann_exterior(disk128, np.ones(disk128.n))
    assert abs(err.value.pairings[0] - 2 * np.pi) < 1e-10


# the boundary length of each exterior component, the unbounded one first
_EXTERIOR_LENGTHS = {"disk": [2 * np.pi], "annulus": [4 * np.pi, 2 * np.pi]}


@pytest.mark.parametrize("name", sorted(_EXTERIOR_LENGTHS))
def test_neumann_exterior_small_net_flux_is_incompatible(name):
    # cos t + delta has net flux delta times each exterior length: below
    # 1e-7 (relative) it passes the pairings' gate and leaves the density
    # that mass, which the mass gate (1e-8) refuses with the same pairings
    mesh = stock_mesh(name, 128)
    lengths = np.array(_EXTERIOR_LENGTHS[name])
    rep = neumann_exterior(mesh, np.cos(mesh.t) + 5e-9)
    assert rep.residuals["density_mass"] <= 1e-8
    for delta in (2e-8, 5e-8, 9e-8):
        with pytest.raises(IncompatibleData,
                           match="^exterior Neumann density carries mass ") as err:
            neumann_exterior(mesh, np.cos(mesh.t) + delta)
        np.testing.assert_allclose(err.value.pairings, delta * lengths, rtol=1e-6)
    with pytest.raises(IncompatibleData, match="^datum has nonzero flux through an exterior"):
        neumann_exterior(mesh, np.cos(mesh.t) + 2e-7)


def test_neumann_exterior_zero_datum_and_uniqueness(annulus):
    rep = neumann_exterior(annulus, np.zeros(annulus.n))
    assert rep.residuals["density_mass"] == 0.0
    far = rep.field.eval(np.array([5.0, 0.0]))
    assert abs(far) < 1e-9
    # shifting by a transpose-kernel density moves the hole constant only
    g = indicator(annulus.topology, "omega_minus", 1) * np.cos(annulus.t)
    rep1 = neumann_exterior(annulus, g)
    fld2 = _shifted(rep1, "exterior", 3)
    theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    hole_pts = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    d = fld2.eval_unchecked(hole_pts) - rep1.field.eval_unchecked(hole_pts)
    assert np.max(np.abs(d - np.mean(d))) < 1e-6
    far_d = fld2.eval(np.array([6.0, 0.0])) - rep1.field.eval(np.array([6.0, 0.0]))
    assert abs(far_d) < 1e-6


def test_nullspace_dimensions():
    expected = {"disk": (0, 1), "annulus": (1, 1), "two-disks": (0, 2)}
    for name, (dim_plus, dim_minus) in expected.items():
        mesh = stock_mesh(name, 128)
        a = nullspace(mesh, "half_plus_W")
        b = nullspace(mesh, "minus_half_plus_W")
        assert (a.dimension, b.dimension) == (dim_plus, dim_minus)
        assert a.gap > 1e6 and b.gap > 1e6
        assert nullspace(mesh, "half_plus_Wt").dimension == dim_plus
        assert nullspace(mesh, "minus_half_plus_Wt").dimension == dim_minus


def test_nullspace_basis_structure():
    mesh = stock_mesh("annulus", 128)
    topo = mesh.topology
    basis = nullspace(mesh, "half_plus_W").vectors
    chi = indicator(topo, "omega_minus", 1)
    chi = chi / np.linalg.norm(chi)
    overlap = abs(float(basis[:, 0] @ chi))
    assert overlap > 1.0 - 1e-10
    basis = nullspace(mesh, "minus_half_plus_W").vectors
    const = np.ones(mesh.n) / np.sqrt(mesh.n)
    assert abs(float(basis[:, 0] @ const)) > 1.0 - 1e-10


_BAD_ARGUMENTS = (
    [("count", v) for v in (0, -3, True, 2.0)]
    + [("probe_radius", "10")]
)


@pytest.mark.parametrize("region", ["interior", "exterior"])
@pytest.mark.parametrize("arg, value", _BAD_ARGUMENTS)
def test_neumann_and_probe_arguments_are_refused_before_any_solve(region, arg, value):
    mesh = stock_mesh("disk", 64)
    with pytest.raises(OutOfRange, match=rf"^{arg}[^\n]*{value!r}$"):
        if arg == "probe_radius":
            value_at_infinity(HarmonicField(mesh, [], region=region), value)
        else:
            probe_points(mesh, region, **{arg: value})
    assert mesh.operators is None


@pytest.mark.parametrize("solve", [dirichlet_interior, dirichlet_exterior,
                                   neumann_interior, neumann_exterior])
def test_a_datum_past_the_bound_is_refused_and_one_at_it_solves(solve):
    # the squared norms of a 1e200 datum overflow: it is refused before any solve
    mesh = stock_mesh("annulus", 64)
    data = [1e200 * np.cos(mesh.t)]
    if solve in (neumann_interior, neumann_exterior):
        # the pair's mass, a sum over mu0, would overflow before its representer is formed
        data.append(PairDistribution("plus", np.full(mesh.n, 1e308), np.zeros(mesh.n), mesh))
    for g in data:
        with pytest.raises(OutOfRange, match=r"^datum of magnitude [^\n]*1e\+150"):
            solve(mesh, g)
    assert mesh.operators is None
    report = solve(mesh, solvers._MAX_DATUM * np.cos(mesh.t))
    assert all(np.isfinite(v) for v in report.residuals.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize("poisson", [poisson_interior, poisson_exterior])
def test_poisson_refuses_a_datum_past_the_bound(poisson, bad):
    # as every solver does, before anything is solved: a NaN datum would
    # return nan, and one of 1e200 would be accepted
    mesh = stock_mesh("disk", 64)
    g = np.cos(mesh.t)
    g[5] = bad
    with pytest.raises(OutOfRange, match=r"^datum of magnitude [^\n]*1e\+150"):
        poisson(mesh, g, np.array([0.3, 0.0]))
    assert mesh.operators is None


@pytest.mark.parametrize("kind", ["half_plus_W", "minus_half_plus_W"])
@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_w_kind_nullspace_is_the_right_singular_vectors(one_blas_thread, name, kind):
    # the dimension is the SVD's, and so are the largest and the smallest
    # nonzero singular value to 1e-3; the vectors, from the LU, span the full
    # SVD's right null vectors, and shift I + W maps them no further from
    # zero than a small multiple of those
    mesh = stock_mesh(name, 128)
    side, _ = solvers._OP_KINDS[kind]
    A = side.shift * np.eye(mesh.n) + operator_set(mesh).W
    ref = svd_nullspace(mesh, kind)
    basis = nullspace(mesh, kind)
    sv = np.linalg.svd(A, compute_uv=False)
    dim = int(np.sum(sv < solvers._RANK_TOL * sv[0]))
    assert basis.dimension == dim and basis.singular_values.shape == (dim + 2,)
    assert abs(basis.singular_values[0] - sv[0]) <= 1e-3 * sv[0]
    assert abs(basis.singular_values[1] - sv[-dim - 1]) <= 1e-3 * sv[-dim - 1]
    assert basis.vectors.shape == ref.shape
    assert solvers._subspace_angle(basis.vectors, ref) <= 1e-12
    got = basis.vectors
    assert np.max(np.abs(got.T @ got - np.eye(got.shape[1])), initial=0.0) <= 1e-14
    assert np.linalg.norm(A @ got) <= 4 * np.linalg.norm(A @ ref)


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("kind", list(solvers._OP_KINDS))
def test_nullspace_survives_an_exact_zero_pivot(kind, column):
    # a zero first row of shift I + W is a zero first column of the A^T
    # that the LU factors: its first pivot is exactly zero, and raised
    # before any solve divides by it.  With the first column zero too, the
    # kernel is e_0 and the singular values can end in an exact zero.
    mesh = stock_mesh("disk", 64)
    side, _ = solvers._OP_KINDS[kind]
    W = operator_set(mesh).W
    W[0] = 0.0
    if column:
        W[:, 0] = 0.0
    W[0, 0] = -side.shift
    assert dgetrf((side.shift * np.eye(mesh.n) + W).T)[2] == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = nullspace(mesh, kind)
    got, ref = basis.vectors, svd_nullspace(mesh, kind)
    assert np.all(np.isfinite(got)) and got.shape == ref.shape == (mesh.n, 1)
    assert np.max(np.abs(got.T @ got - np.eye(1))) <= 1e-14
    assert solvers._subspace_angle(got, ref) <= 1e-12


def test_nullspace_holds_one_matrix_of_its_size():
    # the full SVD held A, U and V^T: a peak of 3.0 n^2 floats; the pair
    # route, which formed its rank-one term whole, held 2.07 n^2
    mesh = stock_mesh("annulus", 256)
    ops = operator_set(mesh)
    ops.W, ops.q  # W, and the single layer's factor, which the pair route reads
    routes = [partial(nullspace, mesh, kind) for kind in solvers._OP_KINDS]
    routes += [partial(solvers.transpose_kernel_pair_basis, mesh, kind)
               for kind, (_, op) in solvers._OP_KINDS.items() if op == "Wt"]
    for route in routes:
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * mesh.n ** 2


@pytest.mark.parametrize("name, n", [("disk", 64), ("disk", 256), ("ellipse", 256),
                                     ("annulus", 256), ("kite", 128), ("two-disks", 128)])
def test_wt_kernel_matches_a_direct_svd_of_shift_plus_wt(name, n):
    # the reference takes the SVD of shift I + Wt itself, so it does not
    # rest on the duality Wt = D^-1 W^T D that the helper reads its kernel from
    mesh = stock_mesh(name, n)
    for kind in ("minus_half_plus_Wt", "half_plus_Wt"):
        side, _ = solvers._OP_KINDS[kind]
        got = nullspace(mesh, kind).vectors
        _, sv, vt = np.linalg.svd(side.shift * np.eye(mesh.n) + dense_wt(mesh))
        ref = vt[mesh.n - int(np.sum(sv < 1e-10 * sv[0])):].T
        assert got.shape == ref.shape
        if ref.shape[1]:
            assert np.max(subspace_angles(got, ref)) <= 1e-12
        assert np.max(np.abs(got.T @ got - np.eye(got.shape[1])), initial=0.0) <= 1e-14


def test_transpose_kernel_coincidence(annulus):
    for kind in ("half_plus_Wt", "minus_half_plus_Wt"):
        angle = solvers._subspace_angle(nullspace(annulus, kind).vectors,
                                        solvers.transpose_kernel_pair_basis(annulus, kind))
        assert angle < 1e-5


def test_decompose_examples(disk128, annulus, rng):
    g = seeded_density(disk128, rng)
    g_im, g_ker = decompose(disk128, g, "plus")
    assert np.max(np.abs(g_ker)) == 0.0
    topo = annulus.topology
    chi = indicator(topo, "omega_minus", 1)
    g_im, g_ker = decompose(annulus, chi, "plus")
    assert np.max(np.abs(g_ker - chi)) < 1e-9
    assert np.max(np.abs(g_im)) < 1e-9
    # oblique mean: kernel part of any disk datum under -1/2+W is a constant
    g = seeded_density(disk128, rng)
    g_im, g_ker = decompose(disk128, g, "minus")
    assert np.max(np.abs(g_ker - g_ker[0])) < 1e-10
    P = nullspace(disk128, "minus_half_plus_Wt").vectors
    psi = P[:, 0]
    oblique_mean = integrate(disk128, psi * g) / integrate(disk128, psi)
    assert abs(g_ker[0] - oblique_mean) < 1e-10


def test_cross_solver_interior(disk128, annulus, rng):
    r1 = dirichlet_interior(disk128, np.cos(disk128.t))
    r2 = dirichlet_interior_via_decomposition(disk128, np.cos(disk128.t))
    p = np.array([0.3, 0.4])
    assert abs(r1.field.eval(p) - r2.field.eval(p)) < 1e-7
    chi = indicator(annulus.topology, "omega_minus", 1)
    r1 = dirichlet_interior(annulus, chi)
    r2 = dirichlet_interior_via_decomposition(annulus, chi)
    p = np.array([1.5, 0.0])
    assert abs(r1.field.eval(p) - r2.field.eval(p)) < 1e-6
    rep = dirichlet_interior_via_decomposition(disk128, np.zeros(disk128.n))
    assert abs(rep.field.eval(np.array([0.2, 0.0]))) < 1e-12


def test_cross_solver_exterior(disk128, annulus, rng):
    for g in (np.cos(disk128.t), np.ones(disk128.n)):
        r1 = dirichlet_exterior(disk128, g)
        r2 = dirichlet_exterior_via_decomposition(disk128, g)
        p = np.array([2.0, 0.0])
        assert abs(r1.field.eval(p) - r2.field.eval(p)) < 1e-7
        assert abs(r1.u_infinity - r2.u_infinity) < 1e-8
    g = seeded_density(annulus, rng)
    r1 = dirichlet_exterior(annulus, g)
    r2 = dirichlet_exterior_via_decomposition(annulus, g)
    for p in (np.array([0.2, 0.1]), np.array([3.0, 1.0])):
        assert abs(r1.field.eval(p) - r2.field.eval(p)) < 1e-6


def test_green_h_examples(disk128):
    rep = green_h(disk128, np.array([0.0, 0.0]), "interior")
    assert abs(rep.field.eval(np.array([0.4, 0.1]))) < 1e-10
    rep = green_h(disk128, np.array([0.0, 0.0]), "exterior")
    assert abs(rep.field.eval(np.array([3.0, 0.0]))) < 1e-10
    disk2 = build_mesh([CurveSpec("circle", radius=2.0)], [128])
    rep = green_h(disk2, np.array([0.0, 0.0]), "interior")
    expected = np.log(2.0) / (2.0 * np.pi)
    assert abs(rep.field.eval(np.array([0.4, 0.1])) - expected) < 1e-8
    with pytest.raises(NearBoundary):
        green_h(disk128, np.array([1.0, 0.0]), "interior")


def test_poisson_interior(disk128, rng):
    g = seeded_density(disk128, rng)
    mean = integrate(disk128, g) / (2 * np.pi)
    assert abs(poisson_interior(disk128, g, np.array([0.0, 0.0])) - mean) < 1e-8
    rd = dirichlet_interior(disk128, g)
    for p in probe_points(disk128, "interior", count=5):
        assert abs(poisson_interior(disk128, g, p) - rd.field.eval_unchecked(p[None])[0]) < 1e-6
    for p in probe_points(disk128, "exterior", count=5):
        assert abs(poisson_interior(disk128, g, p)) < 1e-6


def test_poisson_exterior(disk128, rng):
    g = seeded_density(disk128, rng)
    re_ = dirichlet_exterior(disk128, g)
    for p in probe_points(disk128, "exterior", count=5):
        val, c_g = poisson_exterior(disk128, g, p)
        assert abs(val - re_.field.eval_unchecked(p[None])[0]) < 1e-6
        assert abs(c_g - re_.u_infinity) < 1e-8
    for p in probe_points(disk128, "interior", count=5):
        val, _ = poisson_exterior(disk128, g, p)
        assert abs(val) < 1e-6


def test_poisson_takes_one_geometry_pass_per_call(disk128, monkeypatch):
    # the band check and both kernels at the source point read one pass
    passes = []

    class CountedBlocks(solvers._TargetBlocks):
        def __init__(self, mesh, points):
            passes.append(points)
            super().__init__(mesh, points)

    monkeypatch.setattr(solvers, "_TargetBlocks", CountedBlocks)
    g = np.cos(disk128.t)
    for x in (np.array([0.3, 0.0]), np.array([2.0, 0.0])):
        for poisson in (poisson_interior, poisson_exterior):
            before = len(passes)
            poisson(disk128, g, x)
            assert len(passes) == before + 1


def test_green_and_poisson_take_exactly_one_point():
    # g = x is harmonic, so the interior Poisson integral at (0.3, 0) is 0.3
    mesh = stock_mesh("disk", 64)
    g = mesh.x[:, 0]
    assert abs(poisson_interior(mesh, g, np.array([0.3, 0.0])) - 0.3) < 1e-8
    bad = (np.array([[0.3, 0.0], [0.0, 0.2], [-0.1, 0.4]]), np.zeros((0, 2)),
           np.array([[0.3, 0.0]]))
    for call in (lambda x: green_h(mesh, x, "interior"),
                 lambda x: poisson_interior(mesh, g, x),
                 lambda x: poisson_exterior(mesh, g, x)):
        call(np.array([0.3, 0.0]))
        for points in bad:
            with pytest.raises(LengthMismatch, match=r"^[^\n]*one point[^\n]*$"):
                call(points)


def test_third_green_identities(ellipse, rng):
    from bie2d.verify import _MeshCache, _third_green

    assert _third_green(ellipse, rng, _MeshCache(ellipse), "interior") < 1e-6
    assert _third_green(ellipse, rng, _MeshCache(ellipse), "exterior") < 1e-6


def test_interior_solution_reexpressed_as_single_layer(ellipse, rng):
    # re-express an interior Dirichlet solution as an exterior-side single
    # layer plus a constant and compare at probes
    ops = operator_set(ellipse)
    g = seeded_density(ellipse, rng)
    c_star = float(ops.q @ g)
    tau = J_preimage(ellipse, g - c_star, "minus")
    assert abs(mass_of(tau)) < 1e-8
    direct = dirichlet_interior(ellipse, g)
    pts = probe_points(ellipse, "interior", count=10)
    recon = dist_single_layer_field(tau, pts, "interior") + c_star
    assert np.max(np.abs(recon - direct.field.eval_unchecked(pts))) < 1e-5


def test_report_serializable(disk128):
    rep = neumann_interior(disk128, np.cos(disk128.t))
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert "rank_info" in text or "rank" in text


def test_off_center_domain():
    mesh = build_mesh([CurveSpec("circle", center=(3.0, -1.0), radius=1.0)], [128])
    g = np.cos(mesh.t)
    rep = dirichlet_exterior(mesh, g)
    out = value_at_infinity(rep.field, 12.0)
    assert abs(out.mean - out.representation) < 1e-8
    rd = dirichlet_interior(mesh, g)
    p = np.array([3.2, -0.9])
    assert abs(poisson_interior(mesh, g, p) - rd.field.eval(p)) < 1e-8
    assert neumann_interior(mesh, g).residuals["equation"] < 1e-10


def _ring(center, radii, angles=(0.3, 2.0, 4.1)):
    return [(center[0] + r * np.cos(a), center[1] + r * np.sin(a)) for r in radii for a in angles]


# points of every component of each nested domain, far enough from the
# curves that the trapezoid rule is exact to rounding there
_NESTED_POINTS = {
    "nested-2": _ring((0, 0), (0.5, 1.5, 2.5, 4.0)),
    "nested-3": _ring((0, 0), (0.5, 1.5, 2.5, 3.5, 5.0)),
    "islands": _ring((-2.2, 0), (0.2, 1.0)) + _ring((2.2, 0), (0.2, 1.0))
    + [(0.0, 0.0), (0.0, 3.2), (0.0, -3.2), (-2.2, 2.6)] + _ring((0, 0), (7.0, 8.5)),
}


def _radial_form(kind, center, x):
    """Value and gradient at x of log|x - c| ('log'), (x - c)_0 / |x - c|^2
    ('dipole') or (x - c)_0 + (x - c)_1 / 2 ('linear')."""
    d = np.atleast_2d(x) - center
    r2 = np.sum(d * d, axis=1)[:, None]
    if kind == "log":
        return 0.5 * np.log(r2[:, 0]), d / r2
    if kind == "dipole":
        return d[:, 0] / r2[:, 0], (np.array([1.0, 0.0]) * r2 - 2 * d[:, :1] * d) / r2**2
    return d[:, 0] + 0.5 * d[:, 1], np.broadcast_to([1.0, 0.5], d.shape)


def _closed_forms(mesh, specs, region):
    """A radial harmonic function on each component of the region, by component label.

    A component around other curves takes the logarithm about the first
    one's center; the unbounded component a dipole, which vanishes at
    infinity; any other component a linear function.
    """
    topo = mesh.topology
    labels, own = ((topo.omega_of_comp, topo.outer_comps) if region == "interior"
                   else (topo.omega_minus_of_comp, topo.hole_comps))
    forms = {}
    for c, k in sorted(labels.items()):
        if k not in forms:
            forms[k] = ("dipole" if k == 0 else "linear", specs[c].center)
        if k and c not in own and forms[k][0] != "log":
            forms[k] = ("log", specs[c].center)
    return forms


@pytest.mark.parametrize("name", list(NESTED_SPECS))
def test_nested_domains_solve_all_four_problems(name):
    # radial closed forms on every component, one constant apart from the next
    mesh, specs = named_mesh(name, 256), NESTED_SPECS[name]
    points = np.array(_NESTED_POINTS[name])
    locations = locate_points(mesh, points)
    topo = mesh.topology
    for region, labels, count in (("interior", topo.omega_of_comp, topo.kappa_plus),
                                  ("exterior", topo.omega_minus_of_comp, topo.kappa_minus)):
        forms = _closed_forms(mesh, specs, region)
        g, grad = np.empty(mesh.n), np.empty((mesh.n, 2))
        for c in range(mesh.n_components):
            sl, k = mesh.component_slice(c), labels[c]
            g[sl], grad[sl] = _radial_form(*forms[k], mesh.x[sl])
            g[sl] += 0.25 * k
        comps = np.array([k for kind, k in locations if kind == region])
        at = points[[kind == region for kind, _ in locations]]
        exact = np.concatenate([_radial_form(*forms[k], p)[0] + 0.25 * k
                                for k, p in zip(comps, at)])
        assert sorted(set(comps)) == sorted(forms) and len(forms) == count + (region == "exterior")
        dirichlet = (dirichlet_interior if region == "interior" else dirichlet_exterior)(mesh, g)
        assert np.max(np.abs(dirichlet.field.eval(at) - exact)) <= 1e-12
        if region == "exterior":
            assert abs(dirichlet.u_infinity) <= 1e-12
        # the Neumann datum is the derivative along the normal out of the open set
        datum = np.einsum("ij,ij->i", grad, mesh.normal)
        neumann = (neumann_interior if region == "interior" else neumann_exterior)(mesh, datum)
        assert neumann.rank_info["deficiency"] == count
        diff = neumann.field.eval(at) - exact
        for k in forms:
            assert np.ptp(diff[comps == k]) <= 1e-12


def test_identity_suite_on_kite_with_hole():
    from bie2d.geometry import stock_specs
    from bie2d.verify import run_verify

    specs = stock_specs("kite") + [
        CurveSpec("circle", center=(0.15, 0.2), radius=0.35)
    ]
    mesh = build_mesh(specs, [256, 128])
    assert mesh.topology.kappa_minus == 1
    report = run_verify(meshes={"kite-hole": mesh}, n=256)
    assert report.passed, [r.name for r in report.rows if not r.passed]


def test_dropped_meshes_are_freed_without_gc(tmp_path):
    # a mesh owns its topology and operators and nothing refers back to it,
    # so reference counting alone must free it once the caller drops it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        for solver in (neumann_interior, neumann_exterior):
            mesh = stock_mesh("annulus", 64)
            operator_set(mesh)
            solver(mesh, np.cos(mesh.t))  # builds the side's record; the second reads it
            report = solver(mesh, np.cos(mesh.t))
            write_field_csv(report.field, default_grid(mesh), tmp_path / "u.csv")
            refs.append(weakref.ref(mesh))
            del mesh, report
        mesh = stock_mesh("annulus", 64)
        run_verify(meshes={"annulus": mesh}, n=64)
        refs.append(weakref.ref(mesh))
        mesh = stock_mesh("annulus", 64)  # builds the single layer's factor after W
        neumann_interior(mesh, np.cos(mesh.t))
        assert "_single" not in vars(mesh.operators)
        report = dirichlet_interior(mesh, np.cos(mesh.t))
        assert "_single" in vars(mesh.operators)
        refs.append(weakref.ref(mesh))
        del report
        mesh = stock_mesh("annulus", 64)  # builds the factor and never W
        report = dirichlet_exterior(mesh, np.cos(mesh.t))
        write_field_csv(report.field, default_grid(mesh), tmp_path / "u.csv")
        assert "W" not in vars(mesh.operators) and "_single" in vars(mesh.operators)
        refs.append(weakref.ref(mesh))
        del report
        mesh = stock_mesh("annulus", 64)  # keeps the J factor of one side
        tau = PairDistribution("minus", np.cos(mesh.t), np.sin(mesh.t), mesh)
        out = Wt_on_distribution(tau)
        refs.append(weakref.ref(mesh))
        del mesh, tau, out
        assert [ref() for ref in refs] == [None] * 6
    finally:
        if was_enabled:
            gc.enable()


# Bordered solves replaced SVD least squares on the solver paths, first by
# LU and now by GMRES; the SVD routes stay here as the independent check of
# the same answers, and the bordered LU in conftest as GMRES's reference.
_KERNEL_KINDS = {"interior": "minus_half_plus_Wt", "exterior": "half_plus_Wt"}
_NEUMANN = {"interior": neumann_interior, "exterior": neumann_exterior}


def _range_datum(mesh, region, seed):
    """A datum in the range of the Neumann operator, of zero total flux."""
    shift = _side(region, "region").shift
    f = seeded_density(mesh, np.random.default_rng(seed), zero_mean=True)
    return shift * f + dense_wt(mesh) @ f


@pytest.mark.parametrize("region", ["interior", "exterior"])
@pytest.mark.parametrize("name", ["disk", "kite", "annulus", "two-disks"])
def test_neumann_density_is_the_minimum_norm_lstsq_solution(name, region):
    mesh = stock_mesh(name, 128)
    g = _range_datum(mesh, region, 5)
    A = _side(region, "region").shift * np.eye(mesh.n) + dense_wt(mesh)
    expected, _, rank, _ = np.linalg.lstsq(A, g, rcond=1e-10)
    report = _NEUMANN[region](mesh, g)
    phi = report.densities["phi"]
    assert np.linalg.norm(phi - expected) <= 1e-10 * np.linalg.norm(expected)
    assert report.rank_info["rank"] == rank
    assert report.rank_info["deficiency"] == report.rank_info["expected_deficiency"]


@pytest.mark.parametrize("region", ["interior", "exterior"])
@pytest.mark.parametrize("name", ["disk", "kite", "annulus", "two-disks"])
def test_kernel_shift_basis_spans_the_svd_nullspace(name, region):
    mesh = stock_mesh(name, 128)
    side = _side(region, "region")
    basis = solvers._bordered_system(mesh, side).kernel
    svd = nullspace(mesh, _KERNEL_KINDS[region]).vectors
    assert basis.shape == svd.shape
    if svd.shape[1]:
        assert np.max(subspace_angles(basis, svd)) < 1e-10


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("name", ["ellipse", "two-disks"])
def test_j_inverse_is_the_minimum_norm_lstsq_solution(name, side):
    # the Gram route's reference is the minimum-norm solution, and J_preimage
    # returns (eta + c, 0), another pair of the same distribution
    mesh = stock_mesh(name, 128)
    g = seeded_density(mesh, np.random.default_rng(8))
    expected, _, _, _ = np.linalg.lstsq(j_forward_matrix(mesh, side), g, rcond=1e-12)
    mu0, mu1 = min_norm_j_inverse(mesh, side, g)
    assert np.linalg.norm(np.concatenate([mu0, mu1]) - expected) <= 1e-10 * np.linalg.norm(expected)
    tau = J_preimage(mesh, g, side)
    rep = to_grid_representer(PairDistribution(side, mu0, mu1, mesh))
    assert tau.side == side and not np.any(tau.mu1)
    assert np.linalg.norm(to_grid_representer(tau) - rep) <= 1e-11 * np.linalg.norm(rep)


def test_rank_deficiency_is_measured_not_copied(monkeypatch):
    # a border one column too wide still solves, but the measured kernel
    # keeps the dimension of the operator, not the width of the border
    mesh = stock_mesh("annulus", 64)
    indicators = solvers._indicators
    monkeypatch.setattr(
        solvers, "_indicators",
        lambda mesh, side: np.column_stack([indicators(mesh, side), np.cos(mesh.t)]),
    )
    for solve in (neumann_interior, neumann_exterior):
        info = solve(mesh, np.zeros(mesh.n)).rank_info
        assert info == {"rank": mesh.n - 1, "deficiency": 1, "expected_deficiency": 2}
    # the datum now has to satisfy one condition too many
    with pytest.raises(IncompatibleData, match="residual"):
        neumann_interior(mesh, _range_datum(mesh, "interior", 3))


def test_too_narrow_border_is_a_singular_system(monkeypatch):
    # the datum is consistent and converges, but the random probe cannot
    mesh = stock_mesh("two-disks", 64)
    indicators = solvers._indicators
    monkeypatch.setattr(
        solvers, "_indicators", lambda mesh, side: indicators(mesh, side)[:, :1]
    )
    for _ in range(2):  # a failed build keeps no record, so a second solve fails alike
        with pytest.raises(SingularSystem, match="singular: it misses a random right-hand side"):
            neumann_interior(mesh, np.zeros(mesh.n))
        assert operator_set(mesh).bordered == {}


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("name", ["disk", "kite", "annulus", "two-disks"])
def test_decompose_density_is_the_minimum_norm_lstsq_solution(name, sign):
    # psi is solved by GMRES with the transposed bordered matrix;
    # the reference solves with the dense sign/2 I + W by SVD
    mesh = stock_mesh(name, 128)
    g = seeded_density(mesh, np.random.default_rng(9))
    g_im, _, psi, _ = solvers._decompose(mesh, g, sign)
    A = _side(sign).opposite.shift * np.eye(mesh.n) + operator_set(mesh).W
    expected, _, _, _ = np.linalg.lstsq(A, g_im, rcond=1e-10)
    assert np.linalg.norm(psi - expected) <= 1e-10 * np.linalg.norm(expected)


def test_decompose_solves_one_transposed_system(monkeypatch):
    # a side's first use builds its record by GMRES runs with M (the probe,
    # one per border column); _decompose adds one run with M^T, whose block
    # is shift I + D W D^-1, and runs that alone once the side is built, by
    # _decompose itself or by the side's Neumann solve
    runs = []
    gmres = solvers._gmres

    def counted(apply, b, *args):
        runs.append(apply.args[-1])  # the transpose flag of _bordered
        return gmres(apply, b, *args)

    monkeypatch.setattr(solvers, "_gmres", counted)
    fresh, solved = stock_mesh("annulus", 64), stock_mesh("annulus", 64)
    g = seeded_density(fresh, np.random.default_rng(2))
    for region in ("interior", "exterior"):  # sign "minus" reads the interior side
        _NEUMANN[region](solved, np.cos(solved.t))
    for mesh, sign, expected in ((fresh, "plus", [False, False, True]),
                                 (fresh, "minus", [False, False, True]),
                                 (fresh, "plus", [True]), (fresh, "minus", [True]),
                                 (solved, "plus", [True]), (solved, "minus", [True])):
        runs.clear()
        solvers._decompose(mesh, g, sign)
        assert runs == expected


@pytest.mark.parametrize("region", ["interior", "exterior"])
def test_a_repeat_neumann_solve_runs_only_the_datums_gmres(monkeypatch, region):
    # the side's record is built on the first solve; the second makes only
    # the products of the datum's own GMRES run and returns the same bits,
    # which a solve on a fresh mesh returns too
    mesh = stock_mesh("annulus", 64)
    g = _range_datum(mesh, region, 3)
    products, runs = [], []
    bordered, gmres = solvers._bordered, solvers._gmres

    def counted_product(*args):
        products.append(args[3])  # the transpose flag
        return bordered(*args)

    def counted_run(apply, b, *args):
        start = len(products)
        out = gmres(apply, b, *args)
        runs.append((b, len(products) - start))
        return out

    monkeypatch.setattr(solvers, "_bordered", counted_product)
    monkeypatch.setattr(solvers, "_gmres", counted_run)
    first = _NEUMANN[region](mesh, g)
    first_products = len(products)
    products.clear()
    runs.clear()
    second = _NEUMANN[region](mesh, g)
    k = operator_set(mesh).bordered[_side(region, "region").name][0].shape[1]
    assert len(runs) == 1 and np.array_equal(runs[0][0], np.append(g, np.zeros(k)))
    assert products == [False] * runs[0][1] and len(products) < first_products
    fresh = _NEUMANN[region](stock_mesh("annulus", 64), g)
    for other in (first, fresh):
        assert np.array_equal(second.densities["phi"], other.densities["phi"])
        assert second.residuals == other.residuals
        assert second.rank_info == other.rank_info


def test_wt_solve_allocates_less_than_one_square_array():
    # M is applied, never formed, and the rank threshold reads only the border
    mesh = stock_mesh("annulus", 384)
    n = mesh.n
    operator_set(mesh).W  # built before the measured regions, as a Neumann solve reads it
    for side in (_side("plus"), _side("minus")):
        tracemalloc.start()
        try:
            solvers._bordered_system(mesh, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n**2


_SIX_MESHES = ["disk", "disk2", "ellipse", "kite", "annulus", "two-disks"]
# the harder inputs of the preconditioned GMRES: two unit circles 0.1 apart,
# three nested circles, and 262 nodes per curve, where the coarse stride is 2
_GMRES_MESHES = {
    **{name: (stock_specs(name), 256) for name in _SIX_MESHES},
    "close-disks": ([CurveSpec("circle", center=(x, 0.0), radius=1.0) for x in (-1.05, 1.05)],
                    256),
    "nested-2": (NESTED_SPECS["nested-2"], 128),
    "annulus-262": (stock_specs("annulus"), 262),
}


def _bordered_gmres(mesh, side, rhs):
    """The Neumann solvers' solution of M x = [rhs; 0]: the datum's GMRES on the side's record."""
    ops, record = operator_set(mesh), solvers._bordered_system(mesh, side)
    product = partial(solvers._bordered, ops, side.shift, record.border, False)
    b = np.append(rhs, np.zeros(record.border.shape[1]))
    return solvers._bordered_solve(ops, side.shift, record, b), product, b


# 256 nodes: at 64 the kite's operator keeps a singular value near 1.5e-12
# on its kernel, and the QR and SVD pair kernels differ by 2.6e-11
@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("name", list(_GMRES_MESHES))
def test_gmres_matches_the_bordered_lu(name, sign):
    specs, n = _GMRES_MESHES[name]
    mesh = build_mesh(specs, [n] * len(specs))
    side = _side(sign)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(mesh.n)
    rhs = side.shift * f + operator_set(mesh)._wt(f)  # in the range
    x, kernel, _ = lu_wt_solve(mesh, side, rhs)
    got = _bordered_gmres(mesh, side, rhs)[0][:mesh.n]
    got_kernel = solvers._bordered_system(mesh, side).kernel
    got -= got_kernel @ (got_kernel.T @ got)
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)
    assert solvers._subspace_angle(got_kernel, kernel) <= 1e-12

    g = rng.standard_normal(mesh.n)
    g_im, g_ker, psi, P = lu_decompose(mesh, g, sign)
    got_im, got_ker, got_psi, got_P = solvers._decompose(mesh, g, sign)
    assert np.linalg.norm(got_im - g_im) <= 1e-12 * np.linalg.norm(g)
    assert np.linalg.norm(got_ker - g_ker) <= 1e-12 * np.linalg.norm(g)
    assert np.linalg.norm(got_psi - psi) <= 1e-12 * np.linalg.norm(psi)
    assert solvers._subspace_angle(got_P, P) <= 1e-12


def test_the_coarse_stride_keeps_sixty_four_nodes_of_each_curve():
    # the largest divisor of the curve's node count that keeps at least 64
    # coarse nodes, and 2 where none of at least 2 does
    for counts, strides in (([768], [12]), ([384, 256], [6, 4]), ([262, 64], [2, 2]),
                            ([200, 130], [2, 2]), ([16], [2])):
        specs = [CurveSpec("circle", radius=r) for r in (4.0, 2.0)[:len(counts)]]
        mesh = build_mesh(specs, counts)
        nodes = solvers._bordered_system(mesh, _side("plus")).nodes
        starts = np.cumsum([0] + counts[:-1])
        expected = [np.arange(a, a + c, s) for a, c, s in zip(starts, counts, strides)]
        assert np.array_equal(nodes, np.concatenate(expected))


def test_a_singular_coarse_system_only_slows_gmres(monkeypatch):
    # a coarse matrix with a zero row is exactly singular: its floored
    # factor keeps P^-1 finite, and the datum still solves to _GMRES_TOL
    mesh = stock_mesh("annulus", 128)
    side = _side("plus")
    infos = []

    def singular(a, *args, **kwargs):
        a[0] = 0.0
        lu, piv, info = dgetrf(a, *args, **kwargs)
        infos.append(info)
        return lu, piv, info

    monkeypatch.setattr(solvers, "dgetrf", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = solvers._bordered_system(mesh, side)
        assert infos[0] > 0
        z = np.random.default_rng(1).standard_normal(mesh.n + record.border.shape[1])
        for transpose in (False, True):
            assert np.isfinite(solvers._precondition(side.shift, record, transpose, z)).all()
        g = _range_datum(mesh, "interior", 6)
        x, product, b = _bordered_gmres(mesh, side, g)
    assert np.linalg.norm(product(x) - b) <= solvers._GMRES_TOL * np.linalg.norm(b)


# the stock meshes, and the domains the CI verify runs take: two and three
# disks, a circle of radius 1e5, three nested circles, and the annulus at
# 256 and 192 nodes, whose coarse strides are 4 and 3
_THRESHOLD_MESHES = {
    **{f"{name}-{n}": (stock_specs(name), n) for name in _SIX_MESHES for n in (64, 256)},
    "disks-3-apart": ([CurveSpec("circle", center=(x, 0.0), radius=1.0) for x in (-1.5, 1.5)], 64),
    "three-disks": ([CurveSpec("circle", center=(x, 0.0), radius=1.0) for x in (-3.0, 0.0, 3.0)],
                    64),
    "big-circle": ([CurveSpec("circle", radius=1e5)], 64),
    "nested-three": ([CurveSpec("circle", radius=r) for r in (2.0, 1.0, 0.5)], 128),
    "annulus-256-192": (stock_specs("annulus"), [256, 192]),
}


@pytest.mark.parametrize("name", list(_THRESHOLD_MESHES))
def test_the_rank_threshold_scale_is_the_inf_norm_of_m(name):
    # the measured kernel's threshold scale, B's largest column 1-norm, is
    # the inf-norm of M bit for bit on each side that has a border (a side
    # with none has no kernel to measure), so the pass over |W| that the
    # norm takes never sets the threshold
    specs, n = _THRESHOLD_MESHES[name]
    mesh = build_mesh(specs, n if isinstance(n, list) else [n] * len(specs))
    for side in (_side("plus"), _side("minus")):
        border = solvers._bordered_system(mesh, side).border
        if not border.shape[1]:
            continue
        scale = np.max(np.sum(np.abs(border), axis=0))
        assert scale == bordered_norm(operator_set(mesh), side.shift, border)


@pytest.mark.parametrize("name", ["annulus", "two-disks"])
def test_both_sides_share_one_coarse_rule_whichever_is_built_first(name):
    # the coarse nodes and rule hold no shift or border, so the side built
    # second takes the first side's arrays; records, Neumann densities and
    # _decompose's outputs have the same bits in either order
    outputs = []
    for regions in (("interior", "exterior"), ("exterior", "interior")):
        mesh = stock_mesh(name, 128)
        g = np.cos(mesh.t)  # no flux through any component of either side
        phi = {region: _NEUMANN[region](mesh, g).densities["phi"] for region in regions}
        plus, minus = operator_set(mesh).bordered["plus"], operator_set(mesh).bordered["minus"]
        assert np.shares_memory(plus.nodes, minus.nodes)
        assert np.shares_memory(plus.rule, minus.rule)
        split = [a for sign in ("plus", "minus") for a in solvers._decompose(mesh, g, sign)]
        outputs.append([*plus, *minus, phi["interior"], phi["exterior"], *split])
    first, second = outputs
    assert [a.tobytes() for a in first] == [a.tobytes() for a in second]


def _identity_preimage(mesh, g, side):
    """A J inverse that returns (g, 0): the pair route then returns its J-coordinate kernel."""
    return PairDistribution(side, g, np.zeros_like(g), mesh)


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("name", _SIX_MESHES)
def test_qr_pair_kernel_matches_the_svd(monkeypatch, name, sign):
    mesh = stock_mesh(name, 256)
    kind = "minus_half_plus_Wt" if sign == "plus" else "half_plus_Wt"
    with monkeypatch.context() as patched:
        patched.setattr(solvers, "J_preimage", _identity_preimage)
        qr_kernel = solvers.transpose_kernel_pair_basis(mesh, kind)
        svd_kernel = svd_pair_basis(mesh, kind)
    assert qr_kernel.shape[1] == getattr(mesh.topology, _side(sign).kappa)
    assert solvers._subspace_angle(qr_kernel, svd_kernel) <= 1e-12
    # and through the J map the QR kernel is the grid kernel
    mapped = solvers.transpose_kernel_pair_basis(mesh, kind)
    assert solvers._subspace_angle(mapped, nullspace(mesh, kind).vectors) <= 1e-10


# three unit disks in a row: the interior kernels have dimension 3, which
# the first block of inverse iteration cannot hold, so it grows
_THREE_DISKS = [CurveSpec("circle", center=(x, 0.0), radius=1.0) for x in (-3.0, 0.0, 3.0)]


@pytest.mark.parametrize("name, n", [(name, n) for n in (128, 256) for name in _SIX_MESHES]
                         + [("nested-2", 128), ("nested-3", 128), ("three-disks", 128)])
def test_rank_decisions_match_the_svd(name, n):
    # on every kind: the dimension of the full SVD, which is the side's
    # component count, the largest and the smallest nonzero singular value
    # to 1e-3, and kernel Ritz values below the threshold; a gap below 1e4
    # would warn, which is an error in the suite
    mesh = build_mesh(_THREE_DISKS, [n] * 3) if name == "three-disks" else named_mesh(name, n)
    W = operator_set(mesh).W
    for kind, (side, _) in solvers._OP_KINDS.items():
        sv = np.linalg.svd(side.shift * np.eye(mesh.n) + W, compute_uv=False)
        dim = int(np.sum(sv < solvers._RANK_TOL * sv[0]))
        basis = nullspace(mesh, kind)
        assert basis.dimension == dim == getattr(mesh.topology, side.kappa), kind
        largest, smallest, *ritz = basis.singular_values
        assert abs(largest - sv[0]) <= 1e-3 * sv[0]
        assert abs(smallest - sv[-dim - 1]) <= 1e-3 * sv[-dim - 1]
        assert len(ritz) == dim and all(r < solvers._RANK_TOL * largest for r in ritz)


def test_a_planted_gap_below_1e4_warns_and_fails_the_row():
    # the annulus's -1/2 I + W with its kernel's singular value raised to
    # 1e-12 sigma_max and its smallest nonzero one lowered to 1e-9 sigma_max:
    # the full SVD reads a gap of 1e3, and so does the LU route, which keeps
    # the dimension, warns, and fails the nullspace-dims row
    mesh = stock_mesh("annulus", 64)
    ops = operator_set(mesh)
    side, _ = solvers._OP_KINDS["minus_half_plus_Wt"]
    eye = np.eye(mesh.n)
    u, sv, vt = np.linalg.svd(side.shift * eye + ops.W)
    sv[-2:] = 1e-9 * sv[0], 1e-12 * sv[0]
    ops.W[:] = (u * sv) @ vt - side.shift * eye
    sv = np.linalg.svd(side.shift * eye + ops.W, compute_uv=False)
    assert int(np.sum(sv < solvers._RANK_TOL * sv[0])) == 1 and sv[-2] / sv[-1] < 1e4
    for kind in ("minus_half_plus_W", "minus_half_plus_Wt"):
        with pytest.warns(ConditioningWarning, match="gap"):
            basis = nullspace(mesh, kind)
        assert basis.dimension == 1
        assert abs(basis.gap - sv[-2] / sv[-1]) <= 1e-3 * sv[-2] / sv[-1]
    rng = np.random.default_rng(0)
    with pytest.warns(ConditioningWarning, match="gap"):
        assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) == np.pi / 2


@pytest.mark.parametrize("name, n", [("two-disks", 128), ("two-disks", 256),
                                     ("nested-2", 128), ("nested-3", 128)])
def test_two_dimensional_kernels_stay_close_to_the_svd(name, n):
    # the two-dimensional interior kernels of both kinds: at most 1e-13 from
    # the full SVD's, and on two disks mapped no further from zero than 16
    # times those (the nested meshes read up to 33 times)
    mesh = named_mesh(name, n)
    for kind in ("minus_half_plus_W", "minus_half_plus_Wt"):
        side, op = solvers._OP_KINDS[kind]
        A = side.shift * np.eye(mesh.n) + (operator_set(mesh).W if op == "W" else dense_wt(mesh))
        got, ref = nullspace(mesh, kind).vectors, svd_nullspace(mesh, kind)
        assert got.shape == ref.shape == (mesh.n, 2)
        assert solvers._subspace_angle(got, ref) <= 1e-13
        if name == "two-disks":
            assert np.linalg.norm(A @ got) <= 16 * np.linalg.norm(A @ ref)


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", ["annulus", "two-disks"])
def test_pair_kernel_stays_close_to_the_svd_pair_basis(name, n):
    # the pair route maps its kernel through the J map, which is
    # ill-conditioned at about 5e-11, so the bound is 1e-10
    mesh = stock_mesh(name, n)
    for kind in ("minus_half_plus_Wt", "half_plus_Wt"):
        got, ref = solvers.transpose_kernel_pair_basis(mesh, kind), svd_pair_basis(mesh, kind)
        assert got.shape == ref.shape
        assert solvers._subspace_angle(got, ref) <= 1e-10


def test_pair_kernel_counts_the_svd_dimension_on_an_under_resolved_mesh():
    # at 64 nodes per curve the J-coordinate matrix of the nested ring and
    # disk keeps a kernel singular value of 6e-12 times its largest: below
    # the threshold, so its SVD counts 2; the |R_ii| of a pivoted QR counted
    # 1 and failed the nullspace-dims row
    mesh = named_mesh("nested-2", 64)
    got = solvers.transpose_kernel_pair_basis(mesh, "minus_half_plus_Wt")
    ref = svd_pair_basis(mesh, "minus_half_plus_Wt")
    assert got.shape[1] == ref.shape[1] == nullspace(mesh, "minus_half_plus_Wt").dimension == 2
    assert solvers._subspace_angle(got, ref) <= 1e-10


def test_a_cold_neumann_solve_takes_five_bordered_products(monkeypatch):
    # the annulus's first interior solve, with the datum of u = r^3 cos 3 theta:
    # 3 for the probe (2 steps and the product that measures its miss), 1 for
    # the border column and 1 for the datum; a repeat makes the datum's alone
    # (16 at the unpreconditioned GMRES: 11, 3 and 2)
    products = []
    bordered = solvers._bordered

    def counted(*args):
        products.append(args[3])
        return bordered(*args)

    monkeypatch.setattr(solvers, "_bordered", counted)
    for n in (128, 512):
        mesh = stock_mesh("annulus", n)
        x, y = mesh.x.T
        g = mesh.normal[:, 0] * 3.0 * (x**2 - y**2) - mesh.normal[:, 1] * 6.0 * x * y
        counts = []
        for _ in range(2):
            products.clear()
            neumann_interior(mesh, g)
            counts.append(len(products))
        assert counts == [5, 1] and not any(products)


def test_neumann_solve_takes_as_many_products_at_every_size(monkeypatch):
    # GMRES on a second-kind system converges in a number of steps that does
    # not depend on n: the interior annulus takes 23 products of Wt with a
    # vector at N = 256 and 22 at N = 1024
    wt = OperatorSet._wt
    products = []

    def counted(self, x):
        products.append(1 if x.ndim == 1 else x.shape[1])
        return wt(self, x)

    monkeypatch.setattr(OperatorSet, "_wt", counted)
    counts = []
    for n in (128, 512):
        mesh = stock_mesh("annulus", n)
        g = np.cos(3 * mesh.t) * mesh.x[:, 0] ** 2
        g -= integrate(mesh, g) / integrate(mesh, np.ones(mesh.n))  # no flux
        products.clear()
        neumann_interior(mesh, g)
        counts.append(sum(products))
    assert abs(counts[0] - counts[1]) <= 2 and max(counts) <= 40


@pytest.mark.parametrize("name", ["disk", "annulus", "two-disks"])
def test_svd_inputs_are_shift_plus_w_bit_for_bit(monkeypatch, name):
    # the in-place builds of shift I + W for nullspace's LU, and of the
    # J-coordinate matrix (its rank-one term included) for the pair route's
    # LU, equal the matrices whose SVDs the references in conftest take,
    # entry for entry; each LU factors the transpose, Fortran-ordered
    mesh = stock_mesh(name, 64)
    ops = operator_set(mesh)
    lus, svds = [], []

    def recorded(factorise, seen):
        def record(a, *args, **kwargs):
            seen.append(np.array(a))
            return factorise(a, *args, **kwargs)
        return record

    monkeypatch.setattr(np.linalg, "svd", recorded(np.linalg.svd, svds))
    monkeypatch.setattr(solvers, "dgetrf", recorded(solvers.dgetrf, lus))
    v1 = ops.single_layer(np.ones(mesh.n))
    rank_one = np.outer(ops.W @ v1 - 0.5 * v1, ops.q)
    for kind, (side, _) in solvers._OP_KINDS.items():
        expected = side.shift * np.eye(mesh.n) + ops.W
        lus.clear()
        nullspace(mesh, kind)
        svd_nullspace(mesh, kind)
        assert len(lus) == 1 and np.array_equal(lus[0], expected.T)
        assert np.array_equal(svds[-1], expected)
        if kind.endswith("Wt"):
            lus.clear()
            solvers.transpose_kernel_pair_basis(mesh, kind)
            svd_pair_basis(mesh, kind)
            assert len(lus) == 1 and np.array_equal(lus[0], (expected + rank_one).T)
            assert np.array_equal(svds[-1], expected + rank_one)


# Each SingularSystem of a solver, reached through its own code: the systems
# of the stock meshes never fail, so each test breaks one step of a solve.


def test_gmres_raises_after_its_step_cap():
    # the cyclic shift maps each Krylov vector to the next one, orthogonal to
    # all before it: GMRES makes no progress on it before step n
    cap = solvers._GMRES_CAP
    with pytest.raises(SingularSystem, match=r"^bordered second-kind system is singular: "
                                             rf"GMRES residual 1\.0e\+00 after {cap} steps$"):
        solvers._gmres(lambda x: np.roll(x, 1), np.eye(cap + 20)[0], lambda z: z)


def test_a_dirichlet_solve_that_misses_its_datum_raises(monkeypatch):
    mesh = stock_mesh("ellipse", 64)
    operator_set(mesh)
    with monkeypatch.context() as within:  # the gate is 1e-7 of max |g|
        shifted_density(within, 1e-9)
        dirichlet_interior(mesh, np.cos(mesh.t))
    shifted_density(monkeypatch, 1e-6)
    with pytest.raises(SingularSystem, match=r"^boundary residual \S+ of the Dirichlet solve$"):
        dirichlet_interior(mesh, np.cos(mesh.t))


def _broken_kernel(monkeypatch, kernel):
    """Give every side's bordered record the measured kernel kernel(mesh, record.kernel)."""
    real = solvers._bordered_system

    def broken(mesh, side):
        record = real(mesh, side)
        return record._replace(kernel=kernel(mesh, record.kernel))

    monkeypatch.setattr(solvers, "_bordered_system", broken)


def test_a_decomposition_whose_kernel_misses_the_indicators_raises(monkeypatch):
    # a zero kernel basis P makes the oblique projection's (D P)^T K zero
    mesh = stock_mesh("disk", 64)
    _broken_kernel(monkeypatch, lambda mesh, kernel: np.zeros_like(kernel))
    with pytest.raises(SingularSystem, match=r"^oblique projection system is singular$") as err:
        decompose(mesh, np.cos(mesh.t), "minus")
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_a_decomposition_with_a_wrong_kernel_raises(monkeypatch):
    # on a circle the kernel of -1/2 I + Wt is the constants; with 1 + cos t
    # in its place the image part keeps a mean, which -1/2 I + W cannot reach
    mesh = stock_mesh("disk", 64)
    _broken_kernel(monkeypatch, lambda mesh, kernel: (1 + np.cos(mesh.t))[:, None]
                   / np.linalg.norm(1 + np.cos(mesh.t)))
    with pytest.raises(SingularSystem, match=r"^image part not reachable: residual \S+$"):
        decompose(mesh, np.cos(mesh.t), "minus")


def _broken_decomposition(monkeypatch, change):
    """Make solvers._decompose return change(mesh, psi, P) in place of (psi, P)."""
    real = solvers._decompose

    def broken(mesh, g, sign):
        g_im, g_ker, psi, P = real(mesh, g, sign)
        return (g_im, g_ker, *change(mesh, psi, P))

    monkeypatch.setattr(solvers, "_decompose", broken)


def test_a_kernel_part_out_of_the_single_layers_reach_raises(monkeypatch):
    # 1 on the annulus's inner curve is its own kernel part under 1/2 I + W;
    # with a zero kernel basis no single layer represents it
    mesh = stock_mesh("annulus", 64)
    g = np.zeros(mesh.n)
    g[mesh.component_slice(1)] = 1.0
    assert np.max(np.abs(decompose(mesh, g, "plus")[1] - g)) < 1e-12
    _broken_decomposition(monkeypatch, lambda mesh, psi, P: (psi, np.zeros_like(P)))
    with pytest.raises(SingularSystem, match=r"^kernel part not representable: residual \S+$"):
        dirichlet_interior_via_decomposition(mesh, g)


@pytest.mark.parametrize("solve", [dirichlet_interior_via_decomposition,
                                   dirichlet_exterior_via_decomposition])
def test_a_decomposition_solve_that_misses_its_datum_raises(monkeypatch, solve):
    mesh = stock_mesh("disk", 64)
    _broken_decomposition(monkeypatch,
                          lambda mesh, psi, P: (psi + 1e-3 * np.cos(mesh.t), P))
    with pytest.raises(SingularSystem, match=r"^boundary residual \S+$"):
        solve(mesh, np.cos(mesh.t))
