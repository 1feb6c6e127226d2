"""The identity suite's table: its rows, the dense work it does per mesh, and
the one-at-a-time route of its looped checks."""

import weakref
import zlib

import numpy as np
import pytest
import scipy.linalg
from conftest import loop_seeded_density

from bie2d import geometry, operators, solvers, verify
from bie2d.distributions import (
    J_isometry,
    J_preimage,
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    dist_jump_check,
    dist_pairing,
    to_grid_representer,
)
from bie2d.errors import ConfigError
from bie2d.geometry import pairing, stock_mesh
from bie2d.operators import operator_set
from bie2d.solvers import dirichlet_exterior, dirichlet_interior, poisson_exterior, poisson_interior
from bie2d.verify import run_verify

# (name, tol, identity) of every check, in report order
_ROWS = [
    ("w1-half", 1e-10, "double-layer operator maps the constant 1 to 1/2"),
    ("plemelj-classical", 1e-7, "V Wt = W V on grid densities"),
    ("plemelj-distributional", 1e-6, "V[Wt tau] = W V[tau] on pair distributions"),
    ("jump-single", 1e-6,
     "harmonic extensions of the single-layer trace match the field on both sides"),
    ("jump-double", 1e-6, "harmonic extensions of +-psi/2 + W psi match the double-layer field"),
    ("dist-jump", 1e-6, "normal derivative of the single layer of tau is -tau/2 +- Wt tau"),
    ("third-green-int", 1e-6,
     "u = double layer of trace minus single layer of normal derivative"),
    ("third-green-ext", 1e-6, "u = -double layer - single layer + value at infinity"),
    ("dlintesl-plus", 1e-6,
     "single layer of interior transpose part = double layer minus harmonic extension"),
    ("dlintesl-minus", 1e-6,
     "single layer of exterior transpose part = -double layer (+ extension, constant)"),
    ("VSt-identities", 1e-6,
     "closed traces: V rep(S+^t mu) = (-1/2+W) mu and minus-side analogue"),
    ("symmetry", 1e-6, "<tau, V psi> = <V[tau], psi> in the weighted pairing"),
    ("J-isometry-roundtrip", 1e-6, "mean-corrected single-layer trace is invertible on pairs"),
    ("space-coincidence", 1e-6,
     "plus- and minus-side pair encodings represent the same distributions"),
    ("nullspace-dims", 1e-5,
     "kernel dims of +-1/2+W count exterior/interior components; transpose kernels agree"),
    ("poisson-reps", 1e-6,
     "Green-function representation reproduces Dirichlet solutions, vanishes off-side"),
    ("compat-rejection", 1e-10, "constant Neumann datum is rejected with per-component fluxes"),
]


def test_default_report_rows_are_pinned():
    report = run_verify()
    got = [(r.geometry, r.name, r.tol, r.identity) for r in report.rows]
    assert got == [(geom, *row) for geom in ("disk", "ellipse", "annulus") for row in _ROWS]
    assert len(got) == 51 and report.passed


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_each_check_run_alone_gives_its_suite_row(name):
    # run_verify calls every row as run(mesh, rng, cache=cache) with the
    # mesh's shared cache; with a fresh cache a check gives the same residual
    # bit for bit
    mesh = stock_mesh(name, 64)
    rows = run_verify(meshes={name: mesh}, n=64).rows
    for check, row in zip(verify._CHECKS, rows, strict=True):
        rng = np.random.default_rng([verify.DEFAULT_SEED, zlib.crc32(check.name.encode()),
                                     zlib.crc32(name.encode())])
        assert check.run(mesh, rng, verify._MeshCache(mesh)) == row.residual, check.name


@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus"])
def test_verify_takes_four_square_lus_per_mesh(monkeypatch, name):
    # one LU of shift I + W per side, which gives its Wt null space, and one
    # of the J-coordinate matrix for each of the two pair-route transpose kernels
    mesh = stock_mesh(name, 64)
    dgetrf, shapes = solvers.dgetrf, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return dgetrf(a, *args, **kwargs)

    monkeypatch.setattr(solvers, "dgetrf", counting)
    assert run_verify(meshes={name: mesh}, n=64).passed
    square = [shape for shape in shapes if shape == (mesh.n, mesh.n)]
    assert square == [(mesh.n, mesh.n)] * 4
    # besides, one LU of each side's coarse system, which preconditions its
    # bordered GMRES: every second node of a 64-node curve, and the border
    m = mesh.n // 2
    coarse = sorted(shape for shape in shapes if shape != (mesh.n, mesh.n))
    widths = (mesh.topology.kappa_plus, mesh.topology.kappa_minus)
    assert coarse == sorted((m + k, m + k) for k in widths)


def test_nullspace_dims_takes_no_square_svd_and_no_pivoted_qr(monkeypatch):
    # the row's rank decisions are LUs: an SVD of a matrix whose sides are
    # both at least n/2, or a QR with column pivoting, fails it; the thin
    # n x k SVD of the bordered Neumann system's kernel stays legal
    mesh = stock_mesh("annulus", 128)
    svd, qr, thin = np.linalg.svd, scipy.linalg.qr, []

    def guarded_svd(a, *args, **kwargs):
        if min(np.shape(a)[-2:]) >= mesh.n / 2:
            raise AssertionError(f"SVD of a {np.shape(a)} matrix")
        thin.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def guarded_qr(a, *args, **kwargs):
        if kwargs.get("pivoting"):
            raise AssertionError("QR with column pivoting")
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded_svd)
    monkeypatch.setattr(scipy.linalg, "qr", guarded_qr)
    for module in (solvers, verify):
        for name, value in list(vars(module).items()):
            if value is qr:
                monkeypatch.setattr(module, name, guarded_qr)
    rng = np.random.default_rng(0)
    assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) <= 1e-10
    assert (mesh.n, 1) in thin


def test_verify_factors_each_j_map_once_and_finds_each_probe_set_once(monkeypatch):
    # one Cholesky factor per mesh, the single layer's, through which every J
    # map inverts too, and one candidate pass per (region, count):
    # each identity check used to redo both (21 factors, 14 passes), and the
    # J maps took a factor of their own per side
    factors, passes, requests = [], [], []

    def counting(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return wrapper

    def recording_probes(mesh, region, count=25):
        requests.append((region, count))
        return real_probes(mesh, region, count)

    real_probes = verify.probe_points
    # blocks of 8 rows: each candidate pass spans several, and counts once
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 8 * 64)
    monkeypatch.setattr(operators, "dpotrf", counting(operators.dpotrf, factors))
    monkeypatch.setattr(verify, "_TargetBlocks", counting(verify._TargetBlocks, passes))
    monkeypatch.setattr(verify, "probe_points", recording_probes)
    assert run_verify(meshes={"disk": stock_mesh("disk", 64)}, n=64).passed
    assert len(factors) == 1
    assert len(passes) == len(requests) == len(set(requests)) == 4


def test_verify_drops_each_mesh_cache_before_the_next(monkeypatch):
    # (weak reference, mesh) of every probe set the run builds; the J maps
    # keep no factor, so each mesh holds its two n x n arrays and no more
    built = []

    def gone_before(mesh):
        return all(ref() is None for ref, owner in built if owner is not mesh)

    def tracking(real):
        def wrapper(mesh, *args, **kwargs):
            assert gone_before(mesh)
            out = real(mesh, *args, **kwargs)
            built.append((weakref.ref(out), mesh))
            return out
        return wrapper

    monkeypatch.setattr(verify, "probe_points", tracking(verify.probe_points))
    meshes = {name: stock_mesh(name, 64) for name in ("disk", "ellipse")}
    assert run_verify(meshes=meshes, n=64).passed
    assert len(built) == 2 * 4
    assert all(ref() is None for ref, _ in built)
    for mesh in meshes.values():
        held = [v for value in vars(mesh.operators).values()
                for v in (value.values() if isinstance(value, dict) else [value])]
        square = [a for a in held if isinstance(a, np.ndarray) and a.ndim == 2
                  and a.shape[1] >= mesh.n - 1]
        assert [a.shape for a in square] == [(mesh.n, mesh.n), (mesh.n - 1, mesh.n - 1)]


@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus", "kite"])
def test_seeded_densities_match_the_loop_bit_for_bit(name, zero_mean):
    mesh = stock_mesh(name, 64)
    cache = verify._MeshCache(mesh)
    for seed in range(50):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert np.array_equal(cache.density(rng, zero_mean),
                                  loop_seeded_density(mesh, reference, zero_mean))
        assert rng.uniform() == reference.uniform()  # the same draws were taken


def test_shared_probe_sets_are_read_only(disk128):
    cache = verify._MeshCache(disk128)
    pts = cache.probes("exterior", count=10)
    assert cache.probes("exterior", count=10) is pts and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    assert np.array_equal(pts, verify.probe_points(disk128, "exterior", count=10))


@pytest.mark.parametrize("overrides, reason", [
    ({"w1-hlf": 1.0, "symmetry": 1e-6}, "'w1-hlf' names no verify check"),
    ({"symmetry": -1.0}, "symmetry: expected a finite non-negative number"),
    ({"symmetry": float("nan")}, "finite non-negative"),
    ({"symmetry": float("inf")}, "finite non-negative"),
    ({"symmetry": 10**400}, "finite non-negative"),
    ({"symmetry": True}, "finite non-negative"),
    ({"symmetry": "1e-6"}, "finite non-negative"),
    ([("symmetry", 1e-6)], "expected an object"),
])
def test_run_verify_refuses_bad_tol_overrides(overrides, reason):
    with pytest.raises(ConfigError, match=reason):
        run_verify(meshes={"disk": stock_mesh("disk", 32)}, n=32, tol_overrides=overrides)


def test_run_verify_applies_tol_overrides(monkeypatch):
    check = verify._Check("symmetry", lambda mesh, rng, cache: 0.25, 1e-6, "a fixed residual")
    monkeypatch.setattr(verify, "_CHECKS", (check,))
    mesh = stock_mesh("disk", 32)
    assert not run_verify(meshes={"disk": mesh}, n=32).passed
    report = run_verify(meshes={"disk": mesh}, n=32, tol_overrides={"symmetry": 1})
    assert report.rows[0].tol == 1.0 and report.passed


def test_nullspace_dims_compares_the_kernel_the_solvers_use(monkeypatch):
    mesh = stock_mesh("annulus", 64)
    rng = np.random.default_rng(0)
    real = verify._bordered_system

    def turned(mesh, side):
        # the bordered-GMRES kernel, rotated 1e-3 rad out of the true one
        record = real(mesh, side)
        return record._replace(
            kernel=np.linalg.qr(record.kernel + 1e-3 * np.cos(3 * mesh.t)[:, None])[0])

    assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) <= 1e-5
    monkeypatch.setattr(verify, "_bordered_system", turned)
    assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) > 1e-5


# --- the one-at-a-time route of the looped checks --------------------------
# Each check below applies its operators to one seeded density or pair at a
# time, through the 1-D public functions, and draws from rng in the same
# order as the check that applies them to one (n, k) block per side.


def _loop_pairs(cache, rng, count, zero_mean=False):
    pairs = []
    for i in range(count):
        mu0 = cache.density(rng, zero_mean=zero_mean)
        mu1 = cache.density(rng)
        pairs.append(PairDistribution(("plus", "minus")[i % 2], mu0, mu1, cache.mesh))
    return pairs


def _sup(x):
    return float(np.max(np.abs(x)))


def _loop_plemelj_classical(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for _ in range(20):
        f = cache.density(rng)
        res = max(res, _sup(ops.single_layer(ops._wt(f)) - ops.W @ ops.single_layer(f)))
    return res


def _loop_plemelj_distributional(mesh, rng, cache):
    ops = operator_set(mesh)
    return max(_sup(V_of_distribution(Wt_on_distribution(tau)) - ops.W @ V_of_distribution(tau))
               for tau in _loop_pairs(cache, rng, 10))


def _loop_dist_jump(mesh, rng, cache):
    res = 0.0
    for tau in _loop_pairs(cache, rng, 6, zero_mean=True):
        out = dist_jump_check(tau)
        res = max(res, out.interior, out.exterior)
    tau = PairDistribution("plus", 1.0 + cache.density(rng), cache.density(rng), mesh)
    return max(res, dist_jump_check(tau).interior)


def _loop_vst_identities(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for _ in range(10):
        mu = cache.density(rng)
        for side in ("plus", "minus"):
            closed = V_of_distribution(PairDistribution(side, np.zeros(mesh.n), mu, mesh))
            res = max(res, _sup(ops.single_layer(ops.rep(side, mu)) - closed))
    return res


def _loop_symmetry(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for tau in _loop_pairs(cache, rng, 10):
        psi = cache.density(rng)
        lhs = dist_pairing(tau, ops.single_layer(psi))
        res = max(res, abs(lhs - pairing(mesh, V_of_distribution(tau), psi)))
    return res


def _loop_j_roundtrip(mesh, rng, cache):
    res = 0.0
    for tau in _loop_pairs(cache, rng, 5):
        g = J_isometry(tau)
        back = J_preimage(mesh, g, tau.side)
        res = max(res, _sup(J_isometry(back) - g),
                  _sup(to_grid_representer(back) - to_grid_representer(tau)))
    return res


def _loop_space_coincidence(mesh, rng, cache):
    res = 0.0
    for tau in _loop_pairs(cache, rng, 5):
        other = "minus" if tau.side == "plus" else "plus"
        tau2 = J_preimage(mesh, J_isometry(tau), other)
        res = max(res, _sup(to_grid_representer(tau2) - to_grid_representer(tau)))
    return res


def _loop_poisson_reps(mesh, rng, cache):
    g = cache.density(rng)
    rd, re_ = dirichlet_interior(mesh, g), dirichlet_exterior(mesh, g)
    res = 0.0
    for p in cache.probes("interior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p) - rd.field.eval_unchecked(p[None])[0]))
        val, c_g = poisson_exterior(mesh, g, p)
        res = max(res, abs(val), abs(c_g - re_.u_infinity))
    for p in cache.probes("exterior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p)))
        val, _ = poisson_exterior(mesh, g, p)
        res = max(res, abs(val - re_.field.eval_unchecked(p[None])[0]))
    return res


_LOOPS = {
    "plemelj-classical": _loop_plemelj_classical,
    "plemelj-distributional": _loop_plemelj_distributional,
    "dist-jump": _loop_dist_jump,
    "VSt-identities": _loop_vst_identities,
    "symmetry": _loop_symmetry,
    "J-isometry-roundtrip": _loop_j_roundtrip,
    "space-coincidence": _loop_space_coincidence,
    "poisson-reps": _loop_poisson_reps,
}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus"])
@pytest.mark.parametrize("row", list(_LOOPS))
def test_blocked_check_agrees_with_the_one_at_a_time_loop(row, name, n):
    mesh = stock_mesh(name, n)
    check = next(check for check in verify._CHECKS if check.name == row)

    def rng():
        return np.random.default_rng([verify.DEFAULT_SEED, zlib.crc32(row.encode()),
                                      zlib.crc32(name.encode())])

    blocked = check.run(mesh, rng(), verify._MeshCache(mesh))
    loop = _LOOPS[row](mesh, rng(), verify._MeshCache(mesh))
    assert blocked <= check.tol and loop <= check.tol
    assert abs(blocked - loop) <= 1e-11


def test_a_block_of_seeded_densities_holds_the_densities_drawn_one_at_a_time():
    mesh = stock_mesh("annulus", 64)
    cache = verify._MeshCache(mesh)
    rng = np.random.default_rng(5)
    references = np.random.default_rng(5), np.random.default_rng(5)
    block = cache.densities(rng, 7)
    columns = np.column_stack([cache.density(references[0]) for _ in range(7)])
    zero_mean = np.column_stack([cache.density(references[1], zero_mean=True) for _ in range(7)])
    after = rng.uniform()
    assert all(after == r.uniform() for r in references)  # the same draws were taken
    assert np.array_equal(block, columns)
    # the block's means are taken in one product
    assert np.max(np.abs(cache.zero_mean(block) - zero_mean)) <= 1e-15


def test_poisson_reps_takes_one_pass_and_one_block_solve_per_region(monkeypatch):
    # 20 probes and two representations at each: at one point at a time
    # they took 40 geometry passes and 40 density solves
    mesh = stock_mesh("annulus", 64)
    cache = verify._MeshCache(mesh)
    for region in ("interior", "exterior"):
        cache.probes(region, count=10)
    passes, solves = [], []
    blocks, density = solvers._TargetBlocks, operators.OperatorSet._density

    def counted_blocks(mesh, points):
        passes.append(np.shape(points))
        return blocks(mesh, points)

    def counted_density(self, g):
        solves.append(np.shape(g))
        return density(self, g)

    monkeypatch.setattr(solvers, "_TargetBlocks", counted_blocks)
    monkeypatch.setattr(operators.OperatorSet, "_density", counted_density)
    assert verify.check_poisson_reps(mesh, np.random.default_rng(0), cache) <= 1e-6
    assert passes == [(10, 2), (10, 2)]
    # the interior and exterior Dirichlet solves of the datum, then one block per region
    assert solves == [(mesh.n,), (mesh.n,), (mesh.n, 10), (mesh.n, 10)]
