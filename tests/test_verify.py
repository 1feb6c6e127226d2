"""The identity suite's table: its rows, and the dense work it does per mesh."""

import weakref
import zlib

import numpy as np
import pytest

from bie2d import distributions, geometry, verify
from bie2d.errors import ConfigError
from bie2d.geometry import stock_mesh
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
def test_verify_takes_four_square_svds_per_mesh(monkeypatch, name):
    # one SVD of shift I + W per side, which gives its Wt null space, and
    # two pair-route transpose kernels
    mesh = stock_mesh(name, 64)
    svd, shapes = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert run_verify(meshes={name: mesh}, n=64).passed
    assert shapes.count((mesh.n, mesh.n)) == 4


def test_verify_factors_each_j_map_once_and_finds_each_probe_set_once(monkeypatch):
    # one J factor per side and one candidate pass per (region, count, prefer),
    # where each identity check used to redo both (21 factors, 14 passes)
    factors, passes, requests = [], [], []

    def counting(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return wrapper

    def recording_probes(mesh, region, count=25, prefer="far"):
        requests.append((region, count, prefer))
        return real_probes(mesh, region, count, prefer)

    real_probes = verify.probe_points
    # blocks of 8 rows: each candidate pass spans several, and counts once
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 8 * 64)
    monkeypatch.setattr(distributions, "cho_factor", counting(distributions.cho_factor, factors))
    monkeypatch.setattr(verify, "_TargetBlocks", counting(verify._TargetBlocks, passes))
    monkeypatch.setattr(verify, "probe_points", recording_probes)
    assert run_verify(meshes={"disk": stock_mesh("disk", 64)}, n=64).passed
    assert len(factors) == 2
    assert len(passes) == len(requests) == len(set(requests)) == 4


def test_verify_drops_each_mesh_cache_before_the_next(monkeypatch):
    # (weak reference, mesh) of every J factor and probe set the run builds
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

    monkeypatch.setattr(verify, "JMap", tracking(verify.JMap))
    monkeypatch.setattr(verify, "probe_points", tracking(verify.probe_points))
    meshes = {name: stock_mesh(name, 64) for name in ("disk", "ellipse")}
    assert run_verify(meshes=meshes, n=64).passed
    assert len(built) == 2 * (2 + 4)
    assert all(ref() is None for ref, _ in built)


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
    real = verify._wt_solve

    def turned(mesh, side, rhs):
        # the bordered-LU kernel, rotated 1e-3 rad out of the true one
        out = real(mesh, side, rhs)
        kernel = np.linalg.qr(out.kernel + 1e-3 * np.cos(3 * mesh.t)[:, None])[0]
        return out._replace(kernel=kernel)

    assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) <= 1e-5
    monkeypatch.setattr(verify, "_wt_solve", turned)
    assert verify.check_nullspace_dims(mesh, rng, verify._MeshCache(mesh)) > 1e-5
