import ctypes
import itertools
import os

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from bie2d.geometry import build_mesh, stock_mesh, CurveSpec
from bie2d.operators import operator_set


def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    The libraries are found by name in the process's memory map; the list
    is empty where there is none (another BLAS, or no /proc).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                     if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@pytest.fixture
def one_blas_thread():
    """Run the test with every loaded OpenBLAS on one thread.

    For tests that compare blocked evaluation bit for bit with one
    matrix-vector product over all rows.  OpenBLAS splits a product that
    large between its threads at a row that depends on the thread count,
    and the rows next to the split sum in another order; on one thread
    every row sums the same way in both routes.
    """
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("cannot set the BLAS thread count, which the one-product reference needs")
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    yield
    for (_, put), count in zip(controls, before):
        put(count)


def dense_wt(mesh):
    """Dense adjoint double layer D^-1 W^T D of a mesh, the reference the library never forms."""
    w = mesh.weights
    return (operator_set(mesh).W.T * w) / w[:, None]


class BorderedLU:
    """The bordered system [V, 1; w^T, 0] of a mesh, factored by a general LU.

    The route the OperatorSet took before its projected Cholesky, kept as
    that factorisation's reference: solves with the LU factors, and the
    weighted transposes and the value-at-infinity functional q by
    transposed solves.
    """

    def __init__(self, mesh):
        ops = operator_set(mesh)
        self.n, self.weights, self.W = mesh.n, mesh.weights, ops.W
        B = np.zeros((self.n + 1, self.n + 1))
        B[:self.n, :self.n] = ops.V
        B[:self.n, self.n] = 1.0
        B[self.n, :self.n] = self.weights
        self.factors = lu_factor(B)
        self.q = self._solve(np.zeros(self.n), last=1.0, trans=1)[:self.n]

    def _solve(self, top, last=0.0, trans=0):
        rhs = np.full((self.n + 1,) + top.shape[1:], last)
        rhs[:self.n] = top
        return lu_solve(self.factors, rhs, trans=trans)

    def harmonic_density(self, g):
        sol = self._solve(g)
        return sol[:-1], float(sol[-1])

    def dtn(self, side, v):
        # v and mu, below, are (n, k) blocks
        sign = 1.0 if side == "plus" else -1.0
        w = self.weights[:, None]
        eta = self._solve(v)[:self.n]
        return -0.5 * eta + sign * (self.W.T @ (w * eta)) / w

    def rep(self, side, mu):
        sign = 1.0 if side == "plus" else -1.0
        w = self.weights[:, None]
        return self._solve(w * (-0.5 * mu + sign * (self.W @ mu)), trans=1)[:self.n] / w


def negated_single_layer(monkeypatch):
    """Make every OperatorSet assemble -V, whose projected block is negative definite."""
    from bie2d import operators

    assemble = operators._assemble

    def negated(mesh, V):
        V, W = assemble(mesh, V)
        return np.negative(V, out=V), W

    monkeypatch.setattr(operators, "_assemble", negated)


def rows_per_block(monkeypatch, rows):
    """Make every pairwise pass take blocks of the given number of rows."""
    from bie2d import geometry

    monkeypatch.setattr(geometry, "_ROW_ALIGN", rows)
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 0)


@pytest.fixture(scope="session")
def disk():
    return stock_mesh("disk", 256)


@pytest.fixture(scope="session")
def disk128():
    return stock_mesh("disk", 128)


@pytest.fixture(scope="session")
def ellipse():
    return stock_mesh("ellipse", 256)


@pytest.fixture(scope="session")
def annulus():
    return stock_mesh("annulus", 256)


@pytest.fixture(scope="session")
def kite():
    return stock_mesh("kite", 256)


@pytest.fixture(scope="session")
def two_disks():
    return stock_mesh("two-disks", 256)


@pytest.fixture(scope="session")
def disk2_fine():
    """Radius-2 disk fine enough that 0.025 clears the near-boundary band."""
    return build_mesh([CurveSpec("circle", radius=2.0)], [1536])


def circle_mesh(radius, n):
    return build_mesh([CurveSpec("circle", radius=radius)], [n])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def winding_locations(mesh, points):
    """Location tuples by node distances and polygon winding numbers.

    The band test and the per-point classification of the location code
    before Gauss-law location replaced them, kept as a reference for point
    location.
    """
    from bie2d.geometry import _winding_of_points

    topo = mesh.topology
    near = np.min(np.linalg.norm(points[:, None, :] - mesh.x[None, :, :], axis=-1),
                  axis=1) < mesh.band_width()
    with np.errstate(divide="ignore", invalid="ignore"):  # a point on a node is near
        inside = [np.abs(_winding_of_points(mesh.x[mesh.component_slice(c)], points)) > 0.5
                  for c in range(mesh.n_components)]
    out = []
    for i in range(points.shape[0]):
        holes = [topo.omega_minus_of_comp[h] for h in topo.hole_comps if inside[h][i]]
        outers = [topo.omega_of_comp[o] for o in topo.outer_comps if inside[o][i]]
        if near[i]:
            out.append(("near_boundary", None))
        elif holes:
            out.append(("exterior", holes[0]))
        elif outers:
            out.append(("interior", outers[0]))
        else:
            out.append(("exterior", 0))
    return out


def gauss_law_locations(mesh, points):
    """Location tuples by the band test and Gauss's law.

    Off the band, the double layer of a curve's indicator is +-1 inside the
    curve and 0 outside, to trapezoid accuracy.  A point inside a hole lies
    in the hole's exterior component, though the outer curve around it
    holds it too, so holes are tried after outer curves and win.  The route
    the library located points by before its nearest-node rule, kept as a
    reference for it.
    """
    topo = mesh.topology
    dx, dy = (points[:, k, None] - mesh.x[:, k] for k in (0, 1))
    r2 = dx * dx + dy * dy
    near = np.sqrt(np.min(r2, axis=1)) < mesh.band_width()
    out = [("near_boundary", None) if n else ("exterior", 0) for n in near]
    clear = np.flatnonzero(~near)
    nd = dx[clear] * mesh.normal[:, 0] + dy[clear] * mesh.normal[:, 1]
    kernel = -nd / (2 * np.pi * r2[clear])
    for c in topo.outer_comps + topo.hole_comps:
        sl = mesh.component_slice(c)
        loc = (("exterior", topo.omega_minus_of_comp[c]) if c in topo.hole_comps
               else ("interior", topo.omega_of_comp[c]))
        for i in clear[np.abs(kernel[:, sl] @ mesh.weights[sl]) > 0.5]:
            out[i] = loc
    return out
