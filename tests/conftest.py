import ctypes
import itertools
import os

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from bie2d.geometry import _row_blocks, build_mesh, integrate, stock_mesh, stock_specs, CurveSpec
from bie2d.operators import _side, operator_set


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


def bordered_norm(ops, shift, border):
    """Inf-norm of the bordered Neumann matrix M = [shift I + Wt, B; B^T, 0] (solvers._bordered).

    |Wt| has row sums |W|^T w / w, summed over row blocks of W.  The
    reference for the measured kernel's threshold scale, B's largest
    column 1-norm, which reads no entry of W.
    """
    w, d, B = ops.weights, np.diagonal(ops.W), np.abs(border)
    sums = sum(w[lo:hi] @ np.abs(ops.W[lo:hi]) for lo, hi in _row_blocks(0, ops.n, ops.n))
    rows = sums / w - np.abs(d) + np.abs(shift + d) + np.sum(B, axis=1)
    return float(np.max(np.append(rows, np.sum(B, axis=0))))


def dense_v(mesh, out=None):
    """The single layer V of a mesh written out in full, into out (an (n, n) array) if given.

    The OperatorSet holds V only inside its factor's array; this spells it
    out as single_layer applies it: T from the factor's strict upper
    triangle and its diagonal from L_ii, A[1:, 1:] = u_i + u_j - T_ij, row
    0 and column 0 of A, and V = A D.
    """
    ops = operator_set(mesh)
    n = ops.n
    out = np.empty((n, n)) if out is None else out
    inner = out[1:, 1:]
    inner[...] = ops._factor.T  # T below the diagonal, the factor above
    for lo in range(0, n - 1, 64):  # mirror T above, 64 rows at a time
        hi = lo + 64
        tile = inner[lo:hi, lo:hi]
        tile[...] = np.tril(tile) + np.tril(tile, -1).T
        inner[lo:hi, hi:] = inner[hi:, lo:hi].T
    np.fill_diagonal(inner, np.diagonal(ops._factor) - ops._gap)
    np.subtract(ops._u[:, None], inner, out=inner)
    inner += ops._u
    out[0] = ops._a_row
    out[1:, 0] = ops._a_col
    out *= ops.weights
    return out


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
        dense_v(mesh, B[:self.n, :self.n])
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


def lu_wt_solve(mesh, side, rhs):
    """(x, kernel, factors) of (shift I + Wt) x = rhs by one LU of the formed bordered matrix.

    The route the Neumann solvers took before GMRES, kept as its reference:
    M = [shift I + Wt, B; B^T, 0], B the side's weighted indicators with
    unit columns, is written from W as the Fortran-ordered M^T and factored
    in place.  The datum and the unit vectors of the border rows are solved
    together; the solutions of the latter span the right kernel, of which
    the vectors mapped below 1e-10 times the inf-norm of M are kept and
    projected out of x.  factors solve with M^T (trans=0), as lu_decompose does.
    """
    from bie2d.solvers import _indicators

    n, w = mesh.n, mesh.weights
    ops = operator_set(mesh)
    border = _indicators(mesh, side) * w[:, None]
    k = border.shape[1]
    M = np.zeros((n + k, n + k))
    At = np.multiply(ops.W, w[:, None], out=M.T[:n, :n])
    At /= w
    At[range(n), range(n)] += side.shift
    M[:n, n:] = border / np.linalg.norm(border, axis=0)
    M[n:, :n] = M[:n, n:].T
    anorm = float(np.linalg.norm(M, np.inf))
    factors = lu_factor(M.T, overwrite_a=True, check_finite=False)
    rhs_block = np.zeros((n + k, k + 1))
    rhs_block[:n, 0] = rhs
    rhs_block[n:, 1:] = np.eye(k)
    sol = lu_solve(factors, rhs_block, trans=1, check_finite=False)[:n]
    kernel = np.zeros((n, 0))
    if k:
        span, _ = np.linalg.qr(sol[:, 1:])
        _, sv, vt = np.linalg.svd(side.shift * span + ops._wt(span), full_matrices=False)
        kernel = span @ vt[sv <= 1e-10 * anorm].T
    x = sol[:, 0]
    return x - kernel @ (kernel.T @ x), kernel, factors


def lu_decompose(mesh, g, sign):
    """(g_im, g_ker, psi, P) of solvers._decompose, psi read from the factors of lu_wt_solve."""
    from bie2d.solvers import _indicators

    side = _side(sign).opposite
    K = _indicators(mesh, side)
    _, P, factors = lu_wt_solve(mesh, side, np.zeros(mesh.n))
    DP = P * mesh.weights[:, None]
    g_ker = K @ np.linalg.solve(DP.T @ K, DP.T @ g) if K.shape[1] else np.zeros(mesh.n)
    g_im = g - g_ker
    rhs = np.append(mesh.weights * g_im, np.zeros(K.shape[1]))
    psi = lu_solve(factors, rhs, check_finite=False)[:mesh.n] / mesh.weights
    psi -= K @ ((K.T @ psi) / np.sum(K, axis=0))
    return g_im, g_ker, psi, P


def svd_nullspace(mesh, op_kind):
    """The kernel basis of solvers.nullspace as it was before its LU route.

    One full SVD of the side's shift I + W gives both kernels: a W kind's
    are the right null vectors, a Wt kind's the left ones scaled by D^-1
    and orthonormalized.  Singular values below 1e-10 times the largest
    count as zero.
    """
    from bie2d.solvers import _OP_KINDS

    side, op = _OP_KINDS[op_kind]
    n = mesh.n
    u, sv, vt = np.linalg.svd(side.shift * np.eye(n) + operator_set(mesh).W)
    dim = int(np.sum(sv < 1e-10 * sv[0]))
    if op == "W":
        return vt[n - dim:].T
    return np.linalg.qr(u[:, n - dim:] / mesh.weights[:, None])[0]


def loop_seeded_density(mesh, rng, zero_mean=False):
    """verify.seeded_density as it was before its single draw: the constant,
    then each mode's two coefficients drawn and added in turn."""
    from bie2d.geometry import integrate

    f = rng.uniform(-1.0, 1.0) * np.ones(mesh.n)
    for k in range(1, 9):
        a, b = rng.uniform(-1.0, 1.0, size=2) / (1.0 + k)
        f = f + a * np.cos(k * mesh.t) + b * np.sin(k * mesh.t)
    if zero_mean:
        f = f - integrate(mesh, f) / integrate(mesh, np.ones(mesh.n))
    return f


def j_forward_matrix(mesh, side):
    """The whole n x 2n matrix A = [A0, A1] of the J map (mu0, mu1) -> J[pair].

    A0 = V - (V 1 - 1) w^T / <1, 1> and A1 = -I/2 + sign W, plus 1 q^T on
    the minus side, each written into its half of one array.
    """
    ops, n = operator_set(mesh), mesh.n
    A = np.empty((n, 2 * n))
    A0 = dense_v(mesh, A[:, :n])
    A0 -= np.outer(ops.single_layer(np.ones(n)) - 1.0, mesh.weights / integrate(mesh, np.ones(n)))
    A1 = np.multiply(ops.W, _side(side).sign, out=A[:, n:])
    A1[range(n), range(n)] -= 0.5
    if side == "minus":
        A1 += ops.q
    return A


def min_norm_j_inverse(mesh, side, g):
    """(mu0, mu1) of the minimum-norm preimage A^T (A A^T)^-1 g of the J map.

    The route the J inverse took before it inverted through the single layer's
    factor, kept as its reference: the Cholesky factor of the Gram matrix
    of the whole A (j_forward_matrix).
    """
    A = j_forward_matrix(mesh, side)
    z = A.T @ cho_solve(cho_factor(A @ A.T), g)
    return z[:mesh.n], z[mesh.n:]


def near_probe_points(mesh, region, count=25):
    """The candidates of probe_points(mesh, region, count), closest first.

    The choice probe_points made with prefer='near' before it kept only the
    most distant candidates: probes this close to the boundary show a
    rule's convergence rate where the distant ones read rounding.
    """
    from bie2d.geometry import _in_region, _TargetBlocks

    sign = _side(region, "region").sign
    band = mesh.band_width()
    keep_dist = max(0.2, 1.2 * band)
    step = max(1, mesh.n // (2 * count))
    offsets = sorted({1.25 * keep_dist, 0.25, 0.35, 0.5, 2.5 * band})
    blocks = [mesh.x[::step] - sign * d * mesh.normal[::step] for d in offsets]
    if sign < 0:
        far = 2.0 * float(np.max(np.linalg.norm(mesh.x, axis=1)))
        theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        blocks.append(far * np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    candidates = np.concatenate(blocks)
    dist, outward = _TargetBlocks(mesh, candidates).nearest_nodes()
    keep = np.flatnonzero(_in_region(mesh, dist, outward, region) & (dist >= keep_dist))
    return candidates[keep[np.argsort(dist[keep], kind="stable")]][:count]


def svd_pair_basis(mesh, op_kind):
    """transpose_kernel_pair_basis as it was before its pivoted QR: the rank and
    the null vectors of the J-coordinate matrix are read from one SVD, and
    mapped back through solvers.J_preimage, as the pair route maps its own."""
    from bie2d import solvers

    side, _ = solvers._OP_KINDS[op_kind]
    ops = operator_set(mesh)
    v1 = ops.single_layer(np.ones(mesh.n))
    M = ops.W + side.shift * np.eye(mesh.n) + np.outer(ops.W @ v1 - 0.5 * v1, ops.q)
    _, sv, vt = np.linalg.svd(M)
    dim = int(np.sum(sv < 1e-10 * sv[0]))
    if not dim:
        return np.zeros((mesh.n, 0))
    tau = solvers.J_preimage(mesh, vt[mesh.n - dim:].T, "plus")
    return tau.mu0 + ops.rep("plus", tau.mu1)


def shifted_density(monkeypatch, shift):
    """Make every OperatorSet._density return its constant off by shift, so
    that V eta + c misses the datum by shift at every node."""
    from bie2d import operators

    density = operators.OperatorSet._density

    def shifted(self, g):
        eta, c = density(self, g)
        return eta, c + shift

    monkeypatch.setattr(operators.OperatorSet, "_density", shifted)


def negated_single_layer(monkeypatch):
    """Make every OperatorSet assemble -V, whose projected block is negative definite."""
    from bie2d import operators

    assemble = operators._assemble

    def negated(mesh):
        W, *single_layer = assemble(mesh)  # A = V D^-1 as A[1:, 1:], A[0] and A[:, 0]
        return W, *(np.negative(part, out=part) for part in single_layer)

    monkeypatch.setattr(operators, "_assemble", negated)


def grid_points(xs, ys):
    """The points of the grid xs x ys, shape (len(xs) * len(ys), 2), y running fastest."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


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


# Domains nested past one level of holes, named for the tests that take them
# beside the stock geometries
NESTED_SPECS = {
    # a ring 2 < r < 3 and the disk r < 1 inside its hole
    "nested-2": [CurveSpec("circle", radius=r) for r in (3.0, 2.0, 1.0)],
    # two rings, 3 < r < 4 and 1 < r < 2
    "nested-3": [CurveSpec("circle", radius=r) for r in (4.0, 3.0, 2.0, 1.0)],
    # a disk of radius 5 whose two holes each hold an island
    "islands": [CurveSpec("circle", radius=5.0)] + [
        CurveSpec("circle", center=(x, 0.0), radius=r) for r in (1.5, 0.5) for x in (-2.2, 2.2)],
}


def named_mesh(name, n):
    """A stock geometry or a domain of NESTED_SPECS, meshed with n nodes per curve."""
    specs = NESTED_SPECS[name] if name in NESTED_SPECS else stock_specs(name)
    return build_mesh(specs, [n] * len(specs))


def _innermost_locations(mesh, near, inside):
    """Location tuples from the band test and the curves that contain each point.

    inside[c, i] says whether curve c contains point i.  The innermost
    curve that contains a point decides, the one of least area: a point
    inside an odd number of curves lies in the component of the open set
    that curve touches, one inside an even number in the exterior
    component it touches, and one inside none in the unbounded component.
    """
    topo = mesh.topology
    area = np.array([abs(np.dot(mesh.weights[sl], np.einsum("ij,ij->i", mesh.x[sl],
                                                              mesh.normal[sl])))
                     for sl in map(mesh.component_slice, range(mesh.n_components))])
    count = inside.sum(axis=0).tolist()
    innermost = np.argmin(np.where(inside, area[:, None], np.inf), axis=0).tolist()
    return [("near_boundary", None) if close
            else ("exterior", 0) if not k
            else ("interior", topo.omega_of_comp[c]) if k % 2
            else ("exterior", topo.omega_minus_of_comp[c])
            for close, k, c in zip(near.tolist(), count, innermost)]


def winding_locations(mesh, points):
    """Location tuples by node distances and polygon winding numbers.

    The band test and the per-point classification of the location code
    before Gauss-law location replaced them, kept as a reference for point
    location.
    """
    from bie2d.geometry import _winding_of_points

    near = np.min(np.linalg.norm(points[:, None, :] - mesh.x[None, :, :], axis=-1),
                  axis=1) < mesh.band_width()
    with np.errstate(divide="ignore", invalid="ignore"):  # a point on a node is near
        inside = np.array([
            np.abs(_winding_of_points(mesh.x[mesh.component_slice(c)], points)) > 0.5
            for c in range(mesh.n_components)])
    return _innermost_locations(mesh, near, inside)


def gauss_law_locations(mesh, points):
    """Location tuples by the band test and Gauss's law.

    Off the band, the double layer of a curve's indicator is +-1 inside the
    curve and 0 outside, to trapezoid accuracy.  The route the library
    located points by before its nearest-node rule, kept as a reference
    for it.
    """
    dx, dy = (points[:, k, None] - mesh.x[:, k] for k in (0, 1))
    r2 = dx * dx + dy * dy
    near = np.sqrt(np.min(r2, axis=1)) < mesh.band_width()
    clear = np.flatnonzero(~near)
    nd = dx[clear] * mesh.normal[:, 0] + dy[clear] * mesh.normal[:, 1]
    kernel = -nd / (2 * np.pi * r2[clear])
    inside = np.zeros((mesh.n_components, len(points)), dtype=bool)
    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        inside[c, clear] = np.abs(kernel[:, sl] @ mesh.weights[sl]) > 0.5
    return _innermost_locations(mesh, near, inside)


def nearest_node_locations(mesh, points):
    """Location tuples and region masks of points (m, 2) by their nearest node of all.

    Every point-node pair is formed, in chunks of rows, and each point
    takes its nearest node; off the band, the side that node's normal
    points to decides.  The full pass the library located points by before
    it pruned the pairs by bounding boxes, kept as a reference for it.
    The masks are keyed by region: 'interior', 'exterior' and None, every
    point off the band.
    """
    topo = mesh.topology
    dist, outward, comp = [], [], []
    for chunk in np.array_split(points, max(1, len(points) // 256)):
        dx, dy = (chunk[:, k, None] - mesh.x[:, k] for k in (0, 1))
        r2 = dx * dx + dy * dy
        nearest = np.argmin(r2, axis=1)
        d, nu = chunk - mesh.x[nearest], mesh.normal[nearest]
        dist.append(np.sqrt(r2[np.arange(len(chunk)), nearest]))
        outward.append(d[:, 1] * nu[:, 1] + d[:, 0] * nu[:, 0] > 0)
        comp.append(mesh.comp[nearest])
    dist, outward, comp = map(np.concatenate, (dist, outward, comp))
    off = dist >= mesh.band_width()
    locations = [("near_boundary", None) if not clear
                 else ("exterior", topo.omega_minus_of_comp[c]) if out
                 else ("interior", topo.omega_of_comp[c])
                 for clear, out, c in zip(off.tolist(), outward.tolist(), comp.tolist())]
    return locations, {"interior": off & ~outward, "exterior": off & outward, None: off}
