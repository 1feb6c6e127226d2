"""Dirichlet and Neumann solvers, null spaces, and Green representations.

Dirichlet problems use the single-layer-plus-constant representation whose
bordered system stays well posed at logarithmic capacity one.  The
nonvariational Neumann problems solve (-1/2 I + Wt) phi = g (interior) and
(1/2 I + Wt) phi = g (exterior) for the minimum-norm density.  The domain
topology gives the left kernels: the weighted indicators of the components
of the open set (interior) and of the bounded exterior components
(exterior).  GMRES on the matrix bordered with them, applied from W (Wt is
never formed), yields a solution and a basis of the right kernel, which is
then projected out; the rank deficiency is measured on that basis.  A
second Dirichlet solver splits g under sign/2 I + W, its image's density
solved with the transposed bordered matrix, and adds a single layer with
density in the transpose kernel, cross-checking the direct route.  Every
+- is the side's sign (README, "Sides and signs").  Only the independent
checks of those kernels factor an n x n matrix: nullspace by one SVD of
shift I + W, transpose_kernel_pair_basis by one pivoted QR.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import qr, solve_triangular, subspace_angles
from scipy.linalg.lapack import dormqr

from .errors import (
    ConditioningWarning,
    IncompatibleData,
    LengthMismatch,
    NearBoundary,
    OutOfRange,
    SingularSystem,
)
from .geometry import _check_aligned, _row_blocks, _TargetBlocks, indicator, integrate, pairing
from .operators import _side, operator_set
from .potentials import (
    HarmonicField,
    normal_derivative_single,
    trace_double,
    trace_single,
)
from .distributions import (
    JMap,
    PairDistribution,
    to_grid_representer,
)


@dataclass
class SolveReport:
    """Solution field plus the diagnostics of the solve that produced it."""

    field: HarmonicField
    densities: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    compat: list = field(default_factory=list)
    rank_info: dict = field(default_factory=dict)
    u_infinity: float | None = None

    def to_dict(self):
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "compat": [float(v) for v in self.compat],
            "rank_info": {k: int(v) for k, v in self.rank_info.items()},
            "u_infinity": None if self.u_infinity is None else float(self.u_infinity),
            "constant": float(self.field.constant),
            "region": self.field.region,
        }


# The largest datum magnitude a solve takes.  Its squared 2-norm over up to
# 1e8 nodes stays below the largest float (1.8e308), and so do the densities,
# pairings and fields the solves make of it; a larger datum (or a NaN) is
# refused before anything is solved, as geometry._MAX_DISTANCE refuses points.
_MAX_DATUM = 1e150


def _datum(mesh, g):
    """A grid-function datum aligned with the mesh and within _MAX_DATUM (OutOfRange otherwise)."""
    g = _check_aligned(mesh, g)
    size = float(np.max(np.abs(g)))
    if not size <= _MAX_DATUM:
        raise OutOfRange(f"datum of magnitude {size:.3e} is beyond {_MAX_DATUM:.0e}, "
                         "the largest a solve takes")
    return g


def _dirichlet(mesh, g, region):
    exterior = _side(region, "region").sign < 0
    g = _datum(mesh, g)
    ops = operator_set(mesh)
    eta, c = ops.harmonic_density(g)
    resid = float(np.max(np.abs(ops.single_layer(eta) + c - g)))
    if resid > 1e-7 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"boundary residual {resid:.3e} of the Dirichlet solve")
    fld = HarmonicField(mesh, [("single", eta)], constant=c, region=region)
    return SolveReport(
        field=fld,
        densities={"eta": eta, "constant": c},
        residuals={"boundary": resid},
        u_infinity=c if exterior else None,
    )


def dirichlet_interior(mesh, g):
    """Interior Dirichlet solve through the bordered single-layer system."""
    return _dirichlet(mesh, g, "interior")


def dirichlet_exterior(mesh, g):
    """Exterior Dirichlet solve; the representation constant is the value at infinity."""
    return _dirichlet(mesh, g, "exterior")


def _compat_rows(topology, side):
    """Indicator indices of a side's compatibility rows: 1..kappa_plus inside,
    0..kappa_minus outside, where row 0 is the unbounded component."""
    return range(0 if side.sign < 0 else 1, getattr(topology, side.kappa) + 1)


def _compat_pairings(mesh, rep, side):
    """Pairings of a grid representer with the indicators of the side's compatibility rows."""
    return np.array([pairing(mesh, rep, indicator(mesh.topology, side.indicator, k))
                     for k in _compat_rows(mesh.topology, side)])


def check_compat_interior(mesh, g):
    """Pairings of the datum with the indicators of the open-set components."""
    return _compat_pairings(mesh, _as_neumann_rep(mesh, g), _side("plus"))


def check_compat_exterior(mesh, g):
    """Pairings with the exterior-component indicators, unbounded one included (row 0)."""
    return _compat_pairings(mesh, _as_neumann_rep(mesh, g), _side("minus"))


def _as_neumann_rep(mesh, g):
    """The grid representer of a grid function or PairDistribution datum,
    within _MAX_DATUM (OutOfRange otherwise)."""
    if isinstance(g, PairDistribution):
        for density in (g.mu0, g.mu1):  # the representer's sums would overflow first
            _datum(mesh, density)
        g = to_grid_representer(g)
    return _datum(mesh, g)


# singular values below this times the largest count as zero
_RANK_TOL = 1e-10
# relative size of a Neumann datum's component fluxes and of the solve's
# residual above which the datum counts as incompatible
_COMPAT_TOL = 1e-7
# GMRES: step cap, relative residual, and the probe's (a singular M misses by ~1/sqrt(n))
_GMRES_CAP = 100
_GMRES_TOL = 1e-14
_PROBE_TOL = 1e-6


class _Bordered(NamedTuple):
    solution: np.ndarray  # minimum-norm solution of (shift I + Wt) x = rhs
    kernel: np.ndarray  # orthonormal basis of the measured right kernel of shift I + Wt
    border: np.ndarray  # B, unit columns: as many as the kernel dimension assumed


def _indicators(mesh, side):
    """Indicators of the components of one side, one column each.

    They span the kernel of -sign/2 I + W (the components of the open set
    for the interior, the bounded exterior components for the exterior);
    weighted by the quadrature weights they span the left kernel of
    -sign/2 I + Wt.
    """
    count = getattr(mesh.topology, side.kappa)
    cols = [indicator(mesh.topology, side.indicator, j) for j in range(1, count + 1)]
    return np.array(cols).reshape(count, mesh.n).T


def _bordered(ops, shift, border, transpose, z):
    """M z for M = [shift I + Wt, B; B^T, 0], or M^T z, whose block is shift I + D W D^-1."""
    x, w = z[:ops.n], ops.weights
    image = w * (ops.W @ (x / w)) if transpose else ops._wt(x)
    return np.concatenate((shift * x + image + border @ z[ops.n:], border.T @ x))


def _bordered_norm(ops, shift, border):
    """Inf-norm of M (_bordered); |Wt| has row sums |W|^T w / w, summed over row blocks of W."""
    w, d, B = ops.weights, np.diagonal(ops.W), np.abs(border)
    sums = sum(w[lo:hi] @ np.abs(ops.W[lo:hi]) for lo, hi in _row_blocks(0, ops.n, ops.n))
    rows = sums / w - np.abs(d) + np.abs(shift + d) + np.sum(B, axis=1)
    return float(np.max(np.append(rows, np.sum(B, axis=0))))


def _gmres(apply, b, tol=_GMRES_TOL):
    """x with |apply(x) - b| <= tol |b|, by GMRES from zero (Saad & Schultz, 1986).

    Classical Gram-Schmidt runs twice; Givens rotations carry the residual,
    exact while apply is nonsingular.  b is scaled to unit norm, so that any
    datum within _MAX_DATUM stays finite.  SingularSystem after _GMRES_CAP steps.
    """
    size = float(np.linalg.norm(b))
    if not size:
        return np.zeros_like(b)
    basis, H = np.empty((_GMRES_CAP + 1, b.size)), np.zeros((_GMRES_CAP + 1, _GMRES_CAP))
    rot, g = np.zeros((_GMRES_CAP, 2)), np.zeros(_GMRES_CAP + 1)
    basis[0], g[0] = b / size, 1.0
    for j in range(_GMRES_CAP):
        v = apply(basis[j])
        for _ in range(2):
            h = basis[:j + 1] @ v
            v -= h @ basis[:j + 1]
            H[:j + 1, j] += h
        height = float(np.linalg.norm(v))
        for i, (c, s) in enumerate(rot[:j]):
            H[i, j], H[i + 1, j] = c * H[i, j] + s * H[i + 1, j], c * H[i + 1, j] - s * H[i, j]
        r = float(np.hypot(H[j, j], height))
        rot[j], H[j, j] = (H[j, j] / r, height / r), r
        g[j + 1], g[j] = -rot[j, 1] * g[j], rot[j, 0] * g[j]
        if abs(g[j + 1]) <= tol:
            y = solve_triangular(H[:j + 1, :j + 1], g[:j + 1], check_finite=False)
            return size * (y @ basis[:j + 1])
        basis[j + 1] = v / height
    raise SingularSystem(f"bordered second-kind system is singular: GMRES residual "
                         f"{abs(g[j + 1]):.1e} after {j + 1} steps")


def _wt_solve(mesh, side, rhs):
    """Minimum-norm solution of (shift I + Wt) x = rhs by GMRES on the bordered system.

    M = [A, B; B^T, 0] borders A = shift I + D^-1 W^T D (the side's shift)
    with B, the side's weighted indicators in unit columns, which span the
    left kernel of A.  A is the identity's multiple plus a compact operator,
    so GMRES takes a number of steps that does not depend on n.  A seeded
    random probe, which a singular M cannot reach though a consistent datum
    can, is solved first: SingularSystem unless M maps its solution back to
    it to _PROBE_TOL.  The datum's solution solves A x = rhs; those of the
    border rows' unit vectors span the right kernel of A, and the vectors
    of that span A maps below _RANK_TOL times the inf-norm of M are the
    measured kernel, projected out of x for the minimum norm.  _decompose
    solves with M^T on the same border.
    """
    ops = operator_set(mesh)
    border = _indicators(mesh, side) * mesh.weights[:, None]
    border /= np.linalg.norm(border, axis=0)
    n, k = border.shape
    product = partial(_bordered, ops, side.shift, border, False)
    probe = np.random.default_rng(0).standard_normal(n + k)
    miss = np.linalg.norm(product(_gmres(product, probe, _PROBE_TOL)) - probe)
    miss /= np.linalg.norm(probe)
    if not miss <= _PROBE_TOL:
        raise SingularSystem("bordered second-kind system is singular: "
                             f"it misses a random right-hand side by {miss:.1e}")
    x = _gmres(product, np.append(rhs, np.zeros(k)))[:n]
    kernel = np.zeros((n, 0))
    if k:
        span = np.column_stack([_gmres(product, e)[:n] for e in np.eye(k, n + k, n)])
        span, _ = np.linalg.qr(span)
        _, sv, vt = np.linalg.svd(side.shift * span + ops._wt(span), full_matrices=False)
        kernel = span @ vt[sv <= _RANK_TOL * _bordered_norm(ops, side.shift, border)].T
    return _Bordered(x - kernel @ (kernel.T @ x), kernel, border)


def _neumann(mesh, g, region):
    side = _side(region, "region")
    exterior = side.sign < 0
    rep = _as_neumann_rep(mesh, g)
    ops = operator_set(mesh)
    scale = float(np.max(np.abs(rep))) * integrate(mesh, np.ones(mesh.n))
    compat = _compat_pairings(mesh, rep, side)
    # each gate fails for NaN and inf as well, and a zero datum passes them all
    if not np.max(np.abs(compat)) <= _COMPAT_TOL * scale:
        raise IncompatibleData(f"datum has nonzero flux through "
                               f"{'an exterior' if exterior else 'a'} component boundary",
                               pairings=compat)
    solve = _wt_solve(mesh, side, rep)
    phi = solve.solution
    A_phi = side.shift * phi + ops._wt(phi)
    resid = float(np.linalg.norm(A_phi - rep))
    if not resid <= _COMPAT_TOL * max(1.0, float(np.linalg.norm(rep))):
        raise IncompatibleData(
            f"least-squares residual {resid:.3e} exceeds tolerance", pairings=compat
        )
    deficiency = solve.kernel.shape[1]
    if exterior:
        phi_mass = integrate(mesh, phi)
        if not abs(phi_mass) <= 1e-8 * scale:
            raise SingularSystem(
                f"exterior Neumann density carries mass {phi_mass:.3e}"
            )
    fld = HarmonicField(mesh, [("single", phi)], region=region)
    trace = ops.single_layer(phi)
    # rep(side, V phi) = sign (shift I + Wt) phi
    check = np.max(np.abs(ops.rep(side.name, trace) - side.sign * A_phi))
    residuals = {"equation": resid, "neumann_identity": float(check)}
    if exterior:  # relative to scale, as its gate; a zero datum passed it with no mass
        residuals["density_mass"] = abs(phi_mass) / scale if scale else 0.0
    return SolveReport(
        field=fld,
        densities={"phi": phi},
        residuals=residuals,
        compat=list(compat),
        rank_info={"rank": mesh.n - deficiency, "deficiency": deficiency,
                   "expected_deficiency": solve.border.shape[1]},
        u_infinity=0.0 if exterior else None,
    )


def neumann_interior(mesh, g):
    """Interior Neumann problem with distributional datum g.

    g may be a grid function or a PairDistribution.  The
    density is the minimum-norm solution of (-1/2 I + Wt) phi = g; adding
    any combination of nullspace(mesh, 'minus_half_plus_Wt').vectors gives
    another representative of the same solution family.  The datum's grid
    representer must lie within _MAX_DATUM, else OutOfRange before anything
    is solved.  A datum whose component fluxes or solve residual exceed
    _COMPAT_TOL relative to its size raises IncompatibleData.
    """
    return _neumann(mesh, g, "interior")


def neumann_exterior(mesh, g):
    """Exterior Neumann problem, the datum taken along nu, the normal out of the open set
    (dist_normal_derivative(mesh, f, 'minus') is along -nu: it yields the field of -f)."""
    return _neumann(mesh, g, "exterior")


@dataclass
class NullspaceBasis:
    """Orthonormal kernel basis with the singular values that selected it.

    For a W kind these are the SVD of shift I + W and its right null
    vectors.  A Wt kind shares that SVD: singular_values and gap are those
    of shift I + W, and the vectors are D^-1 times its left null vectors,
    orthonormalized (Wt = D^-1 W^T D, so ker(shift I + Wt) = D^-1 ker((shift I + W)^T)).
    """

    vectors: np.ndarray
    singular_values: np.ndarray
    gap: float

    @property
    def dimension(self):
        return self.vectors.shape[1]


# each kind names the operator shift I + W or shift I + Wt of one side: the
# transpose of that side's Neumann operator, or the operator itself
_OP_KINDS = {
    "minus_half_plus_W": (_side("plus"), "W"),
    "minus_half_plus_Wt": (_side("plus"), "Wt"),
    "half_plus_W": (_side("minus"), "W"),
    "half_plus_Wt": (_side("minus"), "Wt"),
}


def _op_kind(op_kind, ops=("W", "Wt")):
    """The side and operator name of a kind among ops; OutOfRange otherwise."""
    side, op = _OP_KINDS.get(op_kind, (None, None))
    if op not in ops:
        known = " or ".join(repr(k) for k, (_, o) in _OP_KINDS.items() if o in ops)
        raise OutOfRange(f"unknown operator kind {op_kind!r}, expected {known}")
    return side, op


def nullspace(mesh, op_kind):
    """Null space of one of the four second-kind operators, from one SVD of shift I + W.

    The side's shift I + W is factored by one SVD.  For a W kind its right
    null vectors span the kernel.  For a Wt kind the left null vectors
    scaled by D^-1 span it, and a thin QR orthonormalizes them.  Singular
    values below _RANK_TOL times the largest count as zero.
    """
    side, op = _op_kind(op_kind)
    n = mesh.n
    A = operator_set(mesh).W.copy()
    A[range(n), range(n)] += side.shift
    u, sv, vt = np.linalg.svd(A)
    dim = int(np.sum(sv < _RANK_TOL * sv[0]))
    # _RANK_TOL < 1 keeps sv[0], so the kernel is never all of R^n
    gap = float(sv[n - dim - 1] / sv[n - dim]) if dim else float("inf")
    if gap < 1e4:
        warnings.warn(f"singular-value gap {gap:.2e} below 1e4", ConditioningWarning)
    # copies, so that no n x n factor outlives this call
    if op == "W":
        vectors = vt[n - dim:].T.copy()
    else:
        vectors, _ = np.linalg.qr(u[:, n - dim:] / mesh.weights[:, None])
    return NullspaceBasis(vectors, sv, gap)


def _decompose(mesh, g, sign):
    """Image/kernel split of g under sign/2 I + W, with the image's density.

    Returns (g_im, g_ker, psi, P): psi is the minimum-norm solution of
    (sign/2 I + W) psi = g_im and P an orthonormal basis of the kernel of
    the transpose operator sign/2 I + Wt.  The kernel of sign/2 I + W is
    spanned by the indicators K of the opposite side, its left kernel by D P.
    The transpose M^T of the bordered matrix of P's _wt_solve, [D (sign/2 I
    + W) D^-1, B; B^T, 0], solves M^T [D psi0; 0] = [D g_im; 0] by one more
    GMRES run, and psi is psi0 minus its K part.
    """
    # sign/2 I + Wt is the operator of the Neumann problem on the opposite side
    side = _side(sign).opposite
    g = _datum(mesh, g)
    K = _indicators(mesh, side)
    _, P, border = _wt_solve(mesh, side, np.zeros(mesh.n))
    DP = P * mesh.weights[:, None]
    g_ker = np.zeros(mesh.n)
    if K.shape[1]:
        try:
            g_ker = K @ np.linalg.solve(DP.T @ K, DP.T @ g)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("oblique projection system is singular") from exc
    g_im = g - g_ker
    rhs = np.append(mesh.weights * g_im, np.zeros(K.shape[1]))
    transposed = partial(_bordered, operator_set(mesh), side.shift, border, True)
    psi = _gmres(transposed, rhs)[:mesh.n] / mesh.weights
    psi -= K @ ((K.T @ psi) / np.sum(K, axis=0))  # K^T K is diagonal
    resid = float(np.linalg.norm(side.shift * psi + operator_set(mesh).W @ psi - g_im))
    if resid > 1e-7 * max(1.0, float(np.linalg.norm(g))):
        raise SingularSystem(f"image part not reachable: residual {resid:.3e}")
    return g_im, g_ker, psi, P


def decompose(mesh, g, sign):
    """Split g into an image part and a kernel part of sign/2 I + W.

    sign is 'plus' or 'minus'.  The image is the weighted-pairing
    orthogonal complement of the kernel of the transpose operator, so the
    projection is generally oblique.
    """
    g_im, g_ker, _, _ = _decompose(mesh, g, sign)
    return g_im, g_ker


def _via_decomposition(mesh, g, side):
    """Dirichlet solve as double layer plus transpose-kernel single layers.

    The exterior side keeps the zero-mean part of the transpose kernel and
    adds the constant, which is the value at infinity.
    """
    side = _side(side)
    exterior = side.sign < 0
    g = _check_aligned(mesh, g)
    ops = operator_set(mesh)
    _, g_ker, psi, P = _decompose(mesh, g, side.name)
    terms = [("double", psi)]
    densities = {"psi": psi}
    rho = resid_ker = 0.0
    if np.max(np.abs(g_ker)) > 0:
        wp = mesh.weights @ P
        if exterior and np.linalg.norm(wp) >= 1e-12:
            _, _, vt = np.linalg.svd(wp[None, :])
            P = P @ vt[1:].T
        A = ops.single_layer(P)
        if exterior:
            A = np.column_stack([A, np.ones(mesh.n)])
        coeff, _, _, _ = np.linalg.lstsq(A, g_ker, rcond=1e-10)
        resid_ker = float(np.linalg.norm(A @ coeff - g_ker))
        if resid_ker > 1e-6 * max(1.0, float(np.linalg.norm(g))):
            raise SingularSystem(
                f"kernel part not representable: residual {resid_ker:.3e}"
            )
        if exterior:
            rho = float(coeff[-1])
        if P.shape[1]:
            mu = P @ coeff[: P.shape[1]]
            terms.append(("single", mu))
            densities["mu"] = mu
    fld = HarmonicField(mesh, terms, constant=rho, region=side.region)
    boundary = sum(trace_single(mesh, d) if kind == "single" else trace_double(mesh, d, side.name)
                   for kind, d in terms) + rho
    resid = float(np.max(np.abs(boundary - g)))
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"boundary residual {resid:.3e}")
    return SolveReport(
        field=fld,
        densities=densities,
        residuals={"boundary": resid, "kernel_part": resid_ker},
        u_infinity=rho if exterior else None,
    )


def dirichlet_interior_via_decomposition(mesh, g):
    """Interior Dirichlet solve as double layer plus a transpose-kernel single layer."""
    return _via_decomposition(mesh, g, "plus")


def dirichlet_exterior_via_decomposition(mesh, g):
    """Exterior Dirichlet solve as double layer + kernel single layer + constant."""
    return _via_decomposition(mesh, g, "minus")


def _one_point(mesh, x):
    """The geometry pass of a single point x of shape (2,)."""
    blocks = _TargetBlocks(mesh, x)
    if not blocks.single:
        raise LengthMismatch(f"expected one point of shape (2,), got {blocks.points.shape}")
    return next(iter(blocks))[1]


def green_h(mesh, x, side):
    """Harmonic function matching the fundamental solution centered at x, shape (2,).

    side 'interior' solves in the open set, 'exterior' outside (harmonic
    at infinity); returns the SolveReport of the bordered solve.
    """
    return _green_h(mesh, _one_point(mesh, x), side)


def _green_h(mesh, source, side):
    """green_h of the source point's geometry pass, a _Targets of one row."""
    if source.dist[0] < mesh.band_width():
        raise NearBoundary("source point inside the near-boundary band")
    return _dirichlet(mesh, source.single_kernel[0], side)


def _poisson(mesh, g, x, region):
    """Pairing of g with d/dnu_y of the Green function of the region at x."""
    g = _check_aligned(mesh, g)
    source = _one_point(mesh, x)
    eta = _green_h(mesh, source, region).densities["eta"]
    dh = normal_derivative_single(mesh, eta, _side(region, "region").name)
    # d/dnu_y S2(x - y) is the double-layer kernel at x, in the pass's other scratch array
    kernel = source.double_kernel[0]
    return float(np.dot(mesh.weights * g, kernel - dh))


def poisson_interior(mesh, g, x):
    """Green-function representation of the interior harmonic extension at one point x.

    For x in the open set this reproduces the Dirichlet solution; for x in
    the exterior the same integral vanishes.
    """
    return _poisson(mesh, g, x, "interior")


def poisson_exterior(mesh, g, x):
    """Exterior Green representation at one point x; returns (value, constant at infinity)."""
    val = _poisson(mesh, g, x, "exterior")
    c_g = float(operator_set(mesh).q @ _check_aligned(mesh, g))
    return c_g - val, c_g


def transpose_kernel_pair_basis(mesh, op_kind, jmap=None):
    """Kernel of +-1/2 I + Wt computed through the pair-distribution route.

    The operator is realized in J coordinates (image g plus the mass
    functional) as a matrix M.  One pivoted QR of M^T gives its rank, from
    |R_ii|, and its kernel, the trailing columns of Q, applied to unit
    vectors without forming Q.  The kernel vectors are mapped back to
    representers in one block solve with the J map, and the span must
    coincide with the grid-operator kernel; the subspace angle quantifies
    the agreement.  op_kind is a Wt kind of nullspace; jmap, a JMap of mesh
    on either side, saves factoring the J map again.
    """
    side, _ = _op_kind(op_kind, ("Wt",))
    ops = operator_set(mesh)
    v1 = ops.single_layer(np.ones(mesh.n))
    correction = ops.W @ v1 - 0.5 * v1
    # the transpose of the J-coordinate matrix of shift I + Wt, Fortran-ordered
    Mt = ops.W.T.copy(order="K")
    Mt[range(mesh.n), range(mesh.n)] += side.shift
    Mt += np.outer(ops.q, correction)
    (reflectors, tau), R, _ = qr(Mt, overwrite_a=True, mode="raw", pivoting=True)
    dim = int(np.sum(np.abs(np.diagonal(R)) < _RANK_TOL * abs(R[0, 0])))
    if not dim:
        return np.zeros((mesh.n, 0))
    kernel = dormqr("L", "N", reflectors, tau, np.eye(mesh.n, dim, dim - mesh.n), 64 * dim)[0]
    jmap = jmap or JMap(mesh, "plus")
    mu0, mu1 = jmap.inverse(kernel)
    return mu0 + ops.rep(jmap.side, mu1)


def _subspace_angle(a, b):
    """Largest principal angle between two column spans; pi/2 when their dimensions differ."""
    if a.shape[1] != b.shape[1]:
        return np.pi / 2
    if a.shape[1] == 0:
        return 0.0
    return float(np.max(subspace_angles(a, b)))
