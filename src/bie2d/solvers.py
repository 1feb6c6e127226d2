"""Dirichlet and Neumann solvers, null spaces, and Green representations.

Dirichlet problems use the single-layer-plus-constant representation whose
bordered system stays well posed at logarithmic capacity one.  The
nonvariational Neumann problems solve (-1/2 I + Wt) phi = g (interior) and
(1/2 I + Wt) phi = g (exterior) for the minimum-norm density.  The domain
topology gives the left kernels: the weighted indicators of the components
of the open set (interior) and of the bounded exterior components
(exterior).  One LU of the matrix bordered with them yields a solution and
a basis of the right kernel, which is then projected out; the rank
deficiency is measured on that basis, not taken from the topology.  A
second pair of Dirichlet solvers goes through the image/kernel splitting
of +-1/2 I + W and a single layer with density in the transpose kernel,
cross-checking the direct route.  The SVD survives only in nullspace and
transpose_kernel_pair_basis, as the independent check of those kernels.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve, subspace_angles
from scipy.linalg.lapack import dgecon

from .errors import (
    ConditioningWarning,
    IncompatibleData,
    NearBoundary,
    OutOfRange,
    SingularSystem,
)
from .geometry import _check_aligned, indicator, integrate
from .operators import operator_set
from .potentials import (
    HarmonicField,
    normal_derivative_single,
    trace_double,
    trace_single,
)
from .distributions import (
    J_inverse,
    PairDistribution,
    as_pair,
    dist_pairing,
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


def _dirichlet(mesh, g, region):
    g = _check_aligned(mesh, g)
    ops = operator_set(mesh)
    eta, c = ops.harmonic_density(g)
    resid = float(np.max(np.abs(ops.V @ eta + c - g)))
    if resid > 1e-7 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"boundary residual {resid:.3e} of the Dirichlet solve")
    fld = HarmonicField(mesh, [("single", eta)], constant=c, region=region)
    return SolveReport(
        field=fld,
        densities={"eta": eta, "constant": c},
        residuals={"boundary": resid},
        u_infinity=c if region == "exterior" else None,
    )


def dirichlet_interior(mesh, g):
    """Interior Dirichlet solve through the bordered single-layer system."""
    return _dirichlet(mesh, g, "interior")


def dirichlet_exterior(mesh, g):
    """Exterior Dirichlet solve; the representation constant is the value at infinity."""
    return _dirichlet(mesh, g, "exterior")


def _compat_pairings(mesh, g, region, indices):
    tau = as_pair(mesh, getattr(g, "representer", g))
    return np.array(
        [dist_pairing(tau, indicator(mesh.topology, region, k)) for k in indices]
    )


def check_compat_interior(mesh, g):
    """Pairings of the datum with the indicators of the open-set components."""
    return _compat_pairings(mesh, g, "omega", range(1, mesh.topology.kappa_plus + 1))


def check_compat_exterior(mesh, g):
    """Pairings with the exterior-component indicators, unbounded one included.

    Row k corresponds to the k-th exterior component; row 0 (the unbounded
    component) belongs to the two-dimensional compatibility conditions.
    """
    return _compat_pairings(
        mesh, g, "omega_minus", range(0, mesh.topology.kappa_minus + 1)
    )


def _as_neumann_rep(mesh, g):
    if isinstance(g, PairDistribution):
        return to_grid_representer(g).representer, g
    rep = _check_aligned(mesh, getattr(g, "representer", g))
    return rep, as_pair(mesh, rep)


# reciprocal condition estimate below which a bordered matrix counts as singular
_RCOND_FLOOR = 1e-12


class _Bordered(NamedTuple):
    solution: np.ndarray  # minimum-norm solution of A x = rhs
    kernel: np.ndarray  # orthonormal basis of the measured right kernel of A
    border: int  # number of border columns: the kernel dimension assumed


def _bordered_minnorm(op, shift, left_kernel, rhs, tol=1e-10):
    """Minimum-norm solution of (shift I + op) x = rhs by one bordered LU.

    left_kernel spans the left kernel of A = shift I + op.  With B its
    columns scaled to unit length, [A, B; B^T, 0] is factored once, and the
    datum and the unit vectors of the border rows are solved together: for
    rhs in the range of A the first solution solves A x = rhs, the others
    span the right kernel of A.  That span is orthonormalized, the vectors A
    maps below tol times the inf-norm of the bordered matrix are kept as the
    measured kernel, and the kernel is projected out of x in the Euclidean
    norm, which is the answer of a minimum-norm least-squares solve.
    Raises SingularSystem when the LAPACK condition estimate of the factors
    falls below _RCOND_FLOOR.
    """
    n, k = left_kernel.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = op
    M[range(n), range(n)] += shift
    M[:n, n:] = left_kernel / np.linalg.norm(left_kernel, axis=0)
    M[n:, :n] = M[:n, n:].T
    anorm = float(np.linalg.norm(M, np.inf))
    # LAPACK factors the Fortran-ordered M.T in place, without a copy, so the
    # condition estimate takes the inf-norm of M and the solve uses trans=1
    lu, piv = lu_factor(M.T, overwrite_a=True, check_finite=False)
    rcond, _ = dgecon(lu, anorm)
    if not rcond >= _RCOND_FLOOR:
        raise SingularSystem(
            f"bordered second-kind system is singular (rcond {rcond:.1e})"
        )
    rhs_block = np.zeros((n + k, k + 1))
    rhs_block[:n, 0] = rhs
    rhs_block[n:, 1:] = np.eye(k)
    sol = lu_solve((lu, piv), rhs_block, trans=1, check_finite=False)[:n]
    kernel = np.zeros((n, 0))
    if k:
        span, _ = np.linalg.qr(sol[:, 1:])
        _, sv, vt = np.linalg.svd(shift * span + op @ span, full_matrices=False)
        kernel = span @ vt[sv <= tol * anorm].T
    x = sol[:, 0]
    return _Bordered(x - kernel @ (kernel.T @ x), kernel, k)


class _NeumannSide(NamedTuple):
    shift: float  # the equation is (shift I + Wt) phi = g
    compat: Callable  # compatibility pairings of the datum
    boundary: str  # where a nonzero flux is reported
    region: str  # indicator region whose weighted indicators span the left kernel
    steklov: str  # side of the Dirichlet-to-Neumann map
    identity_sign: float  # rep(steklov, V phi) + identity_sign A phi = 0
    kappa: str  # topology count that equals the rank deficiency


_NEUMANN_SIDES = {
    "interior": _NeumannSide(-0.5, check_compat_interior, "a component boundary",
                             "omega", "plus", -1.0, "kappa_plus"),
    "exterior": _NeumannSide(0.5, check_compat_exterior,
                             "an exterior component boundary",
                             "omega_minus", "minus", 1.0, "kappa_minus"),
}


def _indicators(mesh, side):
    """Indicators spanning the kernel of shift I + W, one column each.

    They are the components of the open set for shift -1/2 and the bounded
    exterior components for +1/2; weighted by the quadrature weights they
    span the left kernel of shift I + Wt.
    """
    count = getattr(mesh.topology, side.kappa)
    cols = [indicator(mesh.topology, side.region, j) for j in range(1, count + 1)]
    return np.array(cols).reshape(count, mesh.n).T


def _wt_solve(mesh, side, rhs):
    """Minimum-norm solve with shift I + Wt, bordered by the weighted indicators."""
    border = _indicators(mesh, side) * mesh.weights[:, None]
    return _bordered_minnorm(operator_set(mesh).Wt, side.shift, border, rhs)


def _neumann(mesh, g, region, compat_tol, kernel_shift):
    side = _NEUMANN_SIDES[region]
    exterior = region == "exterior"
    rep, tau = _as_neumann_rep(mesh, g)
    ops = operator_set(mesh)
    scale = max(1e-30, float(np.max(np.abs(rep))) * integrate(mesh, np.ones(mesh.n)))
    compat = side.compat(mesh, tau)
    if np.max(np.abs(compat)) > compat_tol * scale:
        raise IncompatibleData(
            f"datum has nonzero flux through {side.boundary}", pairings=compat
        )
    solve = _wt_solve(mesh, side, rep)
    phi = solve.solution
    resid = float(np.linalg.norm(side.shift * phi + ops.Wt @ phi - rep))
    if resid > compat_tol * max(1.0, float(np.linalg.norm(rep))):
        raise IncompatibleData(
            f"least-squares residual {resid:.3e} exceeds tolerance", pairings=compat
        )
    deficiency = solve.kernel.shape[1]
    if kernel_shift is not None:
        rng = np.random.default_rng(kernel_shift)
        phi = phi + solve.kernel @ rng.uniform(-1.0, 1.0, size=deficiency)
    if exterior:
        phi_mass = integrate(mesh, phi)
        if abs(phi_mass) > 1e-8 * scale:
            raise SingularSystem(
                f"exterior Neumann density carries mass {phi_mass:.3e}"
            )
    fld = HarmonicField(mesh, [("single", phi)], region=region)
    trace = ops.V @ phi
    A_phi = side.shift * phi + ops.Wt @ phi
    check = np.max(np.abs(ops.rep(side.steklov, trace) + side.identity_sign * A_phi))
    residuals = {"equation": resid, "neumann_identity": float(check)}
    if exterior:
        residuals["density_mass"] = abs(phi_mass)
    return SolveReport(
        field=fld,
        densities={"phi": phi},
        residuals=residuals,
        compat=list(compat),
        rank_info={"rank": mesh.n - deficiency, "deficiency": deficiency,
                   "expected_deficiency": solve.border},
        u_infinity=0.0 if exterior else None,
    )


def neumann_interior(mesh, g, compat_tol=1e-7, kernel_shift=None):
    """Interior Neumann problem with distributional datum g.

    g may be a grid function, a DistRep, or a PairDistribution.  The
    minimum-norm density solves (-1/2 I + Wt) phi = g; kernel_shift (a
    seed) adds a combination of transpose-kernel vectors, producing a
    different representative of the same solution family.
    """
    return _neumann(mesh, g, "interior", compat_tol, kernel_shift)


def neumann_exterior(mesh, g, compat_tol=1e-7, kernel_shift=None):
    """Exterior Neumann problem (datum is minus the exterior normal derivative)."""
    return _neumann(mesh, g, "exterior", compat_tol, kernel_shift)


@dataclass
class NullspaceBasis:
    """Orthonormal kernel basis with the singular values that selected it."""

    vectors: np.ndarray
    singular_values: np.ndarray
    gap: float
    warning: str | None = None

    @property
    def dimension(self):
        return self.vectors.shape[1]


_NULLSPACE_OPS = {
    "half_plus_W": ("W", 0.5),
    "minus_half_plus_W": ("W", -0.5),
    "half_plus_Wt": ("Wt", 0.5),
    "minus_half_plus_Wt": ("Wt", -0.5),
}


def nullspace(mesh, op_kind, tol=1e-10):
    """SVD null space of one of the four second-kind operators."""
    if op_kind not in _NULLSPACE_OPS:
        raise OutOfRange(f"unknown operator kind {op_kind!r}")
    name, shift = _NULLSPACE_OPS[op_kind]
    ops = operator_set(mesh)
    A = shift * np.eye(mesh.n) + getattr(ops, name)
    _, sv, vt = np.linalg.svd(A)
    cut = tol * sv[0]
    below = sv < cut
    dim = int(np.sum(below))
    if 0 < dim < mesh.n:
        gap = float(sv[mesh.n - dim - 1] / sv[mesh.n - dim])
    else:
        gap = float("inf")
    warning = None
    if gap < 1e4:
        warning = f"singular-value gap {gap:.2e} below 1e4"
        warnings.warn(warning, ConditioningWarning)
    vectors = vt[mesh.n - dim:].T if dim else np.zeros((mesh.n, 0))
    return NullspaceBasis(vectors, sv, gap, warning)


def _decompose(mesh, g, sign):
    """Image/kernel split of g under sign/2 I + W, with the image's density.

    Returns (g_im, g_ker, psi, P): psi is the minimum-norm solution of
    (sign/2 I + W) psi = g_im and P an orthonormal basis of the kernel of
    the transpose operator sign/2 I + Wt.  The kernel of sign/2 I + W is
    spanned by the indicators of the topology, its left kernel by D P.
    """
    g = _check_aligned(mesh, g)
    # sign/2 I + Wt is the operator of the Neumann side with that shift
    side = _NEUMANN_SIDES["exterior" if sign == "plus" else "interior"]
    K = _indicators(mesh, side)
    P = _wt_solve(mesh, side, np.zeros(mesh.n)).kernel
    DP = P * mesh.weights[:, None]
    g_ker = np.zeros(mesh.n)
    if K.shape[1]:
        try:
            g_ker = K @ np.linalg.solve(DP.T @ K, DP.T @ g)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("oblique projection system is singular") from exc
    g_im = g - g_ker
    W = operator_set(mesh).W
    psi = _bordered_minnorm(W, side.shift, DP, g_im).solution
    resid = float(np.linalg.norm(side.shift * psi + W @ psi - g_im))
    if resid > 1e-7 * max(1.0, float(np.linalg.norm(g))):
        raise SingularSystem(f"image part not reachable: residual {resid:.3e}")
    return g_im, g_ker, psi, P


def decompose(mesh, g, sign):
    """Split g into an image part and a kernel part of sign/2 I + W.

    The image is the weighted-pairing orthogonal complement of the kernel
    of the transpose operator, so the projection is generally oblique.
    """
    g_im, g_ker, _, _ = _decompose(mesh, g, sign)
    return g_im, g_ker


def dirichlet_interior_via_decomposition(mesh, g):
    """Interior Dirichlet solve as double layer plus a transpose-kernel single layer."""
    g = _check_aligned(mesh, g)
    ops = operator_set(mesh)
    _, g_ker, psi, P = _decompose(mesh, g, "plus")
    terms = [("double", psi)]
    densities = {"psi": psi}
    resid_ker = 0.0
    if np.max(np.abs(g_ker)) > 0:
        b, _, _, _ = np.linalg.lstsq(ops.V @ P, g_ker, rcond=1e-10)
        mu = P @ b
        resid_ker = float(np.linalg.norm(ops.V @ mu - g_ker))
        if resid_ker > 1e-6 * max(1.0, float(np.linalg.norm(g))):
            raise SingularSystem(
                f"kernel part not a single-layer trace: residual {resid_ker:.3e}"
            )
        terms.append(("single", mu))
        densities["mu"] = mu
    fld = HarmonicField(mesh, terms, region="interior")
    boundary = trace_of_field_terms(mesh, terms, "plus")
    resid = float(np.max(np.abs(boundary - g)))
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"boundary residual {resid:.3e}")
    return SolveReport(
        field=fld,
        densities=densities,
        residuals={"boundary": resid, "kernel_part": resid_ker},
    )


def dirichlet_exterior_via_decomposition(mesh, g):
    """Exterior Dirichlet solve as double layer + kernel single layer + constant."""
    g = _check_aligned(mesh, g)
    ops = operator_set(mesh)
    _, g_ker, psi, Q = _decompose(mesh, g, "minus")
    terms = [("double", psi)]
    densities = {"psi": psi}
    # zero-mean subspace of the transpose kernel plus the constant direction
    wq = mesh.weights @ Q
    if Q.shape[1]:
        _, _, vt = np.linalg.svd(wq[None, :])
        Q0 = Q @ vt[1:].T if Q.shape[1] > 1 else np.zeros((mesh.n, 0))
        if abs(np.linalg.norm(wq)) < 1e-12:
            Q0 = Q
    else:
        Q0 = Q
    cols = [ops.V @ Q0, np.ones((mesh.n, 1))]
    Amat = np.concatenate(cols, axis=1)
    coeff, _, _, _ = np.linalg.lstsq(Amat, g_ker, rcond=1e-10)
    rho = float(coeff[-1])
    resid_ker = float(np.linalg.norm(Amat @ coeff - g_ker))
    if resid_ker > 1e-6 * max(1.0, float(np.linalg.norm(g))):
        raise SingularSystem(
            f"kernel part not representable: residual {resid_ker:.3e}"
        )
    if Q0.shape[1]:
        mu = Q0 @ coeff[:-1]
        terms.append(("single", mu))
        densities["mu"] = mu
    fld = HarmonicField(mesh, terms, constant=rho, region="exterior")
    boundary = trace_of_field_terms(mesh, terms, "minus") + rho
    resid = float(np.max(np.abs(boundary - g)))
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"boundary residual {resid:.3e}")
    return SolveReport(
        field=fld,
        densities=densities,
        residuals={"boundary": resid, "kernel_part": resid_ker},
        u_infinity=rho,
    )


def trace_of_field_terms(mesh, terms, side):
    """Boundary limit of a sum of layer terms from the given side."""
    out = np.zeros(mesh.n)
    for kind, density in terms:
        if kind == "single":
            out += trace_single(mesh, density)
        else:
            out += trace_double(mesh, density, side)
    return out


def green_h(mesh, x, side):
    """Harmonic function matching the fundamental solution centered at x.

    side 'interior' solves in the open set, 'exterior' outside (harmonic
    at infinity); returns the SolveReport of the bordered solve.
    """
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(mesh.x - x[None, :], axis=1)
    if np.min(d) < mesh.band_width():
        raise NearBoundary("source point inside the near-boundary band")
    if side not in ("interior", "exterior"):
        raise OutOfRange(f"unknown side {side!r}")
    return _dirichlet(mesh, np.log(d) / (2.0 * np.pi), side)


def _poisson_kernel_column(mesh, x):
    """d/dnu_y S2(x - y) at the nodes, for a fixed off-boundary x."""
    d = mesh.x - np.asarray(x, dtype=float)[None, :]
    r2 = np.einsum("ij,ij->i", d, d)
    return np.einsum("ij,ij->i", mesh.normal, d) / (2.0 * np.pi * r2)


def _poisson(mesh, g, x, region):
    """Pairing of g with d/dnu_y of the Green function of the region at x."""
    g = _check_aligned(mesh, g)
    eta = green_h(mesh, x, region).densities["eta"]
    side = "plus" if region == "interior" else "minus"
    dh = normal_derivative_single(mesh, eta, side)
    return float(np.dot(mesh.weights * g, _poisson_kernel_column(mesh, x) - dh))


def poisson_interior(mesh, g, x):
    """Green-function representation of the interior harmonic extension at x.

    For x in the open set this reproduces the Dirichlet solution; for x in
    the exterior the same integral vanishes.
    """
    return _poisson(mesh, g, x, "interior")


def poisson_exterior(mesh, g, x):
    """Exterior Green representation; returns (value, constant at infinity)."""
    val = _poisson(mesh, g, x, "exterior")
    c_g = float(operator_set(mesh).q @ _check_aligned(mesh, g))
    return c_g - val, c_g


def transpose_kernel_pair_basis(mesh, op_kind):
    """Kernel of +-1/2 I + Wt computed through the pair-distribution route.

    The operator is realized in J coordinates (image g plus the mass
    functional), its kernel vectors are mapped back to representers, and
    the span must coincide with the grid-operator kernel; the subspace
    angle quantifies the agreement.
    """
    ops = operator_set(mesh)
    shift = {"half_plus_Wt": 0.5, "minus_half_plus_Wt": -0.5}[op_kind]
    v1 = ops.V @ np.ones(mesh.n)
    correction = ops.W @ v1 - 0.5 * v1
    # J-coordinate matrix of shift I + Wt
    M = shift * np.eye(mesh.n) + ops.W + np.outer(correction, ops.q)
    _, sv, vt = np.linalg.svd(M)
    dim = int(np.sum(sv < 1e-10 * sv[0]))
    reps = []
    for row in vt[mesh.n - dim:] if dim else []:
        tau = J_inverse(mesh, row, side="plus")
        reps.append(to_grid_representer(tau).representer)
    basis = np.array(reps).T if reps else np.zeros((mesh.n, 0))
    return basis


def kernel_coincidence_angle(mesh, op_kind):
    """Largest principal angle between grid and distributional kernels."""
    grid = nullspace(mesh, op_kind).vectors
    dist = transpose_kernel_pair_basis(mesh, op_kind)
    if grid.shape[1] != dist.shape[1]:
        return float("inf")
    if grid.shape[1] == 0:
        return 0.0
    return float(np.max(subspace_angles(grid, dist)))
