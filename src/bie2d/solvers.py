"""Dirichlet and Neumann solvers, null spaces, and Green representations.

Dirichlet problems use the single-layer-plus-constant representation whose
bordered system stays well posed at logarithmic capacity one.  The
nonvariational Neumann problems solve (-1/2 I + Wt) phi = g (interior) and
(1/2 I + Wt) phi = g (exterior) for the minimum-norm density.  The domain
topology gives the left kernels: the weighted indicators of the components
of the open set (interior) and of the bounded exterior components
(exterior).  GMRES on the matrix bordered with them, applied from W (Wt is
never formed) and right-preconditioned by the two-grid solve of the coarse
Nystrom rule of every s-th node of each curve, yields a basis of the right
kernel, on which the rank deficiency is measured; border, kernel and the
coarse system's LU are built once per side, the coarse rule once per mesh,
and kept in the mesh's OperatorSet, and a solve runs GMRES for its datum
alone and projects the kernel out.  A second Dirichlet solver splits g
under sign/2 I + W, its image's density solved with the transposed
bordered matrix, and adds a single layer with density in the transpose
kernel, cross-checking the direct route.  Every +- is the side's sign
(README, "Sides and signs").
Only the independent checks of those kernels factor an n x n matrix, each
by one LU that decides its rank (_kernels): nullspace factors shift I + W,
transpose_kernel_pair_basis its J-coordinate matrix.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular, subspace_angles
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import (
    ConditioningWarning,
    IncompatibleData,
    LengthMismatch,
    NearBoundary,
    OutOfRange,
    SingularSystem,
)
from .geometry import _check_aligned, _TargetBlocks, indicator, integrate, pairing
from .operators import _side, operator_set
from .potentials import HarmonicField, trace_double, trace_single
from .distributions import (
    J_preimage,
    PairDistribution,
    _mass_column,
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


def _boundary_residual(ops, eta, c, g):
    """max |V eta + c - g| of a Dirichlet solve, or of each column of a block solve.

    Raises SingularSystem when a column's residual exceeds 1e-7 times
    max(1, max |g|) of that column.
    """
    resid = np.max(np.abs(ops.single_layer(eta) + c - g), axis=0)
    if np.any(resid > 1e-7 * np.maximum(1.0, np.max(np.abs(g), axis=0))):
        raise SingularSystem(f"boundary residual {np.max(resid):.3e} of the Dirichlet solve")
    return resid


def _dirichlet(mesh, g, region):
    exterior = _side(region, "region").sign < 0
    g = _datum(mesh, g)
    ops = operator_set(mesh)
    eta, c = ops.harmonic_density(g)
    resid = float(_boundary_residual(ops, eta, c, g))
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
# Golub-Kahan: the top Ritz value is taken once its residual is at most
# _RITZ_TOL times it, or after _RITZ_CAP steps
_RITZ_TOL = 1e-4
_RITZ_CAP = 32
# block inverse iteration starts this wide, one wider than the largest kernel
# of the stock meshes (two disks), and doubles while every column comes out null
_BLOCK = 3
# relative size of a Neumann datum's component fluxes and of the solve's
# residual above which the datum counts as incompatible
_COMPAT_TOL = 1e-7
# GMRES: step cap, relative residual, and the probe's (a singular M misses by ~1/sqrt(n))
_GMRES_CAP = 100
_GMRES_TOL = 1e-14
_PROBE_TOL = 1e-6
# the preconditioner's coarse rule keeps at least this many nodes of a curve
# (_coarse_system): with 32 the annulus datum took 3 GMRES steps and the kite's
# 5-6, with 64 they take 1-2 and 3, and with 16 the annulus took 4-5 and the kite 10
_COARSE_NODES = 64


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


def _gmres(apply, b, precondition, tol=_GMRES_TOL):
    """x with |apply(x) - b| <= tol |b|, by GMRES from zero (Saad & Schultz, 1986).

    Right-preconditioned: GMRES runs on apply(precondition(.)) and returns
    precondition of its solution, so the residual it stops on is that of
    apply itself.  Classical Gram-Schmidt runs twice; Givens rotations carry
    the residual, exact while apply is nonsingular.  b is scaled to unit
    norm, so that any datum within _MAX_DATUM stays finite.  SingularSystem
    after _GMRES_CAP steps.
    """
    size = float(np.linalg.norm(b))
    if not size:
        return np.zeros_like(b)
    basis, H = np.empty((_GMRES_CAP + 1, b.size)), np.zeros((_GMRES_CAP + 1, _GMRES_CAP))
    rot, g = np.zeros((_GMRES_CAP, 2)), np.zeros(_GMRES_CAP + 1)
    basis[0], g[0] = b / size, 1.0
    for j in range(_GMRES_CAP):
        v = apply(precondition(basis[j]))
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
            return size * precondition(y @ basis[:j + 1])
        basis[j + 1] = v / height
    raise SingularSystem(f"bordered second-kind system is singular: GMRES residual "
                         f"{abs(g[j + 1]):.1e} after {j + 1} steps")


class _Bordered(NamedTuple):
    """A side's bordered Neumann system and its preconditioner (_bordered_system), arrays only."""

    border: np.ndarray  # (n, k) weighted indicators in unit columns
    kernel: np.ndarray  # (n, d) measured right kernel of shift I + Wt
    nodes: np.ndarray  # (m,) the coarse nodes C, the same array in both sides' records
    rule: np.ndarray  # (m, n) K_fc^T, the coarse rule's columns s Wt[:, C] as rows, likewise
    lu: np.ndarray  # (m + k, m + k) LU of the coarse system, pivots floored
    piv: np.ndarray


def _coarse_system(mesh, ops, shift, border):
    """The coarse nodes, rule and floored LU of the preconditioner P of M (_bordered_system).

    Each curve keeps every s-th node, s the largest divisor of its node
    count that keeps at least _COARSE_NODES nodes, and at least 2, so that
    the coarse system is never the fine one.  On those nodes C the Nystrom
    rule of Wt is K_fc = s Wt[:, C] = s D^-1 W[C]^T D_C, each column's s
    that of its curve: the trapezoid rule at s times the spacing (Brakhage,
    Numer. Math. 2, 1960; Atkinson, The Numerical Solution of Integral
    Equations of the Second Kind, 1997, ch. 6), read from W's rows C.  The
    nodes and rule hold no shift or border, so a side built second takes
    those of the other side's record, the same arrays.  The coarse system
    is F = [shift I + K_fc[C], B[C]; -B^T K_fc, -B^T B].  Its LU's pivots
    below eps times F's largest entry are raised to that entry, so that
    P^-1 stays finite and of F's scale when F is singular, and GMRES takes
    a step more.  Raised only to eps times it, as _kernels raises its own,
    a pivot amplifies one direction by 1/eps, and GMRES stalled (at 2e-7 on
    the annulus at 128 nodes per curve, with F's first row zeroed).
    """
    other = next(iter(ops.bordered.values()), None)
    if other is not None:
        nodes, rule = other.nodes, other.rule
    else:
        w = ops.weights
        nodes, weights = [], []  # weights: s w_C, the coarse trapezoid rule's
        for c in range(mesh.n_components):
            sl = mesh.component_slice(c)
            count = sl.stop - sl.start
            d = np.arange(2, count // _COARSE_NODES + 1)
            s = int(np.max(d[count % d == 0], initial=2))
            nodes.append(np.arange(sl.start, sl.stop, s))
            weights.append(s * w[nodes[-1]])
        nodes = np.concatenate(nodes)
        rule = ops.W[nodes]
        rule *= np.concatenate(weights)[:, None]
        rule /= w
    m, k = nodes.size, border.shape[1]
    F = np.empty((m + k, m + k), order="F")
    F[:m, :m] = rule[:, nodes].T
    F[range(m), range(m)] += shift
    F[:m, m:] = border[nodes]
    F[m:, :m] = -(rule @ border).T
    F[m:, m:] = -(border.T @ border)
    scale = np.max(np.abs(F))
    lu, piv, _ = dgetrf(F, overwrite_a=True)
    small = np.flatnonzero(np.abs(lu.diagonal()) < np.finfo(float).eps * scale)
    lu[small, small] = np.copysign(scale, lu[small, small])
    return nodes, rule, lu, piv


def _precondition(shift, record, transpose, z):
    """P^-1 z, or P^-T z with transpose, for the two-grid preconditioner P of M.

    P^-1 [b; c] solves F [x_C; y] = [b[C]; shift c - B^T b] on the coarse
    system F (_coarse_system) of the record (_Bordered) and returns
    [(b - K_fc x_C - B y) / shift; y]: the fine values of the coarse
    solution by the Nystrom interpolation.  P^-T is its transpose, which
    preconditions M^T.
    """
    border, _, nodes, rule, lu, piv = record
    n, m = rule.shape[1], nodes.size
    b, c = z[:n], z[n:]
    if transpose:
        u = dgetrs(lu, piv, np.append(rule @ b / -shift, c - border.T @ b / shift), trans=1)[0]
        x = b / shift - border @ u[m:]
        x[nodes] += u[:m]
        return np.append(x, shift * u[m:])
    xy = dgetrs(lu, piv, np.append(b[nodes], shift * c - border.T @ b))[0]
    x = (b - xy[:m] @ rule - border @ xy[m:]) / shift
    return np.append(x, xy[m:])


def _bordered_solve(ops, shift, record, b, transpose=False, tol=_GMRES_TOL):
    """x with |M x - b| <= tol |b|, or M^T x with transpose, for the side's M
    (_bordered) of the record: GMRES right-preconditioned by P, or by P^T."""
    return _gmres(partial(_bordered, ops, shift, record.border, transpose), b,
                  partial(_precondition, shift, record, transpose), tol)


def _bordered_system(mesh, side):
    """The side's bordered record (_Bordered), built on first use and kept in the OperatorSet.

    M = [A, B; B^T, 0] borders A = shift I + D^-1 W^T D (the side's shift)
    with B, the side's weighted indicators in unit columns, which span the
    left kernel of A.  A is the identity's multiple plus a compact operator,
    so GMRES takes a number of steps that does not depend on n, and the
    two-grid preconditioner P (_coarse_system, _precondition), whose coarse
    rule resolves that compact operator, takes it to a few.  Every GMRES run
    with M is right-preconditioned by P, every one with M^T by P^T
    (_bordered_solve).  A seeded random probe, which a singular M cannot
    reach though a consistent datum can, is solved first: SingularSystem
    unless M maps its solution back to it to _PROBE_TOL, and nothing is
    kept.  The solutions of the border rows' unit vectors span the right
    kernel of A, and the vectors of that span A maps below _RANK_TOL times
    B's largest column 1-norm are the measured kernel: a lower bound of
    the inf-norm of M, equal to it on every mesh measured, that reads no
    entry of W.  No datum enters: _neumann solves with M, _decompose with
    M^T.  The record holds arrays only, so it refers back to nothing.
    """
    ops = operator_set(mesh)
    if side.name in ops.bordered:
        return ops.bordered[side.name]
    border = _indicators(mesh, side) * mesh.weights[:, None]
    border /= np.linalg.norm(border, axis=0)
    n, k = border.shape
    record = _Bordered(border, np.zeros((n, 0)), *_coarse_system(mesh, ops, side.shift, border))
    probe = np.random.default_rng(0).standard_normal(n + k)
    x = _bordered_solve(ops, side.shift, record, probe, tol=_PROBE_TOL)
    miss = np.linalg.norm(_bordered(ops, side.shift, border, False, x) - probe)
    miss /= np.linalg.norm(probe)
    if not miss <= _PROBE_TOL:
        raise SingularSystem("bordered second-kind system is singular: "
                             f"it misses a random right-hand side by {miss:.1e}")
    if k:
        span = np.column_stack([_bordered_solve(ops, side.shift, record, e)[:n]
                                for e in np.eye(k, n + k, n)])
        span, _ = np.linalg.qr(span)
        _, sv, vt = np.linalg.svd(side.shift * span + ops._wt(span), full_matrices=False)
        scale = np.max(np.sum(np.abs(border), axis=0))
        record = record._replace(kernel=span @ vt[sv <= _RANK_TOL * scale].T)
    ops.bordered[side.name] = record
    return record


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
    record = _bordered_system(mesh, side)
    k, kernel = record.border.shape[1], record.kernel
    x = _bordered_solve(ops, side.shift, record, np.append(rep, np.zeros(k)))[:mesh.n]
    phi = x - kernel @ (kernel.T @ x)
    A_phi = side.shift * phi + ops._wt(phi)
    resid = float(np.linalg.norm(A_phi - rep))
    if not resid <= _COMPAT_TOL * max(1.0, float(np.linalg.norm(rep))):
        raise IncompatibleData(
            f"least-squares residual {resid:.3e} exceeds tolerance", pairings=compat
        )
    deficiency = kernel.shape[1]
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
                   "expected_deficiency": k},
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
    """Orthonormal kernel basis with the singular-value estimates that selected it.

    singular_values and gap are those of shift I + W for every kind.
    singular_values holds estimates, not the whole spectrum, in descending
    order: the largest singular value (from below), the smallest nonzero
    one (from above) and the kernel's Ritz values, the last dimension
    entries.  gap is the smallest nonzero one over the largest Ritz value, so
    it errs low.  For a W kind the vectors span its right null space; a Wt
    kind's are D^-1 times its left null vectors, orthonormalized
    (Wt = D^-1 W^T D, so ker(shift I + Wt) = D^-1 ker((shift I + W)^T)).
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


def _largest_singular_value(apply, apply_t, size):
    """Largest singular value of a size x size operator A, applied by apply and apply_t (A^T).

    Golub-Kahan bidiagonalization (Golub & Kahan, 1965) from a seeded unit
    vector, reorthogonalized in full: A V_k = U_k B_k with B_k upper
    bidiagonal, whose largest singular value s bounds A's from below.  The
    top Ritz triplet (s, U_k p, V_k r) misses A^T U_k p = s V_k r by
    beta_k |p_k|, the next step's coupling times p's last entry; the steps
    stop once that is at most _RITZ_TOL s, or after _RITZ_CAP steps.
    """
    cap = min(size, _RITZ_CAP)
    V, U, B = np.empty((cap + 1, size)), np.empty((cap, size)), np.zeros((cap, cap))
    V[0] = np.random.default_rng(0).standard_normal(size)
    V[0] /= np.linalg.norm(V[0])
    p = apply(V[0])
    for k in range(cap):
        B[k, k] = np.linalg.norm(p)
        U[k] = p / B[k, k]
        w = apply_t(U[k]) - B[k, k] * V[k]
        w -= (V[:k + 1] @ w) @ V[:k + 1]
        beta = float(np.linalg.norm(w))
        left, s, _ = np.linalg.svd(B[:k + 1, :k + 1])
        if beta * abs(left[k, 0]) <= _RITZ_TOL * s[0] or k + 1 == cap:
            return float(s[0])
        B[k, k + 1], V[k + 1] = beta, w / beta
        p = apply(V[k + 1]) - beta * U[k]
        p -= (U[:k + 1] @ p) @ U[:k + 1]


def _kernels(A, apply, apply_t):
    """The rank decision on a square A from one LU: (sigma, ritz, U, V, solve).

    sigma, A's largest singular value, comes from Golub-Kahan steps on
    apply and apply_t, A and A^T as products.  A is then factored in place,
    and pivots below eps sigma are raised to it, as LAPACK's dlaein does, so
    a singular A divides by no zero; solve(x, trans) solves with the floored
    factor, with A for trans=1 and A^T for trans=0.  A seeded block of
    _BLOCK columns is solved with A^T, then twice with A and A^T, a thin QR
    after each: block inverse iteration, whose last two blocks, Y and X,
    hold A's left and right null spaces.  It takes two steps because the
    floored factor amplifies the null directions of a two-dimensional
    kernel far apart: one step leaves those of nested circles 1e-12 from
    the SVD's, two within 1e-13.  The singular values of A X are A's Ritz
    values on X, each at least the singular value it estimates; those below
    _RANK_TOL sigma count as zero, and while all of them do, the block
    doubles.  U and V, the kernels, are the Ritz vectors on Y (from A^T Y)
    and on X of the values counted, and ritz holds X's in descending order.
    """
    n = A.shape[0]
    sigma = _largest_singular_value(apply, apply_t, n)
    # A.T is Fortran-ordered, so A is factored in place as A^T: trans=1 solves with A
    lu, piv, _ = dgetrf(A.T, overwrite_a=True)
    floor = np.finfo(float).eps * sigma
    small = np.flatnonzero(np.abs(lu.diagonal()) < floor)
    lu[small, small] = np.copysign(floor, lu[small, small])

    def solve(x, trans):
        return dgetrs(lu, piv, x, trans=trans)[0]

    width = _BLOCK
    while True:
        Y, _ = np.linalg.qr(solve(np.random.default_rng(0).standard_normal((n, width)), 0))
        for _ in range(2):
            X, _ = np.linalg.qr(solve(Y, 1))
            Y, _ = np.linalg.qr(solve(X, 0))
        _, ritz, right = np.linalg.svd(apply(X), full_matrices=False)
        dim = int(np.sum(ritz < _RANK_TOL * sigma))
        if dim < width or width == n:
            break
        width = min(2 * width, n)
    _, _, left = np.linalg.svd(apply_t(Y), full_matrices=False)
    kept = slice(width - dim, width)
    return sigma, ritz[kept], Y @ left[kept].T, X @ right[kept].T, solve


def _smallest_nonzero(solve, U, V, sigma):
    """Smallest nonzero singular value of A, from its floored factor and its kernels (_kernels).

    It is the smallest singular value of M = [A, s U; s V^T, 0], s = sigma,
    U and V orthonormal bases of A's left and right null spaces: with A's
    SVD, M is orthogonally equivalent to diag(Sigma_+, s [0, I; I, 0]), so
    it is nonsingular, and its singular values are A's nonzero ones and s
    (Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria,
    SIAM 2000).  Golub-Kahan steps on M^-1 read it as one over the largest.
    M and M^T are solved by mixed block elimination on A's floored factor
    (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993), one solve with A or
    A^T each: the border's unknowns are eliminated with A^-T C, then
    corrected with A^-1 B, which keeps the solve stable though A is
    singular, as long as M is well conditioned.
    """
    n, dim = U.shape
    if not dim:  # M is A
        return 1.0 / _largest_singular_value(partial(solve, trans=1), partial(solve, trans=0), n)

    def eliminate(z, B, C, v, w, rows, cols, trans):
        # [A, B; C^T, 0] [x; y] = z, given v = A^-T C, w = A^-1 B (trans: A^T for A)
        f, g = z[:n], z[n:]
        y = np.linalg.solve(rows, g - v.T @ f)
        x = solve(f - B @ y, trans)
        extra = np.linalg.solve(cols, g - C.T @ x)
        return np.concatenate((x - w @ extra, y + extra))

    B, C = sigma * U, sigma * V
    v, w = solve(C, 0), solve(B, 1)
    rows, cols = -(v.T @ B), -(C.T @ w)
    forward = partial(eliminate, B=B, C=C, v=v, w=w, rows=rows, cols=cols, trans=1)
    backward = partial(eliminate, B=C, C=B, v=w, w=v, rows=cols.T, cols=rows.T, trans=0)
    return 1.0 / _largest_singular_value(forward, backward, n + dim)


def nullspace(mesh, op_kind):
    """Null space of one of the four second-kind operators, from shift I + W.

    One LU of the side's A = shift I + W decides the rank (_kernels): the
    Ritz values of A on a block of inverse iteration that lie below
    _RANK_TOL times its largest singular value count as zero, and their
    Ritz vectors are the kernels, right and left.  The smallest nonzero
    singular value comes from the matrix bordered by both kernels
    (_smallest_nonzero), and its ratio to the largest Ritz value counted
    is the gap; ConditioningWarning when that is below 1e4.  For a Wt kind
    the left null vectors scaled by D^-1 are orthonormalized.
    """
    side, op = _op_kind(op_kind)
    n, W = mesh.n, operator_set(mesh).W
    A = W.copy()
    A[range(n), range(n)] += side.shift
    sigma, ritz, U, V, solve = _kernels(A, lambda x: side.shift * x + W @ x,
                                        lambda x: side.shift * x + W.T @ x)
    smallest = _smallest_nonzero(solve, U, V, sigma)
    # an exact zero gives gap inf
    with np.errstate(divide="ignore"):
        gap = float(smallest / ritz[0]) if ritz.size else float("inf")
    if gap < 1e4:
        warnings.warn(f"singular-value gap {gap:.2e} below 1e4", ConditioningWarning)
    if op == "Wt":
        V, _ = np.linalg.qr(U / mesh.weights[:, None])
    return NullspaceBasis(V, np.concatenate(([sigma, smallest], ritz)), gap)


def _decompose(mesh, g, sign):
    """Image/kernel split of g under sign/2 I + W, with the image's density.

    Returns (g_im, g_ker, psi, P): psi is the minimum-norm solution of
    (sign/2 I + W) psi = g_im and P an orthonormal basis of the kernel of
    the transpose operator sign/2 I + Wt.  The kernel of sign/2 I + W is
    spanned by the indicators K of the opposite side, its left kernel by D P.
    P and the border B are the side's record (_bordered_system), whose M^T,
    [D (sign/2 I + W) D^-1, B; B^T, 0], solves M^T [D psi0; 0] = [D g_im; 0]
    by one GMRES run preconditioned by P^T (_bordered_solve), and psi is
    psi0 minus its K part.
    """
    # sign/2 I + Wt is the operator of the Neumann problem on the opposite side
    side = _side(sign).opposite
    g = _datum(mesh, g)
    K = _indicators(mesh, side)
    record = _bordered_system(mesh, side)
    P = record.kernel
    DP = P * mesh.weights[:, None]
    g_ker = np.zeros(mesh.n)
    if K.shape[1]:
        try:
            g_ker = K @ np.linalg.solve(DP.T @ K, DP.T @ g)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("oblique projection system is singular") from exc
    g_im = g - g_ker
    rhs = np.append(mesh.weights * g_im, np.zeros(K.shape[1]))
    psi = _bordered_solve(operator_set(mesh), side.shift, record, rhs, True)[:mesh.n] / mesh.weights
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


def _one_point(x):
    """x, checked to be a single point of shape (2,) (LengthMismatch otherwise)."""
    if np.shape(x) != (2,):
        raise LengthMismatch(f"expected one point of shape (2,), got {np.shape(x)}")
    return x


def _green_sources(mesh, points):
    """(rows, _Targets) of each block of the points' geometry pass, a _TargetBlocks.

    Raises NearBoundary for a block with a point inside the near-boundary band.
    """
    for rows, source in points:
        if np.min(source.dist) < mesh.band_width():
            raise NearBoundary("source point inside the near-boundary band")
        yield rows, source


def green_h(mesh, x, side):
    """Harmonic function matching the fundamental solution centered at x, shape (2,).

    side 'interior' solves in the open set, 'exterior' outside (harmonic
    at infinity); returns the SolveReport of the bordered solve.
    """
    _, source = next(_green_sources(mesh, _TargetBlocks(mesh, _one_point(x))))
    return _dirichlet(mesh, source.single_kernel[0], side)


def _poisson(mesh, g, points):
    """Pairings of g with d/dnu_y of both regions' Green functions at each of points.

    g is a datum checked by _datum, and points an (m, 2) array or a single
    point of shape (2,).  The Green function of a region at x is the
    fundamental solution less green_h, the harmonic function whose density
    eta solves the Dirichlet problem for
    the fundamental solution's trace.  That density reads only the trace,
    so it is the same in both regions, and the normal derivatives of the
    two single layers differ only by the shift term, -eta/2 inside and
    eta/2 outside.  So one geometry pass takes every point, and one block
    solve per block of points gives their densities, each column under
    _dirichlet's residual gate.  Returns the interior and the exterior
    pairing at each point, two (m,) arrays.
    """
    points = _TargetBlocks(mesh, points)
    ops = operator_set(mesh)
    wg = mesh.weights * g
    inner, outer = np.empty(len(points)), np.empty(len(points))
    for rows, source in _green_sources(mesh, points):
        traces = source.single_kernel.T
        eta, c = ops._density(traces)
        _boundary_residual(ops, eta, c, traces)
        wt = ops._wt(eta)
        # d/dnu_y S2(x - y) is the double-layer kernel at x, in the pass's other scratch array
        kernel = source.double_kernel
        inner[rows] = (kernel - (wt - 0.5 * eta).T) @ wg
        outer[rows] = (kernel - (wt + 0.5 * eta).T) @ wg
    return inner, outer


def poisson_interior(mesh, g, x):
    """Green-function representation of the interior harmonic extension at one point x.

    For x in the open set this reproduces the Dirichlet solution; for x in
    the exterior the same integral vanishes.
    """
    return float(_poisson(mesh, _datum(mesh, g), _one_point(x))[0][0])


def poisson_exterior(mesh, g, x):
    """Exterior Green representation at one point x; returns (value, constant at infinity)."""
    g = _datum(mesh, g)
    val = _poisson(mesh, g, _one_point(x))[1][0]
    c_g = float(operator_set(mesh).q @ g)
    return float(c_g - val), c_g


def transpose_kernel_pair_basis(mesh, op_kind):
    """Kernel of +-1/2 I + Wt computed through the pair-distribution route.

    The operator is realized in J coordinates (image g plus the mass
    functional) as a matrix M, and one LU of M decides its rank and gives
    its kernel (_kernels).  The kernel vectors are mapped back to
    representers by J_preimage: the mu0 of its preimage (eta + c, 0) is
    the representer.  The span must coincide with the grid-operator kernel;
    the subspace angle quantifies the agreement.
    op_kind is a Wt kind of nullspace.
    """
    side, _ = _op_kind(op_kind, ("Wt",))
    ops = operator_set(mesh)
    n, W, q = mesh.n, ops.W, ops.q
    correction = _mass_column(ops)
    # the J-coordinate matrix of shift I + Wt, written over its rank-one term,
    # so that no second n x n array is formed: as a + b = b + a, every entry
    # has the bits of (W + shift I) + correction q^T
    M = np.multiply.outer(correction, q)
    rank_one = M.diagonal().copy()
    M += W
    M[range(n), range(n)] = (np.diagonal(W) + side.shift) + rank_one
    _, _, _, kernel, _ = _kernels(
        M, lambda x: side.shift * x + W @ x + np.multiply.outer(correction, q @ x),
        lambda x: side.shift * x + W.T @ x + np.multiply.outer(q, correction @ x))
    if not kernel.shape[1]:
        return kernel
    return J_preimage(mesh, kernel, "plus").mu0


def _subspace_angle(a, b):
    """Largest principal angle between two column spans; pi/2 when their dimensions differ."""
    if a.shape[1] != b.shape[1]:
        return np.pi / 2
    if a.shape[1] == 0:
        return 0.0
    return float(np.max(subspace_angles(a, b)))
