"""First-order boundary distributions encoded as density pairs.

A distribution tau on the boundary is stored as a side tag together with
two grid densities (mu0, mu1) and stands for mu0 plus the weighted
transpose of the interior ('plus') or exterior ('minus')
Dirichlet-to-Neumann map applied to mu1.  Everything a test needs exists
in two interchangeable encodings: the exact pair, and a grid representer
phi whose weighted pairing reproduces the distribution's action on grid
functions.  Conversions are explicit.

The single layer of a pair is computed through closed identities in the
side's sign (README, "Sides and signs"): its trace for (side, 0, mu) is
-mu/2 + sign W mu, plus q.mu on the exterior side.  The J map sends tau to
V[tau - mean] + mean (mean = <tau,1>/<1,1>) and identifies distributions
with grid functions.  Its inverse picks the minimum-norm pair through a
Cholesky factorization of the Gram matrix of the J map's dense matrix.  A
JMap holds that factor for one (mesh, side): it is built once and applied
to a vector or to an (n, k) block of them, and a caller that inverts
often (Wt_on_distribution, the verify suite, the pair-route transpose
kernel) passes one in rather than factoring again.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import OutOfRange, SingularSystem
from .geometry import _check_aligned, integrate, pairing
from .operators import _side, operator_set
from .potentials import HarmonicField


@dataclass
class PairDistribution:
    """side tag plus densities (mu0, mu1) on a mesh."""

    side: str
    mu0: np.ndarray
    mu1: np.ndarray
    mesh: object

    def __post_init__(self):
        _side(self.side)
        self.mu0 = _check_aligned(self.mesh, self.mu0)
        self.mu1 = _check_aligned(self.mesh, self.mu1)


def mass_of(tau):
    """<tau, 1>; the transpose part carries no mass in two dimensions."""
    return integrate(tau.mesh, tau.mu0)


def to_grid_representer(tau):
    """Grid function phi with pairing(phi, v) = <tau, v> for all grid v."""
    return tau.mu0 + operator_set(tau.mesh).rep(tau.side, tau.mu1)


def dist_pairing(tau, v):
    """<tau, v> = pairing(mu0, v) + pairing(mu1, S_side v)."""
    v = _check_aligned(tau.mesh, v)
    flux = operator_set(tau.mesh).dtn(tau.side, v)
    return pairing(tau.mesh, tau.mu0, v) + pairing(tau.mesh, tau.mu1, flux)


def V_of_distribution(tau):
    """Boundary trace of the single layer of a pair distribution."""
    sign = _side(tau.side).sign
    ops = operator_set(tau.mesh)
    transpose_part = -0.5 * tau.mu1 + sign * (ops.W @ tau.mu1)
    if sign < 0:
        transpose_part += float(ops.q @ tau.mu1)
    return ops.single_layer(tau.mu0) + transpose_part


def J_isometry(tau):
    """Grid image of tau under the mean-corrected single-layer trace."""
    mesh = tau.mesh
    m = mass_of(tau)
    length = integrate(mesh, np.ones(mesh.n))
    mbar = m / length
    shifted = PairDistribution(tau.side, tau.mu0 - mbar, tau.mu1, mesh)
    return V_of_distribution(shifted) + mbar


def _j_forward_matrix(mesh, side):
    """Dense matrix of (mu0, mu1) -> J[pair] used by the inverse solve."""
    sign = _side(side).sign
    ops = operator_set(mesh)
    n = mesh.n
    length = integrate(mesh, np.ones(n))
    A = np.empty((n, 2 * n))
    # J on the mu0 block: V mu0 - mbar (V 1 - 1) with mbar = w.mu0 / length
    A0 = ops.single_layer_matrix(A[:, :n])
    A0 -= np.outer(ops.single_layer(np.ones(n)) - 1.0, mesh.weights / length)
    A1 = np.multiply(ops.W, sign, out=A[:, n:])
    A1[range(n), range(n)] -= 0.5
    if sign < 0:
        A1 += ops.q
    return A


class JMap:
    """The J map of one (mesh, side), factored once for its minimum-norm inverse.

    The map (mu0, mu1) -> J[mu0 + transpose-part(mu1)] is onto, so the
    minimum-norm preimage of g is z = A^T (A A^T)^-1 g with A its n x 2n
    matrix.  A and the Cholesky factor of A A^T are built here, once; every
    inverse reuses them.  Raises SingularSystem when that factorization fails.
    """

    def __init__(self, mesh, side="plus"):
        self.mesh = mesh
        self.side = _side(side).name
        self._A = _j_forward_matrix(mesh, side)
        try:
            self._gram = cho_factor(self._A @ self._A.T)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("J map is not onto: its Gram matrix is singular") from exc

    def inverse(self, g):
        """(mu0, mu1) of the minimum-norm preimage of an (n,) vector or an (n, k) block.

        Raises SingularSystem when the residual of any column exceeds 1e-7
        times that column's norm (at least 1), or is not finite: no pair
        reaches a column that holds NaN or infinity.
        """
        g = _check_aligned(self.mesh, g, block=True)
        z = self._A.T @ cho_solve(self._gram, g, check_finite=False)
        resid = np.linalg.norm(self._A @ z - g, axis=0)
        if not np.all(resid <= 1e-7 * np.maximum(1.0, np.linalg.norm(g, axis=0))):
            raise SingularSystem(f"J inverse residual {np.max(resid):.3e} too large")
        return z[: self.mesh.n], z[self.mesh.n:]

    def pair(self, g):
        """The pair distribution of this side with J image g, a grid function."""
        return PairDistribution(self.side, *self.inverse(_check_aligned(self.mesh, g)),
                                self.mesh)


def Wt_on_distribution(tau, jmap=None):
    """Adjoint double-layer operator applied to a pair distribution.

    Computed in J coordinates: the image of W^t tau is
    W g + (W V 1 - V 1 / 2) <tau,1>/<1,1> with g the image of tau, and the
    mass halves exactly.  jmap, the JMap of tau's mesh and side, saves
    factoring the J map again.
    """
    mesh = tau.mesh
    if jmap is None:
        jmap = JMap(mesh, tau.side)
    elif jmap.mesh is not mesh or jmap.side != tau.side:
        raise OutOfRange(f"J factor of side {jmap.side!r} given for a {tau.side!r} pair "
                         "or another mesh")
    ops = operator_set(mesh)
    g = J_isometry(tau)
    m = mass_of(tau)
    length = integrate(mesh, np.ones(mesh.n))
    v1 = ops.single_layer(np.ones(mesh.n))
    g_out = ops.W @ g + (ops.W @ v1 - 0.5 * v1) * (m / length)
    out = jmap.pair(g_out)
    # pin the mass law <Wt tau, 1> = <tau, 1> / 2 in the stored densities
    target = 0.5 * m
    correction = (target - mass_of(out)) / length
    out.mu0 = out.mu0 + correction
    return out


def dist_single_layer_field(tau, points, region):
    """Single layer potential of a pair distribution at off-boundary points in region.

    The transpose part is evaluated through the double-layer and
    harmonic-extension representation of its potential, never through the
    grid representer: with V eta + c = mu1 it is
    sign D[mu1] + [exterior side] c - [region is the side's own] (S[eta] + c).
    That potential takes a different form on each side, so it is evaluated
    as the HarmonicField of the region: a point outside the region raises
    InvalidProbe, as for any field.
    """
    side = _side(tau.side)
    own = _side(region, "region") is side
    terms, constant = [("single", tau.mu0)], 0.0
    if np.any(tau.mu1):
        eta, c = operator_set(tau.mesh).harmonic_density(tau.mu1)
        terms.append(("double", side.sign * tau.mu1))
        if own:
            terms.append(("single", -eta))
        constant = (side.sign < 0) * c - own * c
    return HarmonicField(tau.mesh, terms, constant, region).eval(points)


def dist_normal_derivative(mesh, trace, side):
    """Distributional normal derivative of the harmonic extension of a trace, along the
    normal out of the side's region: nu on 'plus', -nu on 'minus' (README, "Sides and signs")."""
    trace = _check_aligned(mesh, trace)
    return PairDistribution(side, np.zeros(mesh.n), trace, mesh)


def _test_basis(mesh):
    basis = [np.ones(mesh.n)]
    k = 1
    while len(basis) < 16:
        basis.append(np.cos(k * mesh.t))
        if len(basis) < 16:
            basis.append(np.sin(k * mesh.t))
        k += 1
    return basis


@dataclass
class JumpCheckResult:
    interior: float
    exterior: float | None
    note: str | None = None


def dist_jump_check(tau):
    """Residuals of the jump formulas for the single layer of a pair.

    Interior: the normal derivative of v+[tau], read as the transpose
    Dirichlet-to-Neumann derivative of its boundary trace, must pair like
    -tau/2 + Wt tau against 16 test functions (1, cos t, sin t, cos 2t,
    ...).  Exterior: same with -tau/2 - Wt tau, meaningful only for
    mass-free tau in two dimensions (otherwise skipped with a note).
    """
    mesh = tau.mesh
    ops = operator_set(mesh)
    trace = V_of_distribution(tau)
    rep = to_grid_representer(tau)
    basis = _test_basis(mesh)
    scale = max(1.0, float(np.max(np.abs(rep))))

    def residual(side):
        sign = _side(side).sign
        jump = ops.rep(side, trace) - (-0.5 * rep + sign * ops._wt(rep))
        return max(abs(pairing(mesh, jump, v)) for v in basis) / scale

    r_int = residual("plus")
    if abs(mass_of(tau)) > 1e-8 * scale:
        return JumpCheckResult(r_int, None, note="no-limit: <tau,1> != 0")
    return JumpCheckResult(r_int, residual("minus"))


def pair_to_dict(tau):
    """JSON-friendly encoding: side tag plus the two density arrays."""
    return {
        "side": tau.side,
        "mu0": [float(v) for v in tau.mu0],
        "mu1": [float(v) for v in tau.mu1],
    }


def pair_from_dict(mesh, data):
    return PairDistribution(
        data["side"],
        np.asarray(data["mu0"], dtype=float),
        np.asarray(data["mu1"], dtype=float),
        mesh,
    )
