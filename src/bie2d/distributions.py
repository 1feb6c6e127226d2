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
with grid functions.  A pair's J image depends on the pair only through
its grid representer, so J_preimage inverts it by the Dirichlet density
solve of the mesh's OperatorSet: the preimage of g is (eta + c, 0) with
V eta + c = g, through the single layer's own Cholesky factor.  The J map
holds no array of its own.

A PairDistribution is one pair, or a block of k pairs of one side whose
mu0 and mu1 are (n, k) blocks.  The pair functions (mass_of,
to_grid_representer, dist_pairing, V_of_distribution, J_isometry,
Wt_on_distribution, J_preimage and dist_jump_check) take a block through
the same code as one pair, with one column per pair in what they return;
dist_single_layer_field and pair_to_dict take one pair only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SingularSystem
from .geometry import _check_aligned, _pairings, integrate
from .operators import _side, operator_set
from .potentials import HarmonicField


@dataclass
class PairDistribution:
    """side tag plus densities (mu0, mu1) on a mesh.

    mu0 and mu1 are grid functions, or (n, k) blocks of the same shape: a
    block of k pairs of one side, one pair per column.
    """

    side: str
    mu0: np.ndarray
    mu1: np.ndarray
    mesh: object

    def __post_init__(self):
        _side(self.side)
        self.mu0 = _check_aligned(self.mesh, self.mu0, block=True)
        self.mu1 = _check_aligned(self.mesh, self.mu1, block=True)
        if self.mu0.shape != self.mu1.shape:
            raise LengthMismatch(f"mu0 of shape {self.mu0.shape} and mu1 of shape "
                                 f"{self.mu1.shape} make no pair")


def _one_pair(tau):
    """tau, which must be one pair, not a block of them (LengthMismatch otherwise)."""
    if tau.mu0.ndim != 1:
        raise LengthMismatch(f"expected one pair, got a block of shape {tau.mu0.shape}")
    return tau


def mass_of(tau):
    """<tau, 1>, or that of each pair of a block; the transpose part carries no
    mass in two dimensions."""
    mass = np.dot(tau.mesh.weights, tau.mu0)
    return float(mass) if tau.mu0.ndim == 1 else mass


def to_grid_representer(tau):
    """Grid function phi with pairing(phi, v) = <tau, v> for all grid v.

    A pair whose mu1 is zero, as every pair of J_preimage is, is its own mu0:
    no density solve is made for the zero transpose part.
    """
    if not np.any(tau.mu1):
        return tau.mu0.copy()
    return tau.mu0 + operator_set(tau.mesh).rep(tau.side, tau.mu1)


def dist_pairing(tau, v):
    """<tau, v> = pairing(mu0, v) + pairing(mu1, S_side v).

    For a block of pairs, v is an (n, k) block, and the result holds each
    pair's value at its own column of v.
    """
    v = _check_aligned(tau.mesh, v, block=True)
    if v.shape != tau.mu0.shape:
        raise LengthMismatch(f"{v.shape} grid functions against pairs of shape {tau.mu0.shape}")
    flux = operator_set(tau.mesh).dtn(tau.side, v)
    return _pairings(tau.mesh, tau.mu0, v) + _pairings(tau.mesh, tau.mu1, flux)


def _single_layer_trace(mesh, sign, mu0, mu1):
    """Trace of the single layer of the pair (mu0, mu1) on the side of sign.

    mu0 and mu1 are (n,) vectors or (n, k) blocks, one pair per column.
    """
    ops = operator_set(mesh)
    transpose_part = -0.5 * mu1 + sign * (ops.W @ mu1)
    if sign < 0:
        transpose_part += ops.q @ mu1
    return ops.single_layer(mu0) + transpose_part


def V_of_distribution(tau):
    """Boundary trace of the single layer of a pair distribution."""
    return _single_layer_trace(tau.mesh, _side(tau.side).sign, tau.mu0, tau.mu1)


def J_isometry(tau):
    """Grid image V[tau - mbar] + mbar of tau under the mean-corrected single-layer
    trace, mbar = <tau,1>/<1,1>, or that of each pair of a block."""
    mesh = tau.mesh
    mbar = np.dot(mesh.weights, tau.mu0) / integrate(mesh, np.ones(mesh.n))
    return _single_layer_trace(mesh, _side(tau.side).sign, tau.mu0 - mbar, tau.mu1) + mbar


def J_preimage(mesh, g, side):
    """The pair distribution (side, eta + c, 0) whose J image is g, with V eta + c = g.

    A pair's J image depends on it only through its grid representer phi:
    J(mu0, mu1) = V[phi - mbar] + mbar.  For mu0 this is the definition;
    for mu1 it holds because q^T (W - I/2) = 0, q the value-at-infinity
    functional (OperatorSet.q).  So the Dirichlet density solve through the
    OperatorSet's Cholesky factor gives a preimage of g (eta has zero mean,
    so mbar = c), and every preimage of g has the representer eta + c.  The
    preimage does not depend on the side, which only tags the pair.

    g is a grid function, or an (n, k) block whose columns give a block of
    pairs.  Each column is solved as a vector is (OperatorSet._density), so
    a block's columns have the bits of their own preimages: a block solve
    rounds its column sums otherwise, which the solve amplifies.  An
    unknown side raises OutOfRange before the OperatorSet is built.  Raises
    SingularSystem when a column holds NaN or infinity, before any solve,
    and when the residual of any column exceeds 1e-7 times that column's
    norm (at least 1).
    """
    side = _side(side).name
    ops = operator_set(mesh)
    g = _check_aligned(mesh, g, block=True)
    block = g if g.ndim == 2 else g[:, None]
    if not np.isfinite(block).all():
        raise SingularSystem("J inverse residual not finite: g holds NaN or infinity")
    mu0 = np.empty(block.shape)
    for j, column in enumerate(block.T):  # one column's solve, whatever the block
        eta, c = ops._density(column)
        mu0[:, j] = eta + c
    mbar = mesh.weights @ mu0 / integrate(mesh, np.ones(mesh.n))
    resid = np.linalg.norm(ops.single_layer(mu0 - mbar) + mbar - block, axis=0)
    if not np.all(resid <= 1e-7 * np.maximum(1.0, np.linalg.norm(block, axis=0))):
        raise SingularSystem(f"J inverse residual {np.max(resid):.3e} too large")
    mu0 = mu0.reshape(g.shape)
    return PairDistribution(side, mu0, np.zeros_like(mu0), mesh)


def _mass_column(ops):
    """W V1 - V1/2 (V1 = V 1): the J-coordinate column of Wt's mass term <tau,1>/<1,1>."""
    v1 = ops.single_layer(np.ones(ops.n))
    return ops.W @ v1 - 0.5 * v1


def Wt_on_distribution(tau):
    """Adjoint double-layer operator applied to a pair distribution, or to each
    pair of a block.

    Computed in J coordinates: the image of W^t tau is
    W g + (W V 1 - V 1 / 2) <tau,1>/<1,1> with g the image of tau, and the
    mass halves exactly.  The pair comes back through J_preimage, one
    density solve per pair with the mesh's single-layer factor.
    """
    mesh = tau.mesh
    ops = operator_set(mesh)
    g = J_isometry(tau)
    m = mass_of(tau)
    length = integrate(mesh, np.ones(mesh.n))
    g_out = ops.W @ g + np.multiply.outer(_mass_column(ops), m / length)
    out = J_preimage(mesh, g_out, tau.side)
    # pin the mass law <Wt tau, 1> = <tau, 1> / 2 in the stored densities
    out.mu0 = out.mu0 + (0.5 * m - mass_of(out)) / length
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
    side = _side(_one_pair(tau).side)
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


def _fourier_modes(mesh):
    """The 17 modes 1, cos t, sin t, ..., cos 8t, sin 8t on the nodes, as (17, n).

    dist_jump_check tests against its first 16 rows, and verify draws its
    seeded densities from all 17."""
    kt = np.arange(1, 9)[:, None] * mesh.t
    modes = np.empty((17, mesh.n))
    modes[0], modes[1::2], modes[2::2] = 1.0, np.cos(kt), np.sin(kt)
    return modes


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
    mass-free tau in two dimensions (otherwise skipped with a note).  For a
    block of pairs each residual is an array with one entry per pair, and
    the exterior one is skipped when any pair carries mass.
    """
    mesh = tau.mesh
    ops = operator_set(mesh)
    trace = V_of_distribution(tau)
    rep = to_grid_representer(tau)
    # (n, 16) in C order: the pairings below round by the layout BLAS is given
    weighted_basis = mesh.weights[:, None] * np.ascontiguousarray(_fourier_modes(mesh)[:16].T)
    scale = np.maximum(1.0, np.max(np.abs(rep), axis=0))

    def residual(side):
        sign = _side(side).sign
        jump = ops.rep(side, trace) - (-0.5 * rep + sign * ops._wt(rep))
        return np.max(np.abs(weighted_basis.T @ jump), axis=0) / scale

    r_int = residual("plus")
    if np.any(np.abs(mass_of(tau)) > 1e-8 * scale):
        return JumpCheckResult(r_int, None, note="no-limit: <tau,1> != 0")
    return JumpCheckResult(r_int, residual("minus"))


def pair_to_dict(tau):
    """JSON-friendly encoding of one pair: side tag plus the two density arrays."""
    _one_pair(tau)
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
