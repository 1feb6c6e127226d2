"""Kernels and dense Nystrom assembly of the boundary operators.

The single-layer trace V uses the Kussmaul-Martensen splitting on the
diagonal blocks: the kernel is written as

    k(t, s) = k1(t, s) log(4 sin^2((t - s)/2)) + k2(t, s)

and the logarithmic factor gets the spectral product-quadrature weights,
the smooth remainder the plain trapezoid rule.  On uniform nodes those
weights differ from the trapezoid rule of the log factor by a circulant,
so V is the trapezoid rule of log r2 everywhere, corrected on each
curve's own block by one circulant per curve.  The double-layer kernel is
smooth on a C^2 curve, so W is plain trapezoid with the curvature limit on
the diagonal.  V and W are assembled together, from one pass over the
squared node distances that walks the rows in blocks (geometry._row_blocks)
and writes each block into V and W.  Wt = D^-1 W^T D (D = diag of quadrature weights), applied
from W and never stored, is both the Nystrom matrix of the transposed kernel
and an exact discrete adjoint in the weighted pairing.

The Dirichlet-to-Neumann maps come from one bordered system
[V, 1; w^T, 0]: its solution map R takes boundary values v to the density
eta of the single-layer-plus-constant representation of the harmonic
extension (V eta + c = v with zero-mean eta, a system that stays well posed
at logarithmic capacity one), and the map of a side is (-1/2 I + sign Wt) R.
Neither R nor these maps is ever formed.  V = A D with A symmetric, so
with y = D eta the bordered system is the symmetric [A, 1; 1^T, 0] [y; c]
= [v; 0].  The Householder reflector H of the ones vector (H 1 = -sqrt(n)
e_0) turns the constraint 1^T y = 0 into y = H [0; z], and z solves
T z = -(H v)[1:] with T = -(H A H)[1:, 1:].  T is positive definite,
because the logarithmic energy of a signed measure of total mass zero is
positive (Saff & Totik, Logarithmic Potentials with External Fields,
ch. I), so it is factored once by Cholesky; row 0 of H A H gives the
constant c.  The bordered matrix is this symmetric one times diag(D, 1),
so its weighted transposes, and with them the value-at-infinity functional
q, are solves of the same kind: none takes a transposed solve of the
bordered system.

The _Side table holds each side's sign, its Neumann shift -sign/2 and the
name every layer gives it (README, "Sides and signs").  The operators live
in one OperatorSet per mesh, stored in mesh.operators by operator_set; it
keeps the node count and the weights it needs, never the mesh itself.  The
set holds three dense arrays: V, W and the Cholesky factor of T.
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidGeometry, OutOfRange, SingularSystem
from .geometry import _block_scratch, _check_aligned, _pair_geometry, _row_blocks


def _log_correction(nc):
    """Circulant generator G of the single layer's correction on a curve of nc nodes.

    G[m] = R[m] - (2 pi / nc) log(4 sin^2(pi m / nc)), and G[0] = R[0].  R
    is the product-quadrature row of the 2pi-periodic log kernel (Kress,
    Linear Integral Equations, ch. 12): R[(i - j) % nc] approximates
    int_0^{2pi} log(4 sin^2((t_i - s)/2)) f(s) ds at the uniform nodes.
    Its cosine series -(4 pi / nc) sum_k cos(2 pi m k / nc) / k
    - (4 pi / nc^2) cos(pi m) is one inverse FFT of 1/k; the subtracted
    term is the trapezoid rule of the log kernel, which the smooth fill
    applies already.
    """
    G = -2.0 * np.pi * np.fft.irfft(np.append(0.0, 1.0 / np.arange(1, nc // 2 + 1)), nc)
    G[1:] -= (2.0 * np.pi / nc) * np.log(4.0 * np.sin(np.pi * np.arange(1, nc) / nc) ** 2)
    return G


def _circulant(row):
    """Read-only view of the circulant matrix C[i, j] = row[(i - j) % n]."""
    n = row.size
    return sliding_window_view(np.concatenate((row[::-1], row[:0:-1])), n)[::-1]


def _assemble(mesh, V):
    """V and W, filled one block of rows at a time; W is not yet checked.

    Both read r2 = |x_i - x_j|^2, with speed_i^2 on the diagonal, the limit
    of r2 / 4 sin^2((t_i - t_j)/2).  W is the trapezoid rule of the
    double-layer kernel with the curvature limit on the diagonal.  V is the
    smooth (0.25 / pi) w_j log r2 fill, with the columns of each row's own
    curve corrected by the circulant of _log_correction times
    (0.25 / pi) speed_j: together the Kussmaul-Martensen product rule, at
    one logarithm per pair.  No block spans two curves.  V is written into
    the given (n, n) array; apart from W only block-sized arrays are
    allocated.
    """
    n = mesh.n
    W = np.empty((n, n))
    blocks = [_row_blocks(mesh.offsets[c], mesh.offsets[c + 1], n)
              for c in range(mesh.n_components)]
    scratch = _block_scratch([b for curve in blocks for b in curve], n)
    for c, nc in enumerate(mesh.n_per_comp):
        sl = mesh.component_slice(c)
        correction = _circulant(_log_correction(nc))
        scale = (0.25 / np.pi) * mesh.speed[sl]
        for lo, hi in blocks[c]:
            b, first = hi - lo, lo - sl.start  # first: the block's first node on its curve
            rows = np.arange(b)
            r2, nd = _pair_geometry(mesh.x[lo:hi], mesh.x, mesh.normal, scratch[:, :b])
            r2[rows, lo + rows] = mesh.speed[lo:hi] ** 2

            Wb = np.multiply(2.0 * np.pi, r2, out=W[lo:hi])
            np.divide(nd, Wb, out=Wb)
            np.negative(Wb, out=Wb)
            Wb[rows, lo + rows] = mesh.curvature[lo:hi] / (4.0 * np.pi)
            Wb *= mesh.weights

            Vb = np.multiply(np.log(r2, out=r2), 0.25 / np.pi, out=V[lo:hi])
            Vb *= mesh.weights
            Vb[:, sl] += correction[first:first + b] * scale
    return V, W


def _checked_W(mesh, W):
    """W itself, once W 1 = 1/2 holds on every curve.

    W's diagonal holds the continuous limit kappa_i / (4 pi), and this
    check, made when the OperatorSet is built, pins the sign convention.
    A reversed normal moves the row sums on its curve by about 1 (to
    -1/2 on an outer curve, 3/2 on a hole); a smaller miss means the
    nodes do not resolve the curve or its neighbours.
    """
    w1 = W @ np.ones(mesh.n)
    if np.max(np.abs(w1 - 0.5)) > 1e-8:
        rows = [w1[mesh.component_slice(c)] for c in range(mesh.n_components)]
        c = int(np.argmax([np.max(np.abs(r - 0.5)) for r in rows]))
        resid = float(np.max(np.abs(rows[c] - 0.5)))
        cause = "sign/orientation check failed" if resid > 0.5 else "under-resolved"
        raise InvalidGeometry(f"double layer {cause}: |W 1 - 1/2| = {resid:.3e} "
                              f"on curve {c} with {rows[c].size} nodes")
    return W


class _Side(NamedTuple):
    """One side of the boundary: its sign and the name each layer gives it."""

    sign: float  # +1 interior, -1 exterior
    name: str  # traces, Dirichlet-to-Neumann maps and pair tags
    region: str  # fields, solvers and probe points
    indicator: str  # indicator region of the side's components
    kappa: str  # DomainTopology count of those components

    @property
    def shift(self):
        """-sign/2: the side's Neumann operator is shift I + Wt, its transpose shift I + W."""
        return -0.5 * self.sign

    @property
    def opposite(self):
        return _SIDES[self.sign > 0]


_SIDES = (
    _Side(1.0, "plus", "interior", "omega", "kappa_plus"),
    _Side(-1.0, "minus", "exterior", "omega_minus", "kappa_minus"),
)


def _side(value, by="name"):
    """The side whose name in the `by` vocabulary is value; OutOfRange otherwise."""
    for side in _SIDES:
        if getattr(side, by) == value:
            return side
    known = " or ".join(repr(getattr(side, by)) for side in _SIDES)
    what = "side" if by == "name" else by
    raise OutOfRange(f"unknown {what} {value!r}, expected {known}")


def _reflect(x):
    """H x for the Householder reflector H = I - beta v v^T of the ones vector.

    v = 1 + sqrt(n) e_0 and beta = 1 / (n + sqrt(n)), so H 1 = -sqrt(n) e_0.
    x is a grid function or an (n, k) block of them.
    """
    n = x.shape[0]
    root = np.sqrt(n)
    s = (x.sum(axis=0) + root * x[0]) / (n + root)  # beta v^T x
    out = x - s
    out[0] -= root * s
    return out


def _projected_cholesky(V, w):
    """Cholesky factor of T = -(H A H)[1:, 1:] with A = V D^-1, and row 0 of H A H.

    With p = beta A v and u = p - (beta v^T p / 2) v, H A H = A - u v^T - v u^T;
    as v[1:] = 1, T[i, j] = u_i + u_j - A[i, j] over i, j >= 1.  T is built
    in a C-ordered array whose transpose, F-ordered, dpotrf factors in place
    (its lower triangle reads T's upper one, equal to rounding).
    """
    n = V.shape[0]
    root = np.sqrt(n)
    beta = 1.0 / (n + root)
    v = np.ones(n)
    v[0] += root
    p = beta * (V @ (v / w))
    u = p - (0.5 * beta * (v @ p)) * v
    row0 = V[0] / w - u[0] * v - v[0] * u
    T = np.divide(V[1:, 1:], w[1:], out=np.empty((n - 1, n - 1)))
    np.subtract(u[1:, None], T, out=T)
    T += u[1:]
    factor, info = dpotrf(T.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SingularSystem(f"single-layer system is not definite: leading minor {info} "
                             f"of its projected {n - 1} x {n - 1} block is not positive")
    return factor, row0


class OperatorSet:
    """All dense operators for one mesh, assembled once and shared.

    The only state is V, W, the Cholesky factor of T and row 0 of H A H
    (see the module docstring), and the value-at-infinity functional q,
    the last row of the bordered inverse.  Wt is applied from W, and the
    Dirichlet-to-Neumann maps and their weighted transposes through the
    factor by dtn and rep, one solve each; none of them is stored.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n
        self.weights = w = mesh.weights
        self.V, W = _assemble(mesh, np.empty((n, n)))
        self.W = _checked_W(mesh, W)
        self._factor, self._row0 = _projected_cholesky(self.V, w)
        # q is the y of A y + c = 0 with sum(y) = 1: y = 1/n + y0 with mass-free
        # y0, and A 1 = V D^-1 1
        self.q = self._solve(-(self.V @ (1.0 / w)) / n)[0] + 1.0 / n

    def _solve(self, g):
        """(y, c) with A y + c = g and sum(y) = 0, for g a grid function or an (n, k) block.

        y = H [0; z] where the trailing rows of H A H [0; z] = H g - c H 1
        give T z = -(H g)[1:], and row 0 gives c.
        """
        Hg = _reflect(g)
        z = np.zeros_like(Hg)
        rhs = np.negative(Hg[1:])
        if rhs.ndim == 1:  # two triangular solves beat dpotrs on one right-hand side
            rhs = dtrsv(self._factor, rhs, lower=1, overwrite_x=1)
            z[1:] = dtrsv(self._factor, rhs, lower=1, trans=1, overwrite_x=1)
        else:
            z[1:] = dpotrs(self._factor, rhs, lower=1, overwrite_b=1)[0]
        c = (self._row0 @ z - Hg[0]) / np.sqrt(self.n)
        return _reflect(z), c

    def _grid(self, f, block=False):
        """f as a grid function (or an (n, k) block with block) of finite values."""
        f = _check_aligned(self, f, block=block)
        if not np.isfinite(f).all():
            raise OutOfRange("grid function holds NaN or infinity")
        return f

    def _density(self, g):
        """eta and c with V eta + c = g and zero-mean eta: B^-1 [g; 0] for the bordered B."""
        y, c = self._solve(g)
        return y / (self.weights if y.ndim == 1 else self.weights[:, None]), c

    def harmonic_density(self, g):
        """Density and constant with V eta + c = g and zero-mean eta."""
        eta, c = self._density(self._grid(g))
        return eta, float(c)

    def _wt(self, x):
        """Wt x for a grid function or an (n, k) block, without forming Wt."""
        w = self.weights if x.ndim == 1 else self.weights[:, None]
        return (self.W.T @ (w * x)) / w

    def dtn(self, side, v):
        """The side's Dirichlet-to-Neumann map (-1/2 I + sign Wt) R applied to v.

        v is a grid function or an (n, k) block of them.
        """
        sign = _side(side).sign
        eta = self._density(self._grid(v, block=True))[0]
        return -0.5 * eta + sign * self._wt(eta)

    def rep(self, side, mu):
        """Weighted transpose D^-1 S^T D mu of the side's Dirichlet-to-Neumann map S.

        mu is a grid function or an (n, k) block of them.  The bordered matrix
        is the symmetric [A, 1; 1^T, 0] times diag(D, 1), so the weighted
        transpose D^-1 R^T D of R is R itself, and this is R (-1/2 I + sign W) mu.
        """
        sign = _side(side).sign
        mu = self._grid(mu, block=True)
        return self._density(-0.5 * mu + sign * (self.W @ mu))[0]

    @property
    def S_plus(self):
        """Dense interior Dirichlet-to-Neumann matrix, rebuilt on every access."""
        return self.dtn("plus", np.eye(self.n))

    @property
    def S_minus(self):
        """Dense exterior Dirichlet-to-Neumann matrix, rebuilt on every access."""
        return self.dtn("minus", np.eye(self.n))


def operator_set(mesh):
    """The mesh's OperatorSet, built on first use and kept in mesh.operators."""
    if mesh.operators is None:
        mesh.operators = OperatorSet(mesh)
    return mesh.operators
