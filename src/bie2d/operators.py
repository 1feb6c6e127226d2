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
squared node distances that walks each curve's rows in blocks
(geometry._block_arrays) and writes each block into W and into the array
in which the single layer is factored (below); V is never held in full.
Wt = D^-1 W^T D (D = diag of quadrature weights), applied from W and never
stored, is both the Nystrom matrix of the transposed kernel and an exact
discrete adjoint in the weighted pairing.

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
set holds two dense arrays, W and the Cholesky factor of T, besides the
O(n m) records of the sides' bordered Neumann systems, which share one
coarse rule of m nodes (solvers); the J map
inverts through the same factor (distributions.J_preimage).  It holds V only
inside the factor's array: dpotrf leaves T's other triangle there, and
A[1:, 1:] = u_i + u_j - T_ij with u a vector (_projected_cholesky), so a
product with V is one symmetric product on that triangle plus vectors:
dsymv for a vector, dsymm for a block of at least _DSYMM_COLUMNS columns.
A = V D^-1 is symmetric only to rounding (about 1e-14 relative), so such a
product differs from one with the assembled V in its trailing digits.
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dsymm, dsymv, dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidGeometry, OutOfRange, SingularSystem
from .geometry import _block_arrays, _check_aligned, _normal_offsets, _offsets


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


def _assemble(mesh):
    """W, and A = V D^-1 as its trailing block and its border, one block of rows at a time.

    Both read r2 = |x_i - x_j|^2, with speed_i^2 on the diagonal, the limit
    of r2 / 4 sin^2((t_i - t_j)/2).  W is the trapezoid rule of the
    double-layer kernel with the curvature limit on the diagonal; it is not
    yet checked.  V is the smooth (0.25 / pi) w_j log r2 fill, with the
    columns of each row's own curve corrected by the circulant of
    _log_correction times (0.25 / pi) speed_j: together the
    Kussmaul-Martensen product rule, at one logarithm per pair.  No block
    spans two curves.  A block of V's rows is computed in the block's own
    r2 and divided by the weights into A: A[1:, 1:] goes into a C-ordered
    (n - 1, n - 1) array, which the OperatorSet factors in place, and
    row 0 and column 0 of A into vectors.  So V never exists as a full
    array, and apart from W and that array only block-sized arrays are
    allocated.  Returns W, A[1:, 1:], A[0] and A[:, 0].
    """
    n = mesh.n
    W, inner = np.empty((n, n)), np.empty((n - 1, n - 1))
    row, col = np.empty(n), np.empty(n)
    for c in range(mesh.n_components):
        _assemble_curve(mesh, mesh.component_slice(c), W, inner, row, col)
    return W, inner, row, col


def _assemble_curve(mesh, sl, W, inner, row, col):
    """The rows sl, one curve's, of _assemble's outputs.

    A function of its own, so that one curve's block arrays are freed
    before the next curve's are allocated.
    """
    w = mesh.weights
    correction = _circulant(_log_correction(sl.stop - sl.start))
    scale = (0.25 / np.pi) * mesh.speed[sl]
    for lo, hi, (r2, dx, dy, sq) in _block_arrays(sl.start, sl.stop, mesh.n, 4):
        b, first = hi - lo, lo - sl.start  # first: the block's first node on its curve
        # every block reads nd, so the offsets come first and r2 from them
        _offsets(mesh.x[lo:hi], mesh.x, dx, dy)
        np.multiply(dx, dx, out=r2)
        r2 += np.multiply(dy, dy, out=sq)
        nd = _normal_offsets(dx, dy, mesh.normal)
        rows = np.arange(b)
        r2[rows, lo + rows] = mesh.speed[lo:hi] ** 2

        # -nd / (2 pi r2), spelled nd / (-2 pi r2): rounding is odd, so the bits agree
        Wb = np.multiply(-2.0 * np.pi, r2, out=W[lo:hi])
        np.divide(nd, Wb, out=Wb)
        Wb[rows, lo + rows] = mesh.curvature[lo:hi] / (4.0 * np.pi)
        Wb *= w

        Vb = np.log(r2, out=r2)
        Vb *= 0.25 / np.pi
        Vb *= w
        Vb[:, sl] += correction[first:first + b] * scale
        np.divide(Vb[:, 0], w[0], out=col[lo:hi])
        skip = lo == 0  # row 0 of A is a vector of its own
        if skip:
            np.divide(Vb[0], w, out=row)
        np.divide(Vb[skip:, 1:], w[1:], out=inner[lo + skip - 1:hi - 1])


def _checked_W(mesh, W):
    """W itself, once W 1 = 1/2 holds on every curve.

    W's diagonal holds the continuous limit kappa_i / (4 pi), and this
    check, made when the OperatorSet is built, pins the sign convention.
    A reversed normal moves every row sum on its curve by about 1 (to
    -1/2 on an outer curve, 3/2 on a hole), so the curve of the largest
    miss is reported misoriented only when each of its rows misses by more
    than 1/2; otherwise the nodes do not resolve the curve or its
    neighbours.
    """
    w1 = W @ np.ones(mesh.n)
    if np.max(np.abs(w1 - 0.5)) > 1e-8:
        misses = [np.abs(w1[mesh.component_slice(c)] - 0.5) for c in range(mesh.n_components)]
        c = int(np.argmax([np.max(miss) for miss in misses]))
        resid = float(np.max(misses[c]))
        cause = "sign/orientation check failed" if np.min(misses[c]) > 0.5 else "under-resolved"
        raise InvalidGeometry(f"double layer {cause}: |W 1 - 1/2| = {resid:.3e} "
                              f"on curve {c} with {misses[c].size} nodes")
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


def _projected_cholesky(inner, row, col, a1):
    """Cholesky factor L of T = -(H A H)[1:, 1:], L_ii - T_ii, u[1:] and row 0 of H A H.

    inner is A[1:, 1:], C-ordered, row and col are row 0 and column 0 of A,
    and a1 is A 1.  With p = beta A v and u = p - (beta v^T p / 2) v,
    H A H = A - u v^T - v u^T; as v[1:] = 1, T[i, j] = u_i + u_j - A[i, j]
    over i, j >= 1.  T overwrites inner, whose transpose, F-ordered, dpotrf
    factors in place: its lower triangle reads T's upper one, equal to
    rounding.  clean=0 leaves T's strict lower triangle in the factor's
    strict upper one, from which OperatorSet.single_layer applies A.
    """
    n = row.size
    root = np.sqrt(n)
    beta = 1.0 / (n + root)
    v = np.ones(n)
    v[0] += root
    p = beta * (a1 + root * col)
    u = p - (0.5 * beta * (v @ p)) * v
    row0 = row - u[0] * v - v[0] * u
    np.subtract(u[1:, None], inner, out=inner)
    inner += u[1:]
    diag = inner.diagonal().copy()
    factor, info = dpotrf(inner.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SingularSystem(f"single-layer system is not definite: leading minor {info} "
                             f"of its projected {n - 1} x {n - 1} block is not positive")
    return factor, np.diagonal(factor) - diag, u[1:], row0


# dsymm expands the symmetric factor before it multiplies, at about the cost
# of five to seven dsymv calls (OpenBLAS, one thread, n = 255 to 1023), so a
# block narrower than this takes one dsymv per column
_DSYMM_COLUMNS = 8


class OperatorSet:
    """All dense operators for one mesh, assembled once and shared.

    The state is W, the Cholesky factor L of T, and vectors: L_ii - T_ii,
    u[1:], row 0 of A and its column 0 below row 0, row 0 of H A H (see the
    module docstring and _projected_cholesky), and the value-at-infinity
    functional q, the last row of the bordered inverse; bordered, by side
    name the record of each used side's Neumann system
    (solvers._bordered_system): its (n, k) border and measured kernel, and
    the LU of its preconditioner's (m + k) square coarse system with its
    pivots, 8 (2 n k + (m + k)^2) + 4 (m + k) bytes, and the m coarse nodes
    and (m, n) coarse rule that both sides' records share, 8 (m + m n)
    bytes once per mesh; m is at most about 64 per curve (1.08 MB for both
    sides of the 768-node annulus, m = 128).  W and
    the factor are the only arrays of size n^2.  V is applied by single_layer from the factor's array,
    whose other triangle still holds T, and never written out.  Wt is
    applied from W, and the Dirichlet-to-Neumann maps and their weighted
    transposes through the factor by dtn and rep, one solve each; none of
    them is stored.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n
        self.weights = mesh.weights
        W, inner, self._a_row, col = _assemble(mesh)
        self.W = _checked_W(mesh, W)
        self._a_col = col[1:]
        a1 = np.append(self._a_row.sum(), inner @ np.ones(n - 1) + self._a_col)
        self._factor, self._gap, self._u, self._row0 = _projected_cholesky(
            inner, self._a_row, col, a1)
        # q is the y of A y + c = 0 with sum(y) = 1: y = 1/n + y0 with mass-free
        # y0, and A 1 = V D^-1 1
        self.q = self._solve(-a1 / n)[0] + 1.0 / n
        self.bordered = {}

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
        """Wt x for a grid function or an (n, k) block, without forming Wt.

        x is multiplied from the left of W, as ((D x)^T W)^T: OpenBLAS runs
        the thin product W^T (D x) of a block several times slower.
        """
        w = self.weights
        return (((x.T * w) @ self.W) / w).T

    def single_layer(self, x):
        """V x for a grid function or an (n, k) block of them, without forming V.

        V x = A y with y = D x, and over rows and columns 1..n-1,
        A_ij = u_i + u_j - T_ij.  So A y is one symmetric product on the
        strict upper triangle of the factor's array, which holds T, less
        (L_ii - T_ii) y_i for the factor's diagonal; two rank-one terms in u;
        and row 0 and column 0 of A.  The product is handed the F-ordered
        factor itself, which it reads without a copy: one dsymv for a grid
        function, one dsymm for a block of at least _DSYMM_COLUMNS columns,
        and one dsymv per column for a narrower block.
        """
        x = _check_aligned(self, x, block=True)
        block = x.ndim == 2
        column = (lambda v: v[:, None]) if block else (lambda v: v)
        y = column(self.weights) * x
        tail = y[1:]
        out = np.empty(x.shape)
        out[0] = self._a_row @ y
        rest = np.multiply(tail, column(self._gap), out=out[1:])
        rest += np.multiply.outer(self._a_col, y[0]) + np.multiply.outer(self._u, tail.sum(axis=0))
        rest += self._u @ tail
        if not block:
            out[1:] = dsymv(-1.0, self._factor, tail, beta=1.0, y=rest, overwrite_y=1)
        elif x.shape[1] >= _DSYMM_COLUMNS:
            out[1:] = dsymm(-1.0, self._factor, tail, beta=1.0, c=rest)
        else:
            for j in range(x.shape[1]):
                out[1:, j] = dsymv(-1.0, self._factor, tail[:, j], beta=1.0, y=rest[:, j])
        return out

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
