"""Kernels and dense Nystrom assembly of the boundary operators.

The single-layer trace V uses the Kussmaul-Martensen splitting on the
diagonal blocks: the kernel is written as

    k(t, s) = k1(t, s) log(4 sin^2((t - s)/2)) + k2(t, s)

and the logarithmic factor gets the spectral product-quadrature weights,
the smooth remainder the plain trapezoid rule.  The double-layer kernel is
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
Neither R nor these maps is ever formed: each application is a solve with
the LU factors of the bordered matrix, and their weighted transposes are
transposed solves.

The _Side table holds each side's sign, its Neumann shift -sign/2 and the
name every layer gives it (README, "Sides and signs").  The operators live
in one OperatorSet per mesh, stored in mesh.operators by operator_set; it
keeps the node count and the weights it needs, never the mesh itself.  V
is assembled straight into the bordered matrix and kept as a view of it,
so the set holds three dense arrays: the bordered matrix, W and the LU
factors.
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor, lu_solve

from .errors import InvalidGeometry, OutOfRange, SingularSystem
from .geometry import _block_scratch, _check_aligned, _pair_geometry, _row_blocks


def log_weight_row(nc):
    """Product-quadrature weights for the 2pi-periodic log kernel.

    Returns the circulant generator R with R[(i - j) % nc] approximating
    int_0^{2pi} log(4 sin^2((t_i - s)/2)) f(s) ds at the uniform nodes.
    """
    m = np.arange(nc)
    k = np.arange(1, nc // 2)
    cosines = np.cos(2.0 * np.pi * np.outer(m, k) / nc)
    row = -(4.0 * np.pi / nc) * (cosines @ (1.0 / k))
    row -= (4.0 * np.pi / nc**2) * np.cos(np.pi * m)
    return row


def _circulant(row):
    """Read-only view of the circulant matrix C[i, j] = row[(i - j) % n]."""
    n = row.size
    return sliding_window_view(np.concatenate((row[::-1], row[:0:-1])), n)[::-1]


def _assemble(mesh, V):
    """V and W, filled one block of rows at a time; W is not yet checked.

    Both read r2 = |x_i - x_j|^2 (1 on the diagonal).  W is the trapezoid
    rule of the double-layer kernel with the curvature limit on the
    diagonal; V is the smooth (0.25 / pi) log r2 fill, with the columns of
    each row's own curve overwritten by the Kussmaul-Martensen product
    rule.  No block spans two curves.  V is written into the given (n, n)
    array (OperatorSet passes a view of its bordered matrix); apart from
    W only block-sized arrays are allocated.
    """
    n = mesh.n
    W = np.empty((n, n))
    # the generators first, so that their temporaries are freed before the
    # block arrays are allocated
    generators = [log_weight_row(nc) for nc in mesh.n_per_comp]
    blocks = [_row_blocks(mesh.offsets[c], mesh.offsets[c + 1], n)
              for c in range(mesh.n_components)]
    scratch = _block_scratch([b for curve in blocks for b in curve], n)
    for c, R in enumerate(generators):
        sl = mesh.component_slice(c)
        nc = R.size
        tc = mesh.t[sl]
        scale = (0.25 / np.pi) * mesh.speed[sl]
        circulant = _circulant(R)
        for lo, hi in blocks[c]:
            b, first = hi - lo, lo - sl.start  # first: the block's first node on its curve
            rows = np.arange(b)
            r2, nd, s2, _ = out = scratch[:, :b]
            _pair_geometry(mesh.x[lo:hi], mesh.x, mesh.normal, out)
            r2[rows, lo + rows] = 1.0

            Wb = np.multiply(2.0 * np.pi, r2, out=W[lo:hi])
            np.divide(nd, Wb, out=Wb)
            np.negative(Wb, out=Wb)
            Wb[rows, lo + rows] = mesh.curvature[lo:hi] / (4.0 * np.pi)
            Wb *= mesh.weights

            # k2 = log(r2 / (4 sin^2((t - s)/2))), with the limit speed^2 on the diagonal
            k2 = s2.reshape(-1)[: b * nc].reshape(b, nc)
            np.subtract(tc[first:first + b, None], tc, out=k2)
            k2 /= 2.0
            np.sin(k2, out=k2)
            np.square(k2, out=k2)
            k2 *= 4.0
            k2[rows, first + rows] = 1.0
            np.divide(r2[:, sl], k2, out=k2)
            k2[rows, first + rows] = mesh.speed[lo:hi] ** 2
            np.log(k2, out=k2)
            k2 *= scale
            k2 *= 2.0 * np.pi / nc

            Vb = np.multiply(np.log(r2, out=r2), 0.25 / np.pi, out=V[lo:hi])
            Vb *= mesh.weights
            np.multiply(circulant[first:first + b], scale, out=Vb[:, sl])
            Vb[:, sl] += k2
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


class OperatorSet:
    """All dense operators for one mesh, assembled once and shared.

    The only state is V (a view of the bordered matrix [V, 1; w^T, 0]),
    W, the LU factors of the bordered matrix and the value-at-infinity
    functional q (the last row of its inverse, from one transposed solve).
    Wt is applied from W, and the Dirichlet-to-Neumann maps and their
    weighted transposes are applied through the factors by dtn and rep;
    none of them is stored.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n
        self.weights = w = mesh.weights
        # V lives in the bordered matrix, which is factored into a copy
        B = np.empty((n + 1, n + 1))
        self.V, W = _assemble(mesh, B[:n, :n])
        self.W = _checked_W(mesh, W)
        B[:n, n] = 1.0
        B[n, :n] = w
        B[n, n] = 0.0
        try:
            self._bordered_lu = lu_factor(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularSystem("bordered single-layer system is singular") from exc
        e_n = np.zeros(n + 1)
        e_n[n] = 1.0
        self.q = lu_solve(self._bordered_lu, e_n, trans=1)[:n]

    def harmonic_density(self, g):
        """Density and constant with V eta + c = g and zero-mean eta."""
        sol = lu_solve(self._bordered_lu, np.append(_check_aligned(self, g), 0.0))
        return sol[:-1], float(sol[-1])

    def _bordered_solve(self, top, trans=0):
        """First n rows of B^-1 [top; 0], or of B^-T [top; 0] with trans=1."""
        top = _check_aligned(self, top, block=True)
        rhs = np.zeros((self.n + 1,) + top.shape[1:])
        rhs[: self.n] = top
        return lu_solve(self._bordered_lu, rhs, trans=trans)[: self.n]

    @property
    def Wt(self):
        """Dense adjoint double layer D^-1 W^T D, rebuilt on every access."""
        w = self.weights
        return (self.W.T * w[None, :]) / w[:, None]

    def _wt(self, x):
        """Wt x for a grid function or an (n, k) block, without forming Wt."""
        w = self.weights if x.ndim == 1 else self.weights[:, None]
        return (self.W.T @ (w * x)) / w

    def dtn(self, side, v):
        """The side's Dirichlet-to-Neumann map (-1/2 I + sign Wt) R applied to v.

        v is a grid function or an (n, k) block of them.
        """
        sign = _side(side).sign
        eta = self._bordered_solve(v)
        return -0.5 * eta + sign * self._wt(eta)

    def rep(self, side, mu):
        """Weighted transpose D^-1 S^T D mu of the side's Dirichlet-to-Neumann map S.

        mu is a grid function or an (n, k) block of them.
        """
        sign = _side(side).sign
        mu = _check_aligned(self, mu, block=True)
        w = self.weights if mu.ndim == 1 else self.weights[:, None]
        return self._bordered_solve(w * (-0.5 * mu + sign * (self.W @ mu)), trans=1) / w

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
