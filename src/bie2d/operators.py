"""Kernels and dense Nystrom assembly of the boundary operators.

The single-layer trace V uses the Kussmaul-Martensen splitting on the
diagonal blocks: the kernel is written as

    k(t, s) = k1(t, s) log(4 sin^2((t - s)/2)) + k2(t, s)

and the logarithmic factor gets the spectral product-quadrature weights,
the smooth remainder the plain trapezoid rule.  The double-layer kernel is
smooth on a C^2 curve, so W is plain trapezoid with the curvature limit on
the diagonal.  Wt is built as D^-1 W^T D (D = diag of quadrature weights),
which is simultaneously the Nystrom matrix of the transposed kernel and an
exact discrete adjoint in the weighted pairing.

The Dirichlet-to-Neumann maps come from one bordered system
[V, 1; w^T, 0]: its solution map R takes boundary values v to the density
eta of the single-layer-plus-constant representation of the harmonic
extension (V eta + c = v with zero-mean eta, a system that stays well posed
at logarithmic capacity one), and the interior and exterior maps are
(-1/2 I + Wt) R and (-1/2 I - Wt) R.  Neither R nor these maps is ever
formed: each application is a solve with the LU factors of the bordered
matrix, and their weighted transposes are transposed solves.

All of these live in one OperatorSet per mesh, stored in the mesh's
operators field by operator_set.  The OperatorSet keeps the node count and
the weights it needs, never the mesh itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    InvalidGeometry,
    LengthMismatch,
    OutOfRange,
    SingularPoint,
    SingularSystem,
)
from .geometry import _check_aligned


def fundamental_solution(n, xi):
    """Fundamental solution of the Laplacian; only n = 2 is supported."""
    if n != 2:
        raise SingularPoint(f"dimension {n} not supported")
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)
    if np.any(r == 0.0):
        raise SingularPoint("fundamental solution evaluated at zero offset")
    return np.log(r) / (2.0 * np.pi)


def grad_fundamental_solution(n, xi):
    """Gradient of the fundamental solution with respect to its argument."""
    if n != 2:
        raise SingularPoint(f"dimension {n} not supported")
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)
    if np.any(r == 0.0):
        raise SingularPoint("gradient evaluated at zero offset")
    return xi / (2.0 * np.pi * r[..., None] ** 2)


@dataclass(eq=False)
class OperatorMatrix:
    """Dense operator with its mesh and a kind tag (V, W, Wt, Splus, Sminus)."""

    matrix: np.ndarray
    kind: str
    mesh: object

    def apply(self, f):
        return self.matrix @ _check_aligned(self.mesh, f)


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


def assemble_V(mesh):
    """Nystrom matrix of the single-layer boundary trace."""
    n = mesh.n
    A = np.empty((n, n))
    # smooth cross-component fill first, then overwrite diagonal blocks
    d = mesh.x[:, None, :] - mesh.x[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(dist2, 1.0)
    A[:] = (0.25 / np.pi) * np.log(dist2) * mesh.weights[None, :]

    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        tc = mesh.t[sl]
        nc = tc.shape[0]
        speed = mesh.speed[sl]
        dt = tc[:, None] - tc[None, :]
        s2 = 4.0 * np.sin(dt / 2.0) ** 2
        np.fill_diagonal(s2, 1.0)
        block_dist2 = dist2[sl, sl]
        ratio = block_dist2 / s2
        np.fill_diagonal(ratio, speed**2)
        k2 = (0.25 / np.pi) * speed[None, :] * np.log(ratio)
        row = log_weight_row(nc)
        idx = np.arange(nc)
        R = row[(idx[:, None] - idx[None, :]) % nc]
        A[sl, sl] = R * ((0.25 / np.pi) * speed[None, :]) + (2.0 * np.pi / nc) * k2
    return OperatorMatrix(A, "V", mesh)


def _double_layer_kernel(mesh, points):
    """Double-layer kernel -nu(y) . grad S2(x - y) at points x, nodes y."""
    d = points[:, None, :] - mesh.x[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    num = d[:, :, 0] * mesh.normal[None, :, 0] + d[:, :, 1] * mesh.normal[None, :, 1]
    return -num / (2.0 * np.pi * dist2)


def assemble_W(mesh):
    """Nystrom matrix of the double-layer boundary operator.

    The diagonal holds the continuous limit kappa_i / (4 pi); the sign
    convention is pinned by asserting W 1 = 1/2 at build time.
    """
    d = mesh.x[:, None, :] - mesh.x[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(dist2, 1.0)
    num = d[:, :, 0] * mesh.normal[None, :, 0] + d[:, :, 1] * mesh.normal[None, :, 1]
    kw = -num / (2.0 * np.pi * dist2)
    np.fill_diagonal(kw, mesh.curvature / (4.0 * np.pi))
    W = kw * mesh.weights[None, :]
    resid = float(np.max(np.abs(W @ np.ones(mesh.n) - 0.5)))
    if resid > 1e-8:
        raise InvalidGeometry(
            f"double-layer sign/orientation check failed: |W 1 - 1/2| = {resid:.3e}"
        )
    return OperatorMatrix(W, "W", mesh)


def assemble_Wt(mesh):
    """Adjoint double-layer operator, exact in the weighted pairing."""
    return OperatorMatrix(operator_set(mesh).Wt, "Wt", mesh)


def _side_sign(side):
    """+1 for the interior ('plus') side, -1 for the exterior ('minus')."""
    if side not in ("plus", "minus"):
        raise OutOfRange(f"unknown side {side!r}")
    return 1.0 if side == "plus" else -1.0


class OperatorSet:
    """All dense operators for one mesh, assembled once and shared.

    The only state is V, W, Wt, the LU factors of the bordered matrix
    [V, 1; w^T, 0] and the value-at-infinity functional q (the last row of
    its inverse, from one transposed solve).  The Dirichlet-to-Neumann maps
    and their weighted transposes are applied through the factors by dtn
    and rep and are never formed or cached.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n
        self.weights = w = mesh.weights
        self.V = assemble_V(mesh).matrix
        self.W = assemble_W(mesh).matrix
        self.Wt = (self.W.T * w[None, :]) / w[:, None]

        B = np.zeros((n + 1, n + 1))
        B[:n, :n] = self.V
        B[:n, n] = 1.0
        B[n, :n] = w
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
        if top.shape[:1] != (self.n,):
            raise LengthMismatch(
                f"grid function of length {top.shape} on mesh with {self.n} nodes"
            )
        rhs = np.zeros((self.n + 1,) + top.shape[1:])
        rhs[: self.n] = top
        return lu_solve(self._bordered_lu, rhs, trans=trans)[: self.n]

    def dtn(self, side, v):
        """Dirichlet-to-Neumann map of one side applied to v.

        (-1/2 I + Wt) R v for 'plus' (interior), (-1/2 I - Wt) R v for 'minus'
        (exterior); v is a grid function or an (n, k) block of them.
        """
        sign = _side_sign(side)
        eta = self._bordered_solve(np.asarray(v, dtype=float))
        return -0.5 * eta + sign * (self.Wt @ eta)

    def rep(self, side, mu):
        """Weighted transpose D^-1 S^T D mu of the side's Dirichlet-to-Neumann map S."""
        sign = _side_sign(side)
        mu = _check_aligned(self, mu)
        w = self.weights
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


def steklov(mesh, side):
    """Dense Dirichlet-to-Neumann matrix of one side, rebuilt on every call."""
    ops = operator_set(mesh)
    matrix = ops.dtn(side, np.eye(mesh.n))
    return OperatorMatrix(matrix, "Splus" if side == "plus" else "Sminus", mesh)


def save_matrix(op, path, fmt="csv"):
    """Dump a dense operator row-major with a small header for debugging."""
    if fmt == "csv":
        header = f"kind={op.kind} n={op.matrix.shape[0]}"
        np.savetxt(path, op.matrix, delimiter=",", header=header)
    elif fmt == "npy":
        np.save(path, op.matrix)
    else:
        raise ValueError(f"unknown dump format {fmt!r}")
