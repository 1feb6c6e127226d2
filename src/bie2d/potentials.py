"""Layer potentials off the boundary, boundary traces, and values at infinity.

Off-boundary evaluation is plain trapezoid quadrature of the smooth kernel;
it refuses points inside the near-boundary band (twice the largest node
spacing) instead of regularizing.  Boundary values come from the assembled
operators through the jump relations.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProbe, LengthMismatch, NearBoundary, NoLimit
from .geometry import _check_aligned, integrate, locate_points
from .operators import operator_set, _double_layer_kernel


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise LengthMismatch("points must have shape (m, 2)")
    return pts, single


def _band_check(mesh, pts):
    d = np.linalg.norm(pts[:, None, :] - mesh.x[None, :, :], axis=-1)
    dmin = np.min(d, axis=1)
    if np.any(dmin < mesh.band_width()):
        worst = float(np.min(dmin))
        raise NearBoundary(
            f"point at distance {worst:.3e} inside the near-boundary band "
            f"{mesh.band_width():.3e}"
        )


def eval_single_layer(mesh, mu, points, check_band=True):
    """Single layer potential at off-boundary points."""
    mu = _check_aligned(mesh, mu)
    pts, single = _as_points(points)
    if check_band:
        _band_check(mesh, pts)
    d = pts[:, None, :] - mesh.x[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    vals = (np.log(r) / (2.0 * np.pi)) @ (mesh.weights * mu)
    return vals[0] if single else vals


def eval_double_layer(mesh, psi, points, check_band=True):
    """Double layer potential at off-boundary points."""
    psi = _check_aligned(mesh, psi)
    pts, single = _as_points(points)
    if check_band:
        _band_check(mesh, pts)
    K = _double_layer_kernel(mesh, pts)
    vals = K @ (mesh.weights * psi)
    return vals[0] if single else vals


def trace_single(mesh, mu):
    """Boundary trace of the single layer (shared by both sides)."""
    return operator_set(mesh).V @ _check_aligned(mesh, mu)


def trace_double(mesh, psi, side):
    """Boundary limit of the double layer: +-psi/2 + W psi."""
    psi = _check_aligned(mesh, psi)
    ops = operator_set(mesh)
    half = 0.5 if side == "plus" else -0.5
    return half * psi + ops.W @ psi


def normal_derivative_single(mesh, mu, side):
    """Normal derivative (along the outward normal) of the single layer.

    side 'plus' is the limit from inside, 'minus' from outside; the jump
    relation gives -mu/2 + Wt mu and +mu/2 + Wt mu respectively.
    """
    mu = _check_aligned(mesh, mu)
    ops = operator_set(mesh)
    half = -0.5 if side == "plus" else 0.5
    return half * mu + ops.Wt @ mu


@dataclass
class HarmonicField:
    """Evaluable harmonic function built from layer terms plus a constant.

    terms is a list of (kind, density) with kind 'single' or 'double'.
    region is 'interior' or 'exterior' and restricts where eval() is
    defined.
    """

    mesh: object
    terms: list = field(default_factory=list)
    constant: float = 0.0
    region: str = "interior"

    def eval(self, points):
        pts, single = _as_points(points)
        _band_check(self.mesh, pts)
        locs = locate_points(self.mesh, self.mesh.topology, pts)
        for loc in locs:
            if loc.kind != self.region:
                raise InvalidProbe(
                    f"field is defined on the {self.region} but a point is {loc.kind}"
                )
        vals = self.eval_unchecked(pts)
        return float(vals[0]) if single else vals

    def eval_unchecked(self, points):
        pts, _ = _as_points(points)
        vals = np.full(pts.shape[0], self.constant, dtype=float)
        for kind, density in self.terms:
            if kind == "single":
                vals += eval_single_layer(self.mesh, density, pts, check_band=False)
            elif kind == "double":
                vals += eval_double_layer(self.mesh, density, pts, check_band=False)
            else:
                raise LengthMismatch(f"unknown layer kind {kind!r}")
        return vals

    def single_layer_mass(self):
        return sum(
            integrate(self.mesh, density)
            for kind, density in self.terms
            if kind == "single"
        )

    def value_at_infinity_representation(self):
        """Limit at infinity read off the representation."""
        if self.region != "exterior":
            raise InvalidProbe("value at infinity of an interior field")
        mass = self.single_layer_mass()
        scale = 1.0 + max(
            (float(np.max(np.abs(d))) for _, d in self.terms), default=0.0
        )
        if abs(mass) > 1e-8 * scale:
            raise NoLimit(
                f"single-layer masses sum to {mass:.3e}: logarithmic growth"
            )
        return self.constant


InfinityValue = namedtuple("InfinityValue", ["mean", "representation"])


def value_at_infinity(fld, probe_radius, n_probe=256, tol=1e-6):
    """Value of an exterior field at infinity.

    Returns the mean over a probe circle together with the value implied
    by the representation; the two must agree within tol.  Raises NoLimit
    when the representation grows logarithmically and InvalidProbe when
    the circle does not safely enclose the boundary.
    """
    mesh = fld.mesh
    rmax = float(np.max(np.linalg.norm(mesh.x, axis=1)))
    if probe_radius <= rmax + mesh.band_width():
        raise InvalidProbe(
            f"probe radius {probe_radius} does not enclose the boundary (r_max={rmax:.3f})"
        )
    rep = fld.value_at_infinity_representation()
    theta = 2.0 * np.pi * np.arange(n_probe) / n_probe
    circle = probe_radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    mean = float(np.mean(fld.eval_unchecked(circle)))
    if abs(mean - rep) > tol:
        raise InvalidProbe(
            f"probe mean {mean:.3e} disagrees with representation value {rep:.3e}"
        )
    return InfinityValue(mean, rep)
