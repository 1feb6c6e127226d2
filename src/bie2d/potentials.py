"""Layer potentials off the boundary, boundary traces, and values at infinity.

Off-boundary evaluation is plain trapezoid quadrature of the smooth kernel;
it refuses points inside the near-boundary band (twice the largest node
spacing) instead of regularizing.  Every off-boundary evaluator is a
HarmonicField: a bare layer potential is a one-term field with no region,
and distributions.dist_single_layer_field builds the field of a
distribution's single layer.  Each evaluation makes one geometry pass
over its points, walked in blocks of rows (geometry._TargetBlocks): the
band check, the location of the points and the kernels of every layer
term read the same squared distances of a block, and each block writes
its values straight into the result.  Boundary values come from the
assembled operators through the jump relations, written once in the
side's sign (README, "Sides and signs").
"""

import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import Bie2dError, InvalidProbe, NearBoundary, NoLimit, OutOfRange
from .geometry import _check_aligned, _in_region, _TargetBlocks, integrate
from .operators import _side, operator_set


def _layer(targets, kind, density):
    """Trapezoid quadrature of one layer term at the pass's points."""
    density = _check_aligned(targets.mesh, density)
    if kind == "single":
        kernel = targets.single_kernel
    elif kind == "double":
        kernel = targets.double_kernel
    else:
        raise OutOfRange(f"unknown layer kind {kind!r}, expected 'single' or 'double'")
    return kernel @ (targets.mesh.weights * density)


def eval_single_layer(mesh, mu, points):
    """Single layer potential at off-boundary points, on either side."""
    return HarmonicField(mesh, [("single", mu)], region=None).eval(points)


def eval_double_layer(mesh, psi, points):
    """Double layer potential at off-boundary points, on either side."""
    return HarmonicField(mesh, [("double", psi)], region=None).eval(points)


def trace_single(mesh, mu):
    """Boundary trace of the single layer (shared by both sides)."""
    return operator_set(mesh).single_layer(mu)


def trace_double(mesh, psi, side):
    """Boundary limit of the double layer from one side: sign/2 psi + W psi."""
    sign = _side(side).sign
    psi = _check_aligned(mesh, psi)
    return (sign / 2) * psi + operator_set(mesh).W @ psi


def normal_derivative_single(mesh, mu, side):
    """Normal derivative (along the outward normal) of the single layer.

    The limit from one side is the side's Neumann operator, shift I + Wt
    with shift = -sign/2: 'plus' is the limit from inside, 'minus' from
    outside.
    """
    mu = _check_aligned(mesh, mu)
    return _side(side).shift * mu + operator_set(mesh)._wt(mu)


@dataclass
class HarmonicField:
    """Evaluable harmonic function built from layer terms plus a constant.

    terms is a list of (kind, density) with kind 'single' or 'double'
    (OutOfRange otherwise, when evaluated).  region is 'interior' or
    'exterior' and restricts where eval() is defined; None puts no
    restriction, as for a bare layer potential, defined on both sides.
    """

    mesh: object
    terms: list = field(default_factory=list)
    constant: float = 0.0
    region: str | None = "interior"

    def eval(self, points):
        vals, single = self._evaluate(points)
        return float(vals[0]) if single else vals

    def eval_unchecked(self, points):
        return self._evaluate(points, checked=False)[0]

    def _evaluate(self, points, checked=True):
        """The field at each point of one geometry pass, and whether the
        points were one point (2,).

        checked refuses points in the near-boundary band (NearBoundary) and,
        given a region, points outside it (InvalidProbe).  Every block is
        scanned before either is raised, so NearBoundary reports the minimum
        distance over all points and wins over InvalidProbe, which wins over a
        toolkit error of the terms; no block is evaluated after the first of
        them.  A region other than 'interior', 'exterior' or None raises
        OutOfRange first.
        """
        mesh, region = self.mesh, self.region
        blocks = _TargetBlocks(mesh, points)
        other = _side(region, "region").opposite.region if region is not None else None
        band = mesh.band_width()
        out = np.empty(len(blocks))
        nearest, stray, error = np.inf, False, None
        for rows, targets in blocks:
            if checked:
                nearest = min(nearest, np.min(targets.dist))
                if nearest < band or stray:
                    continue
                stray = region is not None and not np.all(
                    _in_region(mesh, targets.dist, targets.outward, region))
            if not (stray or error):
                try:
                    out[rows] = self.constant
                    for kind, density in self.terms:
                        out[rows] += _layer(targets, kind, density)
                except Bie2dError as exc:
                    error = exc
        if nearest < band:
            raise NearBoundary(f"point at distance {nearest:.3e} inside "
                               f"the near-boundary band {band:.3e}")
        if stray:
            raise InvalidProbe(f"field is defined on the {region} but a point is {other}")
        if error is not None:
            raise error
        return out, blocks.single


InfinityValue = namedtuple("InfinityValue", ["mean", "representation"])

_N_PROBE = 256
_PROBE_TOL = 1e-6


def value_at_infinity(fld, probe_radius):
    """Value of an exterior field at infinity.

    Returns the mean over a probe circle of _N_PROBE points together with
    the value implied by the representation; the two must agree within
    _PROBE_TOL.  Raises NoLimit when the representation grows
    logarithmically, InvalidProbe when the circle does not safely enclose
    the boundary, and OutOfRange when probe_radius is not a real number.
    """
    if isinstance(probe_radius, bool) or not isinstance(probe_radius, numbers.Real):
        raise OutOfRange(f"probe_radius must be a real number, got {probe_radius!r}")
    mesh = fld.mesh
    rmax = float(np.max(np.linalg.norm(mesh.x, axis=1)))
    if probe_radius <= rmax + mesh.band_width():
        raise InvalidProbe(
            f"probe radius {probe_radius} does not enclose the boundary (r_max={rmax:.3f})"
        )
    if _side(fld.region, "region").sign > 0:
        raise InvalidProbe("value at infinity of an interior field")
    # the limit read off the representation: its constant, once the single
    # layers carry no mass in all
    mass = sum(integrate(mesh, density) for kind, density in fld.terms if kind == "single")
    scale = 1.0 + max((float(np.max(np.abs(d))) for _, d in fld.terms), default=0.0)
    if abs(mass) > 1e-8 * scale:
        raise NoLimit(f"single-layer masses sum to {mass:.3e}: logarithmic growth")
    theta = 2.0 * np.pi * np.arange(_N_PROBE) / _N_PROBE
    circle = probe_radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    mean = float(np.mean(fld.eval_unchecked(circle)))
    if abs(mean - fld.constant) > _PROBE_TOL:
        raise InvalidProbe(
            f"probe mean {mean:.3e} disagrees with representation value {fld.constant:.3e}"
        )
    return InfinityValue(mean, fld.constant)
