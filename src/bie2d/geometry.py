"""Parametrized closed curves, periodic-trapezoid meshes, and domain topology.

A domain is a list of disjoint closed curves nested to any depth: outer
curves, inside an even number of others, bound components of the open set,
and holes, inside an odd number, bounded components of its exterior.
Meshes use uniform parameter nodes, so all quadrature is the periodic
trapezoid rule (spectrally accurate on analytic curves).  Normals point out
of the open set: outer curves are traversed counterclockwise and holes
clockwise, whatever the input says.

A BoundaryMesh owns everything derived from it: build_mesh works out which
curve contains which once, by polygon winding numbers, and stores the
resulting DomainTopology on the mesh, and operators.operator_set fills the
mesh's operator field on first use.  Neither the topology nor the
operators point back at the mesh, so a dropped mesh is freed by reference
counting alone.

Pairwise geometry between the nodes and a set of target points is
computed in one pass (_TargetBlocks): the squared distances and the normal
components of the offsets.  The near-boundary band check, point location
and both layer kernels read that one pass.  Every pairwise pass, this one,
the node-separation check and the operator assembly, iterates one walker,
_pair_blocks: it takes the rows in blocks of about _BLOCK_PAIRS pairs and
reuses one set of block arrays, so no array over all pairs is ever
allocated.  A point off the band is located by its nearest node
(locate_points).
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidGeometry, InvalidProbe, LengthMismatch, OutOfRange


@dataclass(frozen=True)
class CurveSpec:
    """One closed boundary curve.

    kind is 'circle' (center, radius), 'ellipse' (center, axes) or
    'fourier' (trigonometric polynomial coordinates).  For a fourier curve
    the coordinates are

        x(t) = center[0] + sum_m cos_x[m] cos(m t) + sin_x[m] sin(m t)
        y(t) = center[1] + sum_m cos_y[m] cos(m t) + sin_y[m] sin(m t)

    with coefficient arrays indexed by mode m starting at 0; a circle or an
    ellipse is the fourier curve cos_x = (0, a), sin_y = (0, b).  orientation
    'positive' means counterclockwise traversal of the parametrization as
    given; build_mesh may still flip a curve to meet the outward-normal
    convention.
    """

    kind: str
    center: tuple = (0.0, 0.0)
    radius: float | None = None
    axes: tuple | None = None
    cos_x: tuple = ()
    sin_x: tuple = ()
    cos_y: tuple = ()
    sin_y: tuple = ()
    orientation: str = "positive"

    def __post_init__(self):
        if self.kind not in ("circle", "ellipse", "fourier"):
            raise InvalidGeometry(f"unknown curve kind {self.kind!r}")
        if self.orientation not in ("positive", "negative"):
            raise InvalidGeometry(f"unknown orientation {self.orientation!r}")
        if self.kind == "circle" and (self.radius is None or self.radius <= 0):
            raise InvalidGeometry("circle needs a positive radius")
        if self.kind == "ellipse":
            if self.axes is None or len(self.axes) != 2 or min(self.axes) <= 0:
                raise InvalidGeometry("ellipse needs two positive semi-axes")

    def _sign(self):
        return 1.0 if self.orientation == "positive" else -1.0

    def evaluate(self, t, orientation_sign=None):
        """Positions, velocities and accelerations at parameters t.

        Returns (x, dx, ddx), each of shape (len(t), 2).  Derivatives are
        with respect to the traversal parameter, orientation folded in.
        """
        t = np.asarray(t, dtype=float)
        sg = self._sign() if orientation_sign is None else orientation_sign
        s = sg * t
        coeffs = ((self.cos_x, self.sin_x), (self.cos_y, self.sin_y))
        if self.kind != "fourier":
            a, b = self.axes if self.kind == "ellipse" else (self.radius, self.radius)
            coeffs = (((0.0, a), ()), ((), (0.0, b)))
        x = np.zeros(t.shape + (2,))
        dx = np.zeros_like(x)
        ddx = np.zeros_like(x)
        for axis, (cc, ss) in enumerate(coeffs):
            nm = max(len(cc), len(ss))
            for m in range(nm):
                a = cc[m] if m < len(cc) else 0.0
                b = ss[m] if m < len(ss) else 0.0
                cm, sm = np.cos(m * s), np.sin(m * s)
                x[..., axis] += a * cm + b * sm
                dx[..., axis] += m * (-a * sm + b * cm)
                ddx[..., axis] += m * m * (-a * cm - b * sm)
        x = x + np.asarray(self.center, dtype=float)
        dx = dx * sg
        # ddx picks up sg**2 == 1
        return x, dx, ddx


@dataclass(eq=False)
class DomainTopology:
    """Component bookkeeping of the open set and of its exterior.

    outer_comps lists the curves at even depth (the number of curves that
    contain one), hole_comps those at odd depth.  Each curve bounds a
    component of its own, numbered from 1 in its list's order: of the open
    set (kappa_plus in all) or of the exterior (kappa_minus).  On its other
    side it touches its parent's component, the parent containing it one
    level up, or the unbounded component 0 when it has none.
    omega_of_comp / omega_minus_of_comp give, for every curve, the
    component of the open set and of the exterior it touches.  n and
    offsets repeat the mesh's node count and component offsets.
    """

    n: int
    offsets: np.ndarray
    kappa_plus: int
    kappa_minus: int
    outer_comps: list
    hole_comps: list
    omega_of_comp: dict
    omega_minus_of_comp: dict


@dataclass(eq=False)
class BoundaryMesh:
    """Nystrom mesh of a multiply connected boundary.

    Arrays are node-aligned over all components: positions x (n, 2), unit
    outward normals, signed curvature, parametrization speed
    |x'|, trapezoid weights w_i = |x'(t_i)| 2 pi / N_c and the component
    label of every node.  offsets[c] is the first node of component c.
    topology is computed by build_mesh; operators is the OperatorSet that
    operators.operator_set builds on first use.
    """

    n_per_comp: list
    t: np.ndarray
    x: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    speed: np.ndarray
    weights: np.ndarray
    comp: np.ndarray
    offsets: np.ndarray
    topology: DomainTopology
    operators: object = field(default=None, repr=False)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def n_components(self):
        return len(self.n_per_comp)

    def component_slice(self, c):
        return slice(int(self.offsets[c]), int(self.offsets[c + 1]))

    def band_width(self):
        """Near-boundary band: twice the largest node spacing."""
        return 2.0 * float(np.max(self.weights))


Location = namedtuple("Location", ["kind", "index"])


# The largest magnitude of a node coordinate or of a component of the
# velocity x': the curvature divides by |x'|**3, which overflows past 5.6e102
_MAX_COORD = 1e100


def _curve_nodes(spec, nc, sign=None):
    """t, x, dx, ddx and |x'| at the nc nodes of a curve; sign None keeps its orientation."""
    t = 2.0 * np.pi * np.arange(nc) / nc
    x, dx, ddx = spec.evaluate(t, orientation_sign=sign)
    top = np.max(np.abs([x, dx]))  # NaN stays NaN
    if not top <= _MAX_COORD:
        raise InvalidGeometry(f"curve reaches {top:.1e} in a node coordinate or its "
                              f"velocity, beyond the {_MAX_COORD:.0e} a mesh takes")
    speed = np.hypot(dx[:, 0], dx[:, 1])
    if np.min(speed) <= 1e-12 * max(1.0, np.max(speed)):
        raise InvalidGeometry("degenerate parametrization: |x'(t)| vanishes at a node")
    return t, x, dx, ddx, speed


def _component_arrays(t, x, dx, ddx, speed):
    tangent = dx / speed[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
    curvature = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed**3
    weights = speed * (2.0 * np.pi / len(t))
    return t, x, normal, curvature, speed, weights


def _signed_area(x, dx, nc):
    # 0.5 * integral (x y' - y x') dt by the trapezoid rule
    return 0.5 * np.sum(x[:, 0] * dx[:, 1] - x[:, 1] * dx[:, 0]) * 2.0 * np.pi / nc


def _winding_of_points(curve_nodes, points):
    """Winding numbers of closed polygonal curves around points (vectorized)."""
    pts = np.atleast_2d(points)
    z = (curve_nodes[:, 0] + 1j * curve_nodes[:, 1])[None, :] - (
        pts[:, 0] + 1j * pts[:, 1]
    )[:, None]
    ratio = np.roll(z, -1, axis=1) / z
    return np.sum(np.angle(ratio), axis=1) / (2.0 * np.pi)


# The most nodes a mesh takes, refused before anything is allocated; the
# solvers' bound on a datum (solvers._MAX_DATUM) assumes it
_MAX_NODES = 10**8


def build_mesh(specs, nodes_per_component):
    """Assemble a BoundaryMesh from curve specs and per-component node counts.

    Node counts must be even integers (operator.index) of at least 16, and
    sum to at most _MAX_NODES.  Curves must be pairwise disjoint and free of
    self-intersections (checked through node distances), and two curves may
    not come closer than the node spacing of either: such a gap is
    under-resolved, and the error suggests node counts that resolve it.
    No node coordinate or velocity component may exceed _MAX_COORD in
    magnitude.  Curves may nest to any depth (see DomainTopology); normals
    point out of the open set, so curves at even depth are traversed
    counterclockwise and those at odd depth clockwise.  Each curve is
    evaluated once in its given orientation, which the containment test and
    the signed area both read, and once more only to flip it.
    """
    specs, counts = list(specs), list(nodes_per_component)
    if len(specs) != len(counts):
        raise InvalidGeometry("one node count per curve is required")
    for k, m in enumerate(counts):
        try:
            counts[k] = m = operator.index(m)
        except TypeError:
            raise InvalidGeometry(f"node count {m!r} is not an integer") from None
        if m < 16 or m % 2:
            raise InvalidGeometry(f"node count {m} must be even and >= 16")
    if sum(counts) > _MAX_NODES:
        raise InvalidGeometry(f"{sum(counts)} nodes in all, more than the "
                              f"{_MAX_NODES:.0e} a mesh takes")

    curves = [_curve_nodes(spec, nc) for spec, nc in zip(specs, counts)]

    # containment depth from winding numbers of node samples
    ncomp = len(curves)
    contains = np.zeros((ncomp, ncomp), dtype=bool)
    for i in range(ncomp):
        for j in range(ncomp):
            if i == j:
                continue
            xj = curves[j][1]
            probe = xj[:: max(1, xj.shape[0] // 16)]  # spread samples of curve j
            if (probe[:, None] == curves[i][1]).all(axis=-1).any():  # no winding number there
                raise InvalidGeometry(f"curves {min(i, j)} and {max(i, j)} are not disjoint")
            inside = np.abs(_winding_of_points(curves[i][1], probe)) > 0.5
            if inside.any() and not inside.all():
                raise InvalidGeometry("curves intersect: ambiguous containment")
            contains[i, j] = bool(inside.all())
    depth = contains.sum(axis=0)

    # orientation fix: even depths CCW (positive area), odd depths CW
    for k, (spec, nc) in enumerate(zip(specs, counts)):
        if (_signed_area(curves[k][1], curves[k][2], nc) > 0) != (depth[k] % 2 == 0):
            curves[k] = _curve_nodes(spec, nc, -spec._sign())

    t, x, normal, curvature, speed, weights = map(
        np.concatenate, zip(*(_component_arrays(*curve) for curve in curves)))
    comp = np.concatenate([np.full(nc, k, dtype=int) for k, nc in enumerate(counts)])
    offsets = np.concatenate([[0], np.cumsum(counts)])

    mesh = BoundaryMesh(
        n_per_comp=counts,
        t=t,
        x=x,
        normal=normal,
        curvature=curvature,
        speed=speed,
        weights=weights,
        comp=comp,
        offsets=offsets,
        topology=_topology(contains, depth, offsets),
    )
    _check_node_separation(mesh)
    return mesh


def _topology(contains, depth, offsets):
    """DomainTopology from the containment matrix and nesting depths, by their parity."""
    ncomp = len(depth)
    outer, holes = ([c for c in range(ncomp) if depth[c] % 2 == odd] for odd in (0, 1))
    own = {c: j for comps in (outer, holes) for j, c in enumerate(comps, start=1)}
    # the component on a curve's other side: its parent's (one level up), or 0
    other = {c: next((own[p] for p in range(ncomp)
                      if contains[p, c] and depth[p] == depth[c] - 1), 0) for c in range(ncomp)}
    return DomainTopology(
        n=int(offsets[-1]),
        offsets=offsets,
        kappa_plus=len(outer),
        kappa_minus=len(holes),
        outer_comps=outer,
        hole_comps=holes,
        omega_of_comp={c: (other if depth[c] % 2 else own)[c] for c in range(ncomp)},
        omega_minus_of_comp={c: (own if depth[c] % 2 else other)[c] for c in range(ncomp)},
    )


# A pairwise pass walks its rows in blocks of about this many pairs (512 KB
# per float array), so that a block's arrays stay in cache and no array
# over all pairs is ever allocated.  A block holds a multiple of
# _ROW_ALIGN rows, and at least _ROW_ALIGN.
_BLOCK_PAIRS = 1 << 16
_ROW_ALIGN = 8


def _row_blocks(start, stop, n):
    """(lo, hi) of consecutive blocks of the rows start..stop, each against n columns.

    A block has about _BLOCK_PAIRS pairs, in a multiple of 8 rows, so that
    blocks start where BLAS matrix-vector kernels start a group of rows and
    every row sums as it would in one product over all rows (on one BLAS
    thread; see write_field_csv).  For the same reason a lone last row
    joins the block before it: numpy computes a one-row product as a dot
    product, which sums in another order.
    """
    step = max(_ROW_ALIGN, _BLOCK_PAIRS // n // _ROW_ALIGN * _ROW_ALIGN)
    bounds = list(range(start, stop, step)) + [stop]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _pair_geometry(targets, nodes, normals, out):
    """r2 = |x - y|^2 and, given the normals, nd = nu(y) . (x - y), written into out.

    out is four (m, n) arrays: r2, nd (unused without normals) and two
    scratch arrays.  With d = x - y, r2 = d_x d_x + d_y d_y and
    nd = d_y nu_y + d_x nu_x, and no array is allocated.
    """
    r2, nd, dx, dy = out
    np.subtract(targets[:, 0, None], nodes[None, :, 0], out=dx)
    np.subtract(targets[:, 1, None], nodes[None, :, 1], out=dy)
    np.multiply(dx, dx, out=r2)
    if normals is not None:
        np.multiply(dy, normals[:, 1], out=nd)
        dx *= normals[:, 0]
        nd += dx
    dy *= dy
    r2 += dy
    return r2, nd


def _pair_blocks(targets, nodes, normals, start, stop):
    """(lo, hi, r2, nd, scratch) of each block of the rows start..stop of targets.

    r2 and nd are _pair_geometry of targets[lo:hi] against nodes (nd is
    unset without normals), and scratch holds two more arrays of their
    shape.  The blocks are _row_blocks, and all of them share one set of
    arrays, so a block's arrays are overwritten by the next block.
    """
    blocks = _row_blocks(start, stop, nodes.shape[0])
    arrays = np.empty((4, max((hi - lo for lo, hi in blocks), default=0), nodes.shape[0]))
    for lo, hi in blocks:
        out = arrays[:, : hi - lo]
        r2, nd = _pair_geometry(targets[lo:hi], nodes, normals, out)
        yield lo, hi, r2, nd, out[2:]


def _check_node_separation(mesh):
    # cross-component disjointness and a cheap self-intersection screen:
    # a simple closed C^1 curve has turning number +-1, and nodes that are
    # several steps apart along the curve cannot nearly coincide
    scale = max(1.0, float(np.max(np.abs(mesh.x))))
    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        turning = float(np.dot(mesh.curvature[sl], mesh.weights[sl])) / (2.0 * np.pi)
        if abs(abs(turning) - 1.0) > 0.1:
            raise InvalidGeometry(
                f"curve {c} is not simple (turning number {turning:.3f})"
            )
        xc = mesh.x[sl]
        wc = mesh.weights[sl]
        nc = xc.shape[0]
        # only pairs closer than half the largest spacing can fail the test
        # d < 0.25 (w_i + w_j) / 2, so they are screened first
        screen = (0.5 * float(np.max(wc))) ** 2
        for lo, _, r2, _, _ in _pair_blocks(xc, xc, None, 0, nc):
            i, j = np.nonzero(r2 < screen)
            ring = np.abs(i + lo - j)
            ring = np.minimum(ring, nc - ring)
            close = np.sqrt(r2[i, j]) < 0.25 * (0.5 * (wc[i + lo] + wc[j]))
            if np.any((ring >= 4) & close):
                raise InvalidGeometry(
                    f"curve {c} self-intersects (distant nodes nearly coincide)"
                )
        for c2 in range(c + 1, mesh.n_components):
            sl2 = mesh.component_slice(c2)
            # the first closest pair in row order, as one argmin over all pairs finds it
            gap2, i, j = np.inf, 0, 0
            for lo, _, r2, _, _ in _pair_blocks(xc, mesh.x[sl2], None, 0, nc):
                k = int(np.argmin(r2))
                if r2.flat[k] < gap2:
                    gap2, (i, j) = float(r2.flat[k]), divmod(k, r2.shape[1])
                    i += lo
            gap = math.sqrt(gap2)
            if gap <= 1e-9 * scale:
                raise InvalidGeometry(f"curves {c} and {c2} are not disjoint")
            _check_gap_resolved(mesh, (c, c2), gap, (wc[i], mesh.weights[sl2][j]))


# The trapezoid rule on one curve loses its accuracy at points of another
# curve closer than a few node spacings (for two circles, W 1 = 1/2 to 1e-8
# needs a gap of a little over three).  A gap below one spacing is refused
# outright, and the node counts suggested then make it four spacings wide.
_MIN_GAP_SPACINGS = 1.0
_SUGGESTED_GAP_SPACINGS = 4.0


def _check_gap_resolved(mesh, pair, gap, spacings):
    if gap >= _MIN_GAP_SPACINGS * max(spacings):
        return
    counts = [
        max(mesh.n_per_comp[c], 2 * math.ceil(
            mesh.n_per_comp[c] * _SUGGESTED_GAP_SPACINGS * h / (2.0 * gap)))
        for c, h in zip(pair, spacings)
    ]
    raise InvalidGeometry(
        f"under-resolved: curves {pair[0]} and {pair[1]} come within {gap:.1e} of "
        f"each other, less than their node spacing there ({spacings[0]:.1e} and "
        f"{spacings[1]:.1e}); use about {counts[0]} and {counts[1]} nodes"
    )


def indicator(topology, region, index):
    """Indicator grid function of a boundary component group.

    region 'omega' with index j in 1..kappa_plus marks the nodes on the
    boundary of the j-th component of the open set; region 'omega_minus'
    with index k in 0..kappa_minus marks the boundary of the k-th exterior
    component (k = 0 is the unbounded one).
    """
    if region == "omega":
        if not 1 <= index <= topology.kappa_plus:
            raise OutOfRange(f"omega index {index} not in 1..{topology.kappa_plus}")
        labels = topology.omega_of_comp
    elif region == "omega_minus":
        if not 0 <= index <= topology.kappa_minus:
            raise OutOfRange(
                f"omega_minus index {index} not in 0..{topology.kappa_minus}"
            )
        labels = topology.omega_minus_of_comp
    else:
        raise OutOfRange(f"unknown region {region!r}")
    out = np.zeros(topology.n)
    for c, label in labels.items():
        if label == index:
            out[topology.offsets[c]:topology.offsets[c + 1]] = 1.0
    return out


def _check_aligned(mesh, f, block=False):
    # mesh is anything that carries a node count n: a mesh or an OperatorSet;
    # block admits an (n, k) block of grid functions as well
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise OutOfRange("grid function is complex; its values must be real")
    f = np.asarray(f, dtype=float)
    if f.shape[:1] != (mesh.n,) or f.ndim > (2 if block else 1):
        raise LengthMismatch(f"grid function of length {f.shape} on mesh with {mesh.n} nodes")
    return f


def integrate(mesh, f):
    """Trapezoid-rule boundary integral of a grid function."""
    return float(np.dot(mesh.weights, _check_aligned(mesh, f)))


def pairing(mesh, f, g):
    """Weighted duality pairing sum_i w_i f_i g_i."""
    return float(np.dot(mesh.weights * _check_aligned(mesh, f), _check_aligned(mesh, g)))


class _Targets:
    """One block of a geometry pass: target points x against the n nodes y of a mesh.

    r2 = |x - y|^2 and nd = nu(y) . (x - y) have one row per point;
    nearest is each point's nearest node and dist its distance to it, both
    found when first read, so a pass that neither checks nor locates its
    points skips them.  The band check, point location and both layer
    kernels read them.  A point off the band is located by its nearest node
    alone: it lies outside the open set exactly when it is outward, on the
    side the node's normal points to.  The kernels are written into the two
    scratch arrays given.
    """

    def __init__(self, mesh, r2, nd, scratch):
        self.mesh, self.r2, self.nd, self._scratch = mesh, r2, nd, scratch

    @cached_property
    def nearest(self):
        return np.argmin(self.r2, axis=1)

    @cached_property
    def dist(self):
        return np.sqrt(self.r2[np.arange(self.r2.shape[0]), self.nearest])

    @cached_property
    def single_kernel(self):
        """log|x - y| / (2 pi)"""
        k = np.sqrt(self.r2, out=self._scratch[0])
        return np.divide(np.log(k, out=k), 2.0 * np.pi, out=k)

    @cached_property
    def double_kernel(self):
        """-nu(y) . (x - y) / (2 pi |x - y|^2)"""
        k = np.multiply(2.0 * np.pi, self.r2, out=self._scratch[1])
        return np.negative(np.divide(self.nd, k, out=k), out=k)

    @property
    def outward(self):
        """Whether each point lies on the side its nearest node's normal points to."""
        return self.nd[np.arange(self.nd.shape[0]), self.nearest] > 0


def _in_region(mesh, dist, outward, region):
    """Mask of the points off the band whose nearest node's normal puts them in the region."""
    return (dist >= mesh.band_width()) & (outward == (region == "exterior"))


# The largest distance r for which 2 pi r^2, the double-layer kernel's
# denominator, is a finite float
_MAX_DISTANCE = math.sqrt(np.finfo(float).max / (2.0 * math.pi))


class _TargetBlocks:
    """A point (2,) or points (m, 2), checked once, and their geometry pass by blocks.

    The points must be finite, and near enough to the nodes that their
    squared distances cannot overflow (InvalidProbe otherwise).  Iterating
    yields (rows, _Targets) for consecutive blocks of rows (see
    _pair_blocks); the arrays of a block are overwritten by the next block.
    """

    def __init__(self, mesh, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
            raise LengthMismatch(f"points must have shape (2,) or (m, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidProbe("point coordinates must be finite")
        self.mesh, self.single, self.points = mesh, pts.ndim == 1, np.atleast_2d(pts)
        # a bound on each point's distance to the nodes that cannot overflow
        far = np.hypot(*(np.abs(self.points) + np.max(np.abs(mesh.x), axis=0)).T)
        if np.max(far, initial=0.0) > _MAX_DISTANCE:
            raise InvalidProbe(f"point too far from the nodes: squared distances "
                               f"overflow beyond {_MAX_DISTANCE:.3e}")

    def __len__(self):
        return self.points.shape[0]

    def __iter__(self):
        mesh = self.mesh
        for lo, hi, r2, nd, scratch in _pair_blocks(self.points, mesh.x, mesh.normal,
                                                    0, len(self)):
            yield slice(lo, hi), _Targets(mesh, r2, nd, scratch)

    def locate(self):
        """Each point's distance to its nearest node, whether it lies on the
        side that node's normal points to, and the node's curve."""
        dist, outward = np.empty(len(self)), np.empty(len(self), dtype=bool)
        comp = np.empty(len(self), dtype=int)
        for rows, targets in self:
            dist[rows], outward[rows] = targets.dist, targets.outward
            comp[rows] = self.mesh.comp[targets.nearest]
        return dist, outward, comp

    def in_region(self, region):
        """Each point's distance to the nearest node, and the mask of the points in the region."""
        dist, outward, _ = self.locate()
        return dist, _in_region(self.mesh, dist, outward, region)


def locate_points(mesh, points):
    """Classify points, shape (m, 2): interior(j), exterior(k), or near_boundary.

    Off the band, a point on the side its nearest node's normal points to
    lies in the exterior component the node's curve bounds, and otherwise
    in the component of the open set.
    """
    dist, outward, comp = _TargetBlocks(mesh, points).locate()
    topo, band = mesh.topology, mesh.band_width()
    return [Location("near_boundary", None) if d < band
            else Location("exterior", topo.omega_minus_of_comp[c]) if out
            else Location("interior", topo.omega_of_comp[c])
            for d, out, c in zip(dist.tolist(), outward.tolist(), comp.tolist())]


# ---------------------------------------------------------------------------
# stock geometries used by the test harness and the CLI


def stock_specs(name):
    """Curve specs for the named stock geometry."""
    if name == "disk":
        return [CurveSpec("circle", radius=1.0)]
    if name == "disk2":
        return [CurveSpec("circle", radius=2.0)]
    if name == "ellipse":
        return [CurveSpec("ellipse", axes=(2.0, 1.0))]
    if name == "annulus":
        return [
            CurveSpec("circle", radius=2.0),
            CurveSpec("circle", radius=1.0, orientation="negative"),
        ]
    if name == "kite":
        return [
            CurveSpec(
                "fourier",
                cos_x=(-0.65, 1.0, 0.65),
                cos_y=(0.0,),
                sin_y=(0.0, 1.5),
            )
        ]
    if name == "two-disks":
        return [
            CurveSpec("circle", center=(-2.0, 0.0), radius=1.0),
            CurveSpec("circle", center=(2.0, 0.0), radius=1.0),
        ]
    raise OutOfRange(f"unknown stock geometry {name!r}")


def stock_mesh(name, n):
    """Stock geometry meshed with n nodes per component."""
    specs = stock_specs(name)
    return build_mesh(specs, [n] * len(specs))
