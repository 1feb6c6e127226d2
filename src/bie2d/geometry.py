"""Parametrized closed curves, periodic-trapezoid meshes, and domain topology.

A domain is described by a list of closed curves: outer curves bound the
connected components of the open set, hole curves bound the bounded
components of its exterior.  Meshes use uniform parameter nodes, so all
quadrature is the periodic trapezoid rule (spectrally accurate on analytic
curves).  Normals always point out of the open set: outer curves end up
traversed counterclockwise and holes clockwise, whatever the input says.

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
the node-separation check and the operator assembly, walks its rows in
blocks of about _BLOCK_PAIRS pairs and reuses one set of block arrays, so
no array over all pairs is ever allocated.  Points are located by Gauss's
law: the double layer of a curve's indicator is 1 in absolute value inside
the curve and 0 outside it, to trapezoid accuracy off the band.
"""

import math
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

    kappa_plus counts the connected components of the open set, kappa_minus
    the bounded components of the exterior.  outer_comps / hole_comps list
    curve indices, and omega_of_comp / omega_minus_of_comp give, for every
    curve, the component of the open set (1..kappa_plus) and of the
    exterior (0 = unbounded) it touches.  n and offsets repeat the mesh's
    node count and component offsets, so indicators need no mesh.
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


def _component_arrays(spec, nc, sign):
    t = 2.0 * np.pi * np.arange(nc) / nc
    x, dx, ddx = spec.evaluate(t, orientation_sign=sign)
    speed = np.hypot(dx[:, 0], dx[:, 1])
    if np.min(speed) <= 1e-12 * max(1.0, np.max(speed)):
        raise InvalidGeometry("degenerate parametrization: |x'(t)| vanishes at a node")
    tangent = dx / speed[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
    curvature = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed**3
    weights = speed * (2.0 * np.pi / nc)
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


def build_mesh(specs, nodes_per_component):
    """Assemble a BoundaryMesh from curve specs and per-component node counts.

    Node counts must be even and at least 16.  Curves must be pairwise
    disjoint and free of self-intersections (checked through node
    distances), and two curves may not come closer than the node spacing
    of either: such a gap is under-resolved, and the error suggests node
    counts that resolve it.  Normals are oriented outward for the open set: curves
    that contain no other curve are traversed counterclockwise, hole
    curves clockwise; the input orientation is flipped when needed.
    """
    specs = list(specs)
    counts = [int(m) for m in nodes_per_component]
    if len(specs) != len(counts):
        raise InvalidGeometry("one node count per curve is required")
    for m in counts:
        if m < 16 or m % 2:
            raise InvalidGeometry(f"node count {m} must be even and >= 16")

    parts = []
    for spec, nc in zip(specs, counts):
        sign = 1.0 if spec.orientation == "positive" else -1.0
        parts.append([spec, nc, sign, *_component_arrays(spec, nc, sign)])

    # containment depth from winding numbers of node samples
    ncomp = len(parts)
    contains = np.zeros((ncomp, ncomp), dtype=bool)
    for i in range(ncomp):
        for j in range(ncomp):
            if i == j:
                continue
            xj = parts[j][4]
            probe = xj[:: max(1, xj.shape[0] // 16)]  # spread samples of curve j
            wind = _winding_of_points(parts[i][4], probe)
            inside = np.abs(wind) > 0.5
            if inside.any() and not inside.all():
                raise InvalidGeometry("curves intersect: ambiguous containment")
            contains[i, j] = bool(inside.all())
    depth = contains.sum(axis=0)
    if np.any(depth > 1):
        raise InvalidGeometry("nesting deeper than one level of holes")

    # orientation fix: outer curves CCW (positive area), holes CW
    for k, part in enumerate(parts):
        spec, nc, sign = part[:3]
        dx = spec.evaluate(part[3], orientation_sign=sign)[1]
        area = _signed_area(part[4], dx, nc)
        want_ccw = depth[k] == 0
        if (area > 0) != want_ccw:
            sign = -sign
            part[2] = sign
            part[3:] = _component_arrays(spec, nc, sign)

    t, x, normal, curvature, speed, weights = (
        np.concatenate([p[i] for p in parts]) for i in range(3, 9)
    )
    comp = np.concatenate([np.full(p[1], k, dtype=int) for k, p in enumerate(parts)])
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
    """DomainTopology from the containment matrix and nesting depths."""
    ncomp = len(depth)
    outer = [c for c in range(ncomp) if depth[c] == 0]
    holes = [c for c in range(ncomp) if depth[c] == 1]
    omega_of_comp = {}
    for j, o in enumerate(outer, start=1):
        omega_of_comp[o] = j
        for h in holes:
            if contains[o, h]:
                omega_of_comp[h] = j
    omega_minus_of_comp = {o: 0 for o in outer}
    for k, h in enumerate(holes, start=1):
        omega_minus_of_comp[h] = k

    return DomainTopology(
        n=int(offsets[-1]),
        offsets=offsets,
        kappa_plus=len(outer),
        kappa_minus=len(holes),
        outer_comps=outer,
        hole_comps=holes,
        omega_of_comp=omega_of_comp,
        omega_minus_of_comp=omega_minus_of_comp,
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


def _block_scratch(blocks, n):
    """Four (rows, n) arrays, enough for any of the blocks; each block reuses them."""
    return np.empty((4, max((hi - lo for lo, hi in blocks), default=0), n))


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


def _r2_blocks(targets, nodes):
    """(lo, r2) of each block of rows of the squared distances from targets to nodes.

    The arrays of a block are overwritten by the next block.
    """
    blocks = _row_blocks(0, targets.shape[0], nodes.shape[0])
    scratch = _block_scratch(blocks, nodes.shape[0])
    for lo, hi in blocks:
        yield lo, _pair_geometry(targets[lo:hi], nodes, None, scratch[:, : hi - lo])[0]


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
        for lo, r2 in _r2_blocks(xc, xc):
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
            for lo, r2 in _r2_blocks(xc, mesh.x[sl2]):
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

    r2 = |x - y|^2 and nd = nu(y) . (x - y) have one row per point, and
    dist is each point's distance to the nearest node.  The band check,
    point location and both layer kernels read them.  The kernels are
    written into the two scratch arrays given, or into new arrays.
    """

    def __init__(self, mesh, r2, nd, scratch=(None, None)):
        self.mesh, self.r2, self.nd, self._scratch = mesh, r2, nd, scratch
        self.dist = np.sqrt(np.min(r2, axis=1))

    def rows(self, keep):
        return _Targets(self.mesh, self.r2[keep], self.nd[keep])

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

    def location_codes(self):
        """Each point's index into _location_table(mesh.topology).

        Off the band, the double layer of a curve's indicator is +-1 inside
        the curve and 0 outside.  A point inside a hole lies in the hole's
        exterior component, though the outer curve around it holds it too.
        """
        mesh = self.mesh
        near = self.dist < mesh.band_width()
        kernel = (self.rows(~near) if near.any() else self).double_kernel
        code = np.zeros(near.size, dtype=int)
        clear = code[~near]
        # holes come after outer curves, so that they win
        for k, c in enumerate(mesh.topology.outer_comps + mesh.topology.hole_comps, start=2):
            sl = mesh.component_slice(c)
            clear[np.abs(kernel[:, sl] @ mesh.weights[sl]) > 0.5] = k
        code[~near] = clear
        code[near] = 1
        return code

    def in_region(self, region):
        """Mask of the points in the region, 'interior' or 'exterior'."""
        return _location_kinds(self.mesh.topology)[self.location_codes()] == region


def _location_table(topology):
    """The Location of each code: exterior(0), near_boundary, then one per curve.

    Outer curves come first, then holes.
    """
    holes = topology.hole_comps
    return [Location("exterior", 0), Location("near_boundary", None)] + [
        Location("exterior", topology.omega_minus_of_comp[c]) if c in holes
        else Location("interior", topology.omega_of_comp[c])
        for c in topology.outer_comps + holes
    ]


def _location_kinds(topology):
    """The kind of each location code, as an array of strings."""
    return np.array([loc.kind for loc in _location_table(topology)])


class _TargetBlocks:
    """A point (2,) or points (m, 2), checked once, and their geometry pass by blocks.

    The points must be finite.  Iterating yields (rows, _Targets) for
    consecutive blocks of rows (see _row_blocks); the arrays of a block
    are overwritten by the next block.
    """

    def __init__(self, mesh, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
            raise LengthMismatch(f"points must have shape (2,) or (m, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidProbe("point coordinates must be finite")
        self.mesh, self.single, self.points = mesh, pts.ndim == 1, np.atleast_2d(pts)

    def __len__(self):
        return self.points.shape[0]

    def __iter__(self):
        mesh = self.mesh
        blocks = _row_blocks(0, len(self), mesh.n)
        scratch = _block_scratch(blocks, mesh.n)
        for lo, hi in blocks:
            out = scratch[:, : hi - lo]
            r2, nd = _pair_geometry(self.points[lo:hi], mesh.x, mesh.normal, out)
            yield slice(lo, hi), _Targets(mesh, r2, nd, out[2:])

    def locate(self):
        """Each point's distance to the nearest node and its location code."""
        dist = np.empty(len(self))
        code = np.empty(len(self), dtype=int)
        for rows, targets in self:
            dist[rows] = targets.dist
            code[rows] = targets.location_codes()
        return dist, code

    def in_region(self, region):
        """Each point's distance to the nearest node, and the mask of the points in the region."""
        dist, code = self.locate()
        return dist, _location_kinds(self.mesh.topology)[code] == region


def locate_point(mesh, p):
    """Classify a point: interior(j), exterior(k), or near_boundary."""
    return locate_points(mesh, [p])[0]


def locate_points(mesh, points):
    """Vectorized locate_point over an array of points, shape (m, 2)."""
    table = _location_table(mesh.topology)
    return [table[k] for k in _TargetBlocks(mesh, points).locate()[1].tolist()]


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
