"""Parametrized closed curves, periodic-trapezoid meshes, and domain topology.

A domain is a list of disjoint closed curves nested to any depth: outer
curves, inside an even number of others, bound components of the open set,
and holes, inside an odd number, bounded components of its exterior.
Meshes use uniform parameter nodes, so all quadrature is the periodic
trapezoid rule (spectrally accurate on analytic curves).  Normals point out
of the open set: outer curves are traversed counterclockwise and holes
clockwise, whichever way a curve is parametrized.

A BoundaryMesh owns everything derived from it: build_mesh works out which
curve contains which once, by polygon winding numbers, and stores the
resulting DomainTopology on the mesh, and operators.operator_set fills the
mesh's operator field on first use.  Neither the topology nor the
operators point back at the mesh, so a dropped mesh is freed by reference
counting alone.

Pairwise geometry between the nodes and a set of target points is
computed in one pass (_TargetBlocks), of the squared distances alone,
formed in two block arrays without keeping the offsets (_pair_geometry).
The near-boundary band check, point location and the single-layer kernel
read those; the offsets and their normal components are formed, from the
block's points, only when a double-layer kernel reads them.  Every
pairwise pass iterates one walker, _block_arrays: it takes the rows in
blocks of about _BLOCK_PAIRS pairs and reuses one set of block arrays, as
many as the pass writes, so no array over all pairs is ever allocated.
_pair_blocks, which reads r2 alone, and the evaluation pass hold two (a
double-layer kernel forms its offsets in arrays of each block's own); the
operator assembly, which reads the normal components on every block and
so forms the offsets first and r2 from them, holds four.  The
evaluation pass finds each point's nearest node over all the nodes, which
verify.probe_points ranks its candidates by.  One more reduction finds
nearest nodes (_nearer_nodes), for the node-separation check and for
location: a point off the band is located by its nearest node alone
(locate_points), one normal component per point telling its side, against
the nodes of the curves whose bounding boxes, dilated by the band width,
hold it; a point in no box lies in the unbounded component.
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
    ellipse is the fourier curve cos_x = (0, a), sin_y = (0, b).  A curve
    has no orientation of its own: build_mesh traverses it in the direction
    its nesting depth asks for, reversing the parametrization when needed.
    """

    kind: str
    center: tuple = (0.0, 0.0)
    radius: float | None = None
    axes: tuple | None = None
    cos_x: tuple = ()
    sin_x: tuple = ()
    cos_y: tuple = ()
    sin_y: tuple = ()

    def __post_init__(self):
        if self.kind not in ("circle", "ellipse", "fourier"):
            raise InvalidGeometry(f"unknown curve kind {self.kind!r}")
        if self.kind == "circle" and (self.radius is None or self.radius <= 0):
            raise InvalidGeometry("circle needs a positive radius")
        if self.kind == "ellipse":
            if self.axes is None or len(self.axes) != 2 or min(self.axes) <= 0:
                raise InvalidGeometry("ellipse needs two positive semi-axes")

    def evaluate(self, t, orientation_sign=1.0):
        """Positions, velocities and accelerations at parameters t.

        Returns (x, dx, ddx), each of shape (len(t), 2), of the curve
        traversed as parametrized (orientation_sign 1) or reversed (-1), at
        the point of parameter orientation_sign * t.  Derivatives are with
        respect to the traversal parameter t.
        """
        t = np.asarray(t, dtype=float)
        s = orientation_sign * t
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
        dx = dx * orientation_sign
        # ddx picks up orientation_sign**2 == 1
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


def _curve_nodes(spec, nc, sign=1.0):
    """t, x, dx, ddx and |x'| at the nc nodes of a curve, reversed when sign is -1."""
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


def _node_counts(specs, nodes_per_component):
    """The node counts of build_mesh as ints, checked as it checks them (InvalidGeometry)."""
    counts = list(nodes_per_component)
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
    return counts


def build_mesh(specs, nodes_per_component):
    """Assemble a BoundaryMesh from curve specs and per-component node counts.

    Node counts must be even integers (operator.index) of at least 16, and
    sum to at most _MAX_NODES.  No node coordinate or velocity component may
    exceed _MAX_COORD in magnitude.  Each curve must be simple: its turning
    number, the winding of its node velocities about the origin, an exact
    integer, must be +-1 (Hopf's Umlaufsatz), and it is checked before
    anything else reads the nodes.  Curves must be pairwise disjoint, and
    two curves may not come closer than the node spacing of either: such a
    gap is under-resolved, and the error suggests node counts that resolve
    it.  Curves may nest to any depth (see DomainTopology); normals point
    out of the open set, so curves at even depth are traversed
    counterclockwise (turning number +1) and those at odd depth clockwise
    (-1).  Each curve is evaluated once as parametrized, which the turning
    number and the containment test read, and once more, reversed, only
    when the sign of its turning number disagrees with its depth.
    """
    specs = list(specs)
    counts = _node_counts(specs, nodes_per_component)
    curves = [_curve_nodes(spec, nc) for spec, nc in zip(specs, counts)]
    # the node velocities form a closed polygon whose winding about the
    # origin is an integer up to n eps
    turning = [round(float(_winding_of_points(dx, (0.0, 0.0))[0])) for _, _, dx, _, _ in curves]
    for k, m in enumerate(turning):
        if abs(m) != 1:
            raise InvalidGeometry(f"curve {k} is not simple (turning number {m})")

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

    # direction fix: even depths counterclockwise, odd depths clockwise
    for k, (spec, nc) in enumerate(zip(specs, counts)):
        if (turning[k] > 0) != (depth[k] % 2 == 0):
            curves[k] = _curve_nodes(spec, nc, -1.0)

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


def _block_arrays(start, stop, n, count):
    """(lo, hi, arrays) of each block of the rows start..stop against n columns.

    arrays is count (hi - lo, n) float arrays, as many as the pass writes.
    The blocks are _row_blocks, and all of them share one set of arrays,
    so a block's arrays are overwritten by the next block.
    """
    blocks = _row_blocks(start, stop, n)
    arrays = np.empty((count, max((hi - lo for lo, hi in blocks), default=0), n))
    for lo, hi in blocks:
        yield lo, hi, arrays[:, : hi - lo]


def _coordinate_offsets(targets, nodes, k, out):
    """x_k - y_k of targets x against nodes y, the offsets' coordinate k, written into out.

    The nodes' coordinates are copied into every row and subtracted from
    in place, each point's coordinate a scalar for its row.  The bits are
    those of one broadcast subtraction of the row from the column into
    out, which takes about 1.4 times as long (numpy 2.4, x86-64 with
    AVX-512, 80 x 768 and 32 x 2048 blocks).
    """
    np.copyto(out, np.ascontiguousarray(nodes[:, k]))
    return np.subtract(targets[:, k, None], out, out=out)


def _pair_geometry(targets, nodes, out):
    """r2 = |x - y|^2 written into out[0], with out[1] as scratch.

    r2 = d_y d_y + d_x d_x, the sum of the squared offsets of the second and
    the first coordinates, in elementwise passes over these two arrays
    alone; the offsets are not kept.  out[1] is free after.
    """
    r2, sq = out[0], out[1]
    _coordinate_offsets(targets, nodes, 0, sq)
    sq *= sq
    _coordinate_offsets(targets, nodes, 1, r2)
    r2 *= r2
    r2 += sq
    return r2


def _offsets(targets, nodes, dx, dy):
    """The offsets d = x - y of targets x against nodes y, written into dx and dy."""
    return _coordinate_offsets(targets, nodes, 0, dx), _coordinate_offsets(targets, nodes, 1, dy)


def _normal_offsets(dx, dy, normals):
    """nd = nu(y) . (x - y) = d_y nu_y + d_x nu_x, written over d_x; d_y is scratch after."""
    dy *= normals[:, 1]
    dx *= normals[:, 0]
    dx += dy
    return dx


def _pair_blocks(targets, nodes, start, stop):
    """(lo, hi, r2) of each block of the rows start..stop of targets.

    r2 is _pair_geometry of targets[lo:hi] against nodes, formed in a set of
    two block arrays (_block_arrays): all that a pass reading r2 alone writes.
    """
    for lo, hi, out in _block_arrays(start, stop, nodes.shape[0], 2):
        yield lo, hi, _pair_geometry(targets[lo:hi], nodes, out)


def _check_node_separation(mesh):
    """Refuse nodes too close for the mesh: of one curve, or of two.

    Nodes of one curve that are several steps apart along it cannot nearly
    coincide; when they do, the curve self-intersects or bends back
    through a hairpin narrower than its node spacing, and the message names
    both causes.  Two curves must not come within 1e-9 of the coordinate
    scale (not disjoint), nor closer than their node spacing there
    (under-resolved, _check_gap_resolved).  Each pairwise pass is a
    function of its own, so that one pass's block arrays are freed before
    the next pass allocates its own.
    """
    scale = max(1.0, float(np.max(np.abs(mesh.x))))
    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        if _distant_nodes_coincide(mesh.x[sl], mesh.weights[sl]):
            raise InvalidGeometry(f"curve {c} self-intersects or is under-resolved "
                                  f"(distant nodes nearly coincide)")
        for c2 in range(c + 1, mesh.n_components):
            sl2 = mesh.component_slice(c2)
            gap, i, j = _closest_pair(mesh.x[sl], mesh.x[sl2])
            if gap <= 1e-9 * scale:
                raise InvalidGeometry(f"curves {c} and {c2} are not disjoint")
            _check_gap_resolved(mesh, (c, c2), gap, (mesh.weights[sl][i], mesh.weights[sl2][j]))


def _distant_nodes_coincide(xc, wc):
    """Whether two nodes of a curve, four or more steps apart along it, nearly coincide."""
    nc = xc.shape[0]
    # only pairs closer than half the largest spacing can fail the test
    # d < 0.25 (w_i + w_j) / 2, so they are screened first
    screen = (0.5 * float(np.max(wc))) ** 2
    for lo, _, r2 in _pair_blocks(xc, xc, 0, nc):
        i, j = np.nonzero(r2 < screen)
        ring = np.abs(i + lo - j)
        ring = np.minimum(ring, nc - ring)
        close = np.sqrt(r2[i, j]) < 0.25 * (0.5 * (wc[i + lo] + wc[j]))
        if np.any((ring >= 4) & close):
            return True
    return False


def _closest_pair(xa, xb):
    """The distance between two node sets and the indices of their first
    closest pair in row order: the least of the rows' minima (_nearer_nodes)."""
    best, nearest = np.full(xa.shape[0], np.inf), np.zeros(xa.shape[0], dtype=int)
    _nearer_nodes(xa, np.arange(xa.shape[0]), xb, 0, best, nearest)
    i = int(np.argmin(best))
    return math.sqrt(best[i]), i, int(nearest[i])


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


def _pairings(mesh, f, g):
    """pairing of two grid functions, or of each column of two (n, k) blocks, as (k,)."""
    if f.ndim == 1:
        return pairing(mesh, f, g)
    return np.einsum("i,ij,ij->j", mesh.weights, f, g)


class _Targets:
    """One block of a geometry pass: target points x against the n nodes y of a mesh.

    r2 = |x - y|^2 has one row per point; nearest is each point's nearest
    node and dist its distance to it, both found when first read, so a pass
    that neither checks nor locates its points skips them.  nd = nu(y) .
    (x - y) is built only when first read, which only the double-layer
    kernel does, from offsets formed then from the block's points: a
    single-layer field, the band check and point location read r2 alone.
    A point off the band is located by its nearest node alone: it lies
    outside the open set exactly when it is outward, on the side the node's
    normal points to, which takes one normal component per point.  scratch
    is the block's other array, the one r2 was formed with (see
    _TargetBlocks), and the single-layer kernel is written into it.  nd forms
    the offsets d_x and d_y in two arrays of the block's own and is written
    over d_x, and the double-layer kernel takes one more once d_y is freed.
    A pass that reads no double-layer kernel allocates none of them.
    """

    def __init__(self, mesh, points, r2, scratch):
        self.mesh, self.points, self.r2, self._scratch = mesh, points, r2, scratch

    @cached_property
    def nearest(self):
        return np.argmin(self.r2, axis=1)

    @cached_property
    def dist(self):
        return np.sqrt(self.r2[np.arange(self.r2.shape[0]), self.nearest])

    @cached_property
    def nd(self):
        dx, dy = np.empty_like(self.r2), np.empty_like(self.r2)
        return _normal_offsets(*_offsets(self.points, self.mesh.x, dx, dy), self.mesh.normal)

    @cached_property
    def single_kernel(self):
        """log|x - y| / (2 pi), spelled log(|x - y|^2) / (4 pi) to save a square root"""
        k = np.log(self.r2, out=self._scratch)
        k *= 0.25 / np.pi
        return k

    @cached_property
    def double_kernel(self):
        """-nu(y) . (x - y) / (2 pi |x - y|^2), spelled nd / (-2 pi r2): rounding
        is odd, so the sign moves into the denominator at no cost in bits"""
        nd = self.nd
        k = np.multiply(-2.0 * np.pi, self.r2)
        return np.divide(nd, k, out=k)

    @property
    def outward(self):
        """Whether each point lies on the side its nearest node's normal points to."""
        return _outward(self.mesh, self.points, self.nearest)


def _outward(mesh, points, nodes):
    """Whether each point lies on the side the normal of its node in nodes points to."""
    d = points - mesh.x[nodes]
    nu = mesh.normal[nodes]
    return d[:, 1] * nu[:, 1] + d[:, 0] * nu[:, 0] > 0


def _in_region(mesh, dist, outward, region):
    """Mask of the points off the band whose nearest node's normal puts them in the region.

    region None, a field on both sides, takes every point off the band.
    """
    off = dist >= mesh.band_width()
    return off if region is None else off & (outward == (region == "exterior"))


# The largest distance r for which 2 pi r^2, the double-layer kernel's
# denominator, is a finite float
_MAX_DISTANCE = math.sqrt(np.finfo(float).max / (2.0 * math.pi))


class _TargetBlocks:
    """A point (2,) or points (m, 2), checked once, and their geometry pass by blocks.

    The points must be finite, and near enough to the nodes that their
    squared distances cannot overflow (InvalidProbe otherwise).  Iterating,
    the evaluation pass, yields (rows, _Targets) for consecutive blocks of
    rows, each in two block arrays (_block_arrays; see _Targets), which the
    next block overwrites.
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
        for lo, hi, out in _block_arrays(0, len(self), mesh.n, 2):
            pts = self.points[lo:hi]
            yield slice(lo, hi), _Targets(mesh, pts, _pair_geometry(pts, mesh.x, out), out[1])

    def locate(self):
        """Each point's distance to its nearest node, whether it lies on the
        side that node's normal points to, and the component on that side of
        the node's curve, found against the curves whose boxes hold the point.

        A curve's box is its nodes' bounding box dilated by the band width,
        so a point outside it is farther than the band from every node of
        the curve.  Only the pairs of a curve's nodes and the points in its
        box are walked (by _nearer_nodes), and a point takes the nearest node
        of the curves whose boxes hold it.  Below the band that is its
        nearest node, so the distance is exact there; off the band it is the
        nearest node of a curve near enough to tell the point's side of it.
        A point in no box is in the unbounded component 0, outward at an
        infinite distance.
        """
        mesh, points = self.mesh, self.points
        # a node whose rounded distance to a point lies below the band puts
        # the point in the box: the test subtracts the same coordinates, and
        # the margin covers the rounding of the squares and the square root
        reach = 1.000001 * mesh.band_width()
        best, nearest = np.full(len(self), np.inf), np.zeros(len(self), dtype=int)
        for c in range(mesh.n_components):
            sl = mesh.component_slice(c)
            nodes = mesh.x[sl]
            held = np.flatnonzero(np.all((points - nodes.min(axis=0) >= -reach)
                                         & (points - nodes.max(axis=0) <= reach), axis=1))
            _nearer_nodes(points, held, nodes, sl.start, best, nearest)
        topo, reached = mesh.topology, np.flatnonzero(np.isfinite(best))
        sides = np.array([[topo.omega_of_comp[c], topo.omega_minus_of_comp[c]]
                          for c in range(mesh.n_components)])
        outward, component = np.ones(len(self), dtype=bool), np.zeros(len(self), dtype=int)
        outward[reached] = _outward(mesh, points[reached], nearest[reached])
        component[reached] = sides[mesh.comp[nearest[reached]], outward[reached].astype(int)]
        return np.sqrt(best), outward, component


def _nearer_nodes(points, held, nodes, first, best, nearest):
    """Update best, each point's least squared distance to a node so far, and
    nearest, that node, from the pairs of points[held] and nodes, whose
    indices start at first.

    The nearest-node reduction of location, run once per curve box, and of
    _closest_pair, over all the pairs of two curves.  Its two
    block arrays are freed when it returns.  A node replaces the one kept
    only when strictly nearer: a tie keeps the node found first, as one
    argmin over all the nodes would.
    """
    for lo, hi, r2 in _pair_blocks(points[held], nodes, 0, held.size):
        k = np.argmin(r2, axis=1)
        d2 = r2[np.arange(hi - lo), k]
        rows = held[lo:hi]
        closer = d2 < best[rows]
        best[rows[closer]], nearest[rows[closer]] = d2[closer], k[closer] + first


def locate_points(mesh, points):
    """Classify points, shape (m, 2): interior(j), exterior(k), or near_boundary.

    Off the band, a point on the side its nearest node's normal points to
    lies in the exterior component the node's curve bounds, and otherwise
    in the component of the open set.  The points are located against the
    curves whose boxes hold them (_TargetBlocks.locate), which takes about
    a third of the point-node pairs on a field CSV's grid.
    """
    dist, outward, component = _TargetBlocks(mesh, points).locate()
    band = mesh.band_width()
    return [Location("near_boundary", None) if d < band
            else Location("exterior" if out else "interior", j)
            for d, out, j in zip(dist.tolist(), outward.tolist(), component.tolist())]


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
            CurveSpec("circle", radius=1.0),
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
