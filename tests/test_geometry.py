import re
import tracemalloc

import numpy as np
import pytest
from conftest import (NESTED_SPECS, gauss_law_locations, named_mesh, nearest_node_locations,
                      rows_per_block, winding_locations)

from bie2d import geometry
from bie2d.cli import default_grid
from bie2d.errors import InvalidGeometry, LengthMismatch, OutOfRange
from bie2d.geometry import (
    _BLOCK_PAIRS,
    CurveSpec,
    _TargetBlocks,
    _check_node_separation,
    _closest_pair,
    _in_region,
    _normal_offsets,
    _offsets,
    _pair_blocks,
    _row_blocks,
    build_mesh,
    indicator,
    integrate,
    locate_points,
    pairing,
    stock_mesh,
    stock_specs,
)
from bie2d.verify import probe_points


def test_circle_circumference():
    mesh = stock_mesh("disk", 64)
    assert abs(integrate(mesh, np.ones(mesh.n)) - 2 * np.pi) < 1e-12


def test_ellipse_arclength_against_refined_mesh():
    # oracle: the same quadrature on a much finer mesh
    coarse = stock_mesh("ellipse", 128)
    fine = stock_mesh("ellipse", 4096)
    len_c = integrate(coarse, np.ones(coarse.n))
    len_f = integrate(fine, np.ones(fine.n))
    assert abs(len_c - len_f) / len_f < 1e-10


def test_annulus_hole_normal_points_into_hole():
    mesh = stock_mesh("annulus", 64)
    topo = mesh.topology
    assert mesh.n_components == 2
    (hole,) = topo.hole_comps
    sl = mesh.component_slice(hole)
    # normal at a node of the unit circle must point toward the origin
    x = mesh.x[sl][0]
    nu = mesh.normal[sl][0]
    assert np.dot(nu, -x / np.linalg.norm(x)) > 0.99


def test_orientation_autofix(monkeypatch):
    # a hole parametrized counterclockwise still ends up with inward normal;
    # it is evaluated once as parametrized, and once more only to reverse it
    specs = [CurveSpec("circle", radius=2.0), CurveSpec("circle", radius=1.0)]
    calls, evaluate = [], CurveSpec.evaluate
    monkeypatch.setattr(CurveSpec, "evaluate",
                        lambda spec, *args, **kw: calls.append(spec) or evaluate(spec, *args, **kw))
    mesh = build_mesh(specs, [64, 64])
    assert calls == specs + specs[1:]
    topo = mesh.topology
    sl = mesh.component_slice(topo.hole_comps[0])
    x, nu = mesh.x[sl][0], mesh.normal[sl][0]
    assert np.dot(nu, -x) > 0


def test_signed_area_orientation_invariant():
    for name in ("annulus", *NESTED_SPECS):
        mesh = named_mesh(name, 64)
        topo = mesh.topology
        for c in range(mesh.n_components):
            sl = mesh.component_slice(c)
            area2 = 0.5 * np.sum(
                mesh.weights[sl] * np.einsum("ij,ij->i", mesh.x[sl], mesh.normal[sl])
            )
            if c in topo.outer_comps:
                assert area2 > 0
            else:
                assert area2 < 0


def test_topology_counts():
    assert stock_mesh("disk", 32).topology.kappa_plus == 1
    assert stock_mesh("disk", 32).topology.kappa_minus == 0
    topo = stock_mesh("annulus", 32).topology
    assert (topo.kappa_plus, topo.kappa_minus) == (1, 1)
    topo = stock_mesh("two-disks", 32).topology
    assert (topo.kappa_plus, topo.kappa_minus) == (2, 0)
    # outer curves at even depth, holes at odd depth; each curve bounds a
    # component of its own and touches its parent's on its other side
    expected = {
        "nested-2": ([0, 2], [1], {0: 1, 1: 1, 2: 2}, {0: 0, 1: 1, 2: 1}),
        "nested-3": ([0, 2], [1, 3], {0: 1, 1: 1, 2: 2, 3: 2}, {0: 0, 1: 1, 2: 1, 3: 2}),
        "islands": ([0, 3, 4], [1, 2], {0: 1, 1: 1, 2: 1, 3: 2, 4: 3},
                    {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}),
    }
    for name, (outer, holes, omega, omega_minus) in expected.items():
        topo = named_mesh(name, 32).topology
        assert (topo.kappa_plus, topo.kappa_minus) == (len(outer), len(holes))
        assert (topo.outer_comps, topo.hole_comps) == (outer, holes)
        assert (topo.omega_of_comp, topo.omega_minus_of_comp) == (omega, omega_minus)


def test_deep_nesting_accepted():
    # an island inside the hole of a ring: the disk r < 1 is a second
    # component of the open set, whichever way each curve is parametrized
    specs = [
        CurveSpec("circle", radius=3.0),
        CurveSpec("fourier", cos_x=(0.0, 2.0), sin_y=(0.0, -2.0)),
        CurveSpec("circle", radius=1.0),
    ]
    mesh = build_mesh(specs, [64, 64, 64])
    topo = mesh.topology
    assert (topo.kappa_plus, topo.kappa_minus) == (2, 1)
    # normals point out of the open set: out of the ring and the disk, into the hole
    radial = np.einsum("ij,ij->i", mesh.normal, mesh.x) / np.linalg.norm(mesh.x, axis=1)
    assert np.allclose(radial, np.repeat([1.0, -1.0, 1.0], 64))


@pytest.mark.parametrize("specs", [
    [CurveSpec("circle", radius=1.0), CurveSpec("circle", radius=1.0)],
    [CurveSpec("circle", radius=2.0), CurveSpec("circle", center=(1.0, 0.0), radius=1.0)],
], ids=["coincident", "touching"])
def test_curves_sharing_a_node_are_not_disjoint(specs):
    # a probe on a node has no winding number; it is refused before the
    # containment test divides by its zero offset
    with pytest.raises(InvalidGeometry, match=r"^curves 0 and 1 are not disjoint$"):
        build_mesh(specs, [32, 32])


def test_self_intersecting_curve_rejected():
    # limacon with an inner loop
    spec = CurveSpec("fourier", cos_x=(1.0, 1.0, 1.0), sin_y=(0.0, 1.0, 1.0))
    with pytest.raises(InvalidGeometry):
        build_mesh([spec], [64])


# x = cos t + 0.3 cos 10t, y = sin t: a simple curve whose hairpins need
# thousands of nodes
_WIGGLY = CurveSpec("fourier", cos_x=(0.0, 1.0) + (0.0,) * 8 + (0.3,), sin_y=(0.0, 1.0))


@pytest.mark.parametrize("spec, turning", [
    (CurveSpec("fourier", sin_x=(0.0, 0.0, 1.0), sin_y=(0.0, 1.0)), 0),  # figure-eight
    (CurveSpec("fourier", cos_x=(0.5, 0.5, 0.5), sin_y=(0.0, 0.5, 0.5)), 2),  # looped limacon
], ids=["figure-eight", "limacon"])
@pytest.mark.parametrize("n", [16, 64, 256, 2048])
def test_turning_number_refuses_a_curve_that_is_not_simple(spec, turning, n):
    # the winding of the node velocities is an exact integer at every count
    with pytest.raises(InvalidGeometry,
                       match=rf"^curve 0 is not simple \(turning number {turning}\)$"):
        build_mesh([spec], [n])


@pytest.mark.parametrize("n", [64, 96, 128, 256, 512, 1024, 2048, 4096])
def test_under_resolved_simple_curve_is_never_called_not_simple(n):
    # the wiggly curve's node velocities wind once at every count; where its
    # nodes under-resolve it a later screen says so
    try:
        build_mesh([_WIGGLY], [n])
    except InvalidGeometry as exc:
        assert "not simple" not in str(exc) and "under-resolved" in str(exc)


@pytest.mark.parametrize("spec, n", [
    (_WIGGLY, 256),
    # a dumbbell whose waist is 2e-6 wide
    (CurveSpec("fourier", cos_x=(0.0, 1.0), sin_y=(0.0, 0.25 + 1e-6, 0.0, 0.25)), 64),
], ids=["wiggly", "pinched-dumbbell"])
def test_distant_nodes_name_self_intersection_and_under_resolution(spec, n):
    # the wiggly curve's hairpins are narrower than its node spacing
    with pytest.raises(InvalidGeometry, match=r"^curve 0 self-intersects or is under-resolved "
                                              r"\(distant nodes nearly coincide\)$"):
        build_mesh([spec], [n])


def test_curves_a_hair_apart_are_not_disjoint():
    # two unit circles 1e-12 apart share no node, and the gap is far below
    # 1e-9 of the coordinate scale
    specs = [CurveSpec("circle", center=(-1.0, 0.0), radius=1.0),
             CurveSpec("circle", center=(1.0 + 1e-12, 0.0), radius=1.0)]
    with pytest.raises(InvalidGeometry, match=r"^curves 0 and 1 are not disjoint$"):
        build_mesh(specs, [64, 64])


def test_node_count_validation():
    spec = CurveSpec("circle", radius=1.0)
    with pytest.raises(InvalidGeometry):
        build_mesh([spec], [15])
    with pytest.raises(InvalidGeometry):
        build_mesh([spec], [34 + 1])
    # a count is an integer, a NumPy one too, and is never truncated
    for bad, shown in ((16.9, "16.9"), ("32", "'32'"), (np.float64(32.0), "32.0")):
        with pytest.raises(InvalidGeometry, match=rf"^node count .*{re.escape(shown)}.* is not "
                                                  r"an integer$"):
            build_mesh([spec], [bad])
    assert build_mesh([spec], [np.int64(32)]).n_per_comp == [32]


def test_indicator_examples():
    disk = stock_mesh("disk", 32)
    topo = disk.topology
    assert np.all(indicator(topo, "omega", 1) == 1.0)
    ann = stock_mesh("annulus", 32)
    topo = ann.topology
    inner = indicator(topo, "omega_minus", 1)
    outer = indicator(topo, "omega_minus", 0)
    hole_sl = ann.component_slice(topo.hole_comps[0])
    assert np.all(inner[hole_sl] == 1.0) and inner.sum() == 32
    assert np.all(outer[ann.component_slice(topo.outer_comps[0])] == 1.0)
    assert outer.sum() == 32
    with pytest.raises(OutOfRange):
        indicator(topo, "omega", 5)


@pytest.mark.parametrize("build, reason", [
    (lambda: CurveSpec("square"), "unknown curve kind 'square'"),
    (lambda: CurveSpec("circle"), "circle needs a positive radius"),
    (lambda: CurveSpec("circle", radius=-1.0), "circle needs a positive radius"),
    (lambda: CurveSpec("ellipse", axes=(2.0,)), "ellipse needs two positive semi-axes"),
    (lambda: CurveSpec("ellipse", axes=(2.0, 0.0)), "ellipse needs two positive semi-axes"),
    (lambda: build_mesh([CurveSpec("fourier")], [32]),
     "degenerate parametrization: |x'(t)| vanishes at a node"),
    (lambda: build_mesh([CurveSpec("circle", radius=1.0)], [32, 32]),
     "one node count per curve is required"),
], ids=["kind", "no-radius", "negative-radius", "one-axis", "zero-axis", "all-zero-fourier",
        "two-counts-one-curve"])
def test_curve_and_mesh_refusals_name_their_reason(build, reason):
    with pytest.raises(InvalidGeometry) as err:
        build()
    assert str(err.value) == reason


@pytest.mark.parametrize("call, reason", [
    (lambda topo: indicator(topo, "omega_minus", 2), "omega_minus index 2 not in 0..1"),
    (lambda topo: indicator(topo, "omega_minus", -1), "omega_minus index -1 not in 0..1"),
    (lambda topo: indicator(topo, "outside", 0), "unknown region 'outside'"),
    (lambda topo: stock_mesh("square", 32), "unknown stock geometry 'square'"),
], ids=["past-the-holes", "negative", "region", "stock"])
def test_indicator_and_stock_refusals_name_their_reason(call, reason):
    with pytest.raises(OutOfRange) as err:
        call(stock_mesh("annulus", 32).topology)
    assert str(err.value) == reason


def test_indicator_partitions():
    for name in ("annulus", "two-disks", *NESTED_SPECS):
        mesh = named_mesh(name, 32)
        topo = mesh.topology
        total = sum(
            indicator(topo, "omega", j) for j in range(1, topo.kappa_plus + 1)
        )
        assert np.all(total == 1.0)
        total = sum(
            indicator(topo, "omega_minus", k) for k in range(topo.kappa_minus + 1)
        )
        assert np.all(total == 1.0)


def test_integrate_examples():
    mesh = stock_mesh("disk", 64)
    th = mesh.t
    assert abs(integrate(mesh, np.ones(mesh.n)) - 2 * np.pi) < 1e-12
    assert abs(integrate(mesh, np.cos(th))) < 1e-12
    assert abs(integrate(mesh, np.cos(th) ** 2) - np.pi) < 1e-10
    assert abs(pairing(mesh, np.cos(th), np.cos(th)) - np.pi) < 1e-10
    with pytest.raises(LengthMismatch):
        integrate(mesh, np.ones(mesh.n + 1))


def test_locate_point_examples():
    disk = stock_mesh("disk", 64)
    assert locate_points(disk, [(0.0, 0.0)])[0] == ("interior", 1)
    assert locate_points(disk, [(3.0, 0.0)])[0] == ("exterior", 0)
    assert locate_points(disk, [(1.0, 0.0)])[0].kind == "near_boundary"
    ann = stock_mesh("annulus", 64)
    assert locate_points(ann, [(1.5, 0.0)])[0] == ("interior", 1)
    assert locate_points(ann, [(0.5, 0.0)])[0] == ("exterior", 1)
    assert locate_points(ann, [(2.5, 0.0)])[0] == ("exterior", 0)
    # the disk r < 1 inside the hole of the ring 2 < r < 3
    nested = named_mesh("nested-2", 128)
    assert locate_points(nested, [(0.0, 0.0)])[0] == ("interior", 2)
    assert locate_points(nested, [(0.0, 1.5)])[0] == ("exterior", 1)
    assert locate_points(nested, [(-2.5, 0.0)])[0] == ("interior", 1)
    assert locate_points(nested, [(4.0, 0.0)])[0] == ("exterior", 0)
    for mesh, points in ((disk, [(0.0, 0.0), (3.0, 0.0), (1.0, 0.0)]),
                         (ann, [(1.5, 0.0), (0.5, 0.0), (2.5, 0.0)]),
                         (nested, [(0.0, 0.0), (0.0, 1.5), (-2.5, 0.0), (4.0, 0.0)])):
        points = np.array(points)
        assert locate_points(mesh, points) == gauss_law_locations(mesh, points)
        assert locate_points(mesh, points) == winding_locations(mesh, points)


_STOCK = ["disk", "disk2", "ellipse", "annulus", "kite", "two-disks"]


# the nested domains need 32 nodes per curve to resolve their gaps
@pytest.mark.parametrize("name, n", [(name, n) for name in _STOCK for n in (16, 32, 64, 256)]
                         + [(name, n) for name in NESTED_SPECS for n in (32, 64, 128)])
def test_gauss_law_location_matches_winding_numbers(name, n):
    mesh = named_mesh(name, n)
    rng = np.random.default_rng([n, len(name)])
    lo, hi = mesh.x.min(axis=0) - 1.0, mesh.x.max(axis=0) + 1.0
    # just outside the band along both normals, where the quadrature is least accurate
    edge = 1.0001 * mesh.band_width() * mesh.normal
    points = np.concatenate([rng.uniform(lo, hi, size=(20000, 2)),
                             mesh.x + edge, mesh.x - edge])
    for chunk in np.array_split(points, 10):
        located = locate_points(mesh, chunk)
        assert located == gauss_law_locations(mesh, chunk)
        assert located == winding_locations(mesh, chunk)
        assert located == nearest_node_locations(mesh, chunk)[0]


@pytest.mark.parametrize("name", [*_STOCK, *NESTED_SPECS])
def test_location_in_ragged_blocks_matches_winding_numbers(monkeypatch, name):
    mesh = named_mesh(name, 64)
    rows_per_block(monkeypatch, 7)
    rng = np.random.default_rng(len(name))
    lo, hi = mesh.x.min(axis=0) - 1.0, mesh.x.max(axis=0) + 1.0
    edge = 1.0001 * mesh.band_width() * mesh.normal
    # 148 random points, two more where the rows would leave no ragged block of 2 or more
    count = 148 + 2 * ((148 + 2 * mesh.n) % 7 < 2)
    points = np.concatenate([rng.uniform(lo, hi, size=(count, 2)), mesh.x + edge, mesh.x - edge])
    assert len(points) % 7 > 1
    located = locate_points(mesh, points)
    assert located == gauss_law_locations(mesh, points)
    assert located == winding_locations(mesh, points)
    assert located == nearest_node_locations(mesh, points)[0]


def _location_probes(mesh, seed):
    """3000 random points around the mesh, its default grid, and points at
    0.99, 1.00 and 1.01 band widths from every node along both normals."""
    rng = np.random.default_rng(seed)
    lo, hi = mesh.x.min(axis=0) - 1.0, mesh.x.max(axis=0) + 1.0
    edges = [mesh.x + s * f * mesh.band_width() * mesh.normal
             for f in (0.99, 1.0, 1.01) for s in (1, -1)]
    return np.concatenate([rng.uniform(lo, hi, size=(3000, 2)), default_grid(mesh), *edges])


def _pruned_pass(mesh, points):
    """locate_points and the interior, exterior and no-region masks a field CSV takes."""
    dist, outward, _ = _TargetBlocks(mesh, points).locate()
    return locate_points(mesh, points), {
        region: _in_region(mesh, dist, outward, region) for region in ("interior", "exterior", None)}


# the stock meshes, each at a node count of its own, and four nested circles
_PRUNED_MESHES = [("disk", 1024), ("disk2", 256), ("ellipse", 256), ("annulus", 384),
                  ("kite", 128), ("two-disks", 96), ("nested-3", 256)]


@pytest.mark.parametrize("name, n", _PRUNED_MESHES)
def test_pruned_location_matches_the_full_pass(name, n):
    mesh = named_mesh(name, n)
    points = _location_probes(mesh, [n, len(name)])
    locations, masks = _pruned_pass(mesh, points)
    expected, expected_masks = nearest_node_locations(mesh, points)
    assert locations == expected
    for region, mask in masks.items():
        assert np.array_equal(mask, expected_masks[region]), region
    # the probes take in all three kinds of point
    assert {kind for kind, _ in locations} == {"interior", "exterior", "near_boundary"}


@pytest.mark.parametrize("name", ["annulus", "two-disks", "nested-3"])
def test_pruned_location_in_ragged_blocks_matches_the_full_pass(monkeypatch, name):
    mesh = named_mesh(name, 64)
    rows_per_block(monkeypatch, 7)
    points = _location_probes(mesh, len(name))[::5]
    locations, masks = _pruned_pass(mesh, points)
    expected, expected_masks = nearest_node_locations(mesh, points)
    assert locations == expected
    for region, mask in masks.items():
        assert np.array_equal(mask, expected_masks[region]), region


def test_pruned_location_of_no_points_and_of_one_point():
    mesh = stock_mesh("annulus", 64)
    locations, masks = _pruned_pass(mesh, np.empty((0, 2)))
    assert locations == [] and all(mask.shape == (0,) for mask in masks.values())
    for point in ([1.5, 0.0], [0.0, 0.5], [3.0, 3.0], [1.0, 0.0], [9.0, 0.0]):
        assert locate_points(mesh, point) == nearest_node_locations(mesh, np.array([point]))[0]


def test_location_walks_only_the_pairs_in_each_curves_box(monkeypatch):
    # on the default grid of the 768-node annulus the outer curve's box holds
    # about 56 % of the points and the hole's 15 %: 0.353 of all pairs
    mesh = stock_mesh("annulus", 384)
    grid = default_grid(mesh)
    pairs = []
    pair_geometry = geometry._pair_geometry

    def counting(targets, nodes, out):
        pairs.append(targets.shape[0] * nodes.shape[0])
        return pair_geometry(targets, nodes, out)

    monkeypatch.setattr(geometry, "_pair_geometry", counting)
    locations = locate_points(mesh, grid)
    assert 0 < sum(pairs) <= 0.4 * len(grid) * mesh.n
    assert locations == nearest_node_locations(mesh, grid)[0]


def test_location_allocates_no_array_over_all_pairs():
    # the 4000 points all lie in the outer curve's box, and one (m, n) array
    # of them and the curve's 256 nodes is 7.8 MiB (15.6 MiB over all nodes)
    mesh = stock_mesh("annulus", 256)
    rng = np.random.default_rng(7)
    radius, theta = rng.uniform(1.2, 1.8, 4000), rng.uniform(0.0, 2.0 * np.pi, 4000)
    points = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tracemalloc.start()
    try:
        locate_points(mesh, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_row_blocks_start_on_multiples_of_8_and_leave_no_lone_row():
    # 2^16 pairs are 85 rows of 768 nodes, rounded down to 80
    assert _row_blocks(0, 200, 768) == [(0, 80), (80, 160), (160, 200)]
    assert _row_blocks(0, 161, 768) == [(0, 80), (80, 161)]
    assert _row_blocks(0, 1, 768) == [(0, 1)]
    assert _row_blocks(0, 0, 768) == []
    # a block holds 8 rows at least, even past 2^16 pairs; curves start anywhere
    assert _row_blocks(64, 89, 9362) == [(64, 72), (72, 80), (80, 89)]


def test_node_separation_check_holds_one_set_of_block_arrays():
    # 1024 nodes per curve: each pass reads r2 alone, so its block set is two
    # 2^16-pair arrays, 1 MiB, and the next pass's set is allocated only once
    # it is freed
    mesh = stock_mesh("annulus", 1024)
    peak = _traced_peak(lambda: _check_node_separation(mesh))
    assert peak <= 2 * 8 * _BLOCK_PAIRS + 128 * mesh.n


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probing_and_location_hold_two_block_arrays():
    # 1024 nodes per curve: the walks read r2 alone, in two 2^16-pair arrays
    # (1 MiB), the evaluation pass that probing takes too; the two more of a
    # double-layer kernel's offsets would take 2 MiB
    mesh = stock_mesh("annulus", 1024)
    grid = default_grid(mesh)
    for call in (lambda: probe_points(mesh, "interior"), lambda: probe_points(mesh, "exterior"),
                 lambda: locate_points(mesh, grid)):
        assert _traced_peak(call) <= 1.25 * 2**20


@pytest.mark.parametrize("name", ["annulus", "kite", "nested-3"])
def test_nearest_nodes_match_a_direct_computation_bit_for_bit(monkeypatch, name):
    mesh = named_mesh(name, 64)
    rows_per_block(monkeypatch, 7)
    points = _location_probes(mesh, len(name))[::3]
    # the evaluation pass's nearest nodes over all the nodes, which
    # probe_points ranks its candidates by
    dist, outward = np.empty(len(points)), np.empty(len(points), dtype=bool)
    for rows, targets in _TargetBlocks(mesh, points):
        dist[rows], outward[rows] = targets.dist, targets.outward
    d = points[:, None, :] - mesh.x[None, :, :]
    r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    rows, nearest = np.arange(len(points)), np.argmin(r2, axis=1)
    d, nu = d[rows, nearest], mesh.normal[nearest]
    assert np.array_equal(dist, np.sqrt(r2[rows, nearest]))
    assert np.array_equal(outward, d[:, 1] * nu[:, 1] + d[:, 0] * nu[:, 0] > 0)


def test_closest_pair_is_the_first_in_row_order_among_tied_pairs(monkeypatch):
    # integer nodes: squared distances are exact, and several pairs tie for
    # the least, within a row and across rows and blocks of 7 rows
    rows_per_block(monkeypatch, 7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        xa = rng.integers(0, 6, size=(40, 2)).astype(float)
        xb = rng.integers(0, 6, size=(30, 2)) + [0.0, 7.0]
        d = xa[:, None, :] - xb[None, :, :]
        r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        assert np.count_nonzero(r2 == r2.min()) > 1
        i, j = divmod(int(np.argmin(r2)), r2.shape[1])
        assert _closest_pair(xa, xb) == (np.sqrt(r2[i, j]), i, j)


@pytest.mark.parametrize("name", ["annulus", "two-disks"])
def test_pair_blocks_tile_each_curve_and_match_a_direct_computation(name):
    # 204 nodes per curve: 160-row blocks (2^16 pairs of 408 nodes, rounded
    # down to a multiple of 8) and a ragged 44-row last block on each curve
    mesh = stock_mesh(name, 204)
    nu = mesh.normal
    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        bounds = []
        for lo, hi, r2 in _pair_blocks(mesh.x, mesh.x, sl.start, sl.stop):
            bounds.append((lo, hi))
            d = mesh.x[lo:hi, None, :] - mesh.x[None, :, :]
            assert np.array_equal(r2, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
            # the block keeps no offsets: they are formed on request, and nd from them
            dx, dy = _offsets(mesh.x[lo:hi], mesh.x, np.empty_like(r2), np.empty_like(r2))
            assert np.array_equal(dx, d[..., 0]) and np.array_equal(dy, d[..., 1])
            nd = _normal_offsets(dx, dy, nu)
            assert np.array_equal(nd, d[..., 1] * nu[:, 1] + d[..., 0] * nu[:, 0])
        assert bounds[0][0] == sl.start and bounds[-1][1] == sl.stop
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert all((hi - lo) % 8 == 0 for lo, hi in bounds[:-1])
        assert len(bounds) == 2 and bounds[-1][1] - bounds[-1][0] == 44


def test_refinement_consistency():
    for name in ("ellipse", "kite"):
        coarse = stock_mesh(name, 128)
        fine = stock_mesh(name, 256)
        f = lambda m: np.cos(m.t) + 0.3 * np.sin(2 * m.t) + 1.0
        ic = integrate(coarse, f(coarse))
        jf = integrate(fine, f(fine))
        assert abs(ic - jf) <= 1e-10 * abs(jf)
        lc = integrate(coarse, np.ones(coarse.n))
        lf = integrate(fine, np.ones(fine.n))
        assert abs(lc - lf) <= 1e-10 * lf
        # shared nodes: every other fine node coincides with a coarse node
        assert np.allclose(fine.x[::2], coarse.x, atol=1e-13)
        assert np.allclose(fine.curvature[::2], coarse.curvature, atol=1e-10)


def test_disjointness_enforced():
    specs = [
        CurveSpec("circle", radius=1.0),
        CurveSpec("circle", center=(1.5, 0.0), radius=1.0),
    ]
    with pytest.raises(InvalidGeometry):
        build_mesh(specs, [64, 64])


def test_under_resolved_gap_rejected_with_a_node_count():
    specs = [
        CurveSpec("circle", center=(-1.0001, 0.0), radius=1.0),
        CurveSpec("circle", center=(1.0001, 0.0), radius=1.0),
    ]
    with pytest.raises(InvalidGeometry, match=r"under-resolved: .* (\d+) and (\d+) nodes") as err:
        build_mesh(specs, [64, 32])
    counts = [int(v) for v in re.findall(r"(\d+) and (\d+) nodes", str(err.value))[0]]
    # the suggested counts make the gap about four node spacings on each curve
    assert counts[0] % 2 == 0 and counts[1] % 2 == 0
    assert abs(counts[0] - 4 * 2 * np.pi / 2e-4) < 4 and counts[1] == counts[0]
    # a gap of a little over three spacings builds
    build_mesh([CurveSpec("circle", center=(-1.15, 0.0), radius=1.0),
                CurveSpec("circle", center=(1.15, 0.0), radius=1.0)], [64, 64])


@pytest.mark.parametrize("name", ["disk", "disk2", "ellipse", "annulus", "kite", "two-disks"])
def test_stock_geometries_build_at_the_smallest_node_count(name):
    assert stock_mesh(name, 16).n == 16 * len(stock_specs(name))


def test_outer_curve_declared_clockwise_is_flipped():
    # a unit circle parametrized clockwise
    mesh = build_mesh([CurveSpec("fourier", cos_x=(0.0, 1.0), sin_y=(0.0, -1.0))], [64])
    # outward normal of the open set points away from the center
    assert np.all(np.einsum("ij,ij->i", mesh.normal, mesh.x) > 0.99)


def test_fourier_curve_with_sine_coefficients():
    # unit circle written as a generic trigonometric polynomial
    spec = CurveSpec("fourier", cos_x=(0.0, 1.0), sin_y=(0.0, 1.0))
    mesh = build_mesh([spec], [64])
    assert abs(integrate(mesh, np.ones(64)) - 2 * np.pi) < 1e-12
    assert np.max(np.abs(mesh.curvature - 1.0)) < 1e-12
