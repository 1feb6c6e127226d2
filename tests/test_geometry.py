import dataclasses
import re

import numpy as np
import pytest
from conftest import (NESTED_SPECS, gauss_law_locations, named_mesh, rows_per_block,
                      winding_locations)

from bie2d.errors import InvalidGeometry, LengthMismatch, OutOfRange
from bie2d.geometry import (
    CurveSpec,
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
    # hole declared counterclockwise still ends up with inward normal
    specs = [
        CurveSpec("circle", radius=2.0),
        CurveSpec("circle", radius=1.0, orientation="positive"),
    ]
    mesh = build_mesh(specs, [64, 64])
    topo = mesh.topology
    sl = mesh.component_slice(topo.hole_comps[0])
    x, nu = mesh.x[sl][0], mesh.normal[sl][0]
    assert np.dot(nu, -x) > 0

    # every curve given in the other orientation builds the same mesh, bit for
    # bit; each curve is evaluated once as given, and once more only to flip it
    given = [
        CurveSpec("circle", radius=3.0),
        CurveSpec("circle", center=(-1.2, 0.0), radius=0.8, orientation="negative"),
        CurveSpec("ellipse", center=(1.2, 0.0), axes=(0.6, 0.4), orientation="negative"),
    ]
    other = {"positive": "negative", "negative": "positive"}
    flipped = [dataclasses.replace(s, orientation=other[s.orientation]) for s in given]
    calls, evaluate = [], CurveSpec.evaluate
    monkeypatch.setattr(CurveSpec, "evaluate",
                        lambda spec, *args, **kw: calls.append(spec) or evaluate(spec, *args, **kw))
    meshes = [build_mesh(specs, [64, 48, 32]) for specs in (given, flipped)]
    assert calls == given + flipped + flipped
    for name in ("n_per_comp", "t", "x", "normal", "curvature", "speed", "weights",
                 "comp", "offsets"):
        a, b = (getattr(m, name) for m in meshes)
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), name
    # the topologies agree too; their offsets are the mesh's, compared above
    first, second = (vars(dataclasses.replace(m.topology, offsets=None)) for m in meshes)
    assert first == second


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
    # component of the open set, whatever orientation each curve is given in
    specs = [
        CurveSpec("circle", radius=3.0),
        CurveSpec("circle", radius=2.0, orientation="negative"),
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
        assert locate_points(mesh, chunk) == gauss_law_locations(mesh, chunk)
        assert locate_points(mesh, chunk) == winding_locations(mesh, chunk)


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
    assert locate_points(mesh, points) == gauss_law_locations(mesh, points)
    assert locate_points(mesh, points) == winding_locations(mesh, points)


def test_row_blocks_start_on_multiples_of_8_and_leave_no_lone_row():
    # 2^16 pairs are 85 rows of 768 nodes, rounded down to 80
    assert _row_blocks(0, 200, 768) == [(0, 80), (80, 160), (160, 200)]
    assert _row_blocks(0, 161, 768) == [(0, 80), (80, 161)]
    assert _row_blocks(0, 1, 768) == [(0, 1)]
    assert _row_blocks(0, 0, 768) == []
    # a block holds 8 rows at least, even past 2^16 pairs; curves start anywhere
    assert _row_blocks(64, 89, 9362) == [(64, 72), (72, 80), (80, 89)]


@pytest.mark.parametrize("name", ["annulus", "two-disks"])
def test_pair_blocks_tile_each_curve_and_match_a_direct_computation(name):
    # 204 nodes per curve: 160-row blocks (2^16 pairs of 408 nodes, rounded
    # down to a multiple of 8) and a ragged 44-row last block on each curve
    mesh = stock_mesh(name, 204)
    nu = mesh.normal
    for c in range(mesh.n_components):
        sl = mesh.component_slice(c)
        bounds = []
        for lo, hi, r2, nd, scratch in _pair_blocks(mesh.x, mesh.x, nu, sl.start, sl.stop):
            bounds.append((lo, hi))
            d = mesh.x[lo:hi, None, :] - mesh.x[None, :, :]
            assert np.array_equal(r2, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
            assert np.array_equal(nd, d[..., 1] * nu[:, 1] + d[..., 0] * nu[:, 0])
            assert scratch.shape == (2, hi - lo, mesh.n)
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
    mesh = build_mesh(
        [CurveSpec("circle", radius=1.0, orientation="negative")], [64]
    )
    # outward normal of the open set points away from the center
    assert np.all(np.einsum("ij,ij->i", mesh.normal, mesh.x) > 0.99)


def test_fourier_curve_with_sine_coefficients():
    # unit circle written as a generic trigonometric polynomial
    spec = CurveSpec("fourier", cos_x=(0.0, 1.0), sin_y=(0.0, 1.0))
    mesh = build_mesh([spec], [64])
    assert abs(integrate(mesh, np.ones(64)) - 2 * np.pi) < 1e-12
    assert np.max(np.abs(mesh.curvature - 1.0)) < 1e-12
