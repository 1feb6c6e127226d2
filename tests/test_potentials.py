import csv
import tracemalloc

import numpy as np
import pytest
from conftest import gauss_law_locations, grid_points, rows_per_block, winding_locations

from bie2d import geometry
from bie2d.cli import default_grid, write_field_csv
from bie2d.distributions import PairDistribution, dist_single_layer_field
from bie2d.errors import InvalidProbe, LengthMismatch, NearBoundary, NoLimit, OutOfRange
from bie2d.geometry import CurveSpec, build_mesh, locate_points, stock_mesh
from bie2d.operators import operator_set
from bie2d.solvers import dirichlet_exterior, dirichlet_interior
from bie2d.potentials import (
    HarmonicField,
    eval_double_layer,
    eval_single_layer,
    normal_derivative_single,
    trace_double,
    trace_single,
    value_at_infinity,
)


def circle_mesh(radius, n):
    return build_mesh([CurveSpec("circle", radius=radius)], [n])


def test_single_layer_point_values(disk128):
    mesh = disk128
    # uniform charge: potential ln|p| outside the unit circle
    val = eval_single_layer(mesh, np.ones(mesh.n), np.array([2.0, 0.0]))
    assert abs(val - np.log(2.0)) < 1e-10
    # cos theta mode inside: -(r/2) cos theta
    val = eval_single_layer(mesh, np.cos(mesh.t), np.array([0.5, 0.0]))
    assert abs(val + 0.25) < 1e-9
    assert eval_single_layer(mesh, np.zeros(mesh.n), np.array([0.3, 0.1])) == 0.0


def test_double_layer_gauss_identity(disk128):
    mesh = disk128
    one = np.ones(mesh.n)
    inside = eval_double_layer(mesh, one, np.array([0.3, 0.2]))
    outside = eval_double_layer(mesh, one, np.array([3.0, 0.0]))
    assert abs(inside - 1.0) < 1e-10
    assert abs(outside) < 1e-10
    # oracle: direct quadrature on a much finer mesh
    fine = stock_mesh("disk", 4096)
    v = eval_double_layer(mesh, np.cos(mesh.t), np.array([0.5, 0.0]))
    v_fine = eval_double_layer(fine, np.cos(fine.t), np.array([0.5, 0.0]))
    assert abs(v - v_fine) < 1e-9
    assert abs(v - 0.25) < 1e-9
    assert eval_double_layer(mesh, np.zeros(mesh.n), np.array([0.5, 0.0])) == 0.0


def test_near_boundary_refused(disk128):
    p = np.array([1.0 + 0.25 * disk128.band_width(), 0.0])
    with pytest.raises(NearBoundary):
        eval_single_layer(disk128, np.ones(disk128.n), p)
    with pytest.raises(NearBoundary):
        eval_double_layer(disk128, np.ones(disk128.n), p)


def test_traces(disk128):
    mesh = disk128
    one = np.ones(mesh.n)
    assert np.max(np.abs(trace_single(mesh, one))) < 1e-10
    assert np.max(np.abs(trace_double(mesh, one, "plus") - 1.0)) < 1e-10
    assert np.max(np.abs(trace_double(mesh, one, "minus"))) < 1e-10
    c = np.cos(mesh.t)
    assert np.max(np.abs(trace_double(mesh, c, "plus") - 0.5 * c)) < 1e-10


def test_normal_derivative_single(disk128):
    mesh = disk128
    c = np.cos(mesh.t)
    assert np.max(np.abs(normal_derivative_single(mesh, c, "plus") + 0.5 * c)) < 1e-10
    one = np.ones(mesh.n)
    assert np.max(np.abs(normal_derivative_single(mesh, one, "plus"))) < 1e-10
    assert np.max(np.abs(normal_derivative_single(mesh, np.zeros(mesh.n), "minus"))) == 0


def test_normal_difference_identity(ellipse, rng):
    from bie2d.verify import seeded_density

    mu = seeded_density(ellipse, rng)
    plus = normal_derivative_single(ellipse, mu, "plus")
    minus = normal_derivative_single(ellipse, mu, "minus")
    # the two one-sided derivatives along the same normal differ by -mu
    assert np.max(np.abs(plus - minus + mu)) < 1e-13 * max(1.0, np.max(np.abs(mu)))


def _extrapolate(mesh, evaluate, side):
    """Boundary limit along normals by cubic extrapolation in the offset."""
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    sign = -1.0 if side == "plus" else 1.0
    idx = np.arange(0, mesh.n, mesh.n // 8)
    vals = np.empty((len(hs), len(idx)))
    for i, h in enumerate(hs):
        pts = mesh.x[idx] + sign * h * mesh.normal[idx]
        vals[i] = evaluate(pts)
    coeff = np.polyfit(hs, vals, 3)
    return coeff[-1], idx


def test_trace_consistency_single_layer(disk2_fine):
    mesh = disk2_fine
    mu = 1.0 + 0.7 * np.cos(mesh.t) + 0.4 * np.sin(2 * mesh.t)
    expected = trace_single(mesh, mu)
    for side in ("plus", "minus"):
        limit, idx = _extrapolate(
            mesh, HarmonicField(mesh, [("single", mu)]).eval_unchecked, side
        )
        assert np.max(np.abs(limit - expected[idx])) < 1e-5


def test_trace_consistency_double_layer(disk2_fine):
    mesh = disk2_fine
    psi = 0.5 + np.cos(mesh.t) - 0.6 * np.sin(2 * mesh.t)
    for side in ("plus", "minus"):
        expected = trace_double(mesh, psi, side)
        limit, idx = _extrapolate(
            mesh, HarmonicField(mesh, [("double", psi)]).eval_unchecked, side
        )
        assert np.max(np.abs(limit - expected[idx])) < 1e-5


def test_field_harmonicity(ellipse):
    fld = HarmonicField(
        ellipse,
        [("single", np.cos(ellipse.t)), ("double", np.sin(2 * ellipse.t))],
        region="interior",
    )
    h = 0.02
    for center in (np.array([0.3, 0.2]), np.array([-0.8, 0.1])):
        stencil = np.array(
            [center, center + [h, 0], center - [h, 0], center + [0, h], center - [0, h]]
        )
        u = fld.eval_unchecked(stencil)
        lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        assert abs(lap) < 1e-5 / h**2 * max(1.0, np.max(np.abs(u)))


def test_value_at_infinity_constant(disk128):
    fld = HarmonicField(disk128, [], constant=2.5, region="exterior")
    out = value_at_infinity(fld, 10.0)
    assert abs(out.mean - 2.5) < 1e-12 and out.representation == 2.5


def test_value_at_infinity_zero_mass_single(disk128):
    mu = np.cos(disk128.t) + 0.3 * np.sin(3 * disk128.t)
    fld = HarmonicField(disk128, [("single", mu)], region="exterior")
    out = value_at_infinity(fld, 10.0)
    assert abs(out.mean) < 1e-6 and out.representation == 0.0


def test_value_at_infinity_double_layer(disk128):
    fld = HarmonicField(
        disk128, [("double", 1.0 + np.cos(disk128.t))], region="exterior"
    )
    out = value_at_infinity(fld, 10.0)
    assert abs(out.mean) < 1e-6
    # oracle: direct evaluation far away decays to zero like a dipole
    for r in (1e3, 1e4):
        far = eval_double_layer(disk128, 1.0 + np.cos(disk128.t), np.array([r, 0.0]))
        assert abs(far) < 1.0 / r


def test_value_at_infinity_rejects_growth(disk128):
    fld = HarmonicField(disk128, [("single", np.ones(disk128.n))], region="exterior")
    with pytest.raises(NoLimit):
        value_at_infinity(fld, 10.0)


def test_value_at_infinity_probe_validation(disk128):
    fld = HarmonicField(disk128, [], constant=0.0, region="exterior")
    with pytest.raises(InvalidProbe):
        value_at_infinity(fld, 0.9)
    interior = HarmonicField(disk128, [], region="interior")
    with pytest.raises(InvalidProbe):
        value_at_infinity(interior, 10.0)


def test_field_region_guard(disk128):
    fld = HarmonicField(disk128, [("single", np.cos(disk128.t))], region="interior")
    with pytest.raises(InvalidProbe):
        fld.eval(np.array([3.0, 0.0]))
    with pytest.raises(NearBoundary):
        fld.eval(np.array([1.0 + 0.2 * disk128.band_width(), 0.0]))


def _layer_by_norms(mesh, kind, density, points):
    """A layer potential with its kernel built from the (m, n, 2) offsets."""
    d = points[:, None, :] - mesh.x[None, :, :]
    if kind == "single":
        kernel = np.log(np.linalg.norm(d, axis=-1)) / (2.0 * np.pi)
    else:
        num = d[:, :, 0] * mesh.normal[None, :, 0] + d[:, :, 1] * mesh.normal[None, :, 1]
        kernel = -num / (2.0 * np.pi * np.einsum("ijk,ijk->ij", d, d))
    return kernel @ (mesh.weights * density)


def _field_by_norms(fld, points):
    vals = np.full(points.shape[0], fld.constant)
    for kind, density in fld.terms:
        vals += _layer_by_norms(fld.mesh, kind, density, points)
    return vals


@pytest.mark.parametrize("name, region", [("annulus", "interior"), ("kite", "exterior")])
def test_one_geometry_pass_is_bit_identical_to_the_norm_route(one_blas_thread, tmp_path, name,
                                                               region):
    mesh = stock_mesh(name, 256)
    mu, psi = np.cos(3 * mesh.t) + 0.2, np.sin(2 * mesh.t)
    fld = HarmonicField(mesh, [("single", mu), ("double", psi)], constant=0.3, region=region)
    points = default_grid(mesh)
    kinds = np.array([kind for kind, _ in winding_locations(mesh, points)])
    clear = points[kinds != "near_boundary"]
    for kind, density, evaluate in (("single", mu, eval_single_layer),
                                    ("double", psi, eval_double_layer)):
        expected = _layer_by_norms(mesh, kind, density, clear)
        assert np.array_equal(evaluate(mesh, density, clear), expected)
    usable = kinds == region
    assert np.array_equal(fld.eval(points[usable]), _field_by_norms(fld, points[usable]))

    path = tmp_path / "field.csv"
    write_field_csv(fld, points, path)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == _csv_rows(points, usable, _field_by_norms(fld, points[usable]))


def _csv_rows(points, usable, values):
    """The rows write_field_csv writes, given the values at the usable points."""
    column = np.full(points.shape[0], np.nan)
    column[usable] = values
    return [["x", "y", "u"]] + [
        ["%.17g" % px, "%.17g" % py, "%.17g" % val if ok else ""]
        for (px, py), ok, val in zip(points, usable, column)
    ]


def _ring_points(rng, count, r_min, r_max):
    r = rng.uniform(r_min, r_max, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _by_rows(rows, values_of, points):
    """values_of over consecutive chunks of `rows` points, concatenated."""
    return np.concatenate([values_of(points[i:i + rows]) for i in range(0, len(points), rows)])


@pytest.fixture
def seven_row_blocks(monkeypatch):
    """An annulus of 64 nodes per curve, whose target passes take blocks of 7 rows."""
    rows_per_block(monkeypatch, 7)
    return stock_mesh("annulus", 64)


@pytest.mark.parametrize("region, radii", [("interior", (1.42, 1.58)), ("exterior", (2.45, 3.5))])
def test_ragged_blocks_fill_every_row(seven_row_blocks, region, radii):
    # 25 points: three whole blocks of 7 and a partial one; within a block of
    # 7 rows BLAS sums the tail rows in another order, so the reference
    # route takes the same chunks
    mesh = seven_row_blocks
    points = _ring_points(np.random.default_rng(3), 25, *radii)
    mu, psi = np.cos(3 * mesh.t) + 0.2, np.sin(2 * mesh.t)
    fld = HarmonicField(mesh, [("single", mu), ("double", psi)], constant=0.3, region=region)
    expected = _by_rows(7, lambda p: _field_by_norms(fld, p), points)
    assert np.array_equal(fld.eval(points), expected)
    assert np.array_equal(fld.eval_unchecked(points), expected)
    for kind, density, evaluate in (("single", mu, eval_single_layer),
                                    ("double", psi, eval_double_layer)):
        expected = _by_rows(7, lambda p: _layer_by_norms(mesh, kind, density, p), points)
        assert np.array_equal(evaluate(mesh, density, points), expected)

    eta, c = operator_set(mesh).harmonic_density(psi)
    own = region == "exterior"  # the minus side's own region

    def closed(p):
        # summed as a HarmonicField sums: constant, then each term in turn
        vals = np.full(p.shape[0], c - own * c)
        vals += _layer_by_norms(mesh, "single", mu, p)
        vals += _layer_by_norms(mesh, "double", -psi, p)
        if own:
            vals += _layer_by_norms(mesh, "single", -eta, p)
        return vals

    tau = PairDistribution("minus", mu, psi, mesh)
    assert np.array_equal(dist_single_layer_field(tau, points, region), _by_rows(7, closed, points))


def test_field_csv_in_ragged_blocks(seven_row_blocks, tmp_path):
    mesh = seven_row_blocks
    fld = HarmonicField(mesh, [("single", np.cos(3 * mesh.t) + 0.2), ("double", np.sin(mesh.t))],
                        constant=0.3, region="interior")
    points = grid_points(np.linspace(-2.4, 2.4, 21), np.linspace(-2.4, 2.4, 19))
    usable = np.array([kind for kind, _ in winding_locations(mesh, points)]) == "interior"
    assert usable.sum() == 32  # four whole blocks of 7 and a partial one
    path = tmp_path / "field.csv"
    write_field_csv(fld, points, path)
    values = _by_rows(7, lambda p: _field_by_norms(fld, p), points[usable])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == _csv_rows(points, usable, values)


def test_a_lone_last_row_sums_as_in_one_product(one_blas_thread):
    # 64 nodes make blocks of 1024 rows; of 1025 points one row is left over,
    # and it joins the block before it instead of forming a one-row product
    mesh = stock_mesh("disk", 64)
    points = _ring_points(np.random.default_rng(4), 1025, 0.1, 0.7)
    fld = HarmonicField(mesh, [("single", np.cos(3 * mesh.t)), ("double", np.sin(mesh.t))])
    assert np.array_equal(fld.eval_unchecked(points), _field_by_norms(fld, points))


def _point_entries(mesh):
    """Every checked evaluator of a 64-node annulus, as point -> value functions."""
    mu = np.cos(mesh.t)
    fld = HarmonicField(mesh, [("single", mu)], region="interior")
    tau = PairDistribution("plus", mu, np.sin(mesh.t), mesh)
    return {
        "eval": fld.eval,
        "eval_single_layer": lambda p: eval_single_layer(mesh, mu, p),
        "eval_double_layer": lambda p: eval_double_layer(mesh, mu, p),
        "dist_single_layer_field": lambda p: dist_single_layer_field(tau, p, "interior"),
    }


def test_the_band_error_reports_the_minimum_over_all_blocks(seven_row_blocks):
    mesh = seven_row_blocks
    band = mesh.band_width()
    points = _ring_points(np.random.default_rng(5), 28, 1.42, 1.58)
    points[2] = (3.0, 0.0)  # block 0: outside the interior
    points[10] = mesh.x[5] + 0.5 * band * mesh.normal[5]  # block 1: in the band
    points[24] = mesh.x[9] - 0.2 * band * mesh.normal[9]  # block 3: nearer still
    nearest = np.min(np.linalg.norm(points[:, None, :] - mesh.x[None, :, :], axis=-1))
    message = f"point at distance {nearest:.3e} inside the near-boundary band {band:.3e}"
    for name, evaluate in _point_entries(mesh).items():
        with pytest.raises(NearBoundary) as err:
            evaluate(points)
        assert str(err.value) == message, name
    with pytest.raises(InvalidProbe, match="defined on the interior but a point is exterior"):
        _point_entries(mesh)["eval"](points[:10])


def test_a_point_on_a_node_is_refused_without_a_warning(seven_row_blocks):
    # RuntimeWarning is an error in this suite: no kernel may read r2 = 0
    mesh = seven_row_blocks
    points = _ring_points(np.random.default_rng(6), 20, 1.42, 1.58)
    points[12] = mesh.x[3]
    for evaluate in _point_entries(mesh).values():
        with pytest.raises(NearBoundary, match="point at distance 0.000e"):
            evaluate(points)
    assert locate_points(mesh, points)[12] == ("near_boundary", None)
    assert locate_points(mesh, points) == gauss_law_locations(mesh, points)
    assert locate_points(mesh, points) == winding_locations(mesh, points)


def test_eval_allocates_no_array_over_all_pairs():
    # one (m, n) array of 4000 points and 512 nodes is 15.6 MiB
    mesh = stock_mesh("annulus", 256)
    fld = dirichlet_interior(mesh, np.cos(mesh.t)).field
    points = _ring_points(np.random.default_rng(7), 4000, 1.2, 1.8)
    tracemalloc.start()
    try:
        fld.eval(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_fields_are_located_and_evaluated_without_the_double_layer(tmp_path, monkeypatch):
    # a single-layer field needs no double-layer kernel, to locate its points either
    mesh = stock_mesh("annulus", 128)
    fld = dirichlet_interior(mesh, np.cos(mesh.t)).field
    points = _ring_points(np.random.default_rng(8), 300, 1.3, 1.7)
    expected = fld.eval(points)
    write_field_csv(fld, default_grid(mesh), tmp_path / "expected.csv")

    def refuse(targets):
        raise AssertionError("double-layer kernel computed")

    monkeypatch.setattr(geometry._Targets, "double_kernel", property(refuse))
    assert np.array_equal(fld.eval(points), expected)
    write_field_csv(fld, default_grid(mesh), tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_text() == (tmp_path / "expected.csv").read_text()


def test_an_unknown_layer_kind_is_out_of_range(disk128):
    fld = HarmonicField(disk128, [("triple", np.ones(disk128.n))])
    with pytest.raises(OutOfRange, match="unknown layer kind 'triple'"):
        fld.eval([0.2, 0.0])


def test_every_off_boundary_evaluator_is_a_harmonic_field(disk128, monkeypatch):
    mesh = disk128
    calls = []
    evaluate = HarmonicField.eval

    def recording(fld, points):
        calls.append((fld.terms, fld.constant, fld.region))
        return evaluate(fld, points)

    monkeypatch.setattr(HarmonicField, "eval", recording)
    mu, psi = np.cos(mesh.t), np.sin(mesh.t)
    eval_single_layer(mesh, mu, [3.0, 0.0])
    eval_double_layer(mesh, psi, [0.2, 0.0])
    dist_single_layer_field(PairDistribution("minus", mu, psi, mesh), [3.0, 0.0], "exterior")
    (single, _, free1), (double, _, free2), (dist, _, region) = calls
    assert [k for k, _ in single] == ["single"] and single[0][1] is mu
    assert [k for k, _ in double] == ["double"] and double[0][1] is psi
    assert (free1, free2, region) == (None, None, "exterior")
    assert [k for k, _ in dist] == ["single", "double", "single"]


def test_a_field_on_an_unknown_region_is_refused(disk128):
    fld = HarmonicField(disk128, [("single", np.ones(disk128.n))], region="inside")
    with pytest.raises(OutOfRange, match="unknown region 'inside'"):
        fld.eval([0.0, 0.0])


@pytest.fixture(scope="module")
def disk_exterior_field():
    mesh = stock_mesh("disk", 64)
    return dirichlet_exterior(mesh, np.cos(mesh.t)).field


_POINT_ENTRIES = {
    "eval": lambda fld, p: fld.eval(p),
    "eval_unchecked": lambda fld, p: fld.eval_unchecked(p),
    "eval_single_layer": lambda fld, p: eval_single_layer(fld.mesh, np.ones(fld.mesh.n), p),
    "eval_double_layer": lambda fld, p: eval_double_layer(fld.mesh, np.ones(fld.mesh.n), p),
    "dist_single_layer_field": lambda fld, p: dist_single_layer_field(
        PairDistribution("plus", np.ones(fld.mesh.n), np.zeros(fld.mesh.n), fld.mesh),
        p, "exterior"),
    "locate_points": lambda fld, p: locate_points(fld.mesh, p),
}


@pytest.mark.parametrize("entry", sorted(_POINT_ENTRIES))
@pytest.mark.parametrize("points, error", [
    ([np.nan, 0.0], InvalidProbe),
    ([np.inf, 0.0], InvalidProbe),
    ([[3.0, 0.0], [0.0, -np.inf]], InvalidProbe),
    (np.full((2, 2, 2), 3.0), LengthMismatch),
    ([3.0, 0.0, 0.0], LengthMismatch),
    (np.full((4, 3), 3.0), LengthMismatch),
    (3.0, LengthMismatch),
    # finite, but r^2 overflows (RuntimeWarning is an error in this suite)
    ([1e160, 0.0], InvalidProbe),
])
def test_bad_points_are_refused(disk_exterior_field, entry, points, error):
    with pytest.raises(error):
        _POINT_ENTRIES[entry](disk_exterior_field, points)


def test_far_points_evaluate_until_their_squared_distances_overflow(disk_exterior_field):
    fld = disk_exterior_field
    with pytest.raises(InvalidProbe, match=r"^point too far[^\n]*$"):
        value_at_infinity(fld, 1e200)
    # far, but every squared distance is finite: the field is its value at
    # infinity there, 0 to rounding
    assert abs(fld.eval([1e150, 0.0])) < 1e-12
