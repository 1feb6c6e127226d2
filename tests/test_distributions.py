import tracemalloc

import numpy as np
import pytest
from conftest import dense_v, j_forward_matrix, min_norm_j_inverse, shifted_density

from bie2d.errors import InvalidProbe, LengthMismatch, SingularSystem
from bie2d.geometry import integrate, pairing, stock_mesh
from bie2d.operators import operator_set
from bie2d.potentials import eval_double_layer, eval_single_layer
from bie2d.verify import _MeshCache, seeded_density
from bie2d.distributions import (
    J_isometry,
    J_preimage,
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    dist_jump_check,
    dist_normal_derivative,
    dist_pairing,
    dist_single_layer_field,
    mass_of,
    pair_from_dict,
    pair_to_dict,
    to_grid_representer,
)


def grid_pair(mesh, f):
    return PairDistribution("plus", f, np.zeros(mesh.n), mesh)


def test_representer_examples(disk128):
    mesh = disk128
    f = np.cos(2 * mesh.t) + 0.5
    rep = to_grid_representer(grid_pair(mesh, f))
    assert np.array_equal(rep, f)
    # transpose part of the constant vanishes: harmonic extensions of 1
    # carry no flux
    tau = PairDistribution("plus", np.zeros(mesh.n), np.ones(mesh.n), mesh)
    assert np.max(np.abs(to_grid_representer(tau))) < 1e-8
    # Fourier modes diagonalize the interior map on the circle
    for k in (1, 2, 3):
        tau = PairDistribution("plus", np.zeros(mesh.n), np.cos(k * mesh.t), mesh)
        rep = to_grid_representer(tau)
        assert np.max(np.abs(rep - k * np.cos(k * mesh.t))) < 1e-7
        assert abs(pairing(mesh, rep, np.ones(mesh.n)) - mass_of(tau)) < 1e-10


def test_dist_pairing_examples(disk128, rng):
    mesh = disk128
    mu1 = seeded_density(mesh, rng)
    tau = PairDistribution("plus", np.zeros(mesh.n), mu1, mesh)
    assert abs(dist_pairing(tau, np.ones(mesh.n))) < 1e-9
    mu0 = seeded_density(mesh, rng)
    v = seeded_density(mesh, rng)
    tau = grid_pair(mesh, mu0)
    assert dist_pairing(tau, v) == pairing(mesh, mu0, v)
    tau = PairDistribution("plus", np.zeros(mesh.n), np.cos(mesh.t), mesh)
    assert abs(dist_pairing(tau, np.cos(mesh.t)) - np.pi) < 1e-7


def test_v_of_distribution(disk128, rng):
    mesh = disk128
    ops = operator_set(mesh)
    f = seeded_density(mesh, rng)
    assert np.allclose(V_of_distribution(grid_pair(mesh, f)), ops.single_layer(f))
    tau = PairDistribution("plus", np.zeros(mesh.n), np.ones(mesh.n), mesh)
    assert np.max(np.abs(V_of_distribution(tau))) < 1e-10
    tau = PairDistribution("plus", np.zeros(mesh.n), np.cos(mesh.t), mesh)
    trace = V_of_distribution(tau)
    assert np.max(np.abs(trace + 0.5 * np.cos(mesh.t))) < 1e-8
    cross = ops.single_layer(to_grid_representer(tau))
    assert np.max(np.abs(trace - cross)) < 1e-6


def test_closed_trace_identities(ellipse, rng):
    ops = operator_set(ellipse)
    for _ in range(5):
        mu = seeded_density(ellipse, rng)
        plus = PairDistribution("plus", np.zeros(ellipse.n), mu, ellipse)
        lhs = ops.single_layer(to_grid_representer(plus))
        rhs = -0.5 * mu + ops.W @ mu
        assert np.max(np.abs(lhs - rhs)) < 1e-6
        minus = PairDistribution("minus", np.zeros(ellipse.n), mu, ellipse)
        lhs = ops.single_layer(to_grid_representer(minus))
        rhs = -0.5 * mu - ops.W @ mu + float(ops.q @ mu)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_j_isometry_examples(disk128):
    mesh = disk128
    assert np.max(np.abs(J_isometry(grid_pair(mesh, np.ones(mesh.n))) - 1.0)) < 1e-12
    for k in (1, 2, 3):
        g = J_isometry(grid_pair(mesh, np.cos(k * mesh.t)))
        assert np.max(np.abs(g + np.cos(k * mesh.t) / (2 * k))) < 1e-8


def test_j_roundtrip_property(ellipse, rng):
    for side in ("plus", "minus"):
        tau = PairDistribution(
            side, seeded_density(ellipse, rng), seeded_density(ellipse, rng), ellipse
        )
        g = J_isometry(tau)
        back = J_preimage(ellipse, g, side)
        assert np.max(np.abs(J_isometry(back) - g)) < 1e-7
        assert (
            np.max(
                np.abs(
                    to_grid_representer(back)
                    - to_grid_representer(tau)
                )
            )
            < 1e-6
        )


def test_space_coincidence(annulus, rng):
    tau = PairDistribution(
        "plus", seeded_density(annulus, rng), seeded_density(annulus, rng), annulus
    )
    other = J_preimage(annulus, J_isometry(tau), "minus")
    diff = (
        to_grid_representer(tau) - to_grid_representer(other)
    )
    assert np.max(np.abs(diff)) < 1e-6


def test_wt_on_distribution(disk128, rng):
    mesh = disk128
    ops = operator_set(mesh)
    # circle: the mass-correction term vanishes identically
    v1 = ops.single_layer(np.ones(mesh.n))
    assert np.max(np.abs(ops.W @ v1 - 0.5 * v1)) < 1e-10
    one = grid_pair(mesh, np.ones(mesh.n))
    out = Wt_on_distribution(one)
    assert np.max(np.abs(J_isometry(out) - 0.5)) < 1e-10
    assert abs(mass_of(out) - 0.5 * mass_of(one)) < 1e-13 * mass_of(one)
    # zero-mass data: image is exactly W applied to the J image
    mu = seeded_density(mesh, rng, zero_mean=True)
    tau = PairDistribution("plus", mu, seeded_density(mesh, rng), mesh)
    g = J_isometry(tau)
    out = Wt_on_distribution(tau)
    assert np.max(np.abs(J_isometry(out) - ops.W @ g)) < 1e-8
    assert abs(mass_of(out)) < 1e-12


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("name", ["ellipse", "two_disks"])
def test_j_factor_block_inverse_matches_single_inverses(request, rng, name, side):
    mesh = request.getfixturevalue(name)
    block = np.column_stack([
        J_isometry(PairDistribution(side, seeded_density(mesh, rng),
                                    seeded_density(mesh, rng), mesh))
        for _ in range(3)
    ])
    pairs = J_preimage(mesh, block, side)
    for j in range(3):
        single = J_preimage(mesh, block[:, j], side)
        assert np.max(np.abs(pairs.mu0[:, j] - single.mu0)) <= 1e-14
        assert np.max(np.abs(pairs.mu1[:, j] - single.mu1)) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_j_factor_refuses_a_block_with_an_unreachable_column(ellipse, bad):
    block = np.column_stack([np.cos(ellipse.t), np.ones(ellipse.n), np.sin(2 * ellipse.t)])
    J_preimage(ellipse, block, "minus")
    # no pair has a non-finite J image; the other two columns stay reachable
    block[7, 1] = bad
    with pytest.raises(SingularSystem, match="J inverse residual"):
        J_preimage(ellipse, block, "minus")
    with pytest.raises(SingularSystem, match="J inverse residual"):
        J_preimage(ellipse, block[:, 1], "minus")


def test_a_repeat_wt_on_distribution_builds_no_j_factor(monkeypatch):
    # the J map inverts through the OperatorSet's own factor: no call factors
    # anything or keeps an array, and each takes one density solve
    from bie2d import operators

    mesh = stock_mesh("ellipse", 64)
    ops = operator_set(mesh)
    held = dict(vars(ops))
    factors, solves = [], []

    def counting(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "dpotrf", counting(operators.dpotrf, factors))
    monkeypatch.setattr(operators.OperatorSet, "_density",
                        counting(operators.OperatorSet._density, solves))
    rng = np.random.default_rng(3)
    tau = PairDistribution("minus", seeded_density(mesh, rng), seeded_density(mesh, rng), mesh)
    first = Wt_on_distribution(tau)
    again = Wt_on_distribution(tau)
    assert np.array_equal(first.mu0, again.mu0) and np.array_equal(first.mu1, again.mu1)
    Wt_on_distribution(PairDistribution("plus", tau.mu0, tau.mu1, mesh))
    assert not factors and len(solves) == 3
    assert vars(ops).keys() == held.keys()
    assert all(vars(ops)[name] is value for name, value in held.items())


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_the_representer_of_a_j_map_pair_makes_no_density_solve(monkeypatch, side):
    # J_preimage's pair (eta + c, 0) is its own representer: the zero transpose
    # part costs no W product and no density solve, for a pair or a block
    from bie2d import operators

    mesh = stock_mesh("ellipse", 64)
    rng = np.random.default_rng(5)
    images = np.column_stack([seeded_density(mesh, rng) for _ in range(3)])
    pairs = [J_preimage(mesh, images[:, 0], side), J_preimage(mesh, images, side)]
    expected = [tau.mu0 + operator_set(mesh).rep(side, tau.mu1) for tau in pairs]
    solves = []
    density = operators.OperatorSet._density

    def counted(self, g):
        solves.append(1)
        return density(self, g)

    monkeypatch.setattr(operators.OperatorSet, "_density", counted)
    for tau, reference in zip(pairs, expected):
        rep = to_grid_representer(tau)
        assert np.array_equal(rep, reference) and rep is not tau.mu0
    assert not solves


def test_mass_laws(ellipse, rng):
    mu0 = seeded_density(ellipse, rng)
    mu1 = seeded_density(ellipse, rng)
    for side in ("plus", "minus"):
        tau = PairDistribution(side, mu0, mu1, ellipse)
        assert abs(mass_of(tau) - integrate(ellipse, mu0)) < 1e-9
        assert (
            abs(pairing(ellipse, to_grid_representer(tau), np.ones(ellipse.n))
                - mass_of(tau))
            < 1e-8
        )
        out = Wt_on_distribution(tau)
        assert abs(mass_of(out) - 0.5 * mass_of(tau)) < 1e-12 * max(1.0, abs(mass_of(tau)))


def test_distributional_plemelj(ellipse, rng):
    ops = operator_set(ellipse)
    for side in ("plus", "minus"):
        tau = PairDistribution(
            side, seeded_density(ellipse, rng), seeded_density(ellipse, rng), ellipse
        )
        lhs = V_of_distribution(Wt_on_distribution(tau))
        rhs = ops.W @ V_of_distribution(tau)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_symmetry_condition(ellipse, rng):
    ops = operator_set(ellipse)
    for side in ("plus", "minus"):
        tau = PairDistribution(
            side, seeded_density(ellipse, rng), seeded_density(ellipse, rng), ellipse
        )
        psi = seeded_density(ellipse, rng)
        lhs = dist_pairing(tau, ops.single_layer(psi))
        rhs = pairing(ellipse, V_of_distribution(tau), psi)
        assert abs(lhs - rhs) < 1e-6


def test_dist_field_reduces_to_classical(disk128, rng):
    mesh = disk128
    mu0 = seeded_density(mesh, rng)
    tau = grid_pair(mesh, mu0)
    pts = np.array([[0.2, 0.3], [-0.4, 0.1]])
    assert np.allclose(
        dist_single_layer_field(tau, pts, "interior"),
        eval_single_layer(mesh, mu0, pts),
    )


def test_dist_field_exterior_against_fine_oracle(disk128):
    tau = PairDistribution(
        "plus", np.zeros(disk128.n), np.cos(disk128.t), disk128
    )
    p = np.array([2.0, 0.0])
    val = dist_single_layer_field(tau, p, "exterior")
    fine = stock_mesh("disk", 4096)
    oracle = eval_double_layer(fine, np.cos(fine.t), p)
    assert abs(val - oracle) < 1e-9


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("region, point, other", [("interior", [3.0, 0.0], "exterior"),
                                                  ("exterior", [0.2, 0.0], "interior")])
def test_dist_field_refuses_a_point_outside_its_region(disk128, side, region, point, other):
    # the transpose part's potential takes a different form on each side:
    # at (3, 0) the plus side's interior form reads -1.5 where the single
    # layer is -1/6
    tau = PairDistribution(side, np.zeros(disk128.n), 1.0 + np.cos(disk128.t), disk128)
    with pytest.raises(InvalidProbe, match=f"defined on the {region} but a point is {other}"):
        dist_single_layer_field(tau, np.array(point), region)


def test_dist_field_boundary_limit(disk2_fine):
    mesh = disk2_fine
    mu0 = 0.3 + 0.5 * np.cos(mesh.t)
    mu1 = 1.0 + 0.7 * np.cos(mesh.t) + 0.4 * np.sin(2 * mesh.t)
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    idx = np.arange(0, mesh.n, mesh.n // 8)
    for side in ("plus", "minus"):
        tau = PairDistribution(side, mu0, mu1, mesh)
        expected = V_of_distribution(tau)[idx]
        for region, sgn in (("interior", -1.0), ("exterior", 1.0)):
            vals = np.empty((len(hs), len(idx)))
            for i, h in enumerate(hs):
                pts = mesh.x[idx] + sgn * h * mesh.normal[idx]
                vals[i] = dist_single_layer_field(tau, pts, region)
            limit = np.polyfit(hs, vals, 3)[-1]
            assert np.max(np.abs(limit - expected)) < 1e-5


def test_dist_normal_derivative(disk128):
    mesh = disk128
    tau = dist_normal_derivative(mesh, np.ones(mesh.n), "plus")
    assert np.max(np.abs(to_grid_representer(tau))) < 1e-8
    tau = dist_normal_derivative(mesh, np.cos(mesh.t), "plus")
    assert np.max(np.abs(to_grid_representer(tau) - np.cos(mesh.t))) < 1e-7
    # in two dimensions the constant extends harmonically to the exterior
    tau = dist_normal_derivative(mesh, np.ones(mesh.n), "minus")
    assert np.max(np.abs(to_grid_representer(tau))) < 1e-8


def test_dist_jump_check(ellipse, rng):
    tau = grid_pair(ellipse, seeded_density(ellipse, rng, zero_mean=True))
    out = dist_jump_check(tau)
    assert out.interior < 1e-6 and out.exterior < 1e-6
    tau = PairDistribution(
        "plus", np.zeros(ellipse.n), np.cos(2 * ellipse.t), ellipse
    )
    out = dist_jump_check(tau)
    assert out.interior < 1e-6 and out.exterior < 1e-6
    massful = grid_pair(ellipse, 1.0 + seeded_density(ellipse, rng))
    out = dist_jump_check(massful)
    assert out.exterior is None and "no-limit" in out.note
    assert out.interior < 1e-6


def test_pair_serialization_roundtrip(disk128, rng):
    tau = PairDistribution(
        "minus", seeded_density(disk128, rng), seeded_density(disk128, rng), disk128
    )
    back = pair_from_dict(disk128, pair_to_dict(tau))
    assert back.side == tau.side
    assert np.array_equal(back.mu0, tau.mu0)
    assert np.array_equal(back.mu1, tau.mu1)


def test_pair_machinery_on_two_components(two_disks, rng):
    # two open-set components: the crudest inverse constructions break
    # here, the least-squares one must not
    tau = PairDistribution(
        "plus", seeded_density(two_disks, rng), seeded_density(two_disks, rng),
        two_disks,
    )
    g = J_isometry(tau)
    for side in ("plus", "minus"):
        back = J_preimage(two_disks, g, side)
        assert np.max(np.abs(J_isometry(back) - g)) < 1e-7
        diff = (
            to_grid_representer(back)
            - to_grid_representer(tau)
        )
        assert np.max(np.abs(diff)) < 1e-6


def _stacked_j_forward_matrix(mesh, side):
    """The J map's matrix as np.eye, np.outer and np.concatenate build it."""
    ops = operator_set(mesh)
    n, ones = mesh.n, np.ones(mesh.n)
    length = integrate(mesh, ones)
    A0 = dense_v(mesh) - np.outer(ops.single_layer(ones) - ones, mesh.weights / length)
    A1 = -0.5 * np.eye(n) + (1.0 if side == "plus" else -1.0) * ops.W
    if side == "minus":
        A1 += np.outer(ones, ops.q)
    return np.concatenate([A0, A1], axis=1)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("name", ["disk", "ellipse", "annulus", "kite", "two-disks"])
def test_j_forward_matrix_is_built_in_place_bit_for_bit(name, side):
    # the reference matrix of the J map, each half written into its part of
    # one array, and what it maps a pair to
    mesh = stock_mesh(name, 64)
    A = j_forward_matrix(mesh, side)
    assert np.array_equal(A, _stacked_j_forward_matrix(mesh, side))
    tau = PairDistribution(side, *_MeshCache(mesh).densities(np.random.default_rng(4), 2).T, mesh)
    g = J_isometry(tau)
    assert np.max(np.abs(A @ np.concatenate([tau.mu0, tau.mu1]) - g)) <= 1e-13 * np.max(np.abs(g))


# the disk, ellipse and annulus at 64 and 256 per curve, and the kite at 256:
# at 64 the kite's q^T (W - I/2) reads 1.7e-10 |q|, and the two inverse routes
# agree only to that level there
_J_ROUTE_MESHES = [(name, n) for name in ("disk", "ellipse", "annulus") for n in (64, 256)]
_J_ROUTE_MESHES.append(("kite", 256))


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("name, n", _J_ROUTE_MESHES)
def test_j_inverse_gives_the_distribution_of_the_minimum_norm_pair(name, n, side):
    # the two routes pick different preimages of each image, (eta + c, 0) and
    # the minimum-norm pair, of one distribution: the same representer and the
    # same J image
    mesh = stock_mesh(name, n)
    g = _MeshCache(mesh).densities(np.random.default_rng(36), 3)
    got = J_preimage(mesh, g, side)
    ref = PairDistribution(side, *min_norm_j_inverse(mesh, side, g), mesh)
    rep = to_grid_representer(ref)
    assert not np.any(got.mu1)
    assert np.max(np.abs(to_grid_representer(got) - rep)) <= 1e-11 * np.max(np.abs(rep))
    assert np.max(np.abs(J_isometry(got) - J_isometry(ref))) <= 1e-11 * np.max(np.abs(g))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", ["disk", "ellipse", "kite", "annulus"])
def test_equilibrium_density_is_a_left_null_vector_of_w_minus_half(name, n):
    # q^T (W - I/2) = 0 makes a pair's J image that of its representer, on
    # which J_preimage rests
    ops = operator_set(stock_mesh(name, n))
    assert np.linalg.norm(ops.q @ ops.W - 0.5 * ops.q) <= 1e-9 * np.linalg.norm(ops.q)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_a_j_inverse_that_misses_its_image_raises(monkeypatch, side):
    # Wt_on_distribution returns through the J inverse, whose density solves
    # are the only ones it makes: a constant off by 1e-6 misses the image by
    # 1e-6 at every node, past the gate of 1e-7 of the image's norm
    mesh = stock_mesh("ellipse", 64)
    tau = PairDistribution(side, np.cos(mesh.t), np.sin(2 * mesh.t), mesh)
    operator_set(mesh)
    with monkeypatch.context() as within:
        shifted_density(within, 1e-12)
        Wt_on_distribution(tau)
    shifted_density(monkeypatch, 1e-6)
    with pytest.raises(SingularSystem, match=r"^J inverse residual \S+ too large$"):
        Wt_on_distribution(tau)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_j_inverse_holds_no_n_by_n_array(side):
    # a block of 3 images, one density solve each: the Gram route built and
    # factored A A^T, at a tracemalloc peak of 2.02 * 8 n^2 bytes
    mesh = stock_mesh("annulus", 512)
    operator_set(mesh)
    g = _MeshCache(mesh).densities(np.random.default_rng(5), 3)
    tracemalloc.start()
    try:
        J_preimage(mesh, g, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * mesh.n


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_pair_functions_act_on_a_block_of_pairs_as_on_each_pair(annulus, side):
    rng = np.random.default_rng(11)
    mu0, mu1, v = (np.column_stack([seeded_density(annulus, rng) for _ in range(3)])
                   for _ in range(3))
    block = PairDistribution(side, mu0, mu1, annulus)
    pairs = [PairDistribution(side, mu0[:, j], mu1[:, j], annulus) for j in range(3)]

    def close(got, want):
        want = np.asarray(want)
        return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    for f in (V_of_distribution, J_isometry, to_grid_representer):
        assert close(f(block), np.column_stack([f(tau) for tau in pairs])), f.__name__
    assert close(mass_of(block), [mass_of(tau) for tau in pairs])
    assert close(dist_pairing(block, v),
                 [dist_pairing(tau, v[:, j]) for j, tau in enumerate(pairs)])
    out = Wt_on_distribution(block)
    assert out.side == side and out.mu0.shape == (annulus.n, 3)
    for j, tau in enumerate(pairs):
        single = Wt_on_distribution(tau)
        assert close(out.mu0[:, j], single.mu0) and close(out.mu1[:, j], single.mu1)
    back = J_preimage(annulus, J_isometry(block), side)
    assert close(to_grid_representer(back), to_grid_representer(block))
    jumps = dist_jump_check(block)
    assert jumps.interior.shape == (3,) and jumps.exterior is None  # the pairs carry mass
    assert close(jumps.interior, [dist_jump_check(tau).interior for tau in pairs])
    free = PairDistribution(side, mu0 - mass_of(block) / integrate(annulus, np.ones(annulus.n)),
                            mu1, annulus)
    jumps = dist_jump_check(free)
    assert close(jumps.exterior, [dist_jump_check(PairDistribution(side, free.mu0[:, j],
                                                                   mu1[:, j], annulus)).exterior
                                  for j in range(3)])


def test_a_block_of_pairs_is_refused_where_one_pair_is_meant(annulus):
    block = np.ones((annulus.n, 2))
    with pytest.raises(LengthMismatch, match="make no pair"):
        PairDistribution("plus", block, np.ones((annulus.n, 3)), annulus)
    tau = PairDistribution("plus", block, block, annulus)
    with pytest.raises(LengthMismatch, match="one pair"):
        dist_single_layer_field(tau, np.array([[0.0, 1.5]]), "interior")
    with pytest.raises(LengthMismatch, match="one pair"):
        pair_to_dict(tau)
    with pytest.raises(LengthMismatch):
        dist_pairing(tau, np.ones(annulus.n))
