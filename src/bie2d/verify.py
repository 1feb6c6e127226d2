"""Identity suite: every operator identity the library is built on, as checks.

Each check produces one row (name, the identity it exercises, geometry,
residual, tolerance, pass/fail).  Residuals are computed from two
independent computational routes wherever possible, e.g. the single layer
of a transpose-part distribution is evaluated both through its grid
representer (plain quadrature) and through its double-layer/harmonic-
extension representation.  Randomness is a seeded truncated Fourier
series, so two runs of the same configuration at the same BLAS thread
count produce identical reports: OpenBLAS splits a block product or solve
across its threads, and another split rounds it differently.

The checks that loop over seeded densities (plemelj-classical,
plemelj-distributional, dist-jump, VSt-identities, symmetry,
J-isometry-roundtrip, space-coincidence) draw them in the order of one
density or pair at a time, but apply each side's operators once, to one
(n, k) block: pair i lies on the plus side when i is even, the minus side
when odd, and the pairs of a side form one block pair distribution.  So
V, W, Wt and the density solve run as BLAS-3 products and solves on a
block, and the per-call work is paid once per block; the J inverse solves
a block one column at a time (J_preimage).
poisson-reps takes one geometry pass and one block solve for each
region's probes (solvers._poisson).  Tests keep the one-at-a-time loops
as the reference the blocked checks must agree with.

run_verify holds one _MeshCache per mesh: the probe point sets, keyed by
(region, count), and the cos(k t), sin(k t) table of the seeded
densities.  Each is built once on first use, shared read-only by the
checks on that mesh, and dropped with the cache before the next mesh.
Each check takes the mesh's _MeshCache: run_verify calls it as
run(mesh, rng, cache=cache).  The J map has no factor of its own:
J_preimage inverts through the Cholesky factor of the mesh's OperatorSet,
so a mesh holds its two n x n arrays, W and that factor, whatever the
checks use.

J-isometry-roundtrip and space-coincidence both check that a pair's J
image is V[phi - mean] + mean of its grid representer phi: the J inverse
(eta + c, 0) of that image is its own representer on either side, and
must be phi.  The roundtrip row also checks that the inverse's J image is
the image it came from; the two rows draw their pairs apart.
"""

import numbers
import zlib
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import IncompatibleData, InvalidProbe, OutOfRange
from .geometry import _in_region, _pairings, _TargetBlocks, indicator, integrate, stock_mesh
from .operators import _SIDES, _side, operator_set
from .potentials import eval_double_layer, eval_single_layer, trace_double
from .distributions import (
    J_isometry,
    J_preimage,
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    _fourier_modes,
    dist_jump_check,
    dist_pairing,
    dist_single_layer_field,
    to_grid_representer,
)
from .solvers import (
    _OP_KINDS,
    _bordered_system,
    _compat_rows,
    _dirichlet,
    _poisson,
    _subspace_angle,
    dirichlet_exterior,
    dirichlet_interior,
    neumann_exterior,
    neumann_interior,
    nullspace,
    transpose_kernel_pair_basis,
)

DEFAULT_SEED = 20260810


@dataclass
class CheckRow:
    name: str
    identity: str
    geometry: str
    residual: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "name": self.name,
            "identity": self.identity,
            "geometry": self.geometry,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


@dataclass
class VerifyReport:
    rows: list = field(default_factory=list)
    seed: int = DEFAULT_SEED
    n: int = 256
    geometries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_dict(self):
        return {
            "seed": int(self.seed),
            "n": int(self.n),
            "geometries": list(self.geometries),
            "passed": bool(self.passed),
            "checks": [r.to_dict() for r in self.rows],
        }


def seeded_density(mesh, rng, zero_mean=False):
    """Smooth random density: Fourier series in the parameter, truncated at degree 8."""
    return _MeshCache(mesh).density(rng, zero_mean)


def probe_points(mesh, region, count=25):
    """Probes offset along the normals, at least 0.2 from the nodes.

    Several offsets are tried so that narrow regions (an annulus at coarse
    resolution) still yield points clear of both the minimum distance and
    the near-boundary band, and the count most distant of those are kept.
    Raises InvalidProbe when no candidate qualifies: the region is too
    narrow for the band at this node count.  count must be an int >= 1,
    else OutOfRange.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise OutOfRange(f"count must be an int >= 1, got {count!r}")
    sign = _side(region, "region").sign
    band = mesh.band_width()
    keep_dist = max(0.2, 1.2 * band)
    step = max(1, mesh.n // (2 * count))
    offsets = sorted({1.25 * keep_dist, 0.25, 0.35, 0.5, 2.5 * band})
    blocks = [mesh.x[::step] - sign * d * mesh.normal[::step] for d in offsets]
    if sign < 0:
        far = 2.0 * float(np.max(np.linalg.norm(mesh.x, axis=1)))
        theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        blocks.append(far * np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    candidates = np.concatenate(blocks)
    # the evaluation pass over all the nodes: the candidates are ranked by
    # their exact distance, which the pruned _TargetBlocks.locate gives only
    # below the band
    dist, outward = np.empty(len(candidates)), np.empty(len(candidates), dtype=bool)
    for rows, targets in _TargetBlocks(mesh, candidates):
        dist[rows], outward[rows] = targets.dist, targets.outward
    keep = np.flatnonzero(_in_region(mesh, dist, outward, region) & (dist >= keep_dist))
    if not keep.size:
        nodes = "/".join(str(m) for m in mesh.n_per_comp)
        raise InvalidProbe(f"no {region} probe point clears the near-boundary band "
                           f"with {nodes} nodes per curve")
    order = np.argsort(-dist[keep], kind="stable")
    return candidates[keep[order]][:count]


class _MeshCache:
    """What the checks on one mesh share: the probe sets and the Fourier table
    of the seeded densities.

    Each is built on first use.  run_verify holds one cache per mesh and
    drops it before the next mesh.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self._probes = {}

    @cached_property
    def fourier(self):
        """The modes of a seeded density, distributions._fourier_modes, and the
        divisor of each mode's coefficient, 1 + k."""
        return _fourier_modes(self.mesh), np.append(1.0, np.repeat(np.arange(2.0, 10.0), 2))

    def density(self, rng, zero_mean=False):
        """seeded_density of the mesh: the one column of densities(rng, 1), less
        its mean (zero_mean) when zero_mean is set."""
        f = self.densities(rng, 1)[:, 0]
        return self.zero_mean(f) if zero_mean else f

    def densities(self, rng, count):
        """count seeded densities from the cached Fourier table, the columns of an
        (n, count) block.

        The 17 coefficients of a density are c then a_k and b_k for k = 1..8,
        all count * 17 of them one draw (as draws one at a time would give
        them), and each column's terms are summed in that order, c + a_1 cos t
        + b_1 sin t + ..., one row at a time: column j is the j-th of count
        calls of density.
        """
        modes, divisors = self.fourier
        coeffs = rng.uniform(-1.0, 1.0, (count, modes.shape[0])).T / divisors[:, None]
        return np.add.reduce(coeffs[:, None, :] * modes[:, :, None], axis=0)

    def zero_mean(self, f):
        """f, one density or each column of an (n, k) block, less its mean over
        the boundary.  On a block the means are one product, so a column may
        differ in the last bit from the column's own correction."""
        return f - (self.mesh.weights @ f) / integrate(self.mesh, np.ones(self.mesh.n))

    def probes(self, region, count=25):
        """probe_points of the mesh, found once per (region, count) and read-only."""
        key = (region, count)
        if key not in self._probes:
            pts = probe_points(self.mesh, region, count)
            pts.flags.writeable = False
            self._probes[key] = pts
        return self._probes[key]


def _sup(x):
    return float(np.max(np.abs(x)))


# --- individual checks -----------------------------------------------------


def check_w1_half(mesh, rng, cache):
    return _sup(operator_set(mesh).W @ np.ones(mesh.n) - 0.5)


def check_plemelj_classical(mesh, rng, cache):
    ops = operator_set(mesh)
    f = cache.densities(rng, 20)
    return _sup(ops.single_layer(ops._wt(f)) - ops.W @ ops.single_layer(f))


def _seeded_pairs(cache, rng, count, zero_mean=False):
    """count seeded pairs, as one block of pairs per side.

    The pairs are drawn mu0 then mu1, pair after pair, and pair i is on the
    side _SIDES[i % 2]: the plus block holds the even pairs, the minus block
    the odd ones.  Returns the two blocks and, for each, the indices of its
    pairs in the draw.
    """
    draws = cache.densities(rng, 2 * count)
    mu0, mu1 = draws[:, ::2], draws[:, 1::2]
    if zero_mean:
        mu0 = cache.zero_mean(mu0)
    blocks = []
    for first, side in enumerate(_SIDES):
        taken = slice(first, count, 2)
        blocks.append((PairDistribution(side.name, mu0[:, taken], mu1[:, taken], cache.mesh),
                       taken))
    return blocks


def check_plemelj_distributional(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for tau, _ in _seeded_pairs(cache, rng, 10):
        lhs = V_of_distribution(Wt_on_distribution(tau))
        rhs = ops.W @ V_of_distribution(tau)
        res = max(res, _sup(lhs - rhs))
    return res


def check_jump_single(mesh, rng, cache):
    mu = cache.density(rng, zero_mean=True)
    trace = operator_set(mesh).single_layer(mu)
    res = 0.0
    for side in _SIDES:
        pts = cache.probes(side.region)
        fld = _dirichlet(mesh, trace, side.region).field
        res = max(res, _sup(fld.eval_unchecked(pts) - eval_single_layer(mesh, mu, pts)))
    return res


def check_jump_double(mesh, rng, cache):
    psi = cache.density(rng)
    res = 0.0
    for side in _SIDES:
        pts = cache.probes(side.region)
        fld = _dirichlet(mesh, trace_double(mesh, psi, side.name), side.region).field
        res = max(res, _sup(fld.eval_unchecked(pts) - eval_double_layer(mesh, psi, pts)))
    return res


def check_dist_jump(mesh, rng, cache):
    res = 0.0
    for tau, _ in _seeded_pairs(cache, rng, 6, zero_mean=True):
        out = dist_jump_check(tau)
        res = max(res, np.max(out.interior))
        if out.exterior is not None:
            res = max(res, np.max(out.exterior))
    # a massful pair exercises only the interior branch
    tau = PairDistribution(
        "plus", 1.0 + cache.density(rng), cache.density(rng), mesh
    )
    out = dist_jump_check(tau)
    res = max(res, out.interior)
    return res


def _third_green(mesh, rng, cache, region):
    """Green's third identity in the region; the same integral vanishes off it."""
    side = _side(region, "region")
    g = cache.density(rng)
    solution = _dirichlet(mesh, g, region)
    rep_nd = operator_set(mesh).rep(side.name, g)
    const = solution.u_infinity or 0.0

    def recon(pts):
        single = eval_single_layer(mesh, rep_nd, pts)
        return side.sign * eval_double_layer(mesh, g, pts) - single + const

    pts = cache.probes(region)
    res = _sup(recon(pts) - solution.field.eval_unchecked(pts))
    other = cache.probes(side.opposite.region)
    return max(res, _sup(recon(other)))


def _dlintesl(mesh, rng, cache, side):
    """Single layer of (side, 0, mu): its grid representer against the closed form."""
    mu = cache.density(rng)
    rep = operator_set(mesh).rep(side, mu)
    tau = PairDistribution(side, np.zeros(mesh.n), mu, mesh)
    res = 0.0
    for region in (s.region for s in _SIDES):
        pts = cache.probes(region)
        closed = dist_single_layer_field(tau, pts, region)
        res = max(res, _sup(eval_single_layer(mesh, rep, pts) - closed))
    return res


def check_vst_identities(mesh, rng, cache):
    """V rep(side, mu) against the closed trace of the pair (side, 0, mu)."""
    ops = operator_set(mesh)
    mu = cache.densities(rng, 10)
    zero = np.zeros_like(mu)
    res = 0.0
    for side in _SIDES:
        closed = V_of_distribution(PairDistribution(side.name, zero, mu, mesh))
        res = max(res, _sup(ops.single_layer(ops.rep(side.name, mu)) - closed))
    return res


def check_symmetry(mesh, rng, cache):
    ops = operator_set(mesh)
    pairs = _seeded_pairs(cache, rng, 10)
    psi = cache.densities(rng, 10)
    res = 0.0
    for tau, taken in pairs:
        lhs = dist_pairing(tau, ops.single_layer(psi[:, taken]))
        rhs = _pairings(mesh, V_of_distribution(tau), psi[:, taken])
        res = max(res, np.max(np.abs(lhs - rhs)))
    return res


def check_j_roundtrip(mesh, rng, cache):
    res = 0.0
    for tau, _ in _seeded_pairs(cache, rng, 5):
        g = J_isometry(tau)
        back = J_preimage(mesh, g, tau.side)
        res = max(res, _sup(J_isometry(back) - g))
        rep = to_grid_representer(tau)
        res = max(res, _sup(to_grid_representer(back) - rep))
    return res


def check_space_coincidence(mesh, rng, cache):
    res = 0.0
    for tau, _ in _seeded_pairs(cache, rng, 5):
        tau2 = J_preimage(mesh, J_isometry(tau), _side(tau.side).opposite.name)
        rep = to_grid_representer(tau)
        res = max(res, _sup(to_grid_representer(tau2) - rep))
    return res


def check_nullspace_dims(mesh, rng, cache):
    """Largest angle between each side's Wt kernel and its two twins.

    nullspace decides the Wt kernel's dimension and vectors by one LU of
    shift I + W, whose W kernel has the same dimension: Ritz values of block
    inverse iteration against the largest singular value, and the gap from
    the matrix bordered by both kernels.  The twins of the Wt kernel are the
    pair-route kernel (the same rank decision on one LU of its J-coordinate
    matrix) and the measured kernel that the Neumann solvers keep from their
    bordered GMRES; both come from other matrices than shift I + W.  pi/2,
    the largest angle, when the kernel misses its side's component count or
    its singular-value gap.
    """
    worst = 0.0
    for kind, (side, op) in _OP_KINDS.items():
        if op != "Wt":
            continue
        basis = nullspace(mesh, kind)
        if basis.gap < 1e4 or basis.dimension != getattr(mesh.topology, side.kappa):
            return np.pi / 2
        wt = basis.vectors
        gmres_kernel = _bordered_system(mesh, side).kernel
        pair_kernel = transpose_kernel_pair_basis(mesh, kind)
        worst = max(worst, _subspace_angle(wt, pair_kernel), _subspace_angle(wt, gmres_kernel))
    return worst


def check_poisson_reps(mesh, rng, cache):
    """Both Green representations at each region's probes, one geometry pass
    and one block solve per region (solvers._poisson)."""
    g = cache.density(rng)
    rd = dirichlet_interior(mesh, g)
    re_ = dirichlet_exterior(mesh, g)
    c_g = float(operator_set(mesh).q @ g)
    pts = cache.probes("interior", count=10)
    inner, outer = _poisson(mesh, g, pts)
    res = max(_sup(inner - rd.field.eval_unchecked(pts)), _sup(c_g - outer),
              abs(c_g - re_.u_infinity))
    pts = cache.probes("exterior", count=10)
    inner, outer = _poisson(mesh, g, pts)
    return max(res, _sup(inner), _sup(c_g - outer - re_.field.eval_unchecked(pts)))


def check_compat_rejection(mesh, rng, cache):
    """Flux pairings against the component lengths; 1.0 if the datum is accepted."""
    topo = mesh.topology
    res = 0.0
    for side, solve in zip(_SIDES, (neumann_interior, neumann_exterior)):
        try:
            solve(mesh, np.ones(mesh.n))
            return 1.0
        except IncompatibleData as exc:
            pairings = exc.pairings
        for k, val in zip(_compat_rows(topo, side), pairings):
            res = max(res, abs(val - integrate(mesh, indicator(topo, side.indicator, k))))
    return res


class _Check(NamedTuple):
    name: str
    run: Callable  # (mesh, rng, cache) -> residual
    tol: float  # the row passes when its residual is at most tol
    identity: str


_CHECKS = (
    _Check("w1-half", check_w1_half, 1e-10,
           "double-layer operator maps the constant 1 to 1/2"),
    _Check("plemelj-classical", check_plemelj_classical, 1e-7,
           "V Wt = W V on grid densities"),
    _Check("plemelj-distributional", check_plemelj_distributional, 1e-6,
           "V[Wt tau] = W V[tau] on pair distributions"),
    _Check("jump-single", check_jump_single, 1e-6,
           "harmonic extensions of the single-layer trace match the field on both sides"),
    _Check("jump-double", check_jump_double, 1e-6,
           "harmonic extensions of +-psi/2 + W psi match the double-layer field"),
    _Check("dist-jump", check_dist_jump, 1e-6,
           "normal derivative of the single layer of tau is -tau/2 +- Wt tau"),
    _Check("third-green-int", partial(_third_green, region="interior"), 1e-6,
           "u = double layer of trace minus single layer of normal derivative"),
    _Check("third-green-ext", partial(_third_green, region="exterior"), 1e-6,
           "u = -double layer - single layer + value at infinity"),
    _Check("dlintesl-plus", partial(_dlintesl, side="plus"), 1e-6,
           "single layer of interior transpose part = double layer minus harmonic extension"),
    _Check("dlintesl-minus", partial(_dlintesl, side="minus"), 1e-6,
           "single layer of exterior transpose part = -double layer (+ extension, constant)"),
    _Check("VSt-identities", check_vst_identities, 1e-6,
           "closed traces: V rep(S+^t mu) = (-1/2+W) mu and minus-side analogue"),
    _Check("symmetry", check_symmetry, 1e-6,
           "<tau, V psi> = <V[tau], psi> in the weighted pairing"),
    _Check("J-isometry-roundtrip", check_j_roundtrip, 1e-6,
           "mean-corrected single-layer trace is invertible on pairs"),
    _Check("space-coincidence", check_space_coincidence, 1e-6,
           "plus- and minus-side pair encodings represent the same distributions"),
    _Check("nullspace-dims", check_nullspace_dims, 1e-5,
           "kernel dims of +-1/2+W count exterior/interior components; transpose kernels agree"),
    _Check("poisson-reps", check_poisson_reps, 1e-6,
           "Green-function representation reproduces Dirichlet solutions, vanishes off-side"),
    _Check("compat-rejection", check_compat_rejection, 1e-10,
           "constant Neumann datum is rejected with per-component fluxes"),
)

STOCK_TRIO = ("disk", "ellipse", "annulus")


def run_verify(meshes=None, n=256, seed=DEFAULT_SEED):
    """Run the whole identity suite and collect a VerifyReport.

    meshes is a dict name -> BoundaryMesh; by default the stock trio
    (disk, ellipse, annulus) at n nodes per component.  seed seeds every
    check's draws, and each row is judged against its check's tolerance,
    which no caller can change.  The checks on one mesh share one
    _MeshCache, which is dropped before the next mesh.
    """
    if meshes is None:
        meshes = {name: stock_mesh(name, n) for name in STOCK_TRIO}
    report = VerifyReport(seed=seed, n=n, geometries=list(meshes))
    for geom, mesh in meshes.items():
        # replacing the previous mesh's cache drops its factors and probes
        cache = _MeshCache(mesh)
        for check in _CHECKS:
            rng = np.random.default_rng(
                [seed, zlib.crc32(check.name.encode()), zlib.crc32(geom.encode())]
            )
            residual = check.run(mesh, rng, cache=cache)
            report.rows.append(CheckRow(name=check.name, identity=check.identity,
                                        geometry=geom, residual=residual, tol=check.tol,
                                        passed=bool(residual <= check.tol)))
    return report
