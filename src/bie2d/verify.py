"""Identity suite: every operator identity the library is built on, as checks.

Each check produces one row (name, the identity it exercises, geometry,
residual, tolerance, pass/fail).  Residuals are computed from two
independent computational routes wherever possible, e.g. the single layer
of a transpose-part distribution is evaluated both through its grid
representer (plain quadrature) and through its double-layer/harmonic-
extension representation.  Randomness is a seeded truncated Fourier
series, so two runs of the same configuration produce identical reports.

run_verify holds one _MeshCache per mesh: the J factor of each side
(distributions.JMap), the probe point sets, keyed by (region, count,
prefer), and the cos(k t), sin(k t) table of the seeded densities.  Each
is built once on first use, shared read-only by the checks on that mesh,
and dropped with the cache before the next mesh.  Each check takes the
mesh's _MeshCache: run_verify calls it as run(mesh, rng, cache=cache).
"""

import numbers
import sys
import zlib
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, IncompatibleData, InvalidProbe, OutOfRange
from .geometry import _TargetBlocks, indicator, integrate, pairing, stock_mesh
from .operators import _SIDES, _side, operator_set
from .potentials import eval_double_layer, eval_single_layer, trace_double
from .distributions import (
    J_isometry,
    JMap,
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    dist_jump_check,
    dist_pairing,
    dist_single_layer_field,
    to_grid_representer,
)
from .solvers import (
    _OP_KINDS,
    _compat_rows,
    _dirichlet,
    _subspace_angle,
    _wt_solve,
    dirichlet_exterior,
    dirichlet_interior,
    neumann_exterior,
    neumann_interior,
    nullspace,
    poisson_exterior,
    poisson_interior,
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


def probe_points(mesh, region, count=25, prefer="far"):
    """Probes offset along the normals, at least 0.2 from the nodes.

    Several offsets are tried so that narrow regions (an annulus at coarse
    resolution) still yield points clear of both the minimum distance and
    the near-boundary band.  prefer='far' keeps the most distant
    candidates (accuracy), prefer='near' the closest admissible ones
    (useful to expose the convergence rate).  Raises InvalidProbe when no
    candidate qualifies: the region is too narrow for the band at this
    node count.  count must be an int >= 1 and prefer 'far' or 'near', else
    OutOfRange.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise OutOfRange(f"count must be an int >= 1, got {count!r}")
    if prefer not in ("far", "near"):
        raise OutOfRange(f"prefer must be 'far' or 'near', got {prefer!r}")
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
    dist, inside = _TargetBlocks(mesh, candidates).in_region(region)
    keep = np.flatnonzero(inside & (dist >= keep_dist))
    if not keep.size:
        nodes = "/".join(str(m) for m in mesh.n_per_comp)
        raise InvalidProbe(f"no {region} probe point clears the near-boundary band "
                           f"with {nodes} nodes per curve")
    order = np.argsort(dist[keep] if prefer == "near" else -dist[keep], kind="stable")
    return candidates[keep[order]][:count]


class _MeshCache:
    """What the checks on one mesh share: the J factor of each side, the probe
    sets and the Fourier table of the seeded densities.

    Each is built on first use.  run_verify holds one cache per mesh and
    drops it before the next mesh.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self._jmaps = {}
        self._probes = {}

    @cached_property
    def fourier(self):
        """cos(k t) and sin(k t) for k = 1..8, the modes of a seeded density."""
        kt = np.arange(1, 9)[:, None] * self.mesh.t
        return np.cos(kt), np.sin(kt)

    def density(self, rng, zero_mean=False):
        """seeded_density of the mesh, from the cached Fourier table."""
        mesh = self.mesh
        f = rng.uniform(-1.0, 1.0) * np.ones(mesh.n)
        for k, (cos_k, sin_k) in enumerate(zip(*self.fourier), start=1):
            a, b = rng.uniform(-1.0, 1.0, size=2) / (1.0 + k)
            f = f + a * cos_k + b * sin_k
        if zero_mean:
            f = f - integrate(mesh, f) / integrate(mesh, np.ones(mesh.n))
        return f

    def jmap(self, side):
        """The JMap of the mesh on one side."""
        if side not in self._jmaps:
            self._jmaps[side] = JMap(self.mesh, side)
        return self._jmaps[side]

    def probes(self, region, count=25, prefer="far"):
        """probe_points of the mesh, found once per (region, count, prefer) and read-only."""
        key = (region, count, prefer)
        if key not in self._probes:
            pts = probe_points(self.mesh, region, count, prefer=prefer)
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
    res = 0.0
    for _ in range(20):
        f = cache.density(rng)
        res = max(res, _sup(ops.single_layer(ops._wt(f)) - ops.W @ ops.single_layer(f)))
    return res


def _seeded_pairs(cache, rng, count, zero_mean=False):
    pairs = []
    for i in range(count):
        side = _SIDES[i % 2].name
        mu0 = cache.density(rng, zero_mean=zero_mean)
        mu1 = cache.density(rng)
        pairs.append(PairDistribution(side, mu0, mu1, cache.mesh))
    return pairs


def check_plemelj_distributional(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for tau in _seeded_pairs(cache, rng, 10):
        lhs = V_of_distribution(Wt_on_distribution(tau, cache.jmap(tau.side)))
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
    for tau in _seeded_pairs(cache, rng, 6, zero_mean=True):
        out = dist_jump_check(tau)
        res = max(res, out.interior)
        if out.exterior is not None:
            res = max(res, out.exterior)
    # a massful pair exercises only the interior branch
    tau = PairDistribution(
        "plus", 1.0 + cache.density(rng), cache.density(rng), mesh
    )
    out = dist_jump_check(tau)
    res = max(res, out.interior)
    return res


def _third_green(mesh, rng, cache, region, prefer):
    """Green's third identity in the region; the same integral vanishes off it."""
    side = _side(region, "region")
    g = cache.density(rng)
    solution = _dirichlet(mesh, g, region)
    rep_nd = operator_set(mesh).rep(side.name, g)
    const = solution.u_infinity or 0.0

    def recon(pts):
        single = eval_single_layer(mesh, rep_nd, pts)
        return side.sign * eval_double_layer(mesh, g, pts) - single + const

    pts = cache.probes(region, prefer=prefer)
    res = _sup(recon(pts) - solution.field.eval_unchecked(pts))
    other = cache.probes(side.opposite.region, prefer=prefer)
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
    zero = np.zeros(mesh.n)
    res = 0.0
    for _ in range(10):
        mu = cache.density(rng)
        for side in _SIDES:
            closed = V_of_distribution(PairDistribution(side.name, zero, mu, mesh))
            res = max(res, _sup(ops.single_layer(ops.rep(side.name, mu)) - closed))
    return res


def check_symmetry(mesh, rng, cache):
    ops = operator_set(mesh)
    res = 0.0
    for tau in _seeded_pairs(cache, rng, 10):
        psi = cache.density(rng)
        lhs = dist_pairing(tau, ops.single_layer(psi))
        rhs = pairing(mesh, V_of_distribution(tau), psi)
        res = max(res, abs(lhs - rhs))
    return res


def check_j_roundtrip(mesh, rng, cache):
    res = 0.0
    for tau in _seeded_pairs(cache, rng, 5):
        g = J_isometry(tau)
        back = cache.jmap(tau.side).pair(g)
        res = max(res, _sup(J_isometry(back) - g))
        rep = to_grid_representer(tau)
        res = max(res, _sup(to_grid_representer(back) - rep))
    return res


def check_space_coincidence(mesh, rng, cache):
    res = 0.0
    for tau in _seeded_pairs(cache, rng, 5):
        tau2 = cache.jmap(_side(tau.side).opposite.name).pair(J_isometry(tau))
        rep = to_grid_representer(tau)
        res = max(res, _sup(to_grid_representer(tau2) - rep))
    return res


def check_nullspace_dims(mesh, rng, cache):
    """Largest angle between each side's Wt kernel and its two twins.

    nullspace reads the Wt kernel from one SVD of shift I + W, whose W
    kernel has the same dimension.  The twins of the Wt kernel are the
    pair-route kernel (a pivoted QR) and the measured kernel of the Neumann
    solvers' bordered GMRES; both come from other matrices than that SVD.
    pi/2, the largest angle, when the kernel misses its side's component
    count or its singular-value gap.
    """
    worst = 0.0
    for kind, (side, op) in _OP_KINDS.items():
        if op != "Wt":
            continue
        basis = nullspace(mesh, kind)
        if basis.gap < 1e4 or basis.dimension != getattr(mesh.topology, side.kappa):
            return np.pi / 2
        wt = basis.vectors
        gmres_kernel = _wt_solve(mesh, side, np.zeros(mesh.n)).kernel
        pair_kernel = transpose_kernel_pair_basis(mesh, kind, cache.jmap("plus"))
        worst = max(worst, _subspace_angle(wt, pair_kernel), _subspace_angle(wt, gmres_kernel))
    return worst


def check_poisson_reps(mesh, rng, cache):
    g = cache.density(rng)
    rd = dirichlet_interior(mesh, g)
    re_ = dirichlet_exterior(mesh, g)
    res = 0.0
    for p in cache.probes("interior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p) - rd.field.eval_unchecked(p[None, :])[0]))
        val, c_g = poisson_exterior(mesh, g, p)
        res = max(res, abs(val))
        res = max(res, abs(c_g - re_.u_infinity))
    for p in cache.probes("exterior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p)))
        val, _ = poisson_exterior(mesh, g, p)
        res = max(res, abs(val - re_.field.eval_unchecked(p[None, :])[0]))
    return res


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
    tol: float  # default tolerance, which tol_overrides may replace
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
    _Check("third-green-int", partial(_third_green, region="interior", prefer="far"), 1e-6,
           "u = double layer of trace minus single layer of normal derivative"),
    _Check("third-green-ext", partial(_third_green, region="exterior", prefer="far"), 1e-6,
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


def check_tol_overrides(tol_overrides):
    """tol_overrides (None or a dict check name -> tolerance) as a dict of floats.

    Raises ConfigError for anything but a dict, for a key that names no
    check, and for a tolerance that is not a finite non-negative number.
    """
    if tol_overrides is None:
        return {}
    if not isinstance(tol_overrides, dict):
        raise ConfigError(f"tol_overrides: expected an object, got {tol_overrides!r}")
    names = {check.name for check in _CHECKS}
    for name, tol in tol_overrides.items():
        if name not in names:
            raise ConfigError(f"tol_overrides: {name!r} names no verify check")
        # the bound fails for NaN and inf, and an int compares with it exactly
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
                or not 0 <= tol <= sys.float_info.max:
            raise ConfigError(f"tol_overrides.{name}: expected a finite non-negative "
                              f"number, got {tol!r}")
    return {name: float(tol) for name, tol in tol_overrides.items()}


def run_verify(meshes=None, n=256, seed=DEFAULT_SEED, tol_overrides=None):
    """Run the whole identity suite and collect a VerifyReport.

    meshes is a dict name -> BoundaryMesh; by default the stock trio
    (disk, ellipse, annulus) at n nodes per component.  The checks on one
    mesh share one _MeshCache, which is dropped before the next mesh.
    tol_overrides is checked by check_tol_overrides.
    """
    tols = {check.name: check.tol for check in _CHECKS}
    tols.update(check_tol_overrides(tol_overrides))
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
            tol = tols[check.name]
            report.rows.append(CheckRow(name=check.name, identity=check.identity,
                                        geometry=geom, residual=residual, tol=tol,
                                        passed=bool(residual <= tol)))
    return report
