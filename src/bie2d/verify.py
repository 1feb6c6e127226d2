"""Identity suite: every operator identity the library is built on, as checks.

Each check produces one row (name, the identity it exercises, geometry,
residual, tolerance, pass/fail).  Residuals are computed from two
independent computational routes wherever possible, e.g. the single layer
of a transpose-part distribution is evaluated both through its grid
representer (plain quadrature) and through its double-layer/harmonic-
extension representation.  Randomness is a seeded truncated Fourier
series, so two runs of the same configuration produce identical reports.
"""

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleData
from .geometry import indicator, integrate, locate_points, pairing, stock_mesh
from .operators import _SIDES, _side, operator_set
from .potentials import eval_double_layer, eval_single_layer, trace_double
from .distributions import (
    J_inverse,
    J_isometry,
    PairDistribution,
    V_of_distribution,
    dist_jump_check,
    dist_pairing,
    dist_single_layer_field,
    to_grid_representer,
)
from .solvers import (
    _dirichlet,
    check_compat_exterior,
    check_compat_interior,
    dirichlet_exterior,
    dirichlet_interior,
    kernel_coincidence_angle,
    neumann_exterior,
    neumann_interior,
    nullspace,
    poisson_exterior,
    poisson_interior,
)

DEFAULT_SEED = 20260810
DEFAULT_TOLS = {
    "w1-half": 1e-10,
    "plemelj-classical": 1e-7,
    "plemelj-distributional": 1e-6,
    "jump-single": 1e-6,
    "jump-double": 1e-6,
    "dist-jump": 1e-6,
    "third-green-int": 1e-6,
    "third-green-ext": 1e-6,
    "dlintesl-plus": 1e-6,
    "dlintesl-minus": 1e-6,
    "VSt-identities": 1e-6,
    "symmetry": 1e-6,
    "J-isometry-roundtrip": 1e-6,
    "space-coincidence": 1e-6,
    "nullspace-dims": 1e-5,
    "poisson-reps": 1e-6,
    "compat-rejection": 1e-10,
}

IDENTITY_TEXT = {
    "w1-half": "double-layer operator maps the constant 1 to 1/2",
    "plemelj-classical": "V Wt = W V on grid densities",
    "plemelj-distributional": "V[Wt tau] = W V[tau] on pair distributions",
    "jump-single": "harmonic extensions of the single-layer trace match the field on both sides",
    "jump-double": "harmonic extensions of +-psi/2 + W psi match the double-layer field",
    "dist-jump": "normal derivative of the single layer of tau is -tau/2 +- Wt tau",
    "third-green-int": "u = double layer of trace minus single layer of normal derivative",
    "third-green-ext": "u = -double layer - single layer + value at infinity",
    "dlintesl-plus": "single layer of interior transpose part = double layer minus harmonic extension",
    "dlintesl-minus": "single layer of exterior transpose part = -double layer (+ extension, constant)",
    "VSt-identities": "closed traces: V rep(S+^t mu) = (-1/2+W) mu and minus-side analogue",
    "symmetry": "<tau, V psi> = <V[tau], psi> in the weighted pairing",
    "J-isometry-roundtrip": "mean-corrected single-layer trace is invertible on pairs",
    "space-coincidence": "plus- and minus-side pair encodings represent the same distributions",
    "nullspace-dims": "kernel dims of +-1/2+W count exterior/interior components; transpose kernels agree",
    "poisson-reps": "Green-function representation reproduces Dirichlet solutions, vanishes off-side",
    "compat-rejection": "constant Neumann datum is rejected with per-component fluxes",
}


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


def seeded_density(mesh, rng, degree=8, zero_mean=False):
    """Smooth random density: truncated Fourier series in the parameter."""
    f = rng.uniform(-1.0, 1.0) * np.ones(mesh.n)
    for k in range(1, degree + 1):
        a, b = rng.uniform(-1.0, 1.0, size=2) / (1.0 + k)
        f = f + a * np.cos(k * mesh.t) + b * np.sin(k * mesh.t)
    if zero_mean:
        f = f - integrate(mesh, f) / integrate(mesh, np.ones(mesh.n))
    return f


def probe_points(mesh, region, count=25, min_dist=0.2, prefer="far"):
    """Probes offset along the normals, at least min_dist from the nodes.

    Several offsets are tried so that narrow regions (an annulus at coarse
    resolution) still yield points clear of both the minimum distance and
    the near-boundary band.  prefer='far' keeps the most distant
    candidates (accuracy), prefer='near' the closest admissible ones
    (useful to expose the convergence rate).
    """
    sign = _side(region, "region").sign
    topo = mesh.topology
    band = mesh.band_width()
    keep_dist = max(min_dist, 1.2 * band)
    step = max(1, mesh.n // (2 * count))
    offsets = sorted({1.25 * keep_dist, 0.25, 0.35, 0.5, 2.5 * band})
    blocks = [mesh.x[::step] - sign * d * mesh.normal[::step] for d in offsets]
    if sign < 0:
        far = 2.0 * float(np.max(np.linalg.norm(mesh.x, axis=1)))
        theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        blocks.append(far * np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    candidates = np.concatenate(blocks)
    locs = locate_points(mesh, topo, candidates)
    dist = np.min(
        np.linalg.norm(candidates[:, None, :] - mesh.x[None, :, :], axis=-1), axis=1
    )
    keep = [
        i
        for i, loc in enumerate(locs)
        if loc.kind == region and dist[i] >= keep_dist
    ]
    keep.sort(key=lambda i: dist[i] if prefer == "near" else -dist[i])
    return candidates[keep][:count]


def _sup(x):
    return float(np.max(np.abs(x)))


# --- individual checks -----------------------------------------------------


def check_w1_half(mesh, rng, negative_control=False):
    ops = operator_set(mesh)
    W = -ops.W if negative_control else ops.W
    return _sup(W @ np.ones(mesh.n) - 0.5)


def check_plemelj_classical(mesh, rng, count=20):
    ops = operator_set(mesh)
    res = 0.0
    for _ in range(count):
        f = seeded_density(mesh, rng)
        res = max(res, _sup(ops.V @ ops._wt(f) - ops.W @ (ops.V @ f)))
    return res


def _seeded_pairs(mesh, rng, count=10, zero_mean=False):
    pairs = []
    for i in range(count):
        side = _SIDES[i % 2].name
        mu0 = seeded_density(mesh, rng, zero_mean=zero_mean)
        mu1 = seeded_density(mesh, rng)
        pairs.append(PairDistribution(side, mu0, mu1, mesh))
    return pairs


def check_plemelj_distributional(mesh, rng, count=10):
    from .distributions import Wt_on_distribution

    ops = operator_set(mesh)
    res = 0.0
    for tau in _seeded_pairs(mesh, rng, count):
        lhs = V_of_distribution(Wt_on_distribution(tau))
        rhs = ops.W @ V_of_distribution(tau)
        res = max(res, _sup(lhs - rhs))
    return res


def check_jump_single(mesh, rng):
    mu = seeded_density(mesh, rng, zero_mean=True)
    trace = operator_set(mesh).V @ mu
    res = 0.0
    for side in _SIDES:
        pts = probe_points(mesh, side.region)
        fld = _dirichlet(mesh, trace, side.region).field
        res = max(res, _sup(fld.eval_unchecked(pts) - eval_single_layer(mesh, mu, pts)))
    return res


def check_jump_double(mesh, rng):
    psi = seeded_density(mesh, rng)
    res = 0.0
    for side in _SIDES:
        pts = probe_points(mesh, side.region)
        fld = _dirichlet(mesh, trace_double(mesh, psi, side.name), side.region).field
        res = max(res, _sup(fld.eval_unchecked(pts) - eval_double_layer(mesh, psi, pts)))
    return res


def check_dist_jump(mesh, rng, count=6):
    res = 0.0
    for tau in _seeded_pairs(mesh, rng, count, zero_mean=True):
        out = dist_jump_check(tau)
        res = max(res, out.interior)
        if out.exterior is not None:
            res = max(res, out.exterior)
    # a massful pair exercises only the interior branch
    tau = PairDistribution(
        "plus", 1.0 + seeded_density(mesh, rng), seeded_density(mesh, rng), mesh
    )
    out = dist_jump_check(tau)
    res = max(res, out.interior)
    return res


def _third_green(mesh, rng, region, prefer):
    """Green's third identity in the region; the same integral vanishes off it."""
    side = _side(region, "region")
    g = seeded_density(mesh, rng)
    solution = _dirichlet(mesh, g, region)
    rep_nd = operator_set(mesh).rep(side.name, g)
    const = solution.u_infinity or 0.0

    def recon(pts):
        single = eval_single_layer(mesh, rep_nd, pts)
        return side.sign * eval_double_layer(mesh, g, pts) - single + const

    pts = probe_points(mesh, region, prefer=prefer)
    res = _sup(recon(pts) - solution.field.eval_unchecked(pts))
    other = probe_points(mesh, side.opposite.region, prefer=prefer)
    return max(res, _sup(recon(other)))


def check_third_green_interior(mesh, rng, prefer="far"):
    return _third_green(mesh, rng, "interior", prefer)


def check_third_green_exterior(mesh, rng, prefer="far"):
    return _third_green(mesh, rng, "exterior", prefer)


def _dlintesl(mesh, rng, side):
    """Single layer of (side, 0, mu): its grid representer against the closed form."""
    mu = seeded_density(mesh, rng)
    rep = operator_set(mesh).rep(side, mu)
    tau = PairDistribution(side, np.zeros(mesh.n), mu, mesh)
    res = 0.0
    for region in (s.region for s in _SIDES):
        pts = probe_points(mesh, region)
        closed = dist_single_layer_field(tau, pts, region)
        res = max(res, _sup(eval_single_layer(mesh, rep, pts) - closed))
    return res


def check_dlintesl_plus(mesh, rng):
    return _dlintesl(mesh, rng, "plus")


def check_dlintesl_minus(mesh, rng):
    return _dlintesl(mesh, rng, "minus")


def check_vst_identities(mesh, rng, count=10):
    """V rep(side, mu) against the closed trace of the pair (side, 0, mu)."""
    ops = operator_set(mesh)
    zero = np.zeros(mesh.n)
    res = 0.0
    for _ in range(count):
        mu = seeded_density(mesh, rng)
        for side in _SIDES:
            closed = V_of_distribution(PairDistribution(side.name, zero, mu, mesh))
            res = max(res, _sup(ops.V @ ops.rep(side.name, mu) - closed))
    return res


def check_symmetry(mesh, rng, count=10):
    ops = operator_set(mesh)
    res = 0.0
    for tau in _seeded_pairs(mesh, rng, count):
        psi = seeded_density(mesh, rng)
        lhs = dist_pairing(tau, ops.V @ psi)
        rhs = pairing(mesh, V_of_distribution(tau), psi)
        res = max(res, abs(lhs - rhs))
    return res


def check_j_roundtrip(mesh, rng, count=5):
    res = 0.0
    for tau in _seeded_pairs(mesh, rng, count):
        g = J_isometry(tau)
        back = J_inverse(mesh, g, side=tau.side)
        res = max(res, _sup(J_isometry(back) - g))
        rep = to_grid_representer(tau).representer
        res = max(res, _sup(to_grid_representer(back).representer - rep))
    return res


def check_space_coincidence(mesh, rng, count=5):
    res = 0.0
    for tau in _seeded_pairs(mesh, rng, count):
        other = _side(tau.side).opposite.name
        tau2 = J_inverse(mesh, J_isometry(tau), side=other)
        rep = to_grid_representer(tau).representer
        res = max(res, _sup(to_grid_representer(tau2).representer - rep))
    return res


def check_nullspace_dims(mesh, rng):
    """Largest kernel angle; pi/2, the largest angle, for a wrong dimension or gap."""
    topo = mesh.topology
    expected = {
        "half_plus_W": topo.kappa_minus,
        "minus_half_plus_W": topo.kappa_plus,
        "half_plus_Wt": topo.kappa_minus,
        "minus_half_plus_Wt": topo.kappa_plus,
    }
    for kind, dim in expected.items():
        basis = nullspace(mesh, kind)
        if basis.dimension != dim or basis.gap < 1e4:
            return np.pi / 2
    return max(
        kernel_coincidence_angle(mesh, "half_plus_Wt"),
        kernel_coincidence_angle(mesh, "minus_half_plus_Wt"),
    )


def check_poisson_reps(mesh, rng):
    g = seeded_density(mesh, rng)
    rd = dirichlet_interior(mesh, g)
    re_ = dirichlet_exterior(mesh, g)
    res = 0.0
    for p in probe_points(mesh, "interior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p) - rd.field.eval_unchecked(p[None, :])[0]))
        val, c_g = poisson_exterior(mesh, g, p)
        res = max(res, abs(val))
        res = max(res, abs(c_g - re_.u_infinity))
    for p in probe_points(mesh, "exterior", count=10):
        res = max(res, abs(poisson_interior(mesh, g, p)))
        val, _ = poisson_exterior(mesh, g, p)
        res = max(res, abs(val - re_.field.eval_unchecked(p[None, :])[0]))
    return res


def check_compat_rejection(mesh, rng):
    """Flux pairings against the component lengths; 1.0 if the datum is accepted."""
    topo = mesh.topology
    ones = np.ones(mesh.n)
    res = 0.0
    # pairing k of each side belongs to the k-th component of its region
    for solve, pairings, region, first in (
        (neumann_interior, check_compat_interior, "omega", 1),
        (neumann_exterior, check_compat_exterior, "omega_minus", 0),
    ):
        try:
            solve(mesh, ones)
            return 1.0
        except IncompatibleData:
            pass
        for k, val in enumerate(pairings(mesh, ones), start=first):
            res = max(res, abs(val - integrate(mesh, indicator(topo, region, k))))
    return res


_CHECKS = [
    ("w1-half", check_w1_half),
    ("plemelj-classical", check_plemelj_classical),
    ("plemelj-distributional", check_plemelj_distributional),
    ("jump-single", check_jump_single),
    ("jump-double", check_jump_double),
    ("dist-jump", check_dist_jump),
    ("third-green-int", check_third_green_interior),
    ("third-green-ext", check_third_green_exterior),
    ("dlintesl-plus", check_dlintesl_plus),
    ("dlintesl-minus", check_dlintesl_minus),
    ("VSt-identities", check_vst_identities),
    ("symmetry", check_symmetry),
    ("J-isometry-roundtrip", check_j_roundtrip),
    ("space-coincidence", check_space_coincidence),
    ("nullspace-dims", check_nullspace_dims),
    ("poisson-reps", check_poisson_reps),
    ("compat-rejection", check_compat_rejection),
]

STOCK_TRIO = ("disk", "ellipse", "annulus")


def run_verify(
    meshes=None,
    n=256,
    seed=DEFAULT_SEED,
    tol_overrides=None,
    negative_control=False,
):
    """Run the whole identity suite and collect a VerifyReport.

    meshes is a dict name -> BoundaryMesh; by default the stock trio
    (disk, ellipse, annulus) at n nodes per component.
    """
    if meshes is None:
        meshes = {name: stock_mesh(name, n) for name in STOCK_TRIO}
    tols = dict(DEFAULT_TOLS)
    if tol_overrides:
        tols.update(tol_overrides)
    report = VerifyReport(seed=seed, n=n, geometries=list(meshes))
    for geom, mesh in meshes.items():
        for name, fn in _CHECKS:
            rng = np.random.default_rng(
                [seed, zlib.crc32(name.encode()), zlib.crc32(geom.encode())]
            )
            if name == "w1-half":
                residual = fn(mesh, rng, negative_control=negative_control)
            else:
                residual = fn(mesh, rng)
            tol = tols[name]
            report.rows.append(
                CheckRow(
                    name=name,
                    identity=IDENTITY_TEXT[name],
                    geometry=geom,
                    residual=residual,
                    tol=tol,
                    passed=bool(residual <= tol),
                )
            )
    return report
