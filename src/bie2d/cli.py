"""Command-line front end: solve, verify, and the infinite-energy demo.

A config file gives the domain and the output directory (the problem and
data come from the flags alone; keys the loader does not know are ignored),
and every command writes its outputs through _write_outputs, the strict-JSON
report last.

Exit codes are a stable contract: 0 success, 1 verify failures, 2 bad
configuration, 3 incompatible Neumann data, 4 numerical failure.
"""

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Bie2dError,
    ConfigError,
    IncompatibleData,
    InvalidGeometry,
    InvalidProbe,
    LengthMismatch,
    NonFiniteResult,
    OutOfRange,
)
from .geometry import (
    CurveSpec,
    _in_region,
    _node_counts,
    _TargetBlocks,
    build_mesh,
    stock_specs,
)
from .operators import operator_set
from .distributions import _one_pair, dist_normal_derivative, pair_from_dict
from .solvers import (
    dirichlet_exterior,
    dirichlet_exterior_via_decomposition,
    dirichlet_interior,
    dirichlet_interior_via_decomposition,
    neumann_exterior,
    neumann_interior,
)
from .verify import STOCK_TRIO, probe_points, run_verify

_SOLVERS = {
    "dirichlet-int": dirichlet_interior,
    "dirichlet-ext": dirichlet_exterior,
    "neumann-int": neumann_interior,
    "neumann-ext": neumann_exterior,
}

# independent second solver whose field is compared at one probe point
_CROSS_SOLVERS = {
    "dirichlet-int": dirichlet_interior_via_decomposition,
    "dirichlet-ext": dirichlet_exterior_via_decomposition,
}

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_NUMERICAL = 4


@dataclass
class RunConfig:
    """Run description: the domain from the config file, the problem and data from flags."""

    components: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    problem: str | None = None
    data: str | None = None
    n_override: int | None = None
    out_dir: str | None = None

    def validate(self):
        hadamard = self.data is not None and self.data.split(":", 1)[0] == "hadamard"
        if hadamard and self.problem not in ("neumann-int", "dirichlet-int", None):
            raise ConfigError(f"data spec 'hadamard' is only valid with neumann-int or "
                              f"dirichlet-int, not {self.problem!r}")
        return self

    def node_counts(self):
        if self.n_override is not None:
            return [self.n_override] * len(self.components)
        return list(self.nodes)

    def build_mesh(self):
        return _geometry(build_mesh, self.components, self.node_counts())


def _memory_limit(cgroup_root="/sys/fs/cgroup", cgroup_list="/proc/self/cgroup"):
    """Bytes this process may use: the smallest of the physical memory and the
    memory limits of its cgroups.  None when none of them is known.

    A limit may be set on any ancestor of the process's own cgroup, so each
    cgroup from the process's own up to the root is read: memory.max for
    version 2 (the '0::' line of cgroup_list), memory.limit_in_bytes under
    the version 1 memory controller.  Files that are missing or unreadable
    or read 'max' set no limit.
    """
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        with open(cgroup_list) as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        hierarchy, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if hierarchy == "0" and not controllers:
            base, name = cgroup_root, "memory.max"
        elif "memory" in controllers.split(","):
            base, name = os.path.join(cgroup_root, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(base, *parts[:depth], name)) as fh:
                    value = fh.read().strip()
                if value != "max":
                    limits.append(int(value))
            except (ValueError, OSError):
                pass
    return min(limits, default=None)


def _check_memory(meshes, arrays=2):
    """Refuse, before any node is built, meshes whose dense arrays outgrow _memory_limit.

    meshes holds (curve specs, node counts) of each mesh the command keeps
    at once; the counts are checked first, as build_mesh checks them.  A
    mesh of N nodes in all has an OperatorSet of 8 N^2 bytes for each of
    the arrays of that size it builds: 16 N^2 for W and the single layer's
    factor, through which the Dirichlet solves, the J map and the grid
    representer of a pair datum (pairjson: or a Neumann hadamard:) solve;
    8 N^2 (arrays=1) for W alone, all that a Neumann solve of a grid datum
    reads.  A Dirichlet solve of the library reads the factor alone, but
    cmd_solve's cross-solver (_CROSS_SOLVERS) reads W as well, so a
    Dirichlet command needs 16 N^2.  Raises ConfigError past the limit.
    """
    totals = [sum(_geometry(_node_counts, specs, counts)) for specs, counts in meshes]
    need = sum(8 * arrays * n**2 for n in totals)
    limit = _memory_limit()
    if limit is not None and need > limit:
        nodes = " + ".join(str(n) for n in totals)
        raise ConfigError(f"{nodes} nodes need about {need / 2**30:.1f} GiB of dense "
                          f"operators, more than the {limit / 2**30:.1f} GiB this process "
                          "may use; use fewer nodes")


def _geometry(build, *args):
    """build(*args) for a mesh, with a bad geometry reported as a configuration error."""
    try:
        return build(*args)
    except InvalidGeometry as exc:
        raise ConfigError(str(exc)) from exc


def _number(value, where, integer=False):
    """A finite JSON number as a float, or with integer set a JSON integer."""
    kind = int if integer else (int, float)
    # the bound fails for NaN and inf, and an int compares with it exactly
    finite = isinstance(value, kind) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        need = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where}: expected {need}, got {value!r}")
    return value if integer else float(value)


def _numbers(value, where, count=None):
    """A JSON list of finite numbers, of the given length if count is set."""
    if not isinstance(value, list) or count not in (None, len(value)):
        raise ConfigError(f"{where}: expected a list of {count or 'finite'} numbers, "
                          f"got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _curve_from_dict(idx, entry):
    where = f"components[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} is not an object")
    kind = entry.get("kind")
    center = _numbers(entry.get("center", [0.0, 0.0]), f"{where}.center", 2)
    try:
        if kind == "circle":
            shape = {"radius": _number(entry["radius"], f"{where}.radius")}
        elif kind == "ellipse":
            shape = {"axes": _numbers(entry["axes"], f"{where}.axes", 2)}
        else:
            shape = {
                key: _numbers(entry.get(key, []), f"{where}.{key}")
                for key in ("cos_x", "sin_x", "cos_y", "sin_y")
            }
        spec = CurveSpec(kind, center=center, **shape)
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from exc
    except InvalidGeometry as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return spec, _number(entry.get("nodes", 128), f"{where}.nodes", integer=True)


def load_config(path, **overrides):
    """Parse a domain config file into a RunConfig; overrides (the CLI flags) win."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno})"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    if not isinstance(raw.get("components"), list) or not raw["components"]:
        raise ConfigError("config needs a nonempty 'components' list")
    comps, nodes = [], []
    for idx, entry in enumerate(raw["components"]):
        spec, nc = _curve_from_dict(idx, entry)
        comps.append(spec)
        nodes.append(nc)
    if not isinstance(raw.get("out", ""), (str, type(None))):
        raise ConfigError(f"out: expected a string, got {raw['out']!r}")
    cfg = RunConfig(components=comps, nodes=nodes, out_dir=raw.get("out"))
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def build_data(cfg, mesh):
    """Materialize the data spec as a grid function or pair distribution."""
    if cfg.data is None:
        raise ConfigError("this problem needs a --data specification")
    name, _, arg = cfg.data.partition(":")
    if name == "constant":
        value = _spec_arg(arg, float, 1.0, "constant data needs a number")
        return _require_finite(np.full(mesh.n, value), f"constant data {arg!r}")
    if name == "fourier":
        k = _spec_arg(arg, int, 1, "fourier data needs a mode index")
        # cos(k t) on n nodes aliases to a lower mode once |k| reaches n/2
        n = min(mesh.n_per_comp)
        if 2 * abs(k) >= n:
            raise ConfigError(f"fourier data cos({k} t) needs more than {2 * abs(k)} "
                              f"nodes on every curve, got {n}")
        return np.cos(k * mesh.t)
    if name == "indicator":
        j = _spec_arg(arg, int, 0, "indicator data needs a curve index")
        if not 0 <= j < mesh.n_components:
            raise ConfigError(f"indicator curve index {j} out of range")
        out = np.zeros(mesh.n)
        out[mesh.component_slice(j)] = 1.0
        return out
    if name == "hadamard":
        terms = _spec_arg(arg, int, 4, "hadamard data needs a term count")
        _require_resolution(terms, min(mesh.n_per_comp))
        trace = hadamard_trace(mesh.t, terms)
        if cfg.problem == "dirichlet-int":
            return trace
        return dist_normal_derivative(mesh, trace, "plus")
    if name == "csv":
        try:
            with warnings.catch_warnings():
                # an empty file is refused below, as a table of 0 rows
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(arg, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read data file {arg}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"data file {arg} {_csv_fault(arg)}") from exc
        if values.shape != (mesh.n, 1):
            rows, columns = values.shape
            raise ConfigError(f"data file {arg} holds a {rows} x {columns} table, mesh has "
                              f"{mesh.n} nodes: expected {mesh.n} rows of one value")
        return _require_finite(values[:, 0], f"data file {arg}")
    if name == "pairjson":
        try:
            with open(arg) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read pair file {arg}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"pair file {arg} is not valid JSON") from exc
        if not isinstance(raw, dict) or not {"side", "mu0", "mu1"} <= raw.keys():
            raise ConfigError(f"pair file {arg} needs an object with side, mu0 and mu1")
        try:
            tau = _one_pair(pair_from_dict(mesh, raw))
        except (LengthMismatch, OutOfRange, TypeError, ValueError) as exc:
            raise ConfigError(f"pair file {arg}: {exc}") from exc
        _require_finite(np.concatenate([tau.mu0, tau.mu1]), f"pair file {arg}")
        # a density pair is a Neumann datum; a sound file is read before it is refused
        if cfg.problem in ("dirichlet-int", "dirichlet-ext"):
            raise ConfigError(f"data spec 'pairjson' is only valid with neumann-int or "
                              f"neumann-ext, not {cfg.problem!r}")
        return tau
    raise ConfigError(f"unknown data spec {cfg.data!r}")


def _csv_fault(path):
    """What np.loadtxt refused in a CSV file: the line where its column count
    changes, or else a value that is not a number.  Read only after a refusal."""
    first = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                data = line.split("#", 1)[0]  # comments and blank lines hold no row
                if not data.strip():
                    continue
                count = data.count(",") + 1
                if first is None:
                    first = count
                elif count != first:
                    return (f"is ragged: its column count changes from {first} to {count} "
                            f"at line {lineno}")
    except (OSError, ValueError):  # a file that cannot be read as text holds no number
        pass
    return "holds a non-numeric value"


def _spec_arg(arg, cast, default, need):
    """The argument of a data spec cast to a number, or the default when empty."""
    try:
        return cast(arg) if arg else default
    except ValueError as exc:
        raise ConfigError(f"{need}, got {arg!r}") from exc


def _require_finite(values, source):
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{source} holds non-finite values")
    return values


def hadamard_trace(t, terms):
    """Lacunary trace sum_{k=1..K} k^-2 cos(2^k t)."""
    out = np.zeros_like(t)
    for k in range(1, terms + 1):
        out += k**-2.0 * np.cos(2.0**k * t)
    return out


def _require_resolution(terms, n):
    """Refuse fewer than 8 * 2**terms nodes, compared through bit lengths so
    that a huge term count forms no power."""
    if terms < 1:
        raise ConfigError(f"hadamard data needs at least 1 term, got {terms}")
    if n < 1 or terms + 3 >= int(n).bit_length():
        needed = 8 * 2**terms if terms < 64 else f"2**{terms + 3}"
        raise ConfigError(
            f"hadamard data with {terms} terms needs at least {needed} nodes, got {n}"
        )


def default_grid(mesh):
    """The 41 x 41 grid over the mesh's bounding box widened by 0.75 on each side,
    as (1681, 2) points with y running fastest."""
    lo = np.min(mesh.x, axis=0) - 0.75
    hi = np.max(mesh.x, axis=0) + 0.75
    xs, ys = np.linspace(lo[0], hi[0], 41), np.linspace(lo[1], hi[1], 41)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def write_field_csv(fld, points, path):
    """Evaluate a field at points, shape (m, 2), and write x,y,u rows (17 significant digits).

    Points outside the field's region or inside the near-boundary band get
    an empty value cell (a field with no region takes every point off the
    band); np.genfromtxt(path, delimiter=",", skip_header=1) reads them back
    as NaN.  The points take two geometry passes: one locates every point
    against the curves whose boxes hold it (_TargetBlocks.locate), and a
    second evaluates the usable points as one set, so that their blocks
    start on multiples of 8 rows of that set and each value has the bits of
    one product over all usable points on one BLAS thread.  Evaluating each
    block's usable rows would move some values by an ulp.  The rows are
    written as csv.writer writes them, \r\n ends included, by one % over
    a format string joined from one format per row.
    """
    targets = _TargetBlocks(fld.mesh, points)
    dist, outward, _ = targets.locate()
    usable = _in_region(fld.mesh, dist, outward, fld.region)
    rows = np.empty((len(targets), 3))
    rows[:, :2] = targets.points
    rows[usable, 2] = fld.eval_unchecked(targets.points[usable])
    cells = np.ones(rows.shape, dtype=bool)
    cells[:, 2] = usable
    formats = ["%.17g,%.17g,%.17g\r\n" if ok else "%.17g,%.17g,\r\n" for ok in usable.tolist()]
    text = "x,y,u\r\n" + "".join(formats) % tuple(rows[cells].tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_outputs(out_dir, name, report, *writes):
    """Run each of writes, then write the report into out_dir as strict JSON; its path.

    A NaN or infinity in the report is a numerical failure found before
    anything is written.  The report, which marks a finished run, comes
    last, so an output that cannot be written (a config error) leaves none.
    """
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResult(f"{name} would hold a non-finite value") from exc
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        for write in writes:
            write()
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out_dir}: {exc.strerror}") from exc
    return path


def cmd_solve(cfg):
    """Run one boundary value problem; write report JSON and field CSV."""
    if cfg.problem not in _SOLVERS:
        raise ConfigError(f"problem {cfg.problem!r} is not a solve problem")
    # pairjson and hadamard data of a Neumann solve are pairs with a transpose part
    pair = (cfg.data or "").partition(":")[0] in ("pairjson", "hadamard")
    grid_neumann = cfg.problem.startswith("neumann") and not pair
    _check_memory([(cfg.components, cfg.node_counts())], arrays=1 if grid_neumann else 2)
    mesh = cfg.build_mesh()
    data = build_data(cfg, mesh)
    if cfg.problem in _CROSS_SOLVERS:
        # the cross-solver reads W: built before the solve's factor, W's own
        # pass makes the W 1 = 1/2 gate, which the factor would otherwise make
        operator_set(mesh).W
    report = _SOLVERS[cfg.problem](mesh, data)
    if cfg.problem in _CROSS_SOLVERS:
        cross = _CROSS_SOLVERS[cfg.problem](mesh, np.asarray(data, dtype=float))
        try:
            probe = probe_points(mesh, report.field.region, count=1)
        except InvalidProbe:  # the region is too narrow for a probe at this resolution
            probe = None
        if probe is not None:
            diff = abs(
                report.field.eval_unchecked(probe)[0] - cross.field.eval_unchecked(probe)[0]
            )
            report.residuals["cross_solver"] = diff
    out_dir = cfg.out_dir or "."
    csv_path = os.path.join(out_dir, "solve_field.csv")
    json_path = _write_outputs(
        out_dir, "solve_report.json", report.to_dict(),
        lambda: write_field_csv(report.field, default_grid(mesh), csv_path))
    print(f"report: {json_path}")
    print(f"field:  {csv_path}")
    worst = max(report.residuals.values(), default=0.0)
    print(f"max residual: {worst:.3e}")
    return EXIT_OK


def cmd_verify(cfg):
    """Run the identity suite; one row per check and geometry."""
    # every mesh stays, with its operators, to the end of the run
    if cfg.components:
        _check_memory([(cfg.components, cfg.node_counts())])
        meshes = {"config": cfg.build_mesh()}
        n = max(cfg.node_counts())
    else:
        # run_verify builds the stock trio once this check accepts its node counts
        n = 256 if cfg.n_override is None else cfg.n_override
        specs = [stock_specs(name) for name in STOCK_TRIO]
        _check_memory([(spec, [n] * len(spec)) for spec in specs])
        meshes = None
    try:
        report = run_verify(meshes=meshes, n=n)
    except InvalidProbe as exc:
        # the suite evaluates fields only at its own probe points, so this
        # means a region too narrow for the band at this node count
        raise ConfigError(f"{exc}; raise --n") from exc
    for row in report.rows:
        flag = "PASS" if row.passed else "FAIL"
        print(
            f"{flag} {row.geometry:10s} {row.name:24s} "
            f"residual={row.residual:.3e} tol={row.tol:.1e}"
        )
    path = _write_outputs(cfg.out_dir or ".", "verify_report.json", report.to_dict())
    print(f"report: {path}")
    print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_demo_hadamard(terms, n, out_dir="."):
    """Neumann solve of the lacunary trace plus its divergent energy table.

    Builds the trace g_K, takes its distributional normal derivative,
    solves the interior Neumann problem with it, and reports the recovery
    error against the analytic partial sum on the r = 1/2 ring together
    with the Dirichlet energies of the partial sums (closed form pi
    sum 2^k / k^4, and the same number recomputed through the discrete
    Dirichlet-to-Neumann pairing).
    """
    _require_resolution(terms, n)
    disk = [CurveSpec("circle", radius=1.0)]
    _check_memory([(disk, [n])])
    mesh = _geometry(build_mesh, disk, [n])
    if mesh.band_width() >= 0.5:
        raise ConfigError(f"the r = 1/2 recovery ring lies in the near-boundary band "
                          f"of {n} nodes; demo-hadamard needs at least 26")
    ops = operator_set(mesh)
    trace = hadamard_trace(mesh.t, terms)
    tau = dist_normal_derivative(mesh, trace, "plus")
    report = neumann_interior(mesh, tau)

    theta = 2.0 * np.pi * np.arange(max(64, 4 * 2**terms)) / max(64, 4 * 2**terms)
    ring = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u_ring = report.field.eval_unchecked(ring)
    exact = np.zeros_like(theta)
    for k in range(1, terms + 1):
        exact += k**-2.0 * 0.5 ** (2.0**k) * np.cos(2.0**k * theta)
    shift = float(np.mean(u_ring - exact))
    recovery = float(np.max(np.abs(u_ring - exact - shift)))

    rows = []
    closed_total = disc_total = 0.0
    for k in range(1, terms + 1):
        closed = np.pi * 2.0**k / k**4.0
        mode = k**-2.0 * np.cos(2.0**k * mesh.t)
        disc = float(np.dot(mesh.weights * mode, ops.dtn("plus", mode)))
        closed_total += closed
        disc_total += disc
        rows.append(
            {
                "k": k,
                "energy_closed_form": closed,
                "energy_partial_sum": closed_total,
                "energy_discrete_partial_sum": disc_total,
            }
        )

    out = {
        "terms": terms,
        "n": n,
        "recovery_sup_error_at_half_radius": recovery,
        "additive_constant": shift,
        "energy_table": rows,
        "neumann_residuals": {k: float(v) for k, v in report.residuals.items()},
    }
    columns = ("energy_closed_form", "energy_partial_sum", "energy_discrete_partial_sum")

    def write_energy_csv():
        with open(os.path.join(out_dir, "hadamard_energy.csv"), "w", newline="") as fh:
            csv.writer(fh).writerows([["k", *columns]] + [
                ["%d" % row["k"]] + ["%.17g" % row[c] for c in columns] for row in rows])

    path = _write_outputs(out_dir, "hadamard_report.json", out, write_energy_csv)
    print(f"recovery sup error at r=1/2: {recovery:.3e}")
    print("energy partial sums:", ", ".join("%.6f" % r["energy_partial_sum"] for r in rows))
    print(f"report: {path}")
    return EXIT_OK, out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bie2d",
        description="2-D layer-potential toolkit: boundary value problems and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a boundary value problem")
    ps.add_argument("--config", required=True, help="domain config JSON")
    ps.add_argument("--problem", required=True, choices=sorted(_SOLVERS))
    ps.add_argument("--data", required=True,
                    help="constant:C | fourier:K | indicator:J | hadamard:K | csv:PATH | pairjson:PATH")
    ps.add_argument("--n", type=int, default=None, help="override all node counts")
    ps.add_argument("--out", default=None, help="output directory")

    pv = sub.add_parser("verify", help="run the identity suite")
    pv.add_argument("--config", default=None,
                    help="domain config JSON (default: disk, ellipse, annulus)")
    pv.add_argument("--n", type=int, default=None, help="nodes per component")
    pv.add_argument("--out", default=None, help="output directory")

    pd = sub.add_parser("demo-hadamard", help="infinite-energy Neumann demo")
    pd.add_argument("--terms", type=int, required=True, help="number of lacunary modes")
    pd.add_argument("--n", type=int, default=256, help="mesh nodes")
    pd.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = load_config(
                args.config, problem=args.problem, data=args.data,
                n_override=args.n, out_dir=args.out,
            )
            return cmd_solve(cfg)
        if args.command == "verify":
            overrides = {"n_override": args.n, "out_dir": args.out}
            cfg = (load_config(args.config, **overrides) if args.config
                   else RunConfig(**overrides))
            return cmd_verify(cfg)
        if args.command == "demo-hadamard":
            code, _ = cmd_demo_hadamard(args.terms, args.n, args.out or ".")
            return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a legal mesh too large for this machine: numpy names the allocation
        print(f"config error: out of memory ({str(exc) or 'an allocation failed'}); "
              "use fewer nodes", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleData as exc:
        print(f"incompatible data: {exc}", file=sys.stderr)
        for i, val in enumerate(exc.pairings):
            print(f"  component pairing [{i}] = {val:.12e}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except Bie2dError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
