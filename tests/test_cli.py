import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import (NESTED_SPECS, grid_points, nearest_node_locations, negated_single_layer,
                      shifted_density)

import bie2d
from bie2d import cli, operators, verify
from bie2d.errors import ConfigError, SingularSystem
from bie2d.geometry import stock_mesh
from bie2d.potentials import HarmonicField
from bie2d.solvers import dirichlet_exterior, dirichlet_interior
from bie2d.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    cmd_demo_hadamard,
    hadamard_trace,
    load_config,
    main,
    write_field_csv,
)


def _run_config(tmp_path, components, *argv):
    """main(argv) on a config of components written into tmp_path, with tmp_path/out as --out."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"components": components}))
    return main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])


def write_disk_config(path, **extra):
    cfg = {
        "components": [
            {"kind": "circle", "center": [0, 0], "radius": 1.0,
             "orientation": "positive", "nodes": 128}
        ]
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_defaults(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"components": [{"kind": "circle", "radius": 1.0}]}))
    cfg = load_config(str(path))
    assert cfg.nodes == [128]
    mesh = cfg.build_mesh()
    assert mesh.n == 128


def test_ellipse_and_fourier_configs_build_the_stock_meshes(tmp_path):
    # the config's ellipse and fourier branches build the stock ellipse and
    # kite, bit for bit
    entries = {"ellipse": {"kind": "ellipse", "axes": [2.0, 1.0]},
               "kite": {"kind": "fourier", "cos_x": [-0.65, 1.0, 0.65], "cos_y": [0.0],
                        "sin_y": [0.0, 1.5]}}
    for name, entry in entries.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"components": [dict(entry, nodes=64)]}))
        mesh, stock = load_config(str(path)).build_mesh(), stock_mesh(name, 64)
        for field in ("n_per_comp", "t", "x", "normal", "curvature", "speed", "weights",
                      "comp", "offsets"):
            a, b = (np.asarray(getattr(m, field)) for m in (mesh, stock))
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, field)


def test_load_config_hadamard_mismatch(tmp_path):
    path = write_disk_config(tmp_path / "disk.json")
    with pytest.raises(ConfigError, match="hadamard"):
        load_config(path, problem="dirichlet-ext", data="hadamard:6")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_solve_writes_report_and_field(tmp_path):
    path = write_disk_config(tmp_path / "disk.json")
    code = main(
        ["solve", "--config", path, "--problem", "neumann-int",
         "--data", "fourier:1", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["residuals"]["equation"] <= 1e-7
    xs, ys, us = np.genfromtxt(tmp_path / "out" / "solve_field.csv", delimiter=",",
                               skip_header=1).T
    assert len(xs) == 41 * 41
    # grid points outside the disk carry empty cells
    outside = np.hypot(xs, ys) > 1.2
    assert np.all(np.isnan(us[outside]))
    inside = np.hypot(xs, ys) < 0.7
    assert np.all(np.isfinite(us[inside]))


def test_solve_incompatible_exit_code(tmp_path, capsys):
    path = write_disk_config(tmp_path / "disk.json")
    code = main(
        ["solve", "--config", path, "--problem", "neumann-int",
         "--data", "constant:1", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_INCOMPATIBLE
    err = capsys.readouterr().err
    assert "6.28318" in err  # the offending pairing value is printed


def test_solve_bad_config_exit_code(tmp_path):
    code = main(
        ["solve", "--config", str(tmp_path / "missing.json"),
         "--problem", "neumann-int", "--data", "fourier:1"]
    )
    assert code == EXIT_CONFIG


def test_verify_cli_deterministic(tmp_path):
    code = main(["verify", "--n", "64", "--out", str(tmp_path / "a")])
    assert code == EXIT_OK
    code = main(["verify", "--n", "64", "--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    a = (tmp_path / "a" / "verify_report.json").read_bytes()
    b = (tmp_path / "b" / "verify_report.json").read_bytes()
    assert a == b
    report = json.loads(a)
    assert report["passed"] is True
    assert {row["name"] for row in report["checks"]} >= {
        "w1-half", "plemelj-classical", "nullspace-dims", "compat-rejection"
    }


@pytest.mark.parametrize("n", [32, 48])
def test_verify_too_coarse_for_probe_points_is_config_error(tmp_path, capsys, n):
    # the annulus is too narrow for an interior probe clear of the band
    out = tmp_path / "v"
    assert main(["verify", "--n", str(n), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "interior probe point" in err[0] and "--n" in err[0]
    assert f"{n}/{n} nodes" in err[0]
    assert not out.exists()


def test_solve_without_cross_check_probe(tmp_path):
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps({"components": [
        {"kind": "circle", "radius": 2.0, "nodes": 32},
        {"kind": "circle", "radius": 1.0, "orientation": "negative", "nodes": 32}]}))
    assert main(["solve", "--config", str(path), "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "s")]) == EXIT_OK
    report = json.loads((tmp_path / "s" / "solve_report.json").read_text())
    assert "cross_solver" not in report["residuals"]


def test_verify_custom_config(tmp_path):
    # "alpha" is not a config key, nor are "problem" and "data", which come
    # from the solve flags alone; the loader must ignore all three
    path = write_disk_config(tmp_path / "disk.json", alpha=0.3, problem="neumann-ext",
                             data="hadamard:3")
    code = main(["verify", "--config", path, "--n", "64",
                 "--out", str(tmp_path / "v")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["geometries"] == ["config"]


def test_verify_on_a_large_circle_inverts_the_j_map(tmp_path):
    # radius 1e5: the J inverse by the density solve keeps the J rows near
    # 1e-10, where one through the J Gram matrix, of condition about R^2 / 4,
    # missed its gate (exit 4).  symmetry compares pairings that grow like
    # R^2 log R against an absolute tolerance, and fails
    path = tmp_path / "big.json"
    path.write_text('{"components": [{"kind": "circle", "radius": 1e5}]}')
    code = main(["verify", "--config", str(path), "--n", "64", "--out", str(tmp_path / "v")])
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL)
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    rows = {row["name"]: row["passed"] for row in report["checks"]}
    assert rows["J-isometry-roundtrip"] and rows["space-coincidence"]


def test_field_csv_roundtrip(tmp_path, disk128):
    fld = HarmonicField(disk128, [], constant=np.pi, region="interior")
    pts = grid_points(np.linspace(-0.5, 0.5, 7), np.linspace(-0.5, 0.5, 7))
    path = tmp_path / "f.csv"
    write_field_csv(fld, pts, path)
    xs, ys, us = np.genfromtxt(path, delimiter=",", skip_header=1).T
    assert np.all(np.abs(us - np.pi) < 1e-15)
    assert np.max(np.abs(xs - pts[:, 0])) < 1e-15
    assert np.max(np.abs(ys - pts[:, 1])) < 1e-15


def _csv_writer_bytes(path, points, usable, values):
    """The field CSV as a csv.writer loop over its rows writes it, the
    writer's code before one format call replaced it; its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "u"])
        for (px, py), ok, val in zip(points.tolist(), usable.tolist(), values.tolist()):
            writer.writerow(["%.17g" % px, "%.17g" % py, "%.17g" % val if ok else ""])
    return path.read_bytes()


@pytest.fixture(scope="module")
def annulus_fields():
    mesh = stock_mesh("annulus", 128)
    g = np.cos(2 * mesh.t)
    return {"interior": dirichlet_interior(mesh, g).field,
            "exterior": dirichlet_exterior(mesh, g).field,
            None: HarmonicField(mesh, [("single", g), ("double", np.sin(mesh.t))], region=None)}


@pytest.mark.parametrize("region", ["interior", "exterior", None])
def test_field_csv_bytes_match_the_csv_writer(tmp_path, annulus_fields, region):
    fld = annulus_fields[region]
    grid = cli.default_grid(fld.mesh)
    usable = nearest_node_locations(fld.mesh, grid)[1][region]
    values = np.full(len(grid), np.nan)
    values[usable] = fld.eval_unchecked(grid[usable])
    write_field_csv(fld, grid, tmp_path / "field.csv")
    data = (tmp_path / "field.csv").read_bytes()
    assert data == _csv_writer_bytes(tmp_path / "reference.csv", grid, usable, values)
    assert data.count(b"\r\n") == len(grid) + 1 and b",\r\n" in data
    write_field_csv(fld, np.empty((0, 2)), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y,u\r\n"


def test_field_csv_of_a_field_with_no_region_takes_both_sides(tmp_path):
    # a bare single layer is defined inside and outside the disk alike
    mesh = stock_mesh("disk", 64)
    fld = HarmonicField(mesh, [("single", np.cos(mesh.t))], region=None)
    grid = cli.default_grid(mesh)
    write_field_csv(fld, grid, tmp_path / "field.csv")
    us = np.genfromtxt(tmp_path / "field.csv", delimiter=",", skip_header=1)[:, 2]
    off = nearest_node_locations(mesh, grid)[1][None]
    assert np.array_equal(~np.isnan(us), off)
    assert np.array_equal(us[off], fld.eval_unchecked(grid[off]))
    assert np.sum(off & (np.hypot(*grid.T) > 1.3)) == 1000


def test_hadamard_trace_values():
    t = np.array([0.0])
    assert abs(hadamard_trace(t, 3)[0] - (1.0 + 1.0 / 4 + 1.0 / 9)) < 1e-15


def test_demo_hadamard_single_mode(tmp_path):
    code, out = cmd_demo_hadamard(1, 64, str(tmp_path))
    assert code == EXIT_OK
    assert out["recovery_sup_error_at_half_radius"] < 1e-6


def test_demo_hadamard_energy_table(tmp_path):
    code, out = cmd_demo_hadamard(4, 256, str(tmp_path))
    assert code == EXIT_OK
    # the interior solve of the lacunary trace's normal derivative recovers
    # its partial sum on the r = 1/2 ring
    assert out["recovery_sup_error_at_half_radius"] <= 1e-12
    sums = [row["energy_partial_sum"] for row in out["energy_table"]]
    expected = np.pi * np.cumsum([2.0**k / k**4 for k in range(1, 5)])
    assert np.max(np.abs(np.array(sums) - expected)) < 1e-10
    assert all(b > a for a, b in zip(sums, sums[1:]))
    disc = [row["energy_discrete_partial_sum"] for row in out["energy_table"]]
    assert np.max(np.abs(np.array(disc) - expected)) < 1e-8


def test_demo_hadamard_resolution_guard():
    with pytest.raises(ConfigError):
        cmd_demo_hadamard(6, 64)
    assert main(["demo-hadamard", "--terms", "6", "--n", "64"]) == EXIT_CONFIG


@pytest.mark.parametrize("n, code", [("16", EXIT_CONFIG), ("24", EXIT_CONFIG), ("26", EXIT_OK)])
def test_demo_hadamard_keeps_its_ring_off_the_band(tmp_path, capsys, n, code):
    # the band on the unit circle is 4 pi / n, which reaches the r = 1/2 ring up to n = 24
    assert main(["demo-hadamard", "--terms", "1", "--n", n, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
        assert "at least 26" in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_demo_hadamard_needs_a_term(tmp_path, capsys, terms):
    code = main(["demo-hadamard", "--terms", terms, "--n", "64",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "hadamard_report.json").exists()


def _assert_numerical_failure(code, capsys, report):
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1
    assert "non-finite" in err
    assert not report.exists()


def test_solve_nan_residual_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def nan_solver(mesh, data):
        report = cli.neumann_interior(mesh, data)
        report.residuals["equation"] = float("nan")
        return report

    monkeypatch.setitem(cli._SOLVERS, "neumann-int", nan_solver)
    path = write_disk_config(tmp_path / "disk.json")
    code = main(["solve", "--config", path, "--problem", "neumann-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")])
    _assert_numerical_failure(code, capsys, tmp_path / "out" / "solve_report.json")
    assert not (tmp_path / "out" / "solve_field.csv").exists()


def test_solve_leaves_no_report_behind_a_failed_csv_write(tmp_path, capsys):
    path = write_disk_config(tmp_path / "disk.json")
    (tmp_path / "o" / "solve_field.csv").mkdir(parents=True)
    code = main(["solve", "--config", path, "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "o")])
    _assert_config_error(code, capsys, tmp_path / "o")


def test_demo_leaves_no_report_behind_a_failed_csv_write(tmp_path, capsys):
    (tmp_path / "o" / "hadamard_energy.csv").mkdir(parents=True)
    code = main(["demo-hadamard", "--terms", "1", "--n", "64", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "hadamard_energy.csv: Is a directory" in err
    assert not (tmp_path / "o" / "hadamard_report.json").exists()


# numpy's message for the dense arrays of a 40000-node mesh
_OUT_OF_MEMORY = ("Unable to allocate 11.9 GiB for an array with shape (40000, 40000) "
                  "and data type float64")


@pytest.mark.parametrize("command, report", [
    (["solve", "--problem", "dirichlet-int", "--data", "fourier:1"], "solve_report.json"),
    (["verify", "--n", "64"], "verify_report.json"),
    (["demo-hadamard", "--terms", "1", "--n", "64"], "hadamard_report.json"),
])
def test_a_mesh_too_large_for_memory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       command, report):
    # the assembly fails as numpy does, without allocating anything
    def out_of_memory(mesh):
        raise MemoryError(_OUT_OF_MEMORY)

    monkeypatch.setattr(operators, "_assemble", out_of_memory)
    if command[0] == "solve":
        command = [*command, "--config", write_disk_config(tmp_path / "disk.json")]
    code = main([*command, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory") and len(err.strip().splitlines()) == 1
    assert "11.9 GiB" in err and "fewer nodes" in err
    assert not (tmp_path / "o" / report).exists()


@pytest.mark.parametrize("command, need", [
    # 40000 nodes on one curve: W and the factor, 16 N^2 bytes
    (["solve", "--problem", "dirichlet-int", "--data", "fourier:1", "--n", "40000"], 16 * 40000**2),
    # the stock trio at 2000 per curve, W and the factor of each mesh, 16 N^2 bytes
    (["verify", "--n", "2000"], 16 * (2000**2 + 2000**2 + 4000**2)),
    (["demo-hadamard", "--terms", "1", "--n", "40000"], 16 * 40000**2),
])
def test_a_mesh_past_the_memory_limit_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                                    command, need):
    # the limit is patched to one byte short of the need: nothing is allocated,
    # and no node is built
    def no_mesh(*args, **kwargs):
        raise AssertionError("build_mesh ran")

    monkeypatch.setattr(cli, "_memory_limit", lambda: need - 1)
    monkeypatch.setattr(cli, "build_mesh", no_mesh)
    monkeypatch.setattr(verify, "stock_mesh", no_mesh)
    if command[0] == "solve":
        command = [*command, "--config", write_disk_config(tmp_path / "disk.json")]
    code = main([*command, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "this process may use" in err and "fewer nodes" in err
    assert not (tmp_path / "o").exists()


def test_a_mesh_within_the_memory_limit_runs(tmp_path, capsys, monkeypatch):
    # the limit exactly at the need of a 64-node disk solve lets it through
    monkeypatch.setattr(cli, "_memory_limit", lambda: 16 * 64**2)
    code = main(["solve", "--problem", "dirichlet-int", "--data", "fourier:1", "--n", "64",
                 "--config", write_disk_config(tmp_path / "disk.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 0 and (tmp_path / "o" / "solve_report.json").exists()


def test_memory_limit_is_physical_memory_or_less():
    limit = cli._memory_limit()
    assert limit is None or 0 < limit <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _cgroup_tree(root, listing, files):
    """A cgroup file tree under root: the /proc/self/cgroup lines of listing
    and each of files, a relative path mapped to its contents."""
    (root / "cgroup").write_text("".join(f"{line}\n" for line in listing))
    for path, value in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(f"{value}\n")
    return str(root), str(root / "cgroup")


@pytest.mark.parametrize("listing, files, limit", [
    # a version-2 limit set on an ancestor of a leaf that reads 'max'
    (["0::/slice/service/leaf"], {"slice/service/leaf/memory.max": "max",
                                  "slice/service/memory.max": 7 << 20,
                                  "slice/memory.max": 9 << 20}, 7 << 20),
    # the smallest limit of the chain, wherever it is set
    (["0::/slice/leaf"], {"slice/leaf/memory.max": 8 << 20, "slice/memory.max": 5 << 20},
     5 << 20),
    # a version-1 memory controller, whose leaf directory is not mounted
    (["4:memory:/jobs/one", "0::/"], {"memory/jobs/memory.limit_in_bytes": 6 << 20,
                                       "memory/memory.limit_in_bytes": 2**63 - 4096}, 6 << 20),
    (["5:cpu,memory:/", "1:cpuset:/jobs"], {"memory/memory.limit_in_bytes": 3 << 20,
                                            "cpuset/jobs/memory.limit_in_bytes": 1 << 20},
     3 << 20),
])
def test_memory_limit_reads_every_cgroup_up_to_the_root(tmp_path, listing, files, limit):
    assert cli._memory_limit(*_cgroup_tree(tmp_path, listing, files)) == limit


def test_memory_limit_without_a_cgroup_limit_is_physical_memory(tmp_path):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    files = {"leaf/memory.max": "max", "memory.max": "not a number"}
    assert cli._memory_limit(*_cgroup_tree(tmp_path, ["0::/leaf", "bad line"], files)) == physical
    assert cli._memory_limit(str(tmp_path / "none"), str(tmp_path / "none")) == physical


def test_verify_non_finite_residual_is_numerical_failure(tmp_path, capsys, monkeypatch):
    check = verify._Check("w1-half", lambda mesh, rng, **_: float("inf"), 1e-10, "W 1 = 1/2")
    monkeypatch.setattr("bie2d.verify._CHECKS", [check])
    code = main(["verify", "--n", "32", "--out", str(tmp_path)])
    _assert_numerical_failure(code, capsys, tmp_path / "verify_report.json")


def _short_kernel(real):
    # drops the first column of a null-space basis
    def short(mesh, op_kind):
        basis = real(mesh, op_kind)
        return dataclasses.replace(basis, vectors=basis.vectors[:, 1:])
    return short


@pytest.mark.parametrize("row", ["nullspace-dims", "compat-rejection"])
def test_verify_identity_failure_is_a_failing_row(tmp_path, capsys, monkeypatch, row):
    # a failed identity has a finite sentinel residual, so the report is written
    # (at 32 or 48 nodes the annulus leaves no interior probe point)
    if row == "nullspace-dims":
        monkeypatch.setattr(verify, "nullspace", _short_kernel(verify.nullspace))
    else:
        monkeypatch.setattr(verify, "neumann_interior", lambda mesh, g, **_: None)
    code = main(["verify", "--n", "64", "--out", str(tmp_path)])
    assert code == EXIT_VERIFY_FAIL
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failing = {(c["geometry"], c["name"]) for c in report["checks"] if not c["passed"]}
    assert failing == {(geom, row) for geom in ("disk", "ellipse", "annulus")}
    assert f"FAIL disk       {row}" in out


# two unit circles 0.1 apart, and x = cos t + 0.3 cos 10t, y = sin t: each
# passes the mesh screens at these node counts, but W 1 = 1/2 fails at assembly
_WIGGLY = {"kind": "fourier", "cos_x": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0.3], "sin_y": [0, 1]}
_UNDER_RESOLVED_W = {
    "close-disks-64": ([{"kind": "circle", "center": [x, 0], "radius": 1.0, "nodes": 64}
                        for x in (-1.05, 1.05)], "fourier:1", None),
    "wiggly-64": ([_WIGGLY], "fourier:3", "64"),
    "wiggly-1024": ([_WIGGLY], "fourier:3", "1024"),
}


@pytest.mark.parametrize("case", list(_UNDER_RESOLVED_W))
def test_under_resolved_double_layer_is_numerical_failure(tmp_path, capsys, case):
    # the reason names under-resolution, not orientation or simplicity
    components, data, n = _UNDER_RESOLVED_W[case]
    flags = ["--n", n] if n else []
    code = _run_config(tmp_path, components, "solve", "--problem", "dirichlet-int",
                       "--data", data, *flags)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1
    assert "under-resolved" in err and "orientation" not in err and "not simple" not in err
    assert not (tmp_path / "out").exists()


def test_indefinite_single_layer_is_numerical_failure(tmp_path, capsys, monkeypatch):
    negated_single_layer(monkeypatch)
    path = write_disk_config(tmp_path / "disk.json")
    code = main(["solve", "--config", path, "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1
    assert "leading minor 1 " in err
    assert not (tmp_path / "out" / "solve_report.json").exists()


def test_too_narrow_border_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # a border one column short of the two disks' kernel makes the bordered
    # system singular; GMRES's probe finds it
    from bie2d import solvers

    indicators = solvers._indicators
    monkeypatch.setattr(solvers, "_indicators", lambda mesh, side: indicators(mesh, side)[:, :-1])
    path = tmp_path / "two-disks.json"
    path.write_text(json.dumps({"components": [
        {"kind": "circle", "center": [x, 0], "radius": 1.0, "nodes": 64} for x in (-2, 2)]}))
    code = main(["solve", "--config", str(path), "--problem", "neumann-int",
                 "--data", "fourier:2", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: bordered second-kind system is singular")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_a_gmres_run_past_its_step_cap_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # the annulus's probe takes two preconditioned GMRES steps
    from bie2d import solvers

    monkeypatch.setattr(solvers, "_GMRES_CAP", 1)
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps({"components": [
        {"kind": "circle", "radius": r, "nodes": 64} for r in (2.0, 1.0)]}))
    code = main(["solve", "--config", str(path), "--problem", "neumann-int",
                 "--data", "fourier:2", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: bordered second-kind system is singular: "
                        r"GMRES residual \S+ after 1 steps\n", err)
    assert not (tmp_path / "out").exists()


def test_a_j_inverse_past_its_gate_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # every density solve's constant off by 1e-6: plemelj-distributional's
    # J inverse is the first check that solves, and it misses its gate
    shifted_density(monkeypatch, 1e-6)
    code = main(["verify", "--n", "64", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: J inverse residual \S+ too large\n", err)


def test_solve_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a library failure inside the solve maps to exit 4 with a one-line reason
    # (a pair file of the wrong length is a config error: see the table below)
    def failing_solver(mesh, data):
        raise SingularSystem("boundary residual 1.000e+00 of the Dirichlet solve")

    monkeypatch.setitem(cli._SOLVERS, "neumann-int", failing_solver)
    path = write_disk_config(tmp_path / "disk.json")
    code = main(
        ["solve", "--config", path, "--problem", "neumann-int",
         "--data", "fourier:1", "--out", str(tmp_path / "bad")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1


def test_solve_data_csv(tmp_path):
    path = write_disk_config(tmp_path / "disk.json")
    mesh = stock_mesh("disk", 128)
    data_path = tmp_path / "g.csv"
    np.savetxt(data_path, np.cos(mesh.t), delimiter=",")
    code = main(
        ["solve", "--config", path, "--problem", "dirichlet-int",
         "--data", f"csv:{data_path}", "--out", str(tmp_path / "out2")]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out2" / "solve_report.json").read_text())
    assert report["residuals"]["boundary"] < 1e-10
    assert report["residuals"]["cross_solver"] <= 1e-10


def test_verify_bad_geometry_is_config_error(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"components": [
        {"kind": "circle", "radius": 1.0, "nodes": 17}]}))
    assert main(["solve", "--config", str(path), "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "v")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "17" in err


@pytest.mark.parametrize("problem", ["neumann-int", "dirichlet-int"])
@pytest.mark.parametrize("kind", ["constant-nan", "constant-inf", "csv", "pairjson"])
def test_solve_rejects_non_finite_data(tmp_path, capsys, kind, problem):
    path = write_disk_config(tmp_path / "disk.json")
    mesh = stock_mesh("disk", 128)
    values = np.cos(mesh.t)
    values[5] = np.nan
    if kind == "csv":
        np.savetxt(tmp_path / "g.csv", values, delimiter=",")
        data = f"csv:{tmp_path / 'g.csv'}"
    elif kind == "pairjson":
        # json writes the bare token NaN, which json.load accepts
        pair = {"side": "plus", "mu0": list(values), "mu1": [0.0] * mesh.n}
        (tmp_path / "pair.json").write_text(json.dumps(pair))
        data = f"pairjson:{tmp_path / 'pair.json'}"
    else:
        data = "constant:" + kind.split("-")[1]
    code = main(["solve", "--config", path, "--problem", problem,
                 "--data", data, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "solve_report.json").exists()


@pytest.mark.parametrize("problem", ["dirichlet-int", "dirichlet-ext",
                                     "neumann-int", "neumann-ext"])
def test_solve_refuses_a_datum_past_the_float_range(tmp_path, capsys, problem):
    # the norms of a 1e308 datum overflow, and its fluxes pass as inf <= 1e-7 inf
    path = write_disk_config(tmp_path / "disk.json")
    code = main(["solve", "--config", path, "--problem", problem,
                 "--data", "constant:1e308", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: datum of magnitude 1.000e+308")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "solve_report.json").exists()


def _assert_config_error(code, capsys, out_dir):
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (out_dir / "solve_report.json").exists()


_MALFORMED_DATA = {
    "csv-empty": ("g.csv", ""),
    "csv-text": ("g.csv", "abc\n"),
    "pair-no-side": ("p.json", json.dumps({"mu0": [0.0] * 128, "mu1": [0.0] * 128})),
    "pair-list": ("p.json", json.dumps([0.0] * 128)),
    "pair-short": ("p.json", json.dumps({"side": "plus", "mu0": [1.0, 2.0], "mu1": [0.0]})),
    "pair-side-up": (
        "p.json", json.dumps({"side": "up", "mu0": [0.0] * 128, "mu1": [0.0] * 128})
    ),
    "pair-not-json": ("p.json", "{side: plus"),
}


# a warning on stderr would break the one-line contract
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("problem", ["neumann-int", "dirichlet-int"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED_DATA))
def test_solve_rejects_malformed_data_files(tmp_path, capsys, kind, problem):
    path = write_disk_config(tmp_path / "disk.json")
    name, text = _MALFORMED_DATA[kind]
    (tmp_path / name).write_text(text)
    spec = ("csv:" if name.endswith(".csv") else "pairjson:") + str(tmp_path / name)
    code = main(["solve", "--config", path, "--problem", problem,
                 "--data", spec, "--out", str(tmp_path / "out")])
    _assert_config_error(code, capsys, tmp_path / "out")


_DISK = {"kind": "circle", "center": [0, 0], "radius": 1.0, "nodes": 128}
_MALFORMED_CONFIGS = {
    "nodes-text": {"components": [dict(_DISK, nodes="abc")]},
    "nodes-fraction": {"components": [dict(_DISK, nodes=64.5)]},
    "top-level-number": 5,
    "center-3d": {"components": [dict(_DISK, center=[0, 0, 0])]},
    "component-number": {"components": [5]},
    "circle-without-radius": {"components": [{"kind": "circle", "nodes": 128}]},
    "ellipse-three-axes": {"components": [{"kind": "ellipse", "axes": [2.0, 1.0, 0.5]}]},
    "radius-nan": {"components": [dict(_DISK, radius=float("nan"))]},
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_CONFIGS))
def test_malformed_config_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    # json writes float("nan") as the bare token NaN, which json.load accepts
    path.write_text(json.dumps(_MALFORMED_CONFIGS[kind]))
    code = main(["solve", "--config", str(path), "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")])
    _assert_config_error(code, capsys, tmp_path / "out")


def test_a_pair_file_holding_a_block_of_pairs_is_a_config_error(tmp_path, capsys):
    # mu0 and mu1 of 128 x 2 are two pairs, where a datum is one
    mesh = stock_mesh("disk", 128)
    block = np.stack([np.cos(mesh.t), np.sin(mesh.t)], axis=-1).tolist()
    pair = tmp_path / "block.json"
    pair.write_text(json.dumps({"side": "plus", "mu0": block, "mu1": block}))
    code = main(["solve", "--config", write_disk_config(tmp_path / "disk.json"),
                 "--problem", "neumann-int", "--data", f"pairjson:{pair}",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: pair file {pair}: expected one pair, "
                                       "got a block of shape (128, 2)\n")
    assert not (tmp_path / "out").exists()


_ONE_VALUE = "mesh has 128 nodes: expected 128 rows of one value"
# csv file text -> the refusal after "data file PATH ": a table of the wrong
# shape names it, a ragged file names the line where its column count changes
_CSV_REFUSALS = {
    "128-2": ("1,1\n" * 128, f"holds a 128 x 2 table, {_ONE_VALUE}"),
    "1-128": (",".join(["1"] * 128) + "\n", f"holds a 1 x 128 table, {_ONE_VALUE}"),
    "100-1": ("1\n" * 100, f"holds a 100 x 1 table, {_ONE_VALUE}"),
    "ragged-2-then-1": ("1,2\n3\n", "is ragged: its column count changes from 2 to 1 at line 2"),
    "ragged-at-line-100": ("1\n" * 99 + "1,2\n" + "1\n" * 28,
                           "is ragged: its column count changes from 1 to 2 at line 100"),
    "ragged-after-a-comment": ("# g\n\n1,2\n1,2\n3,4,5\n",
                               "is ragged: its column count changes from 2 to 3 at line 5"),
    "text": ("1\n" * 127 + "x\n", "holds a non-numeric value"),
}


@pytest.mark.parametrize("case", list(_CSV_REFUSALS))
def test_a_csv_refusal_names_the_table_shape(tmp_path, capsys, case):
    text, reason = _CSV_REFUSALS[case]
    path = tmp_path / "g.csv"
    path.write_text(text)
    code = main(["solve", "--config", write_disk_config(tmp_path / "disk.json"),
                 "--problem", "dirichlet-int", "--data", f"csv:{path}",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: data file {path} {reason}\n"
    assert not (tmp_path / "out").exists()


# config, data spec and the whole refusal of a solve on it; {tmp} is the test directory
_REFUSALS = {
    "curve-refused": ({"components": [dict(_DISK, radius=-1.0)]}, "fourier:1",
                      "components[0]: circle needs a positive radius"),
    "components-empty": ({"components": []}, "fourier:1",
                         "config needs a nonempty 'components' list"),
    "out-number": ({"components": [_DISK], "out": 5}, "fourier:1",
                   "out: expected a string, got 5"),
    "indicator-past-the-curves": ({"components": [_DISK]}, "indicator:1",
                                  "indicator curve index 1 out of range"),
    "indicator-negative": ({"components": [_DISK]}, "indicator:-1",
                           "indicator curve index -1 out of range"),
    "csv-missing": ({"components": [_DISK]}, "csv:{tmp}/g.csv",
                    "cannot read data file {tmp}/g.csv: {tmp}/g.csv not found."),
    "pairjson-missing": ({"components": [_DISK]}, "pairjson:{tmp}/p.json",
                         "cannot read pair file {tmp}/p.json: [Errno 2] No such file or "
                         "directory: '{tmp}/p.json'"),
    "spec-unknown": ({"components": [_DISK]}, "square:1", "unknown data spec 'square:1'"),
    "spec-not-a-number": ({"components": [_DISK]}, "constant:x",
                          "constant data needs a number, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_a_refused_config_or_datum_prints_its_whole_reason(tmp_path, capsys, case):
    raw, data, reason = _REFUSALS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = main(["solve", "--config", str(path), "--problem", "neumann-int",
                 "--data", data.format(tmp=tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {reason.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


def test_solve_entries_refuse_what_the_flags_cannot_give(tmp_path):
    # the CLI always passes --data and a solve --problem; the entries refuse both
    cfg = load_config(write_disk_config(tmp_path / "disk.json"))
    with pytest.raises(ConfigError) as err:
        cli.build_data(cfg, cfg.build_mesh())
    assert str(err.value) == "this problem needs a --data specification"
    cfg.problem, cfg.data = "poisson", "fourier:1"
    with pytest.raises(ConfigError) as err:
        cli.cmd_solve(cfg)
    assert str(err.value) == "problem 'poisson' is not a solve problem"


def test_retired_config_keys_leave_the_verify_report_as_it_is(tmp_path, capsys):
    # tol_overrides and seed are keys the loader does not know: the radius-1e5
    # circle still fails symmetry at its own 1e-6, under the default seed
    circle = {"kind": "circle", "radius": 1e5}
    reports = []
    for name, extra in (("plain", {}), ("retired", {"tol_overrides": {"symmetry": 1},
                                                     "seed": 7})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"components": [circle], **extra}))
        code = main(["verify", "--config", str(path), "--n", "64",
                     "--out", str(tmp_path / name)])
        assert code == EXIT_VERIFY_FAIL
        reports.append((tmp_path / name / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[1])
    assert report["seed"] == verify.DEFAULT_SEED
    assert [row["tol"] for row in report["checks"] if row["name"] == "symmetry"] == [1e-6]


def test_under_resolved_gap_is_config_error(tmp_path, capsys):
    # two unit circles 2e-4 apart on 64 nodes each, and 1e-3 apart on the
    # default 128: far too coarse for the gap, so solve and verify each exit 2
    # with a one-line reason and no output
    for half_gap, nodes in ((1.0001, 64), (1.0005, 128)):
        path = tmp_path / f"close-{nodes}.json"
        path.write_text(json.dumps({"components": [
            {"kind": "circle", "center": [x, 0.0], "radius": 1.0, "nodes": nodes}
            for x in (-half_gap, half_gap)]}))
        for command in (["solve", "--problem", "dirichlet-int", "--data", "fourier:2"],
                        ["verify"]):
            out = tmp_path / command[0]
            assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: under-resolved:") and "nodes" in err
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()


@pytest.mark.parametrize("second", [{"radius": 1.0}, {"center": [1, 0], "radius": 1.0}],
                         ids=["coincident", "touching"])
def test_curves_sharing_a_node_are_a_config_error(tmp_path, capsys, second):
    # a unit circle on a unit circle, or inside a radius-2 circle touching it
    # at a node: refused in one line, with no warning before it
    first = {"radius": 1.0 if "center" not in second else 2.0}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"components": [
        dict(kind="circle", nodes=32, **first), dict(kind="circle", nodes=32, **second)]}))
    code = main(["solve", "--config", str(path), "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")])
    _assert_config_error(code, capsys, tmp_path / "out")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: curves 0 and 1 are not disjoint\n"


@pytest.mark.parametrize("name", list(NESTED_SPECS))
def test_verify_passes_on_nested_domains(tmp_path, capsys, name):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"components": [
        {"kind": "circle", "center": list(spec.center), "radius": spec.radius, "nodes": 128}
        for spec in NESTED_SPECS[name]]}))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[:-2]
    assert len(rows) == 17 and all(row.startswith("PASS config ") for row in rows)


# config components and --n of further domains that verify must pass
_VERIFY_DOMAINS = {
    # two disjoint disks: the interior kernels have dimension 2, so
    # nullspace's block inverse iteration runs on dgetrf/dgetrs
    "two-disks-64": ([{"kind": "circle", "center": [x, 0], "radius": 1.0} for x in (-1.5, 1.5)],
                     "64"),
    # three disjoint disks: the interior kernels have dimension 3 on a
    # clustered spectrum, so the rank decision's first block of inverse
    # iteration comes out all null and grows
    "three-disks-64": ([{"kind": "circle", "center": [x, 0], "radius": 1.0} for x in (-3, 0, 3)],
                       "64"),
    # the stock kite, whose checks locate, probe and evaluate by the r^2 pass
    "kite-128": ([{"kind": "fourier", "cos_x": [-0.65, 1.0, 0.65], "sin_y": [0, 1.5]}], "128"),
    # README's three nested circles: location walks the nearest-node reduction
    # across three curve boxes, and probing over all the nodes
    "nested-circles-128": ([{"kind": "circle", "radius": r, "nodes": 128} for r in (2.0, 1.0, 0.5)],
                           "128"),
    # the annulus with 256 outer and 192 inner nodes: the coarse strides are 4
    # and 3, and the two sides' bordered records share one coarse rule
    "annulus-256-192": ([{"kind": "circle", "radius": 2.0, "nodes": 256},
                         {"kind": "circle", "radius": 1.0, "nodes": 192}], None),
}


@pytest.mark.parametrize("name", list(_VERIFY_DOMAINS))
def test_verify_passes_on_config_domains(tmp_path, name):
    components, n = _VERIFY_DOMAINS[name]
    flags = ["--n", n] if n else []
    assert _run_config(tmp_path, components, "verify", *flags) == EXIT_OK
    assert json.loads((tmp_path / "out" / "verify_report.json").read_text())["passed"]


def test_verify_passes_on_two_blas_threads(tmp_path):
    # the checks' block products and solves (dsymm, dpotrs, gemm) are the calls
    # OpenBLAS splits across threads; BLAS reads its thread count when it
    # loads, so this run takes a process of its own
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(bie2d.__file__)))
    run = subprocess.run([sys.executable, "-m", "bie2d.cli", "verify", "--n", "128",
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == EXIT_OK and run.stderr == ""
    assert json.loads((tmp_path / "out" / "verify_report.json").read_text())["passed"]


# README's annulus: 256 nodes on each of the circles of radius 2 and 1
_ANNULUS = [{"kind": "circle", "radius": r, "nodes": 256} for r in (2.0, 1.0)]


def test_dirichlet_exterior_agrees_with_its_decomposition_solver(tmp_path):
    # the decomposition solver reads the interior side's bordered Neumann system
    assert _run_config(tmp_path, _ANNULUS, "solve", "--problem", "dirichlet-ext",
                       "--data", "fourier:2") == EXIT_OK
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["residuals"]["cross_solver"] <= 1e-10


# the preconditioned Neumann GMRES on README's annulus and on harder inputs:
# two unit circles 0.1 apart, and 262 nodes per curve, where the coarse rule
# takes every second node
_CLOSE_DISKS = [{"kind": "circle", "center": [x, 0], "radius": 1.0, "nodes": 256}
                for x in (-1.05, 1.05)]
_NEUMANN_RUNS = {
    "annulus-ext": (_ANNULUS, ["--problem", "neumann-ext"]),
    "close-disks-int": (_CLOSE_DISKS, ["--problem", "neumann-int"]),
    "close-disks-ext": (_CLOSE_DISKS, ["--problem", "neumann-ext"]),
    "annulus-262-int": (_ANNULUS, ["--problem", "neumann-int", "--n", "262"]),
}


@pytest.mark.parametrize("run", list(_NEUMANN_RUNS))
def test_a_neumann_solve_measures_its_deficiency_and_meets_its_equation(tmp_path, run):
    components, flags = _NEUMANN_RUNS[run]
    assert _run_config(tmp_path, components, "solve", *flags, "--data", "fourier:2") == EXIT_OK
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    info = report["rank_info"]
    assert info["deficiency"] == info["expected_deficiency"]
    assert report["residuals"]["equation"] <= 1e-10
    # the field CSV is a header and one line per point of the 41 x 41 grid
    assert (tmp_path / "out" / "solve_field.csv").read_bytes().count(b"\n") == 1 + 41 * 41


# argv (with {tmp} for the test directory) -> text the one stderr line must hold
_BAD_CLI_INPUT = {
    "verify-odd-n": (["verify", "--n", "33"], "node count 33"),
    "verify-zero-n": (["verify", "--n", "0"], "node count 0"),
    "demo-odd-n": (["demo-hadamard", "--terms", "2", "--n", "33"], "node count 33"),
    "out-is-a-file": (["verify", "--n", "64", "--out", "{tmp}/file"], "file: File exists"),
    "out-below-a-file": (["demo-hadamard", "--terms", "1", "--n", "64",
                          "--out", "{tmp}/file/sub"], "file/sub: Not a directory"),
    "output-is-a-directory": (["solve", "--config", "{tmp}/disk.json", "--problem",
                               "dirichlet-int", "--data", "fourier:1", "--out", "{tmp}/o"],
                              "solve_field.csv: Is a directory"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CLI_INPUT))
def test_bad_cli_input_is_config_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_disk_config(tmp_path / "disk.json")
    (tmp_path / "file").write_text("")
    (tmp_path / "o" / "solve_field.csv").mkdir(parents=True)
    argv, reason = _BAD_CLI_INPUT[case]
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert reason in err and "Traceback" not in err


# problems x data specs of the exit-code contract; {tmp} is the test directory
_CONTRACT_PROBLEMS = ["dirichlet-int", "dirichlet-ext", "neumann-int", "neumann-ext"]
_CONTRACT_DATA = ["constant:1", "constant:0", "fourier:2", "indicator:0", "hadamard:2",
                  "csv:{tmp}/g.csv", "pairjson:{tmp}/plus.json", "pairjson:{tmp}/minus.json"]
_EXIT_REASONS = {2: "config error:", 3: "incompatible data:", 4: "numerical failure:"}


def _contract_solve(tmp_path, problem, data):
    """main(["solve", ...]) on a 64-node disk, with the csv and pair files the specs name."""
    mesh = stock_mesh("disk", 64)
    np.savetxt(tmp_path / "g.csv", np.cos(mesh.t), delimiter=",")
    for side in ("plus", "minus"):
        pair = {"side": side, "mu0": list(np.cos(mesh.t)), "mu1": list(np.sin(2 * mesh.t))}
        (tmp_path / f"{side}.json").write_text(json.dumps(pair))
    return main(["solve", "--config", write_disk_config(tmp_path / "disk.json"),
                 "--problem", problem, "--data", data.format(tmp=tmp_path), "--n", "64",
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("data", _CONTRACT_DATA)
@pytest.mark.parametrize("problem", _CONTRACT_PROBLEMS)
def test_solve_exit_code_contract(tmp_path, capsys, problem, data):
    # no exception escapes; a failure prints one reason line, and an
    # incompatible datum adds only its component pairings
    code = _contract_solve(tmp_path, problem, data)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INCOMPATIBLE, 4)
    err = capsys.readouterr().err.splitlines()
    if code == EXIT_OK:
        assert err == []
        return
    reason, *rest = err
    assert reason.startswith(_EXIT_REASONS[code])
    if code == EXIT_INCOMPATIBLE:
        assert rest and all(re.fullmatch(r"  component pairing \[\d+\] = \S+", line)
                            for line in rest)
    else:
        assert rest == []


@pytest.mark.parametrize("data, expected", [
    ("fourier:31", EXIT_OK),
    ("fourier:33", EXIT_CONFIG),  # would solve for cos 31t
    ("fourier:64", EXIT_CONFIG),  # would be the constant 1, of nonzero flux
    ("fourier:-32", EXIT_CONFIG),
    ("fourier:99999999999999999999", EXIT_CONFIG),
])
def test_fourier_mode_must_be_resolved_by_every_curve(tmp_path, capsys, data, expected):
    # on 64 nodes a mode of 32 or more aliases to a lower one
    assert _contract_solve(tmp_path, "neumann-int", data) == expected
    if expected == EXIT_CONFIG:
        _assert_config_error(expected, capsys, tmp_path / "out")


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("problem", ["dirichlet-int", "dirichlet-ext"])
def test_pair_datum_is_refused_for_dirichlet_problems(tmp_path, capsys, problem, side):
    code = _contract_solve(tmp_path, problem, f"pairjson:{{tmp}}/{side}.json")
    _assert_config_error(code, capsys, tmp_path / "out")


@pytest.mark.parametrize("problem, data, expected", [
    ("neumann-int", "constant:1e-320", EXIT_INCOMPATIBLE),
    ("neumann-ext", "constant:1e-40", EXIT_INCOMPATIBLE),
    ("neumann-int", "constant:0", EXIT_OK),
    ("neumann-ext", "constant:0", EXIT_OK),
])
def test_tiny_constant_neumann_datum_meets_the_compatibility_gate(tmp_path, capsys, problem,
                                                                   data, expected):
    # the gates scale with the datum all the way down; only zero is compatible
    assert _contract_solve(tmp_path, problem, data) == expected
    assert ("incompatible data:" in capsys.readouterr().err) == (expected != EXIT_OK)


_HUGE_HADAMARD = {
    "solve-20000": ["solve", "--config", "{tmp}/disk.json", "--problem", "neumann-int",
                    "--data", "hadamard:20000", "--n", "64", "--out", "{tmp}/out"],
    "demo-20000": ["demo-hadamard", "--terms", "20000", "--n", "64", "--out", "{tmp}/out"],
    "solve-1e20": ["solve", "--config", "{tmp}/disk.json", "--problem", "neumann-int",
                   "--data", "hadamard:99999999999999999999", "--n", "64",
                   "--out", "{tmp}/out"],
}

# runs main in a child whose address space is capped, so a term count that
# forms 8 * 2**terms fails there instead of filling this machine's memory
_TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from bie2d.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("case", sorted(_HUGE_HADAMARD))
def test_huge_hadamard_term_count_is_a_quick_config_error(tmp_path, case):
    write_disk_config(tmp_path / "disk.json")
    argv = [arg.format(tmp=tmp_path) for arg in _HUGE_HADAMARD[case]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bie2d.__file__)))
    run = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.startswith("config error: hadamard data with")
    assert len(run.stderr.strip().splitlines()) == 1
    assert float(run.stdout) < 1.0
    assert not (tmp_path / "out").exists()


# argv (with {tmp} for the test directory) whose node counts sum past 1e8;
# each must be refused before a node is allocated
_HUGE_NODE_COUNTS = {
    "solve-config": ["solve", "--config", "{tmp}/huge.json", "--problem", "dirichlet-int",
                     "--data", "fourier:1", "--out", "{tmp}/out"],
    "solve-n": ["solve", "--config", "{tmp}/disk.json", "--problem", "dirichlet-int",
                "--data", "fourier:1", "--n", "100000000000000000", "--out", "{tmp}/out"],
    "verify-config": ["verify", "--config", "{tmp}/huge.json", "--out", "{tmp}/out"],
    "verify-n": ["verify", "--n", "100000000000000000", "--out", "{tmp}/out"],
    "demo-n": ["demo-hadamard", "--terms", "2", "--n", "100000000000000000",
               "--out", "{tmp}/out"],
}


@pytest.mark.parametrize("case", sorted(_HUGE_NODE_COUNTS))
def test_node_count_past_the_mesh_limit_is_a_config_error(tmp_path, capsys, case):
    write_disk_config(tmp_path / "disk.json")
    (tmp_path / "huge.json").write_text(json.dumps({"components": [
        {"kind": "circle", "radius": 1.0, "nodes": 10**30}]}))
    argv = [arg.format(tmp=tmp_path) for arg in _HUGE_NODE_COUNTS[case]]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: \d+ nodes in all, more than the 1e\+08 a mesh takes\n",
                        err)
    assert not (tmp_path / "out").exists()


# the curvature divides by |x'|**3, which overflows past about 5.6e102
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", ["1e103", "1e155", "1e200"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_huge_curve_is_a_config_error(tmp_path, capsys, command, radius):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"components": [{{"kind": "circle", "radius": {radius}, "nodes": 64}}]}}')
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "solve":
        argv += ["--problem", "dirichlet-int", "--data", "fourier:1"]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert re.fullmatch(r"config error: curve reaches 1\.0e\+\d+ in a node coordinate or its "
                        r"velocity, beyond the 1e\+100 a mesh takes\n", err)
    assert out == "" and not (tmp_path / "out").exists()


def test_curve_at_the_coordinate_bound_still_solves(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"components": [{"kind": "circle", "radius": 1e100, "nodes": 64}]}')
    assert main(["solve", "--config", str(path), "--problem", "dirichlet-int",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("radius", ["1", "1e20", "1e50"])
def test_exterior_neumann_density_mass_is_relative(tmp_path, capsys, radius):
    # the mass is reported as its gate bounds it, relative to max|datum| times
    # the boundary length, so it does not grow with the size of the curve
    path = tmp_path / "circle.json"
    path.write_text(f'{{"components": [{{"kind": "circle", "radius": {radius}, "nodes": 64}}]}}')
    assert main(["solve", "--config", str(path), "--problem", "neumann-ext",
                 "--data", "fourier:1", "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["residuals"]["density_mass"] <= 1e-15
    assert float(re.search(r"max residual: (\S+)", capsys.readouterr().out)[1]) <= 1e-11
