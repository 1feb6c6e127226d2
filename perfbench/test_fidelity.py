"""The benchmark's composed ops do what the library's own entry points do.

    python3 -m pytest perfbench

A cold-sessions solve op must give the report residuals and the field CSV
of ``cli.cmd_solve`` on the same config and data; a verify op must give
the rows of the default ``run_verify()`` for its geometry.  A cycle runs
every op kind once.  The checks that gate every op must reject a wrong
output, and the calibration kernel that sets the unit of op times must
not depend on the seed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from bie2d import cli  # noqa: E402
from bie2d.geometry import stock_mesh  # noqa: E402
from bie2d.verify import DEFAULT_SEED, run_verify  # noqa: E402

from reference import annulus_nodes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ColdSessions,
    DirichletWarm,
    NeumannCold,
    VerifySuite,
)


def test_reference_nodes_are_the_stock_annulus_nodes():
    mesh = stock_mesh("annulus", NeumannCold.nodes)
    x, normal = annulus_nodes(NeumannCold.nodes)
    assert np.allclose(x, mesh.x, rtol=0, atol=1e-14)
    assert np.allclose(normal, mesh.normal, rtol=0, atol=1e-14)


# ops 0..3: interior csv, exterior csv, interior pairjson, exterior pairjson
@pytest.mark.parametrize("op", range(NeumannCold.cycle))
def test_neumann_cold_op_matches_cmd_solve(tmp_path, op):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    workload = NeumannCold(7, bench_dir, Tracer())
    case = workload.prepare(op)
    report = workload.run(case)
    assert workload.check(case, report)

    cfg = cli.load_config(
        str(workload.config_path), problem=case["problem"], data=case["spec"],
        out_dir=str(tmp_path / "cli"),
    )
    assert cli.cmd_solve(cfg) == cli.EXIT_OK
    saved = json.loads((tmp_path / "cli" / "solve_report.json").read_text())
    assert saved["residuals"] == json.loads(json.dumps(report.to_dict()))["residuals"]
    assert (tmp_path / "cli" / "solve_field.csv").read_bytes() == case["field_path"].read_bytes()


def test_cold_cycle_runs_every_op_kind_once(tmp_path):
    workload = ColdSessions(7, tmp_path, Tracer(), SRC)
    for k in range(2):
        cases = [workload.prepare(k * ColdSessions.cycle + j)
                 for j in range(ColdSessions.cycle)]
        solves = [(c["problem"], c["spec"].split(":")[0])
                  for kind, c in cases if kind is workload.solve]
        assert sorted(solves) == sorted(
            (p, d) for p in ("neumann-int", "neumann-ext") for d in ("csv", "pairjson")
        )
        assert [c for kind, c in cases if kind is workload.verify] == list(VerifySuite.trio)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calibration_kernel_is_the_same_for_every_seed(tmp_path, name):
    first = WORKLOADS[name](1, tmp_path, Tracer(), SRC).calibrate()
    second = WORKLOADS[name](2, tmp_path, Tracer(), SRC).calibrate()
    assert np.array_equal(first, second)


def test_verify_suite_ops_match_default_run_verify(tmp_path):
    default = run_verify()
    workload = VerifySuite(DEFAULT_SEED, Tracer())
    for geom in VerifySuite.trio:
        report = workload.run(workload.prepare(VerifySuite.trio.index(geom)))
        expected = [row.to_dict() for row in default.rows if row.geometry == geom]
        assert [row.to_dict() for row in report.rows] == expected
        assert workload.check(geom, report)


def test_neumann_check_rejects_a_wrong_field(tmp_path):
    workload = NeumannCold(3, tmp_path, Tracer())
    case = workload.prepare(0)
    report = workload.run(case)
    lines = case["field_path"].read_text().splitlines()
    # scaling the field is not a constant shift
    scaled = [lines[0]] + [
        f"{x},{y},{1.001 * float(u)!r}" if u else f"{x},{y},"
        for x, y, u in (line.split(",") for line in lines[1:])
    ]
    case["field_path"].write_text("\n".join(scaled) + "\n")
    assert not workload.check(case, report)


def test_dirichlet_check_rejects_wrong_values(tmp_path):
    workload = DirichletWarm(3, tmp_path, Tracer(), SRC)
    workload.setup()
    for op in range(DirichletWarm.cycle):
        case = workload.prepare(op)
        report, values = workload.run(case)
        assert workload.check(case, (report, values))
        assert not workload.check(case, (report, values + 1e-6))
    report.u_infinity += 1e-6
    assert not workload.check(case, (report, values))


def test_verify_check_rejects_a_changed_row(tmp_path):
    workload = VerifySuite(3, Tracer())
    report = workload.run("disk")
    assert workload.check("disk", report)
    report.rows[0].residual = np.nextafter(report.rows[0].residual, np.inf)
    assert not workload.check("disk", report)
