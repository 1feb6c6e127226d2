"""The library example and the domain config of README.md run as written,
its list of public names is the package's exports, and its list of removed
names holds."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import bie2d
from bie2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_domain_config_loads(tmp_path, capsys):
    # the annulus of the "Domain config" paragraph, one component and one
    # hole, and the disk inside its hole, which makes a second component
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    for i, (block, counts) in enumerate(zip(blocks, [(1, 1), (2, 1)])):
        path = tmp_path / f"domain{i}.json"
        path.write_text(block)
        topology = cli.load_config(str(path)).build_mesh().topology
        assert (topology.kappa_plus, topology.kappa_minus) == counts
    # bie2d verify passes every check on the nested domain
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = capsys.readouterr().out.splitlines()[:-2]
    assert len(rows) == 17 and all(row.startswith("PASS config ") for row in rows)


def _removed_names(heading):
    """The names before the first colon of each bullet under a "Removed names" heading."""
    section = README.read_text().split("## Removed names\n", 1)[1].split("\n## ", 1)[0]
    part = section.split(f"### {heading}\n", 1)[1].split("\n### ", 1)[0]
    names = []
    for bullet in re.split(r"^- ", part, flags=re.M)[1:]:
        for span in re.findall(r"`([^`]*)`", bullet.split(":", 1)[0]):
            name = re.sub(r"\(.*\)", "", span, flags=re.S)  # a signature shown with it
            assert re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name), span
            names.append(name)
    return names


_MODULES = [importlib.import_module(f"bie2d.{m.name}")
            for m in pkgutil.iter_modules(bie2d.__path__)]


def _resolves(name):
    # the head is looked up in the package and in each of its modules (a
    # module is an attribute of the package), the rest as attributes of it
    head, *rest = name.split(".")
    found = [getattr(owner, head) for owner in (bie2d, *_MODULES) if hasattr(owner, head)]
    for part in rest:
        found = [getattr(owner, part) for owner in found if hasattr(owner, part)]
    return bool(found)


def test_readme_removed_names_are_gone():
    gone = _removed_names("Gone")
    assert {"steklov", "cli.PROBLEMS", "solvers.trace_of_field_terms",
            "HarmonicField.single_layer_mass"} <= set(gone)
    assert {"J_inverse", "locate_point", "kernel_coincidence_angle", "DistRep", "cli.GridSpec",
            "cli.read_field_csv", "check_third_green_interior",
            "check_third_green_exterior", "OperatorSet.V", "JMap"} <= set(gone)
    assert [name for name in gone if _resolves(name)] == []


def test_readme_changed_signatures_still_resolve():
    changed = _removed_names("Changed signatures")
    assert {"locate_points", "value_at_infinity", "cli.cmd_solve"} <= set(changed)
    assert [name for name in changed if not _resolves(name)] == []


def test_readme_public_names_are_the_exports():
    # each "### `module`" heading lists the exported names that module defines
    section = README.read_text().split("## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for part in section.split("\n### ")[1:]:
        module = re.match(r"`(\w+)`\n", part).group(1)
        for name in re.findall(r"^- `([A-Za-z_]\w*)", part, flags=re.M):
            assert name not in listed, name
            listed[name] = f"bie2d.{module}"
    exported = {name: getattr(bie2d, name).__module__ for name in dir(bie2d)
                if not name.startswith("_")
                and not isinstance(getattr(bie2d, name), types.ModuleType)}
    assert listed == exported
