"""The library example and the domain config of README.md run as written."""

import re
from pathlib import Path

from bie2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_domain_config_loads(tmp_path):
    # the annulus of the "Domain config" paragraph: one component, one hole
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    (tmp_path / "domain.json").write_text(blocks[0])
    topology = cli.load_config(str(tmp_path / "domain.json")).build_mesh().topology
    assert (topology.kappa_plus, topology.kappa_minus) == (1, 1)
