"""The README's examples say what the package does: the Library snippet prints
the service map in its comment, and the simulation config it lists as the
defaults is the default config."""

import ast
import json
import re
from pathlib import Path

from anypath_vne import cli, scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    start = README.index(f"\n{heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def test_library_snippet_prints_the_service_map_in_its_comment(capsys):
    code = re.search(r"```python\n(.*?)```", _section("## Library"), re.S).group(1)
    shown = re.search(r"print\(embedding\.service_map\)\s*# (.*)", code).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["embedding"].service_map == ast.literal_eval(shown)
    assert capsys.readouterr().out == shown + "\n"


def test_the_listed_simulation_config_defaults_are_the_defaults():
    block = re.search(r"```jsonc\n(.*?)```", _section("### Input formats"), re.S).group(1)
    listed = block.split("// simulation config (all fields optional; defaults shown)\n")[1]
    assert cli.simulation_config_from_dict(json.loads(listed)) \
        == scenario.SimulationConfig()
