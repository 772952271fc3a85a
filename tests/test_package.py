"""The package surface: its export list and the README's library example."""

import ast
import re
from pathlib import Path

import numpy as np

import pathfuse
from pathfuse import (
    Frame,
    FusedPath,
    TrackerErrorModel,
    format_demo_csv,
    synth_demo,
)

README = Path(__file__).parents[1] / "README.md"


def test_exports_sorted_unique_and_complete():
    names = pathfuse.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(pathfuse, n)] == []
    tree = ast.parse(Path(pathfuse.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(imported - set(names)) == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # a capture of the example's CAD path: (0,0,0) -> (200,0,0) -> (200,150,0)
    pos = np.array([[0.0, 0.0, 0.0], [200.0, 0.0, 0.0], [200.0, 150.0, 0.0]])
    truth = FusedPath(pos, np.zeros((3, 3)), np.full(3, 100.0), Frame.S)
    demo = synth_demo(truth, TrackerErrorModel(), 100.0)
    (tmp_path / "demo.csv").write_bytes(format_demo_csv(demo))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("# program: part\n")
    assert (tmp_path / "part.aml").read_bytes().startswith(b"<?xml")
