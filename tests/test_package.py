"""The package surface: its export list and the README's library example."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from conftest import child_env, make_doc
from pathfuse import (
    Frame,
    FusedPath,
    TrackerErrorModel,
    format_demo_csv,
    synth_demo,
    write_xml,
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


# xml.sax.saxutils imports urllib.request, and with it http.client, email, ssl and socket
UNUSED_AT_IMPORT = ("xml.sax", "xml.etree.ElementTree", "urllib.request", "http.client", "email", "ssl", "socket")


def test_import_loads_only_what_it_runs():
    code = f"import sys, pathfuse, pathfuse.cli; print(*[m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout.split() == []


def validate_cold(path):
    return subprocess.run([sys.executable, "-m", "pathfuse", "pathml", "validate", str(path)],
                          capture_output=True, text=True, env=child_env())


@pytest.mark.parametrize("layout", ["crlf", "tabs"])
def test_cold_validate_reads_a_non_canonical_document(tmp_path, layout):
    text = write_xml(make_doc()).decode()
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    else:
        text = re.sub("(?m)^(  )+", lambda m: "\t" * (len(m[0]) // 2), text)
    path = tmp_path / "part.aml"
    path.write_bytes(text.encode())
    proc = validate_cold(path)
    assert proc.returncode == 0, proc.stderr


def test_cold_validate_reports_malformed_xml_with_its_line(tmp_path):
    lines = write_xml(make_doc()).decode().split("\n")
    lines[5] = lines[5].replace("</Value>", "</Valu>")  # line 6 closes a tag it never opened
    path = tmp_path / "part.aml"
    path.write_text("\n".join(lines))
    proc = validate_cold(path)
    assert proc.returncode == 2
    assert "line 6: malformed XML" in proc.stderr
