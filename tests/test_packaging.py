"""Packaging: the import footprint and the declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gbyamabe

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    # scipy.special alone costs about half of a cold CLI start; the package
    # computes its quadrature with numpy, so nothing may pull scipy back in
    src = str(Path(gbyamabe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, gbyamabe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def _third_party_imports(package: Path) -> set[str]:
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package.name}


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
    assert declared == {"numpy"}
    assert _third_party_imports(ROOT / "src" / "gbyamabe") == declared
