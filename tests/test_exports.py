"""Export lists: every name a module exports exists, the package exports
exactly its submodules' lists, and no module borrows another's private
validator."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gbyamabe
from gbyamabe import forms, invariants, linearization, newton, spaceform

MODULES = ["gbyamabe"] + [info.name for info in pkgutil.iter_modules(gbyamabe.__path__, "gbyamabe.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_submodule_lists():
    expected = [
        "__version__",
        *forms.__all__,
        *invariants.__all__,
        *spaceform.__all__,
        *linearization.__all__,
        *newton.__all__,
    ]
    assert gbyamabe.__all__ == expected


def test_no_module_imports_another_modules_private_validator():
    borrowed = []
    for path in sorted(Path(gbyamabe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("gbyamabe")):
                borrowed += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_check")]
    assert borrowed == []
