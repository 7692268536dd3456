"""Export lists: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import gbyamabe

MODULES = ["gbyamabe"] + [info.name for info in pkgutil.iter_modules(gbyamabe.__path__, "gbyamabe.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
