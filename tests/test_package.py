import ast
import importlib
import pathlib
import pkgutil

import pytest

import muskatlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(muskatlab.__path__, "muskatlab."))
# (module, names) of each `from .module import ...` in the package's __init__
REEXPORTS = [(f"muskatlab.{node.module}", [alias.name for alias in node.names])
             for node in ast.parse(pathlib.Path(muskatlab.__file__).read_text(encoding="utf-8")).body
             if isinstance(node, ast.ImportFrom) and node.level == 1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks only `from module import *`, which nothing else runs
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name, names", REEXPORTS, ids=[name for name, _ in REEXPORTS])
def test_reexported_names_are_public(name, names):
    # the package re-exports only names its modules declare public
    public = importlib.import_module(name).__all__
    assert [n for n in names if n not in public] == []
