import importlib
import pkgutil

import pytest

import muskatlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(muskatlab.__path__, "muskatlab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks only `from module import *`, which nothing else runs
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
