"""The public names of every degenspec module: each name in a module's
__all__ resolves, and `from degenspec.<module> import *` works, so a name
left in __all__ after its definition is deleted fails here."""

import importlib
import pkgutil

import pytest

import degenspec

MODULES = ["degenspec"] + [f"degenspec.{info.name}" for info in
                           pkgutil.iter_modules(degenspec.__path__)]


def test_every_module_is_listed():
    assert len(MODULES) == 11


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ())
               if not hasattr(module, item)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
