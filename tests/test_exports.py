"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import hrg

MODULES = ["hrg"] + [f"hrg.{info.name}" for info in pkgutil.iter_modules(hrg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from hrg import *", namespace)
    assert set(hrg.__all__) <= set(namespace)
