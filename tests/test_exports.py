"""Every exported name of the package and its modules resolves, and so does
every function the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import hrg

MODULES = ["hrg"] + [f"hrg.{info.name}" for info in pkgutil.iter_modules(hrg.__path__)]
TRACER = Path(__file__).resolve().parent.parent / "hrgbench" / "tracer.py"
PACKAGE = Path(hrg.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from hrg import *", namespace)
    assert set(hrg.__all__) <= set(namespace)


def test_tracer_hooks_resolve():
    # a hooked function that is renamed or deleted would otherwise show up
    # only as ``trace.hooks_missing`` in a traced benchmark run
    spec = importlib.util.spec_from_file_location("hrgbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, path, _hook in tracer.HOOKS:
        target = importlib.import_module(f"hrg.{mod_name}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{mod_name}.{path}")
    assert tracer.HOOKS and not missing


def test_csr_layout_stays_in_graphgen():
    # every other module reaches the adjacency through ``Graph`` (neighbors,
    # degrees, adjacency), so the CSR layout can change in one place
    leaks = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "graphgen.py"
        and any(word in path.read_text(encoding="utf-8") for word in ("indptr", ".indices"))
    ]
    assert not leaks


def test_oracles_stay_in_verify():
    # the all-pairs oracle and the naive builder serve only the checks, so
    # no hot path can come to depend on them; the word is split so that
    # this file does not match itself
    apsp = "shortest_" + "path"
    tests = PACKAGE.parent.parent / "tests"
    holders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
        if apsp in path.read_text(encoding="utf-8")
    ]
    assert holders == ["verify.py"]
    naive_callers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "verify.py"
        and re.search(r"(?<!def )build_naive\(", path.read_text(encoding="utf-8"))
    ]
    assert not naive_callers
    conftest = (tests / "conftest.py").read_text(encoding="utf-8")
    assert "apsp" not in conftest and "csgraph" not in conftest
