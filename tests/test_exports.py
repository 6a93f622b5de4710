"""Every exported name of the package and its modules resolves, a submodule
exports only names it defines itself, and every function the benchmark's
tracer wraps resolves. No module of the package imports scipy, so every
command runs without it; only the tests use it, as an oracle. ``geometry``
imports no other module of the package."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
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


def top_level_names(source: str) -> set[str]:
    """Names that a module's own top-level statements define: its functions,
    classes and assigned names, not the names it imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_submodules_export_only_their_own_names():
    # a name has one home: a submodule does not re-export what another defines
    assert top_level_names("import x\nfrom y import z\nA = 1\nclass B: pass\n") == {"A", "B"}
    foreign = {
        path.name: sorted(extra)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (extra := set(getattr(importlib.import_module(f"hrg.{path.stem}"), "__all__", ()))
             - top_level_names(path.read_text(encoding="utf-8")))
    }
    assert not foreign


def test_star_import():
    namespace = {}
    exec("from hrg import *", namespace)
    assert set(hrg.__all__) <= set(namespace)
    # the package states its exports once: those of the four layers it re-exports
    layers = (hrg.analysis, hrg.geometry, hrg.graphgen, hrg.sampling)
    assert hrg.__all__ == [name for layer in layers for name in layer.__all__]


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
    # degrees, edges), so the CSR layout can change in one place
    leaks = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "graphgen.py"
        and any(word in path.read_text(encoding="utf-8") for word in ("indptr", ".indices"))
    ]
    assert not leaks


def scipy_imports(source: str) -> list[int]:
    """Line numbers of the ``import scipy...``/``from scipy...`` statements,
    at module level or inside a function."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]


def test_oracles_stay_in_verify():
    # the all-pairs oracle and the naive builder serve only the checks, so
    # no hot path can come to depend on them; scipy is only the tests' oracle
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    calls = re.compile(r"(?<!def )\b(apsp_eccentricities|build_naive)\(")
    assert calls.search("x = build_naive(ps)") and not calls.search("def build_naive(ps):")
    assert not [name for name, text in sources.items() if name != "verify.py" and calls.search(text)]
    assert scipy_imports("import scipy.stats\ndef f():\n    from scipy import sparse\n") == [1, 3]
    assert scipy_imports("import numpy\nfrom .verify import x\n") == []
    assert not {name: lines for name, text in sources.items() if (lines := scipy_imports(text))}


def package_imports(source: str) -> list[int]:
    """Line numbers of the statements that import a module of this package,
    relative or by name, at module level or inside a function."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "hrg" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "hrg")
    ]


def test_geometry_imports_no_package_module():
    # geometry is the bottom layer: every other module may import it, so an
    # import back into the package would be circular
    assert package_imports("import math\ndef f():\n    from .sampling import x\n") == [3]
    assert package_imports("import hrg.files\nfrom hrg import cli\nimport numpy\n") == [1, 2]
    assert package_imports((PACKAGE / "geometry.py").read_text(encoding="utf-8")) == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def loops_in(source: str, name: str) -> list[str]:
    """Kinds of the loops and comprehensions inside function ``name``."""
    func = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return [type(node).__name__ for node in ast.walk(func) if isinstance(node, LOOPS)]


def test_trial_functions_have_no_python_loop():
    # their trials come from one generator in array calls
    assert loops_in("def f(x):\n    while x:\n        x = {y for y in x}\n", "f") == [
        "While", "SetComp"
    ]
    source = (PACKAGE / "sampling.py").read_text(encoding="utf-8")
    assert loops_in(source, "poisson_counts") == []
    assert loops_in(source, "disjointness_check") == []


def run_fresh(script: str, *argv: str) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports this
    package's sources, so no module a test loaded is already there."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_generate_runs_without_scipy(tmp_path):
    # then ``hrg analyze`` on the generated files and a small sweep, which
    # analyse graphs and run the underpass check; importing the modules
    # loads no ``statistics`` either, which only the sweep criteria use
    script = """
import contextlib, io, json, sys
import hrg, hrg.cli, hrg.files, hrg.experiments, hrg.verify
assert "statistics" not in sys.modules
coords, edges, report = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        hrg.cli.main(["generate", "--n", "2048", "--seed", "1",
                      "--out-coords", coords, "--out-edges", edges]),
        hrg.cli.main(["analyze", "--coords", coords, "--edges", edges, "--report", report]),
    ]
config = hrg.experiments.SweepConfig((128, 256), 0.75, 0.0, seeds=2, underpass_trials=100)
codes.append(len(hrg.experiments.run_sweep(config)))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    out = run_fresh(script, *(str(tmp_path / name) for name in ("c.tsv", "e.tsv", "r.json")))
    assert json.loads(out) == [[0, 0, 4], []]


def test_verify_runs_without_scipy():
    # a meta-path finder refuses every scipy module, so any import of it,
    # in the parent or in the forked child, ends the suite with an ImportError
    script = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import hrg.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = hrg.cli.main(["verify", "--quick", "--seed", "1"])
print(json.dumps([code, out.getvalue().splitlines()[-1]]))
"""
    assert json.loads(run_fresh(script)) == [0, "18/18 checks passed"]
