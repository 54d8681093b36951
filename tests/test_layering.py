"""The import layering of the README's module table, each module loaded in a fresh interpreter, and each module's `__all__`."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ("grid", "fields", "coefficients", "solver", "analysis")
# each core module loads the ones before it; `verify` loads all of them, and
# `io_cli` the four below `analysis`, which its diagnose and exponents load as they run
LOADED = {name: set(CORE[: i + 1]) for i, name in enumerate(CORE)} | {
    "verify": {*CORE, "verify"},
    "io_cli": {*CORE[:-1], "io_cli"},
}


@pytest.mark.parametrize("module", list(LOADED))
def test_a_module_loads_only_the_layers_below_it(module):
    probe = f"import sys, landau.{module}; print(*(m[7:] for m in sys.modules if m.startswith('landau.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) == LOADED[module]


def test_the_cli_loads_no_process_pool():
    # `landau sweep` loads its pool when it runs; run, diagnose and verify never pay for it
    pool = ("multiprocessing", "concurrent.futures")
    probe = f"import sys, landau.io_cli; print(*(m for m in {pool} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_each_command_loads_only_its_own_layers(tmp_path):
    # `landau run`, like every spawned sweep worker, never loads the diagnostics;
    # a diagnose after it loads `analysis` and still neither `verify` nor the pool
    (tmp_path / "run.cfg").write_text("n = 8\nL = 8.0\nt_end = 0.05\np = 2.0\nm = 12.0\ninitial = maxwellian\n")
    probe = """
import contextlib, io, sys
from landau.io_cli import cli
watched = ("landau.analysis", "landau.verify", "multiprocessing", "concurrent.futures")
for command in (["run", "--config", "run.cfg", "--out", "out"], ["diagnose", "--traj", "out", "--out", "rep"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(command) == 0
    print(*(m for m in watched if m in sys.modules), sep=",")
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["", "landau.analysis"]


@pytest.mark.parametrize("module", list(LOADED))
def test_all_lists_every_public_function_and_class_and_nothing_undefined(module):
    # tunable constants may stay out of __all__; a stale entry or an unlisted def may not
    tree = ast.parse((SRC / "landau" / f"{module}.py").read_text())
    defs = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    exported = importlib.import_module(f"landau.{module}").__all__
    assert len(set(exported)) == len(exported)
    assert {name for name in defs if not name.startswith("_")} <= set(exported) <= defs | assigned


def test_the_eigenvalues_have_one_home():
    # LAPACK's eigvalsh in `grid` is the one eigenvalue routine; no other module reaches numpy.linalg
    readers, routines = set(), set()
    for path in sorted((SRC / "landau").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                names = [node.attr] if isinstance(node, ast.Attribute) else []
            if any("linalg" in name.split(".") for name in names):
                readers.add(path.stem)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                routines.add(node.attr)
    assert readers == {"grid"} and routines == {"eigvalsh"}
