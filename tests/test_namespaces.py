"""The lazy package namespaces (``repro._lazy``).

Every package resolves its ``__all__`` on first access: each name must
be the very object its submodule holds (the submodule the package's
``TYPE_CHECKING`` imports name, which is what type checkers see), show
in ``dir()``, and stay cached in the package afterwards. Importing one
submodule must not load its siblings.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

PACKAGES = (
    "repro", "repro.analysis", "repro.cachesim", "repro.foray", "repro.gen",
    "repro.instrument", "repro.lang", "repro.sim", "repro.spm",
    "repro.staticfar", "repro.workloads",
)


def _typing_imports(package) -> dict[str, str]:
    """``name -> module`` for every ``from module import name`` under the
    package's ``if TYPE_CHECKING:``."""
    tree = ast.parse(inspect.getsource(package))
    owners: dict[str, str] = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names:
                    owners[alias.asname or alias.name] = stmt.module
    return owners


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodules_object(name):
    package = importlib.import_module(name)
    owners = _typing_imports(package)
    assert set(owners) <= set(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        if export in owners:
            owner = importlib.import_module(owners[export])
            assert value is getattr(owner, export), export
        assert export in vars(package), export  # cached on first use
        assert export in dir(package), export


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_star_import():
    import repro
    from repro.pipeline import run_suite

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= namespace.keys()
    assert namespace["run_suite"] is run_suite


def _loaded_after(code: str) -> set[str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize("code, unloaded", [
    ("from repro.sim.inputs import InputSpec",
     {"repro.sim.bytecode", "repro.sim.interpreter", "repro.sim.machine"}),
    ("from repro.lang import ast_nodes",
     {"repro.lang.parser", "repro.lang.semantics", "repro.lang.lexer"}),
    ("import repro", {"repro.pipeline", "repro.foray.model"}),
])
def test_a_submodule_does_not_load_its_siblings(code, unloaded):
    assert not _loaded_after(code) & unloaded
