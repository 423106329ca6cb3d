"""Guards on the package surface the scripts and the package itself use.

Two checks, both static (no script is executed):

* every ``from repro... import X`` (and ``import repro...``) in
  ``examples/``, ``benchmarks/`` and ``bench/`` resolves, so deleting a
  name cannot silently break a script that CI does not run end to end;
* every name exported by ``repro.ml`` or ``repro.fleet`` is
  referenced, as an AST name, attribute or import alias, by some
  non-``__init__`` file of ``src/``, ``examples/``, ``benchmarks/`` or
  ``bench/`` outside its own definition, so estimators and fleet
  helpers nothing reaches do not accumulate again.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro.fleet
import repro.ml

ROOT = Path(__file__).resolve().parents[1]
SCRIPT_DIRS = ("examples", "benchmarks", "bench")
SOURCE_DIRS = ("src",) + SCRIPT_DIRS


def _python_files(dirs):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def _repro_imports():
    """(file, module, name-or-None) for each repro import in the scripts."""
    found = []
    for path in _python_files(SCRIPT_DIRS):
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found.extend((rel, module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.extend(
                    (rel, a.name, None)
                    for a in node.names
                    if a.name == "repro" or a.name.startswith("repro.")
                )
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None or name == "*" or hasattr(imported, name):
        return True
    # ``from package import submodule`` resolves through the import system.
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_script_imports_resolve():
    imports = _repro_imports()
    # An empty scan would pass vacuously.
    assert len({rel for rel, _, _ in imports}) >= 10
    missing = [
        f"{rel}: {module}{'' if name is None else '.' + name}"
        for rel, module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, f"scripts import names that do not exist: {missing}"


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module refers to, minus each top-level def's self-references."""
    names: set[str] = set()
    for statement in tree.body:
        local: set[str] = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                local.add(node.id)
            elif isinstance(node, ast.Attribute):
                local.add(node.attr)
            elif isinstance(node, ast.alias):
                local.add((node.asname or node.name).rsplit(".", 1)[-1])
                local.add(node.name.rsplit(".", 1)[-1])
        if isinstance(
            statement, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            local.discard(statement.name)
        names |= local
    return names


def _unreached(package) -> list[str]:
    referenced: set[str] = set()
    for path in _python_files(SOURCE_DIRS):
        if path.name != "__init__.py":
            referenced |= _referenced_names(ast.parse(path.read_text()))
    return sorted(set(package.__all__) - referenced)


def test_every_ml_export_is_reached():
    unreached = _unreached(repro.ml)
    assert not unreached, (
        f"repro.ml exports names nothing outside tests uses: {unreached}"
    )


def test_every_fleet_export_is_reached():
    unreached = _unreached(repro.fleet)
    assert not unreached, (
        f"repro.fleet exports names nothing outside tests uses: {unreached}"
    )
