"""Every name a module exports resolves, and the package re-exports only those.

The benchmark's tracer wraps each `__all__` entry of the package's modules
by name, so a stale entry would break it before any run, and a name the
package imports from outside its module's `__all__` would go untraced.
Every other module uses each name it imports, so an import left behind by
a deletion shows up here.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import siftfree_qkd

MODULES = sorted(
    f"siftfree_qkd.{info.name}" for info in pkgutil.iter_modules(siftfree_qkd.__path__)
)

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/siftfree_qkd", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(siftfree_qkd))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stray = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"siftfree_qkd.{node.module}").__all__
    ]
    assert stray == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module neither uses nor exports."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(set(bound) - used - exported)


@pytest.mark.parametrize("path", SOURCES)
def test_every_import_is_used(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path)
    assert _unused_imports(tree) == []
