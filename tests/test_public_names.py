"""Every name a module exports resolves, and the package re-exports only those.

The benchmark's tracer wraps each `__all__` entry of the package's modules
by name, so a stale entry would break it before any run, and a name the
package imports from outside its module's `__all__` would go untraced.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import siftfree_qkd

MODULES = sorted(
    f"siftfree_qkd.{info.name}" for info in pkgutil.iter_modules(siftfree_qkd.__path__)
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
