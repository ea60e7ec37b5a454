"""Every name a module exports resolves.

The benchmark's tracer wraps each `__all__` entry of the package's modules
by name, so a stale entry would break it before any run.
"""

import importlib
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
