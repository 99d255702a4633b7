"""Every exported name resolves, so deleting API cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import blockboot

MODULES = ["blockboot"] + [f"blockboot.{info.name}" for info in pkgutil.iter_modules(blockboot.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_exports_the_module_objects():
    for item in blockboot.__all__:
        if item == "__version__":
            continue
        obj = getattr(blockboot, item)
        owner = getattr(obj, "__module__", None)
        if owner is not None and owner.startswith("blockboot."):
            assert getattr(importlib.import_module(owner), item) is obj
