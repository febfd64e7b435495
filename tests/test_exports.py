import importlib
import pkgutil
from collections import Counter

import pytest

import riccati_capacity as rc

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rc.__path__))


def test_package_exports_are_unique():
    # the package star-imports its modules, so a name two modules export
    # would silently shadow the earlier module's
    assert [name for name, count in Counter(rc.__all__).items() if count > 1] == []


def test_package_exports_resolve():
    missing = [name for name in rc.__all__ if not hasattr(rc, name)]
    assert not missing, f"riccati_capacity.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"riccati_capacity.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"riccati_capacity.{name}.__all__ names missing attributes: {missing}"


def test_every_library_export_reaches_the_package():
    # as the same object; cli's one export is the console script's entry point
    for name in sorted(set(SUBMODULES) - {"cli"}):
        module = importlib.import_module(f"riccati_capacity.{name}")
        for attr in getattr(module, "__all__", ()):
            assert attr in rc.__all__, f"riccati_capacity.{name}.{attr} not in the package"
            assert getattr(rc, attr) is getattr(module, attr), f"{name}.{attr}"
