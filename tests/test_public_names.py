"""Every public name resolves: a deleted or renamed function must leave no __all__ entry behind."""

import importlib
import pkgutil

import pytest

import qcoex

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcoex.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"qcoex.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_all_imports():
    namespace = {}
    exec("from qcoex import *", namespace)
    assert [name for name in qcoex.__all__ if name not in namespace] == []
    assert len(set(qcoex.__all__)) == len(qcoex.__all__)
