"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import msplit

MODULES = sorted(info.name for info in pkgutil.iter_modules(msplit.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"msplit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    assert [attr for attr in msplit.__all__ if not hasattr(msplit, attr)] == []
