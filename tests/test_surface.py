"""The public surface: every exported name resolves, and each name has one path."""

import importlib
import os
import pkgutil
import subprocess
import sys

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
    # names are reached through their submodules only; the package
    # re-exports nothing but its version
    assert msplit.__all__ == ["__version__"]
    assert isinstance(msplit.__version__, str)


def test_import_msplit_leaves_scipy_unimported():
    # the import path of the package under test, not an installed copy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(msplit.__file__)))
    code = "import sys, msplit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"
