"""Every exported name resolves, so ``from losdof import *`` and its modules' stars import."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import losdof

MODULES = [info.name for info in pkgutil.iter_modules(losdof.__path__)]


def test_package_exports_resolve():
    assert [name for name in losdof.__all__ if not hasattr(losdof, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"losdof.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the traced names bandwidth.minimize_scalar and regions.brentq load it on first access
    root = os.path.dirname(os.path.dirname(losdof.__file__))
    code = (f"import sys; sys.path.insert(0, {root!r}); import losdof.cli; "
            "losdof.cli.build_parser(); print('scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout == "False\n"
