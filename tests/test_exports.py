"""Every exported name resolves, so ``from losdof import *`` and its modules' stars import."""

import importlib
import pkgutil

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
