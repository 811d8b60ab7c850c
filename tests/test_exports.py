"""Every exported name resolves, so ``from qcdeform import *`` keeps working."""

import importlib
import pkgutil

import pytest

import qcdeform

_MODULES = ["qcdeform"] + [f"qcdeform.{m.name}" for m in pkgutil.iter_modules(qcdeform.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
