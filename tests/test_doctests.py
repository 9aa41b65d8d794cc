"""Every example in a modrec docstring runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import modrec

# __main__ runs the command line on import
MODULES = ["modrec"] + sorted("modrec." + info.name
                              for info in pkgutil.iter_modules(modrec.__path__)
                              if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0, name


def test_exactalg_has_examples():
    # guards against a discovery that silently finds nothing
    assert doctest.testmod(importlib.import_module("modrec.exactalg")).attempted > 0
