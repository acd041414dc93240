"""The examples in the docstrings of `src/bsbimod` run as tests."""

import doctest
import importlib
import pkgutil

import bsbimod


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(bsbimod.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"bsbimod.{info.name}")
            failed, tried = doctest.testmod(module)
            assert failed == 0, info.name
            attempted += tried
    assert attempted >= 8
