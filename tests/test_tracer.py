"""The benchmark's traced mode (`perfbench/tracer.py`) names library
functions and methods by string; these tests check that every name still
resolves, so a rename or deletion fails here and not only in
`perfbench/run.py --trace 1`.  The tracer module is imported as it stands
and nothing is installed."""

import importlib
import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _tracer():
    """The tracer module, loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _tracer()


@pytest.mark.parametrize("name", [f"{mod}.{fn}"
                                  for mod, fns in tracer.SPANNED.items()
                                  for fn in fns])
def test_spanned_function_exists(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"bsbimod.{mod}"), fn,
                            None)), name


@pytest.mark.parametrize("cls, meth, counter", tracer.COUNTED,
                         ids=[c for _, _, c in tracer.COUNTED])
def test_counted_method_exists(cls, meth, counter):
    assert callable(getattr(cls, meth, None)), counter


def test_after_hooks_name_spanned_functions():
    spanned = {f"{mod}.{fn}" for mod, fns in tracer.SPANNED.items()
               for fn in fns}
    assert set(tracer._AFTER) <= spanned
