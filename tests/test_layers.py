"""The traced benchmark run wraps the functions named in perfbench's LAYERS.

A rename or deletion in robinsl that drops one of them breaks ``--trace 1``
only when the benchmark runs; these tests catch it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import robinsl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("modname, attr", _layers())
def test_layer_resolves_to_callable(modname, attr):
    mod = importlib.import_module(f"robinsl.{modname}")
    assert callable(getattr(mod, attr, None))


def test_jit_flag_exported():
    assert isinstance(robinsl.JIT_ENABLED, bool)


def test_all_names_resolve():
    for name in robinsl.__all__:
        obj = getattr(robinsl, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, robinsl.RobinSLError), name
