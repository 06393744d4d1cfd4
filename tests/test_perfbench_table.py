"""The benchmark's tracer wraps library functions by (module, name); every
entry of its tables must name a function the package still has."""

import importlib
import importlib.util
import os

import pytest

import ecgid.bench
import ecgid.features

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    tracing = load_tracing()
    names = [(mod, fn) for mod, fn, _, _ in tracing.TIMED]
    names += [(mod, fn) for mod, fn, _ in tracing.COUNTED]
    return names + [("ecgid.cli", "cli_main")]


@pytest.mark.parametrize("module,name", wrapped_names())
def test_traced_function_exists(module, name):
    mod = importlib.import_module(module)
    assert mod.__file__.startswith(os.path.dirname(importlib.import_module(
        "ecgid").__file__))
    assert callable(getattr(mod, name, None)), "%s.%s is gone" % (module, name)


def test_every_stage_extractor_is_traced():
    extractors = {name for name, _ in ecgid.bench.STAGE_EXTRACTORS.values()}
    for name in sorted(extractors):
        assert callable(getattr(ecgid.features, name, None)), name
    assert extractors <= set(load_tracing().EXTRACTORS)
