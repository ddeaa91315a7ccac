"""Checks that the benchmark's tools still fit the program they measure."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("owner, attr, name", tracer.SPAN_SITES + tracer.COUNT_SITES)
def test_every_traced_name_is_bound_in_its_owner(owner, attr, name):
    # the tracer patches vars(owner)[attr]; a name the owner no longer binds
    # (an import dropped as unused) would stop a traced benchmark run
    assert attr in vars(tracer._resolve(owner)), f"{owner}.{attr} ({name})"
