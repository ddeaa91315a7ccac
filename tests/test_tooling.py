"""Checks that the benchmark's tools still fit the program they measure."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "benchmarks" / "tracer.py"
SRC = ROOT / "src" / "protograph"


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


def kept_imports():
    """(module, name) of every import in the package marked `# noqa: F401`."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                for alias in node.names:
                    yield f"protograph.{path.stem}", alias.asname or alias.name


def test_every_kept_import_is_a_traced_call_site():
    # an import kept only so that the tracer finds a call site must go once
    # the tracer no longer lists that site
    sites = {(owner, attr) for owner, attr, _ in tracer.SPAN_SITES + tracer.COUNT_SITES}
    kept = list(kept_imports())
    assert kept, "no kept import found: the scan is broken"
    assert [site for site in kept if site not in sites] == []
