import ast
import importlib.util
import sys
from pathlib import Path

import slopewatch

PACKAGE_DIR = Path(slopewatch.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_function_local_imports():
    """Every import sits at module level, so the module graph is visible."""
    local = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    local.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert local == []


def test_traced_benchmark_names_resolve(monkeypatch):
    """``perfbench/tracing.py`` wraps the functions of its ``TRACED`` table
    by name, and only a traced benchmark run would notice one going."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name in tracing.TRACED
               if not callable(getattr(importlib.import_module(
                   f"slopewatch.{module}"), name, None))]
    assert tracing.TRACED
    assert missing == []
