import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
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


# records whose fields no package code reads, each kept for a reader
# outside the package; a whole class is named without a field
READ_OUTSIDE = {
    "PipelineResult": "run_pipeline's return value, read by its callers",
    "RegistrationResult.rmse_sequence":
        "the ICP's RMSE trace, for the per-run metrics file ROADMAP plans",
    "SceneTruth.ground_labels":
        "the generator's labels, the truth of acceptance criterion 7",
}


def package_dataclasses():
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"slopewatch.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_setting_is_read():
    """Each field of every record in the package is read as an attribute
    somewhere in the package outside its own class, so a field that no
    code uses cannot linger; names in ``__post_init__`` strings do not
    count. ``READ_OUTSIDE`` names the exceptions, which must stay unread."""
    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
              for cls in package_dataclasses()}
    assert {"PipelineConfig", "ClothParams", "IcpParams", "Region"} <= set(fields)
    read = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name in fields
                  for node in ast.walk(cls)}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside)
    unread = sorted(f"{cls}.{name}" for cls, names in fields.items()
                    if cls not in READ_OUTSIDE
                    for name in names - read)
    assert unread == sorted(k for k in READ_OUTSIDE if "." in k)


def test_derived_data_is_kept_one_way():
    """Data derived from an immutable object (a cloud's kd-tree, normals,
    registration features) is kept through ``cloud._kept`` alone: no other
    code reads or writes an instance ``__dict__``, and ``object.__setattr__``
    only sets fields in a frozen record's ``__post_init__``."""
    stray = []
    memo_helpers = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {"_kept": set(), "__post_init__": set()}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in inside:
                inside[fn.name].update(id(node) for node in ast.walk(fn))
                memo_helpers += (path.name, fn.name) == ("cloud.py", "_kept")
        if path.name != "cloud.py":
            inside["_kept"] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                    and id(node) not in inside["_kept"]):
                stray.append(f"{path.name}:{node.lineno} __dict__")
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and id(node) not in inside["__post_init__"]):
                stray.append(f"{path.name}:{node.lineno} __setattr__")
    assert memo_helpers == 1
    assert stray == []
