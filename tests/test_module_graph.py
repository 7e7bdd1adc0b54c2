import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from threading import current_thread, main_thread

import slopewatch
from slopewatch import cloud, terrain
from slopewatch.pipeline import default_config, run_pipeline

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


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_thread_pool_and_no_other_threads_or_processes():
    """The per-row kernels share one pool (``cloud._by_rows``); no other
    code starts threads or processes of its own."""
    pools, stray = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) == "ThreadPoolExecutor":
                pools.append(path.name)
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if any(n.split(".")[0] in ("multiprocessing", "Thread",
                                       "ProcessPoolExecutor") for n in names):
                stray.append(f"{path.name}:{node.lineno}")
    assert pools == ["cloud.py"]
    assert stray == []


def test_every_kdtree_query_names_its_workers():
    """A plain query runs on every core (``workers=-1``); one inside a
    ``_by_rows`` kernel already runs on a pool thread (``workers=1``)."""
    queries, unnamed = 0, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("query", "query_ball_point")):
                queries += 1
                if not any(kw.arg == "workers" for kw in node.keywords):
                    unnamed.append(f"{path.name}:{node.lineno}")
    assert queries >= 8
    assert unnamed == []


def test_pool_threads_build_no_tree_and_keep_nothing(tmp_path, monkeypatch):
    """The benchmark's tracer keeps one span stack and counts kd-tree
    builds on it, and ``_kept`` writes an unlocked memo: during a pipeline
    run both happen on the main thread only, while the nearest-triangle
    search does run on pool threads."""
    off_main, search_threads = [], set()
    real_tree, real_kept = cloud.cKDTree, cloud._kept
    real_closest = terrain.closest_point_on_triangles

    def tree(*args, **kwargs):
        if current_thread() is not main_thread():
            off_main.append("cKDTree")
        return real_tree(*args, **kwargs)

    def kept(obj, key, make):
        if current_thread() is not main_thread():
            off_main.append(f"_kept {key!r}")
        return real_kept(obj, key, make)

    def closest(*args):
        search_threads.add(current_thread().name)
        return real_closest(*args)

    for module in [m for n, m in sys.modules.items()
                   if n.startswith("slopewatch.") and m is not None]:
        for attr, real, fake in (("cKDTree", real_tree, tree),
                                 ("_kept", real_kept, kept)):
            if vars(module).get(attr) is real:
                monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(terrain, "closest_point_on_triangles", closest)
    run_pipeline(default_config(density_pts_m2=8, out_dir=str(tmp_path / "run")))
    assert off_main == []
    assert search_threads - {main_thread().name}
