import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from threading import Thread, current_thread, main_thread

import slopewatch
from slopewatch import cloud, terrain
from slopewatch.pipeline import default_config, run_pipeline

PACKAGE_DIR = Path(slopewatch.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCH_DIR / "tracing.py"
TESTS_DIR = Path(__file__).resolve().parent


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
    "RigidTransform.translation":
        "read by the transform's own methods and by perfbench's pose check",
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


# defaulted parameters of public functions that no call in the package or
# the benchmark passes, each with the caller that sets it
PASSED_OUTSIDE = {
    "cli.main.argv": "the tests drive the CLI in-process",
    "cloud.remove_outliers.k":
        "perfbench passes it positionally through Outcome.call",
    "cloud.remove_outliers.std_ratio":
        "perfbench passes it positionally through Outcome.call",
}


def public_defaults() -> dict:
    """{function name: (module, {defaulted parameter: position, or None
    for a keyword-only one})} of the package's public module-level
    functions."""
    defaulted = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            params = {a.arg: i for i, a in enumerate(args) if i >= first}
            params.update({a.arg: None for a, d in zip(fn.args.kwonlyargs,
                                                         fn.args.kw_defaults)
                           if d is not None})
            assert fn.name not in defaulted, fn.name
            defaulted[fn.name] = (path.stem, params)
    assert {"icp", "build_dtm", "filter_vegetation"} <= set(defaulted)
    return defaulted


def calls_passing(defaulted: dict, paths):
    """(``module.function``, its defaulted parameters, the ones passed) of
    every call in ``paths`` to a function of ``defaulted``. A call counts
    by the called name alone; one with ``*args`` or ``**kwargs`` passes
    everything."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            fn = _call_name(node) if isinstance(node, ast.Call) else None
            if fn not in defaulted:
                continue
            module, params = defaulted[fn]
            named = {kw.arg for kw in node.keywords}
            spread = (None in named
                      or any(isinstance(a, ast.Starred) for a in node.args))
            yield f"{module}.{fn}", set(params), {
                name for name, pos in params.items()
                if spread or name in named
                or (pos is not None and pos < len(node.args))}


def all_defaults(defaulted: dict) -> set:
    """Every ``module.function.parameter`` of ``defaulted``."""
    return {f"{module}.{fn}.{name}" for fn, (module, params) in defaulted.items()
            for name in params}


def test_every_parameter_is_passed():
    """The parameter twin of ``test_every_setting_is_read``: each defaulted
    parameter of a public module-level function in the package is passed,
    by name or by position, by some call in the package or in
    ``perfbench/``, so a knob that only the tests turn cannot linger.
    ``PASSED_OUTSIDE`` names the exceptions, which must stay unpassed."""
    defaulted = public_defaults()
    passed = {f"{fn}.{name}" for fn, _, names in calls_passing(
        defaulted, sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py")))
        for name in names}
    assert sorted(all_defaults(defaulted) - passed) == sorted(PASSED_OUTSIDE)


def test_every_default_is_relied_on():
    """The other side of ``test_every_parameter_is_passed``: each defaulted
    parameter of a public module-level function is left out by some call
    in the package, in ``perfbench/`` or in the tests, so a default that
    every call overrides, and that may disagree with what they pass,
    cannot linger."""
    defaulted = public_defaults()
    omitted = {f"{fn}.{name}" for fn, params, names in calls_passing(
        defaulted, sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
        + sorted(TESTS_DIR.glob("*.py")))
        for name in params - names}
    assert sorted(all_defaults(defaulted) - omitted) == []


# public module-level functions that no code in the package or the
# benchmark names, each with the reader that uses it
REFERENCED_OUTSIDE = {
    "analysis.relative_error":
        "acceptance criterion 3's relative-error bound, checked by the tests",
}


def test_every_public_function_is_referenced():
    """Each public module-level function of the package is called or
    referenced by name (a call, an attribute or a bare name, not an import)
    somewhere in the package or in ``perfbench/``, so a function that only
    the tests use cannot linger. ``REFERENCED_OUTSIDE`` names the
    exceptions, which must stay unreferenced."""
    public = {}   # function name -> module
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                assert fn.name not in public, fn.name
                public[fn.name] = path.stem
    assert {"icp", "coarse_register", "run_pipeline"} <= set(public)

    named = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
    unreferenced = sorted(f"{module}.{fn}" for fn, module in public.items()
                          if fn not in named)
    assert unreferenced == sorted(REFERENCED_OUTSIDE)


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


def test_no_kdtree_query_starts_threads():
    """No call passes ``workers``, so scipy runs each kd-tree query on the
    calling thread and the one pool (``cloud._by_rows``) is the only way
    onto more cores. A query counts where it is called or handed to
    ``_by_rows``."""
    queries, threaded = 0, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("query", "query_ball_point")):
                queries += 1
            if (isinstance(node, ast.Call)
                    and any(kw.arg == "workers" for kw in node.keywords)):
                threaded.append(f"{path.name}:{node.lineno}")
    assert queries >= 7
    assert threaded == []


def test_pool_threads_build_no_tree_and_keep_nothing(tmp_path, monkeypatch):
    """The benchmark's tracer keeps one span stack and counts kd-tree
    builds on it, and ``_kept`` writes an unlocked memo: during a pipeline
    run both happen on the main thread only, while the nearest-triangle
    search does run on pool threads. Every thread the run starts is a
    thread of the one pool."""
    off_main, search_threads, started = [], set(), []
    real_tree, real_kept = cloud.cKDTree, cloud._kept
    real_closest = terrain.closest_point_on_triangles
    real_start = Thread.start

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

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    for module in [m for n, m in sys.modules.items()
                   if n.startswith("slopewatch.") and m is not None]:
        for attr, real, fake in (("cKDTree", real_tree, tree),
                                 ("_kept", real_kept, kept)):
            if vars(module).get(attr) is real:
                monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(terrain, "closest_point_on_triangles", closest)
    monkeypatch.setattr(Thread, "start", start)
    run_pipeline(default_config(density_pts_m2=8, out_dir=str(tmp_path / "run")))
    assert off_main == []
    assert search_threads - {main_thread().name}
    assert [name for name in started
            if not name.startswith("slopewatch-rows_")] == []
