"""In-memory span tracing of slopewatch from outside the package.

``Tracer.install()`` replaces public functions in every loaded
``slopewatch`` module namespace with timing wrappers (a function imported
by name into another module is wrapped there too, so internal calls are
seen), swaps each module's ``cKDTree`` for a counting constructor, and
hangs a ``logging.Handler`` on ``slopewatch.pipeline`` that turns the
existing ``pipeline stage: <name>`` records into stage spans.
``uninstall()`` restores every binding, so untraced passes run the
package untouched. Nothing under ``src/`` is edited.

Spans stay in memory with parent links until the run writes them out.
"""

from __future__ import annotations

import logging
import statistics
import sys
import time
from dataclasses import dataclass, field

STAGE_PREFIX = "pipeline stage: "


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg0(args, kwargs, name):
    return args[0] if args else kwargs[name]


# (module, function) -> counts taken from (args, kwargs, result).
# The span name is "<module>.<function>".
TRACED = {
    ("pipeline", "run_pipeline"): None,
    ("registration", "icp"): lambda a, k, r: {
        "iterations": r.iterations,
        "point_iterations": len(_arg0(a, k, "source")) * r.iterations},
    ("registration", "register_global_hybrid"): None,
    ("registration", "register_multiview"): None,
    ("registration", "coarse_register"): None,
    ("registration", "extract_descriptors"): lambda a, k, r: {
        "keypoints": len(r.keypoint_indices)},
    ("cloud", "estimate_normals"): lambda a, k, r: {
        "points": len(_arg0(a, k, "cloud"))},
    ("cloud", "surface_spacing"): None,
    ("cloud", "remove_outliers"): None,
    ("cloud", "voxel_downsample"): None,
    ("cloud", "write_ply"): lambda a, k, r: {"bytes": len(r)},
    ("ground", "filter_vegetation"): lambda a, k, r: {
        "points_in": len(_arg0(a, k, "cloud")), "ground_points": len(r[0])},
    ("ground", "csf_classify"): None,
    ("terrain", "build_dtm"): lambda a, k, r: {
        "vertices": len(r.vertices), "triangles": len(r.triangles)},
    ("terrain", "mesh_distance"): lambda a, k, r: {
        "vertices": len(r.values), "valid": int(r.valid.sum())},
    ("terrain", "significant_regions"): None,
    ("terrain", "region_volume"): None,
    ("analysis", "region_extent"): None,
    ("analysis", "build_report"): lambda a, k, r: {
        "regions": len(r["regions"])},
    ("synth", "gen_terrain"): None,
    ("synth", "add_vegetation"): None,
    ("synth", "simulate_stations"): None,
}


class _StageHandler(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith(STAGE_PREFIX):
            self.tracer.stage(msg[len(STAGE_PREFIX):])


class Tracer:
    """Spans with parent links, grouped by phase ("setup-0", "pass-1", ...)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup-0"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _StageHandler(self)
        self._saved_level = logging.NOTSET

    # -- span bookkeeping ------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, self.phase,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close ``span`` and any stage span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                return

    def stage(self, name: str) -> None:
        """A new pipeline stage ends the previous one."""
        if self._stack and self._stack[-1].name.startswith("pipeline.stage."):
            self.close(self._stack[-1])
        self.open("pipeline.stage." + name)

    def count(self, span_name: str, **counts) -> None:
        """A zero-length span carrying counts (for events with no call)."""
        span = self.open(span_name)
        span.counts.update(counts)
        self.close(span)

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counting_kdtree(self, cls):
        tracer = self

        def build(*args, **kwargs):
            tree = cls(*args, **kwargs)
            tracer.count("cloud.kdtree", points=int(tree.n))
            return tree

        return build

    def install(self) -> None:
        from scipy.spatial import cKDTree

        modules = [m for n, m in list(sys.modules.items())
                   if (n == "slopewatch" or n.startswith("slopewatch."))
                   and m is not None]
        for (mod_name, fn_name), counter in TRACED.items():
            original = getattr(sys.modules["slopewatch." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        counting = self._counting_kdtree(cKDTree)
        for m in modules:
            if vars(m).get("cKDTree") is cKDTree:
                self._patch(m, "cKDTree", counting)

        logger = logging.getLogger("slopewatch.pipeline")
        self._saved_level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self._handler)

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        logger = logging.getLogger("slopewatch.pipeline")
        logger.removeHandler(self._handler)
        logger.setLevel(self._saved_level)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.span_id: s.duration - child[s.span_id] for s in self.spans}

    def phase_totals(self, phase: str) -> dict[str, float]:
        """Per-phase sums: "<span>.s", "<span>.calls", "<span>.<count>"."""
        out: dict[str, float] = {"spans": 0}
        for s in self.spans:
            if s.phase != phase:
                continue
            out["spans"] += 1
            out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + s.duration
            out[s.name + ".calls"] = out.get(s.name + ".calls", 0.0) + 1
            for key, value in s.counts.items():
                k = f"{s.name}.{key}"
                out[k] = out.get(k, 0.0) + value
        return out

    def self_time_summary(self, phases: list[str]) -> dict[str, float]:
        """Median over ``phases`` of each span name's summed self time."""
        selfs = self.self_times()
        per_phase: dict[str, list[float]] = {}
        for phase in phases:
            sums: dict[str, float] = {}
            for s in self.spans:
                if s.phase == phase:
                    sums[s.name] = sums.get(s.name, 0.0) + selfs[s.span_id]
            for name, value in sums.items():
                per_phase.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in sorted(per_phase.items())}

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [{"id": s.span_id, "parent": s.parent, "name": s.name,
                 "phase": s.phase, "start": s.start, "end": s.end,
                 "self_s": selfs[s.span_id], "counts": s.counts,
                 "error": s.error} for s in self.spans]
