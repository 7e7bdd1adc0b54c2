"""Run one slopewatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``. The
workload's inputs are built from the seed several times (the set-up), then
timed passes over the same inputs repeat while the next one is expected to
end within ``--seconds``; there is always at least one pass. Every pass is checked
against the generator's truth. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are run_s, setup_s and peak_rss_mb; with
``--trace 1`` every pass is traced and the metrics are the per-layer ones.
Results, traces and pipeline artifacts go to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()   # setup_s counts from here, before the imports

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3

# per-layer metric -> (unit, key in the tracer's phase totals)
LAYER_METRICS = {
    **{f"pipeline.{s}_s": ("s", f"pipeline.stage.{s}.s") for s in (
        "generate", "scan", "register_multiview", "register_epochs",
        "filter_vegetation", "build_dtm", "deform", "analyze", "report")},
    "registration.icp_calls": ("count", "registration.icp.calls"),
    "registration.icp_s": ("s", "registration.icp.s"),
    "registration.icp_iterations": ("count", "registration.icp.iterations"),
    "registration.icp_point_iterations":
        ("count", "registration.icp.point_iterations"),
    "registration.register_global_hybrid_s":
        ("s", "registration.register_global_hybrid.s"),
    "registration.register_multiview_s":
        ("s", "registration.register_multiview.s"),
    "registration.coarse_register_s": ("s", "registration.coarse_register.s"),
    "registration.extract_descriptors_s":
        ("s", "registration.extract_descriptors.s"),
    "registration.descriptor_keypoints":
        ("count", "registration.extract_descriptors.keypoints"),
    "cloud.estimate_normals_s": ("s", "cloud.estimate_normals.s"),
    "cloud.estimate_normals_points": ("count", "cloud.estimate_normals.points"),
    "cloud.surface_spacing_calls": ("count", "cloud.surface_spacing.calls"),
    "cloud.surface_spacing_s": ("s", "cloud.surface_spacing.s"),
    "cloud.kdtree_builds": ("count", "cloud.kdtree.calls"),
    "cloud.kdtree_points": ("count", "cloud.kdtree.points"),
    "cloud.remove_outliers_s": ("s", "cloud.remove_outliers.s"),
    "cloud.voxel_downsample_s": ("s", "cloud.voxel_downsample.s"),
    "cloud.write_s": ("s", "cloud.write_ply.s"),
    "cloud.bytes_written": ("bytes", "cloud.write_ply.bytes"),
    "ground.filter_vegetation_s": ("s", "ground.filter_vegetation.s"),
    "ground.csf_calls": ("count", "ground.csf_classify.calls"),
    "ground.csf_s": ("s", "ground.csf_classify.s"),
    "ground.points_in": ("count", "ground.filter_vegetation.points_in"),
    "ground.ground_points": ("count", "ground.filter_vegetation.ground_points"),
    "terrain.build_dtm_s": ("s", "terrain.build_dtm.s"),
    "terrain.dtm_vertices": ("count", "terrain.build_dtm.vertices"),
    "terrain.dtm_triangles": ("count", "terrain.build_dtm.triangles"),
    "terrain.mesh_distance_s": ("s", "terrain.mesh_distance.s"),
    "terrain.field_vertices": ("count", "terrain.mesh_distance.vertices"),
    "terrain.field_valid_vertices": ("count", "terrain.mesh_distance.valid"),
    "terrain.significant_regions_s": ("s", "terrain.significant_regions.s"),
    "terrain.region_volume_s": ("s", "terrain.region_volume.s"),
    "analysis.region_extent_s": ("s", "analysis.region_extent.s"),
    "analysis.build_report_s": ("s", "analysis.build_report.s"),
    "analysis.regions": ("count", "analysis.build_report.regions"),
    "synth.gen_terrain_s": ("s", "synth.gen_terrain.s"),
    "synth.add_vegetation_s": ("s", "synth.add_vegetation.s"),
    "synth.simulate_stations_s": ("s", "synth.simulate_stations.s"),
}


# registration misses per method (the method's limit, not failures)
MISS_METRICS = ("pairs.icp_misses", "pairs.coarse_icp_misses",
                "pairs.hybrid_misses")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS"))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # numpy and scipy wheels link OpenBLAS, one thread per core unless
        # the environment says otherwise
        "blas_threads": int(blas) if blas else nproc,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "slopewatch" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import workloads
    from tracing import Tracer

    # the package logs warnings (duplicate DTM points) that are not results
    logging.getLogger("slopewatch").addHandler(logging.NullHandler())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    import_s = time.perf_counter() - _START

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times, inputs, first_digest = [], None, None
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.phase = f"setup-{i}"
        t0 = time.perf_counter()
        candidate, fingerprint = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        if first_digest is None:
            inputs, first_digest = candidate, fingerprint
        elif fingerprint != first_digest:
            print("error: the same seed built different inputs",
                  file=sys.stderr)
            return 1
    if tracer:
        tracer.uninstall()
    setup_s = import_s + statistics.median(setup_times)

    pass_times, cpu_times, problems, extra = [], [], [], []
    attempted = failed = 0
    measured = 0.0
    while True:
        if tracer:
            tracer.phase = f"pass-{len(pass_times)}"
            tracer.install()
        c0 = time.process_time()
        t0 = time.perf_counter()
        outcome = wl.run(inputs)
        elapsed = time.perf_counter() - t0
        cpu_times.append(time.process_time() - c0)
        if tracer:
            tracer.uninstall()
        pass_times.append(elapsed)
        attempted += outcome.attempted
        failed += len(outcome.failed)
        for tb in outcome.failed:
            print(tb, file=sys.stderr)
        problems += [f"pass {len(pass_times)}: {p}"
                     for p in wl.check(inputs, outcome)]
        extra.append(wl.layer_metrics(inputs, outcome)
                     if hasattr(wl, "layer_metrics") else {})
        measured += elapsed
        if measured + statistics.median(pass_times) > args.seconds:
            break

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tracer:
        metrics = layer_metrics(tracer, pass_times, cpu_times, extra)
    else:
        metrics = {
            "run_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    env = environment()
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "passes": len(pass_times),
              "pass_s": pass_times, "setup_repeats_s": setup_times,
              "import_s": import_s, "layer": extra, "problems": problems,
              **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["self_s"] = tracer.self_time_summary(
            [f"pass-{i}" for i in range(len(pass_times))])
        (workloads.OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps(tracer.to_json()))
    (workloads.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=2))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, pass_times, cpu_times, extra) -> dict:
    """Median per pass of each layer's totals; a layer that only runs in
    the set-up (scene generation) reports its median per set-up."""
    passes = [tracer.phase_totals(f"pass-{i}") for i in range(len(pass_times))]
    setups = [tracer.phase_totals(f"setup-{i}") for i in range(SETUP_REPEATS)]
    metrics = {}
    for name, (unit, key) in LAYER_METRICS.items():
        source = passes if any(key in p for p in passes) else setups
        value = statistics.median(p.get(key, 0.0) for p in source)
        metrics[name] = {"value": value, "unit": unit}
    stage_s = [sum(v for k, v in p.items()
                   if k.startswith("pipeline.stage.") and k.endswith(".s"))
               for p in passes]
    metrics["pipeline.stage_share"] = {
        "value": statistics.median(s / t for s, t in zip(stage_s, pass_times)),
        "unit": "ratio"}
    metrics["process.cpu_s"] = {"value": statistics.median(cpu_times),
                                "unit": "s"}
    metrics["trace.run_s"] = {"value": statistics.median(pass_times),
                              "unit": "s"}
    metrics["trace.spans"] = {"value": statistics.median(
        p["spans"] for p in passes), "unit": "count"}
    for name in MISS_METRICS:
        metrics[name] = {"value": statistics.median(e.get(name, 0)
                                                    for e in extra),
                         "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
