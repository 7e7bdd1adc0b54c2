"""Command-line interface.

One executable with subcommands covering the monitoring chain: pairwise and
multi-view registration, vegetation filtering, DTM construction and
differencing, region extraction and classification, the error budget, the
synthetic generators, the registration benchmark, and the full pipeline.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import analysis, bench, ground, pipeline, registration, synth, terrain
from .cloud import PointClass, read_cloud, write_cloud
from .errors import CloudFormatError, DegenerateSurface, SlopewatchError
from .rigid import RigidTransform

logger = logging.getLogger(__name__)


def _write_transform_txt(path, transform: RigidTransform) -> None:
    """16-number row-major homogeneous transform."""
    m = transform.matrix()
    Path(path).write_text(" ".join(f"{v:.17g}" for v in m.ravel()) + "\n")


def _result_json(result: registration.RegistrationResult) -> dict:
    return {
        "rmse_m": float(result.rmse),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "inlier_count": int(result.inlier_count),
    }


def cmd_register(args) -> int:
    src = read_cloud(args.src)
    dst = read_cloud(args.dst)
    if len(src) == 0 or len(dst) == 0:
        raise CloudFormatError("--src and --dst must each hold at least one point")
    params = registration.IcpParams(max_iter=args.max_iter,
                                    max_pair_dist=args.max_pair_dist)
    result = bench.run_method(args.method, src, dst, params)
    _write_transform_txt(args.out_transform, result.transform)
    Path(args.out_result).write_text(json.dumps(_result_json(result), indent=2,
                                                sort_keys=True) + "\n")
    print(f"rmse_m {result.rmse:.6f} inliers {result.inlier_count}")
    return 0


def cmd_register_multiview(args) -> int:
    paths = [ln.strip() for ln in Path(args.list).read_text().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not paths:
        raise CloudFormatError(f"{args.list} names no cloud")
    stems = [Path(p).stem for p in paths]
    for stem in stems:
        if stems.count(stem) > 1:
            raise CloudFormatError(f"{args.list} names more than one cloud "
                                   f"with the file stem {stem!r}")
    clouds = [read_cloud(p) for p in paths]
    transforms = registration.register_multiview(clouds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, t in zip(stems, transforms):
        _write_transform_txt(out_dir / f"{stem}_transform.txt", t)
    print(f"wrote {len(transforms)} transforms to {out_dir}")
    return 0


def cmd_filter(args) -> int:
    cloud = read_cloud(args.infile)
    cloth = ground.ClothParams(
        grid_resolution=args.cloth_resolution,
        rigidness=args.rigidness,
        class_threshold=args.class_threshold,
    )
    ground_cloud, removed, labeling = ground.filter_vegetation(
        cloud, cell_size=args.cell_size, cloth=cloth)
    if args.mask:
        lines = Path(args.mask).read_text().splitlines()
        labeling = ground.apply_mask_overrides(labeling, lines)
        gi = np.flatnonzero(labeling.labels == PointClass.GROUND)
        ri = np.flatnonzero(labeling.labels != PointClass.GROUND)
        ground_cloud, removed = cloud.subset(gi), cloud.subset(ri)
    Path(args.out).write_bytes(write_cloud(ground_cloud))
    Path(args.removed).write_bytes(write_cloud(removed))
    print(f"ground {len(ground_cloud)} removed {len(removed)}")
    return 0


def cmd_dtm(args) -> int:
    cloud = read_cloud(args.infile)
    reference = None
    if args.reference:
        reference, _ = terrain.read_mesh(Path(args.reference).read_bytes())
    mesh = terrain.dtm_from_ground(cloud, reference, args.max_edge)
    Path(args.out).write_bytes(terrain.write_mesh(mesh))
    print(f"vertices {len(mesh.vertices)} triangles {len(mesh.triangles)}")
    return 0


def cmd_deform(args) -> int:
    compared, _ = terrain.read_mesh(Path(args.compared).read_bytes())
    reference, _ = terrain.read_mesh(Path(args.reference).read_bytes())
    field = terrain.mesh_distance(compared, reference,
                                  max_dist=args.max_dist,
                                  interval_days=args.days)
    stats = terrain.field_stats(field)
    Path(args.out).write_bytes(terrain.write_deformation(compared, field))
    print(f"mean_m {stats.mean:.4f} std_m {stats.std:.4f} valid {stats.valid_count}")
    return 0


def cmd_regions(args) -> int:
    mesh, field = terrain.read_deformation(Path(args.field).read_bytes())
    rates = terrain.rate_field(field)
    regions = terrain.significant_regions(mesh, rates, args.threshold,
                                          args.min_area)
    shapes = analysis.measure_regions(regions, field, mesh)
    doc = analysis.regions_document(regions, shapes, args.threshold,
                                    args.min_area)
    Path(args.out).write_text(analysis.report_to_json(doc) + "\n")
    print(f"regions {len(regions)}")
    return 0


def _read_regions(path, vertex_count: int) -> tuple[dict, list]:
    """(document, regions) of a file written by ``regions`` for a field of
    ``vertex_count`` vertices; ``CloudFormatError`` when it is not JSON, a
    row lacks a key, its ``id`` is not an integer, its area, mean rate or
    volume is not a finite number, or its ``vertex_set`` is not a
    non-empty list of vertices the field has."""
    try:
        doc = json.loads(Path(path).read_text())
        for row in doc["regions"]:
            rid, vs = row["id"], row["vertex_set"]
            numbers = (row["area_m2"], row["mean_rate_mm_day"],
                       row.get("volume_m3", 0.0))
            # type() rather than isinstance(): a JSON true is not 1
            if type(rid) is not int:
                raise CloudFormatError(
                    f"malformed regions file: region id must be an integer, "
                    f"got {rid!r}")
            if not all(type(x) in (int, float) and math.isfinite(x)
                       for x in numbers):
                raise CloudFormatError(
                    f"malformed regions file: region {rid} area_m2, "
                    f"mean_rate_mm_day and volume_m3 must be finite numbers, "
                    f"got {numbers!r}")
            if not (isinstance(vs, list) and vs and all(
                    type(v) is int and 0 <= v < vertex_count for v in vs)):
                raise CloudFormatError(
                    f"malformed regions file: region {rid} "
                    f"vertex_set must be a non-empty list of vertices "
                    f"0..{vertex_count - 1}, got {vs!r}")
        regions = [terrain.Region(vertex_set=np.asarray(row["vertex_set"]),
                                  area_m2=row["area_m2"],
                                  mean_rate_mm_day=row["mean_rate_mm_day"],
                                  volume_m3=row.get("volume_m3", 0.0),
                                  region_id=row["id"])
                   for row in doc["regions"]]
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise CloudFormatError(f"malformed regions file: {exc!r}") from exc
    return doc, regions


def cmd_classify(args) -> int:
    mesh, field = terrain.read_deformation(Path(args.field).read_bytes())
    doc, regions = _read_regions(args.regions, len(mesh.vertices))
    annotations = dict(args.annotate or [])
    shapes = []
    ann_list = []
    for region in regions:
        try:
            shape = analysis.region_extent(region, field, mesh,
                                           motion_azimuth_deg=args.motion_az)
        except (ValueError, DegenerateSurface) as exc:
            raise CloudFormatError(f"malformed regions file: region "
                                   f"{region.region_id}: {exc}") from exc
        shapes.append(shape)
        if region.region_id in annotations:
            ann_list.append(analysis.MotionAnnotation(
                region_id=region.region_id,
                cruden_type=annotations[region.region_id]))
    budget = analysis.error_budget(*analysis.DEFAULT_BUDGET_MM)
    report = analysis.build_report(
        epochs=[], fields=[], regions=regions, shapes=shapes,
        annotations=ann_list, budget=budget,
        parameters={"threshold_mm_day": doc.get("threshold_mm_day"),
                    "min_area_m2": doc.get("min_area_m2"),
                    "motion_azimuth_deg": args.motion_az})
    Path(args.out).write_text(analysis.report_to_json(report) + "\n")
    print(f"classified {len(regions)} regions")
    return 0


def cmd_budget(args) -> int:
    budget = analysis.error_budget(args.tls, args.mreg, args.treg,
                                   args.veg, args.mesh)
    print(f"{budget.sigma_mm:.1f}")
    return 0


def cmd_synth(args) -> int:
    if args.what == "terrain":
        cloud, _ = synth.gen_terrain(
            extent_m=(args.extent_x, args.extent_y),
            mean_slope_deg=args.slope, roughness=args.roughness,
            density_pts_m2=args.density, seed=args.seed)
    elif args.what == "veg":
        cloud, _ = synth.add_vegetation(read_cloud(args.infile),
                                        args.coverage, seed=args.seed)
    elif args.what == "slide":
        base = read_cloud(args.infile)
        spec = synth.LandslideSpec(center=tuple(args.center),
                                   radius_along=args.radius_along,
                                   radius_across=args.radius_across,
                                   depth_m=args.depth, azimuth_deg=args.azimuth)
        cloud, _ = synth.apply_landslide(base, spec)
    elif args.what == "scan":
        base = read_cloud(args.infile)
        poses = synth.stations_facing_slope(base, args.stations, args.standoff)
        scans = synth.simulate_stations(base, poses,
                                        noise_sigma_m=args.noise,
                                        seed=args.seed)
        out = Path(args.out)
        for i, s in enumerate(scans):
            p = out.with_name(out.stem + f"_station{i}" + out.suffix)
            p.write_bytes(write_cloud(s))
            print(p)
        return 0
    else:
        raise ValueError(args.what)
    Path(args.out).write_bytes(write_cloud(cloud))
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def cmd_bench(args) -> int:
    config = bench.BenchmarkConfig(trials=args.trials, seed=args.seed)
    report = bench.run_table2_benchmark(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for cfg in report["configurations"]:
        print(cfg["name"])
        for row in cfg["rows"]:
            rmse = row["mean_pose_rmse_m"]
            rmse_s = "-" if rmse is None else f"{rmse:.3f}"
            print(f"  {row['method']:<12} success {row['success_rate']:.0%} "
                  f"rmse_m {rmse_s}")
    return 0


def cmd_pipeline(args) -> int:
    config = pipeline.PipelineConfig.from_json(Path(args.config).read_text())
    result = pipeline.run_pipeline(config)
    print(f"report {result.out_dir / 'report.json'}")
    print(f"regions {len(result.regions)}")
    return 0


def _annotation(text: str) -> tuple[int, str]:
    """``ID=TYPE`` of ``--annotate``: an integer region id and a Cruden type."""
    rid, _, tag = text.partition("=")
    try:
        region_id = int(rid)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"region id must be an integer, got {text!r}") from None
    if tag not in analysis.CRUDEN_TYPES:
        raise argparse.ArgumentTypeError(
            f"type must be one of {', '.join(analysis.CRUDEN_TYPES)}, "
            f"got {text!r}")
    return region_id, tag


def _number(cast, ok, what: str):
    """An argparse type: ``cast`` the text, refusing a value that is not ``ok``."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_positive_float = _number(float, lambda v: np.isfinite(v) and v > 0,
                          "a positive number")
_nonnegative_float = _number(float, lambda v: np.isfinite(v) and v >= 0,
                             "a finite number >= 0")
_slope_deg = _number(float, lambda v: 0 <= v <= 90, "an angle in [0, 90] degrees")
_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_fraction = _number(float, lambda v: 0 <= v < 1, "a share in [0, 1)")
_nonzero_float = _number(float, lambda v: np.isfinite(v) and v != 0,
                         "a finite nonzero number")
_finite_float = _number(float, np.isfinite, "a finite number")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slopewatch",
                                description=__doc__.splitlines()[0])
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    # stage defaults match the pipeline's, so both entry points agree
    cfg = pipeline.PipelineConfig()

    r = sub.add_parser("register", help="pairwise registration")
    r.add_argument("--src", required=True)
    r.add_argument("--dst", required=True)
    r.add_argument("--method", choices=bench.METHODS, default="icp")
    r.add_argument("--out-transform", default="transform.txt")
    r.add_argument("--out-result", default="result.json")
    r.add_argument("--max-iter", type=_positive_int,
                   default=registration.IcpParams().max_iter)
    r.add_argument("--max-pair-dist", type=_positive_float, default=None)
    r.set_defaults(func=cmd_register)

    rm = sub.add_parser("register-multiview", help="align station scans")
    rm.add_argument("--list", required=True, help="text file, one cloud path per line")
    rm.add_argument("--out-dir", default=".")
    rm.set_defaults(func=cmd_register_multiview)

    f = sub.add_parser("filter", help="vegetation filtering")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--removed", required=True)
    f.add_argument("--mask", default=None,
                   help="override file: one '+index' (ground) or '-index' per line")
    f.add_argument("--cell-size", type=_positive_float, default=cfg.filter_cell_m)
    f.add_argument("--cloth-resolution", type=_positive_float,
                   default=cfg.cloth.grid_resolution)
    f.add_argument("--rigidness", type=int, choices=(1, 2, 3), default=cfg.cloth.rigidness)
    f.add_argument("--class-threshold", type=_positive_float,
                   default=cfg.cloth.class_threshold)
    f.set_defaults(func=cmd_filter)

    d = sub.add_parser("dtm", help="thin and triangulate a ground cloud")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--reference", default=None,
                   help="DTM PLY whose projection plane to triangulate on "
                        "(epoch I's); default: the cloud's own plane")
    d.add_argument("--max-edge", type=_positive_float, default=cfg.dtm_max_edge_m)
    d.set_defaults(func=cmd_dtm)

    de = sub.add_parser("deform", help="difference two DTMs")
    de.add_argument("--compared", required=True)
    de.add_argument("--reference", required=True)
    de.add_argument("--days", type=_positive_float, required=True)
    de.add_argument("--out", required=True)
    de.add_argument("--max-dist", type=_positive_float,
                    default=cfg.deform_max_dist_m)
    de.set_defaults(func=cmd_deform)

    rg = sub.add_parser("regions", help="extract significant regions")
    rg.add_argument("--field", required=True)
    rg.add_argument("--threshold", type=_nonnegative_float,
                    default=cfg.rate_threshold_mm_day)
    rg.add_argument("--min-area", type=_nonnegative_float,
                    default=cfg.min_region_area_m2)
    rg.add_argument("--out", required=True)
    rg.set_defaults(func=cmd_regions)

    cl = sub.add_parser("classify", help="shape-classify regions")
    cl.add_argument("--regions", required=True)
    cl.add_argument("--field", required=True)
    cl.add_argument("--out", required=True)
    cl.add_argument("--motion-az", type=_finite_float, default=None)
    cl.add_argument("--annotate", type=_annotation, action="append",
                    metavar="ID=TYPE")
    cl.set_defaults(func=cmd_classify)

    b = sub.add_parser("budget", help="propagated displacement error, mm")
    for name in ("--tls", "--mreg", "--treg", "--veg", "--mesh"):
        b.add_argument(name, type=_nonnegative_float, required=True)
    b.set_defaults(func=cmd_budget)

    sy = sub.add_parser("synth", help="synthetic scene generators")
    sysub = sy.add_subparsers(dest="what", required=True)
    st = sysub.add_parser("terrain")
    st.add_argument("--extent-x", type=_positive_float, default=60.0)
    st.add_argument("--extent-y", type=_positive_float, default=40.0)
    st.add_argument("--slope", type=_slope_deg, default=synth.DEFAULT_SLOPE_DEG)
    st.add_argument("--roughness", type=_nonnegative_float, default=0.3)
    st.add_argument("--density", type=_positive_float,
                    default=synth.DEFAULT_DENSITY_PTS_M2)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", required=True)
    st.set_defaults(func=cmd_synth)
    sv = sysub.add_parser("veg")
    sv.add_argument("--in", dest="infile", required=True)
    sv.add_argument("--coverage", type=_fraction, default=0.15)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--out", required=True)
    sv.set_defaults(func=cmd_synth)
    sl = sysub.add_parser("slide")
    sl.add_argument("--in", dest="infile", required=True)
    sl.add_argument("--center", type=_finite_float, nargs=3, required=True)
    sl.add_argument("--radius-along", type=_positive_float, default=10.0)
    sl.add_argument("--radius-across", type=_positive_float, default=5.0)
    sl.add_argument("--depth", type=_nonzero_float, default=0.5)
    sl.add_argument("--azimuth", type=_finite_float, default=90.0)
    sl.add_argument("--out", required=True)
    sl.set_defaults(func=cmd_synth)
    sc = sysub.add_parser("scan")
    sc.add_argument("--in", dest="infile", required=True)
    sc.add_argument("--stations", type=_positive_int, default=3)
    sc.add_argument("--standoff", type=_positive_float, default=60.0)
    sc.add_argument("--noise", type=_nonnegative_float,
                    default=synth.DEFAULT_NOISE_SIGMA_M)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_synth)

    be = sub.add_parser("bench", help="registration benchmark")
    besub = be.add_subparsers(dest="suite", required=True)
    bt = besub.add_parser("table2")
    bt.add_argument("--trials", type=_positive_int, default=10)
    bt.add_argument("--seed", type=int, default=0)
    bt.add_argument("--out", default=None)
    bt.set_defaults(func=cmd_bench)

    pl = sub.add_parser("pipeline", help="run the full monitoring pipeline")
    pl.add_argument("--config", required=True)
    pl.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s")
    try:
        return args.func(args)
    except SlopewatchError as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"slopewatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
