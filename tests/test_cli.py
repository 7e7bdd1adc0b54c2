import json
from pathlib import Path

import numpy as np
import pytest

import slopewatch as sw
from slopewatch.cli import build_parser, main
from slopewatch.terrain import read_deformation, write_deformation, write_mesh

from ply_literals import FIELD, FIELD_PLY, MESH, MESH_NO_FACES_PLY


def write_terrain(path, seed=0, density=10.0, extent=(25, 18)):
    cloud, _ = sw.gen_terrain(extent, 70.0, 0.4, density, seed=seed)
    Path(path).write_bytes(sw.write_cloud(cloud))
    return cloud


def test_budget_prints_one_decimal(capsys):
    assert main(["budget", "--tls", "6", "--mreg", "30", "--treg", "60",
                 "--veg", "10", "--mesh", "10"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "76.0"


def test_register_writes_transform_and_result(tmp_path, capsys):
    cloud = write_terrain(tmp_path / "a.ply", seed=1)
    from slopewatch.rigid import RigidTransform
    off = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(4))
    off = RigidTransform(off.rotation, np.array([1.0, -0.5, 0.4]))
    moved = off.apply_cloud(cloud)
    (tmp_path / "b.ply").write_bytes(sw.write_cloud(moved))

    tf = tmp_path / "t.txt"
    rj = tmp_path / "r.json"
    code = main(["register", "--src", str(tmp_path / "b.ply"),
                 "--dst", str(tmp_path / "a.ply"), "--method", "icp",
                 "--out-transform", str(tf), "--out-result", str(rj)])
    assert code == 0
    numbers = [float(x) for x in tf.read_text().split()]
    assert len(numbers) == 16
    m = np.array(numbers).reshape(4, 4)
    np.testing.assert_array_equal(m[3], [0, 0, 0, 1])
    # applying the file transform to the source coords lands on the target
    mapped = moved.points @ m[:3, :3].T + m[:3, 3]
    err = np.linalg.norm(mapped - cloud.points, axis=1)
    assert np.median(err) < 0.02
    result = json.loads(rj.read_text())
    assert result["converged"] is True
    assert result["rmse_m"] < 0.02


def test_register_without_a_step_reports_the_start_pose(tmp_path, capsys):
    # on two parallel planes the point-to-plane system is singular, so ICP
    # returns its start pose, 0.2 m off along the normals
    rng = np.random.default_rng(8)
    plane = np.column_stack([rng.uniform(0, 20, 1500),
                             rng.uniform(0, 20, 1500), np.zeros(1500)])
    for name, z in (("a.ply", 0.0), ("b.ply", 0.2)):
        cloud = sw.PointCloud(points=plane + [0.0, 0.0, z])
        (tmp_path / name).write_bytes(sw.write_cloud(cloud))
    rj = tmp_path / "r.json"
    assert main(["register", "--src", str(tmp_path / "b.ply"),
                 "--dst", str(tmp_path / "a.ply"), "--method", "icp",
                 "--out-transform", str(tmp_path / "t.txt"),
                 "--out-result", str(rj)]) == 0
    assert capsys.readouterr().out == "rmse_m 0.200000 inliers 1500\n"
    result = json.loads(rj.read_text())
    assert result["rmse_m"] == pytest.approx(0.2, abs=1e-12)
    assert result["inlier_count"] == 1500
    assert result["converged"] is False


def test_register_multiview_cli(tmp_path):
    scene, _ = sw.gen_terrain((30, 20), 70.0, 0.5, 10, seed=3)
    poses = sw.stations_facing_slope(scene, 2, standoff=40.0)
    scans = sw.simulate_stations(scene, poses, noise_sigma_m=0.003, seed=4)
    listing = tmp_path / "clouds.txt"
    lines = []
    for i, s in enumerate(scans):
        p = tmp_path / f"s{i}.ply"
        p.write_bytes(sw.write_cloud(s))
        lines.append(str(p))
    listing.write_text("\n".join(lines) + "\n")
    code = main(["register-multiview", "--list", str(listing),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    t0 = np.array([float(x) for x in
                   (tmp_path / "out" / "s0_transform.txt").read_text().split()])
    np.testing.assert_allclose(t0.reshape(4, 4), np.eye(4), atol=1e-9)
    assert (tmp_path / "out" / "s1_transform.txt").exists()


@pytest.mark.parametrize("method, target", [
    *((m, t) for t in ("collinear", "two points", "empty")
      for m in ("icp", "coarse+icp", "hybrid")),
    ("multiview", "empty list"), ("multiview", "shared stem")])
def test_register_on_degenerate_input_exits_2_with_one_line(tmp_path, capsys,
                                                            method, target):
    listing = tmp_path / "clouds.txt"
    if method == "multiview":
        if target == "empty list":
            listing.write_text("# no cloud yet\n\n")
            want = f"{listing} names no cloud"
        else:   # two clouds that would both write scan_transform.txt
            for station in ("s0", "s1"):
                (tmp_path / station).mkdir()
                write_terrain(tmp_path / station / "scan.ply")
            listing.write_text(f"{tmp_path / 's0' / 'scan.ply'}\n"
                               f"{tmp_path / 's1' / 'scan.ply'}\n")
            want = (f"{listing} names more than one cloud with the file "
                    f"stem 'scan'")
        argv = ["register-multiview", "--list", str(listing),
                "--out-dir", str(tmp_path / "out")]
    else:
        write_terrain(tmp_path / "src.ply", seed=1)
        t = np.linspace(0.0, 10.0, 50)
        points = {"collinear": np.column_stack([t, 2 * t, 0.5 * t]),
                  "two points": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                  "empty": np.zeros((0, 3))}[target]
        (tmp_path / "dst.ply").write_bytes(
            sw.write_cloud(sw.PointCloud(points=points)))
        argv = ["register", "--src", str(tmp_path / "src.ply"),
                "--dst", str(tmp_path / "dst.ply"), "--method", method,
                "--out-transform", str(tmp_path / "out.txt"),
                "--out-result", str(tmp_path / "out.json")]
        want = {"collinear": "the points define no plane: points are "
                             "collinear; plane undefined",
                "two points": "the points define no plane: need at least "
                              "3 points",
                "empty": "--src and --dst must each hold at least one "
                         "point"}[target]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"slopewatch: error: {want}\n"
    assert not list(tmp_path.glob("out*"))


def test_filter_cli_with_mask(tmp_path, capsys):
    terr, _ = sw.gen_terrain((25, 18), 70.0, 0.3, 25, seed=5)
    cloud, truth = sw.add_vegetation(terr, 0.1, seed=6)
    src = tmp_path / "in.ply"
    src.write_bytes(sw.write_cloud(cloud))
    mask = tmp_path / "mask.txt"
    mask.write_text("-0\n-1\n")
    code = main(["filter", "--in", str(src), "--out", str(tmp_path / "g.ply"),
                 "--removed", str(tmp_path / "v.ply"),
                 "--mask", str(mask), "--cell-size", "15"])
    assert code == 0
    ground = sw.read_cloud(tmp_path / "g.ply")
    removed = sw.read_cloud(tmp_path / "v.ply")
    assert len(ground) + len(removed) == len(cloud)
    # masked indices 0 and 1 forced out of the ground set
    forced = cloud.points[[0, 1]]
    d = np.linalg.norm(removed.points[:, None, :]
                       - forced[None, :, :], axis=2)
    assert (d.min(axis=0) < 1e-6).all()


def test_dtm_deform_regions_classify_chain(tmp_path, capsys):
    rng = np.random.default_rng(7)
    n = 15000
    base = np.column_stack([rng.uniform(0, 40, n), rng.uniform(0, 30, n),
                            np.zeros(n)])
    lifted = base.copy()
    patch = ((lifted[:, 0] - 20) ** 2 / 64 + (lifted[:, 1] - 15) ** 2 / 16) < 1
    lifted[:, 2] += np.where(patch, 0.5, 0.0)
    (tmp_path / "ref.ply").write_bytes(
        sw.write_cloud(sw.PointCloud(points=base)))
    (tmp_path / "cmp.ply").write_bytes(
        sw.write_cloud(sw.PointCloud(points=lifted)))

    assert main(["dtm", "--in", str(tmp_path / "ref.ply"),
                 "--out", str(tmp_path / "ref_dtm.ply")]) == 0
    assert main(["dtm", "--in", str(tmp_path / "cmp.ply"),
                 "--out", str(tmp_path / "cmp_dtm.ply")]) == 0
    assert main(["deform", "--compared", str(tmp_path / "cmp_dtm.ply"),
                 "--reference", str(tmp_path / "ref_dtm.ply"),
                 "--days", "100", "--out", str(tmp_path / "field.ply")]) == 0
    assert main(["regions", "--field", str(tmp_path / "field.ply"),
                 "--threshold", "2.0", "--min-area", "25",
                 "--out", str(tmp_path / "regions.json")]) == 0
    doc = json.loads((tmp_path / "regions.json").read_text())
    assert len(doc["regions"]) == 1
    assert doc["regions"][0]["epoch_pair"] is None   # the field names none
    assert main(["classify", "--regions", str(tmp_path / "regions.json"),
                 "--field", str(tmp_path / "field.ply"),
                 "--out", str(tmp_path / "report.json"),
                 "--motion-az", "0", "--annotate", "1=RS"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    row = report["regions"][0]
    assert row["cruden_type"] == "RS"
    assert row["type"].endswith("-RS")
    # the lifted patch is a 16 m x 8 m ellipse moving along azimuth 0
    assert row["W_m"] < row["L_m"]


def test_synth_and_bench_cli(tmp_path, capsys):
    out = tmp_path / "terrain.ply"
    assert main(["synth", "terrain", "--extent-x", "12", "--extent-y", "8",
                 "--density", "20", "--seed", "3", "--out", str(out)]) == 0
    cloud = sw.read_cloud(out)
    assert abs(len(cloud) - 12 * 8 * 20) <= 0.05 * 12 * 8 * 20

    veg_out = tmp_path / "veg.ply"
    assert main(["synth", "veg", "--in", str(out), "--coverage", "0.1",
                 "--out", str(veg_out)]) == 0
    assert len(sw.read_cloud(veg_out)) > len(cloud)

    slide_out = tmp_path / "slide.ply"
    assert main(["synth", "slide", "--in", str(out),
                 "--center", "6", "1.37", "3.76",
                 "--radius-along", "4", "--radius-across", "2",
                 "--depth", "0.5", "--out", str(slide_out)]) == 0

    scan_out = tmp_path / "scan.ply"
    assert main(["synth", "scan", "--in", str(out), "--stations", "2",
                 "--standoff", "20", "--out", str(scan_out)]) == 0
    assert (tmp_path / "scan_station0.ply").exists()
    assert (tmp_path / "scan_station1.ply").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "veg"],
    ["synth", "slide", "--center", "0", "0", "0"],
    ["synth", "scan"]])
def test_synth_on_collinear_points_exits_2_with_one_line(tmp_path, capsys,
                                                         argv):
    t = np.linspace(0.0, 10.0, 50)
    line = tmp_path / "line.ply"
    line.write_bytes(sw.write_cloud(sw.PointCloud(
        points=np.column_stack([t, 2 * t, 0.5 * t]))))
    out = tmp_path / "out.ply"
    args = argv + ["--in", str(line), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == ("slopewatch: error: the points define no plane: "
                   "points are collinear; plane undefined\n")
    assert main(["-v"] + args) == 2
    assert "DegenerateSurface" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_bench_cli(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "table2", "--trials", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["configurations"]) == 2
    for cfg in report["configurations"]:
        assert {row["method"] for row in cfg["rows"]} == {"icp", "coarse+icp",
                                                          "hybrid"}
    printed = capsys.readouterr().out
    assert "success" in printed


def test_pipeline_cli(tmp_path, capsys):
    cfg = sw.default_config(out_dir=str(tmp_path / "run"))
    cfg.density_pts_m2 = 6.0
    cfg.extent_m = (30.0, 20.0)
    cfg.veg_coverage = 0.02
    cfg.epochs[1].landslides = [sw.LandslideSpec(
        center=(15.0, 3.42, 9.40), radius_along=6.0, radius_across=4.0,
        depth_m=0.8, azimuth_deg=90.0)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "run" / "report.json").exists()


def test_stage_defaults_match_pipeline_config():
    cfg = sw.PipelineConfig()
    parser = build_parser()
    filt = parser.parse_args(["filter", "--in", "a", "--out", "b",
                              "--removed", "c"])
    assert filt.cell_size == cfg.filter_cell_m
    assert filt.cloth_resolution == cfg.cloth.grid_resolution
    assert filt.class_threshold == cfg.cloth.class_threshold
    regions = parser.parse_args(["regions", "--field", "f", "--out", "o"])
    assert regions.min_area == cfg.min_region_area_m2
    assert regions.threshold == cfg.rate_threshold_mm_day
    register = parser.parse_args(["register", "--src", "s", "--dst", "d"])
    assert register.max_iter == sw.IcpParams().max_iter


def _malformed_input(case, tmp_path):
    """(argv, a path the command must not write, start of the error line)."""
    if case.startswith("ply-header"):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex abc\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "end_header\n")
        out = tmp_path / "dtm.ply"
        if case == "ply-header":
            return (["dtm", "--in", str(bad), "--out", str(out)], out,
                    "malformed PLY header line")
        write_terrain(tmp_path / "ground.ply")   # a cloud dtm would triangulate
        return (["dtm", "--in", str(tmp_path / "ground.ply"), "--reference",
                 str(bad), "--out", str(out)], out, "malformed PLY header line")
    if case.startswith("mask"):
        write_terrain(tmp_path / "in.ply")
        mask = tmp_path / "mask.txt"
        mask.write_text("-0\n+abc\n" if case == "mask-not-an-integer"
                        else "-0\n+99999\n")
        out = tmp_path / "g.ply"
        return (["filter", "--in", str(tmp_path / "in.ply"), "--out", str(out),
                 "--removed", str(tmp_path / "v.ply"), "--mask", str(mask)], out,
                "mask index")
    if case == "field-without-interval-days":
        field = tmp_path / "field.ply"
        field.write_bytes(FIELD_PLY.replace(b"comment interval_days 4\n", b""))
        out = tmp_path / "regions.json"
        return (["regions", "--field", str(field), "--out", str(out)], out,
                "field PLY missing 'interval_days' comment")
    if case.startswith("config"):
        out = tmp_path / "run"
        config = tmp_path / "cfg.json"
        doc = {"out_dir": str(out), "bogus_key": 1}
        if case != "config-unknown-key":   # a misspelt key one level down
            doc = sw.default_config(out_dir=str(out)).to_dict()
            first, second = doc["epochs"]
            if case == "config-unknown-epoch-key":
                first["station_cout"] = first.pop("station_count")
            else:
                second["landslides"][0]["radius_acros"] = 5.0
        config.write_text("not json" if case == "config-not-json"
                          else json.dumps(doc))
        return (["pipeline", "--config", str(config)], out,
                "malformed pipeline config")
    field = tmp_path / "field.ply"
    field.write_bytes(write_deformation(MESH, FIELD))
    row = {"id": 1, "area_m2": 2.0, "mean_rate_mm_day": 60.0}
    bad_value = {"regions-string-id": ("id", "1"),
                 "regions-fractional-id": ("id", 1.5),
                 "regions-boolean-id": ("id", True),
                 "regions-string-area": ("area_m2", "2"),
                 "regions-nan-area": ("area_m2", float("nan")),
                 "regions-string-rate": ("mean_rate_mm_day", "60"),
                 "regions-infinite-rate": ("mean_rate_mm_day", float("inf")),
                 "regions-string-volume": ("volume_m3", "1"),
                 "regions-boolean-volume": ("volume_m3", False)}.get(case)
    if bad_value is not None:
        # a row that classify accepts, but for the one bad value
        row["vertex_set"] = [0, 1, 3]
        row[bad_value[0]] = bad_value[1]
    vertex_set = {"regions-vertex-past-field": [0, 99],
                  "regions-negative-vertex": [0, -1],
                  "regions-fractional-vertex": [0, 1.5],
                  "regions-string-vertex": [0, "1"],
                  "regions-empty-vertex-set": [],
                  "regions-one-vertex": [0],
                  "regions-boolean-vertex": [True, 1],
                  "regions-nested-vertex-set": [[0, 1]]}.get(case)
    if vertex_set is not None:
        row["vertex_set"] = vertex_set
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps({"regions": [row]}))
    out = tmp_path / "report.json"
    # MESH's projection plane is horizontal: without an azimuth it has no
    # fall line, and classify would stop before the one-vertex check
    azimuth = ["--motion-az", "0"] if case == "regions-one-vertex" else []
    return (["classify", "--regions", str(regions), "--field", str(field),
             "--out", str(out)] + azimuth, out, "malformed regions file")


@pytest.mark.parametrize("case", [
    "ply-header", "mask-not-an-integer", "mask-index-past-cloud",
    "config-not-json", "config-unknown-key", "config-unknown-epoch-key",
    "config-unknown-landslide-key", "regions-row-without-vertex-set",
    "regions-vertex-past-field", "regions-negative-vertex",
    "regions-fractional-vertex", "regions-string-vertex",
    "regions-empty-vertex-set", "regions-one-vertex", "regions-boolean-vertex",
    "regions-nested-vertex-set", "regions-string-id", "regions-fractional-id",
    "regions-boolean-id", "regions-string-area", "regions-nan-area",
    "regions-string-rate", "regions-infinite-rate", "regions-string-volume",
    "regions-boolean-volume", "ply-header-of-dtm-reference",
    "field-without-interval-days"])
def test_format_error_exits_2_with_one_line(tmp_path, capsys, case):
    args, out, message = _malformed_input(case, tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("slopewatch: error: " + message)
    assert main(["-v"] + args) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "CloudFormatError" in err
    assert err.splitlines()[-1].startswith("slopewatch: error:")
    assert not out.exists()


def test_classify_on_a_horizontal_plane_needs_a_motion_azimuth(tmp_path,
                                                                capsys):
    field = tmp_path / "field.ply"
    field.write_bytes(write_deformation(MESH, FIELD))
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps({"regions": [
        {"id": 1, "area_m2": 2.0, "mean_rate_mm_day": 60.0,
         "vertex_set": [0, 1, 3]}]}))
    out = tmp_path / "report.json"
    args = ["classify", "--regions", str(regions), "--field", str(field),
            "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "slopewatch: error: the projection plane is horizontal and has no "
        "fall line; give a motion azimuth\n")
    assert not out.exists()
    assert main(args + ["--motion-az", "0"]) == 0
    row = json.loads(out.read_text())["regions"][0]
    assert (row["W_m"], row["L_m"]) == (2.0, 2.0)


def test_deform_without_a_valid_vertex_exits_2_with_one_line(tmp_path, capsys):
    for seed in (1, 2):
        assert main(["synth", "terrain", "--extent-x", "10", "--extent-y", "8",
                     "--density", "4", "--seed", str(seed),
                     "--out", str(tmp_path / f"t{seed}.ply")]) == 0
        assert main(["dtm", "--in", str(tmp_path / f"t{seed}.ply"),
                     "--out", str(tmp_path / f"d{seed}.ply")]) == 0
    capsys.readouterr()
    out = tmp_path / "f.ply"
    args = ["deform", "--compared", str(tmp_path / "d2.ply"), "--reference",
            str(tmp_path / "d1.ply"), "--days", "10", "--out", str(out),
            "--max-dist", "0.00001"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "slopewatch: error: no valid vertex in the deformation field\n"
    assert main(["-v"] + args) == 2
    assert "NoOverlap" in capsys.readouterr().err
    assert not out.exists()


def test_deform_against_a_face_less_reference_exits_2_with_one_line(tmp_path,
                                                                  capsys):
    (tmp_path / "compared.ply").write_bytes(write_mesh(MESH))
    (tmp_path / "reference.ply").write_bytes(MESH_NO_FACES_PLY)
    out = tmp_path / "f.ply"
    args = ["deform", "--compared", str(tmp_path / "compared.ply"),
            "--reference", str(tmp_path / "reference.ply"), "--days", "10",
            "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "slopewatch: error: reference mesh has no triangles\n"
    assert main(["-v"] + args) == 2
    assert "DegenerateSurface" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("days", ["0", "-3", "nan", "inf"])
def test_deform_refuses_days_that_are_not_positive(capsys, days):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["deform", "--compared", "c", "--reference",
                                   "r", "--days", days, "--out", "o"])
    assert exit_.value.code == 2
    assert "--days" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "terrain", "--out", "o", "--density", "0"],
    ["synth", "terrain", "--out", "o", "--extent-x", "-5"],
    ["filter", "--in", "i", "--out", "o", "--removed", "r", "--cell-size", "0"],
    ["filter", "--in", "i", "--out", "o", "--removed", "r",
     "--cloth-resolution", "0"],
    ["filter", "--in", "i", "--out", "o", "--removed", "r", "--rigidness", "7"],
    ["filter", "--in", "i", "--out", "o", "--removed", "r",
     "--class-threshold", "-1"],
    ["synth", "veg", "--in", "i", "--out", "o", "--coverage", "1.5"],
    ["synth", "slide", "--in", "i", "--out", "o", "--center", "0", "0", "0",
     "--depth", "0"],
    ["bench", "table2", "--trials", "0"],
    ["register", "--src", "s", "--dst", "d", "--max-iter", "0"],
    ["synth", "scan", "--in", "i", "--out", "o", "--stations", "0"],
    ["deform", "--compared", "c", "--reference", "r", "--days", "1", "--out",
     "o", "--max-dist", "-1"],
    ["dtm", "--in", "i", "--out", "o", "--max-edge", "0"],
    ["register", "--src", "s", "--dst", "d", "--max-pair-dist", "-1"],
    ["synth", "scan", "--in", "i", "--out", "o", "--standoff", "0"],
    ["synth", "scan", "--in", "i", "--out", "o", "--noise", "-0.01"],
    ["synth", "terrain", "--out", "o", "--slope", "95"],
    ["synth", "terrain", "--out", "o", "--roughness", "-1"],
    ["regions", "--field", "f", "--out", "o", "--threshold", "nan"],
    ["regions", "--field", "f", "--out", "o", "--min-area", "-1"],
    ["budget", "--mreg", "30", "--treg", "60", "--veg", "10", "--mesh", "10",
     "--tls", "-5"],
    ["budget", "--tls", "1", "--treg", "60", "--veg", "10", "--mesh", "10",
     "--mreg", "nan"],
    ["budget", "--tls", "1", "--mreg", "30", "--veg", "10", "--mesh", "10",
     "--treg", "inf"],
    ["budget", "--tls", "1", "--mreg", "30", "--treg", "60", "--mesh", "10",
     "--veg", "-0.5"],
    ["budget", "--tls", "1", "--mreg", "30", "--treg", "60", "--veg", "10",
     "--mesh", "nan"],
    ["classify", "--regions", "r", "--field", "f", "--out", "o",
     "--motion-az", "nan"],
    ["synth", "slide", "--in", "i", "--out", "o", "--center", "0", "0", "0",
     "--azimuth", "inf"],
    # --center takes three numbers; the middle one is refused
    ["synth", "slide", "--in", "i", "--out", "o", "--center", "0", "nan", "0"],
], ids=lambda argv: argv[-2])
def test_numeric_options_are_checked_when_parsed(capsys, argv):
    """The option named second to last refuses the value after it."""
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv)
    assert exit_.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("annotation", ["x=FA", "1=XX", "1", "=FA"])
def test_classify_refuses_a_malformed_annotation(capsys, annotation):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["classify", "--regions", "r", "--field",
                                   "f", "--out", "o", "--annotate", annotation])
    assert exit_.value.code == 2
    assert "--annotate" in capsys.readouterr().err


def test_cli_cloud_reads_back_under_an_xyz_name(tmp_path, capsys):
    """The CLI writes PLY whatever the name; the readers find it by content."""
    for name in ("s.xyz", "s.ply"):
        assert main(["synth", "terrain", "--extent-x", "12", "--extent-y", "8",
                     "--density", "10", "--out", str(tmp_path / name)]) == 0
    assert main(["dtm", "--in", str(tmp_path / "s.xyz"),
                 "--out", str(tmp_path / "dtm.ply")]) == 0
    np.testing.assert_array_equal(
        sw.read_cloud(tmp_path / "s.xyz").points,
        sw.read_cloud(tmp_path / "s.ply").points)


def test_cli_steps_on_a_run_reproduce_the_run(tmp_path):
    """``filter``, ``dtm``, ``deform`` and ``regions`` on a pipeline run's
    own files give what the run wrote: clouds and meshes read back with the
    coordinates they were written with, and ``dtm`` is the run's DTM step,
    on epoch I's plane when given epoch I's DTM as ``--reference``."""
    run = tmp_path / "run"
    sw.run_pipeline(sw.default_config(density_pts_m2=8, out_dir=str(run)))
    for epoch in ("I", "II"):
        assert main(["filter", "--in", str(run / f"epoch_{epoch}_aligned.ply"),
                     "--out", str(tmp_path / f"{epoch}_ground.ply"),
                     "--removed", str(tmp_path / f"{epoch}_removed.ply")]) == 0
        assert ((tmp_path / f"{epoch}_ground.ply").read_bytes()
                == (run / f"epoch_{epoch}_ground.ply").read_bytes())
        reference = [] if epoch == "I" else ["--reference",
                                             str(run / "epoch_I_dtm.ply")]
        assert main(["dtm", "--in", str(run / f"epoch_{epoch}_ground.ply"),
                     "--out", str(tmp_path / f"{epoch}_dtm.ply"),
                     *reference]) == 0
        assert ((tmp_path / f"{epoch}_dtm.ply").read_bytes()
                == (run / f"epoch_{epoch}_dtm.ply").read_bytes())

    report = json.loads((run / "report.json").read_text())
    days = report["epoch_pairs"][0]["interval_days"]
    assert main(["deform", "--compared", str(run / "epoch_II_dtm.ply"),
                 "--reference", str(run / "epoch_I_dtm.ply"),
                 "--days", repr(days), "--out", str(tmp_path / "field.ply")]) == 0
    _, field = read_deformation((tmp_path / "field.ply").read_bytes())
    _, ran = read_deformation((run / "field_I_II.ply").read_bytes())
    np.testing.assert_array_equal(field.valid, ran.valid)
    np.testing.assert_array_equal(field.values, ran.values)

    assert main(["regions", "--field", str(run / "field_I_II.ply"),
                 "--out", str(tmp_path / "regions.json")]) == 0
    assert (json.loads((tmp_path / "regions.json").read_text())
            == json.loads((run / "regions.json").read_text()))
