import datetime
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slopewatch as sw
from slopewatch.analysis import (DEFAULT_BUDGET_MM,
                                 MotionAnnotation, ShapeClass, build_report,
                                 classify_shape, error_budget, interval_days,
                                 parse_report, region_extent, relative_error,
                                 render_report_text, report_to_json,
                                 shape_angle)
from slopewatch.cloud import EpochRecord
from slopewatch.errors import UndefinedMotionVector
from slopewatch.terrain import (DeformationField, Region, build_dtm,
                                field_stats)


def tilted_mesh(slope_deg=30.0, extent=(30.0, 20.0), n=60):
    """Regular grid on an inclined plane, plus its plane frame."""
    theta = math.radians(slope_deg)
    u = np.linspace(0, extent[0], n)
    v = np.linspace(0, extent[1], n)
    gu, gv = np.meshgrid(u, v)
    axis_u = np.array([1.0, 0.0, 0.0])
    axis_v = np.array([0.0, math.cos(theta), math.sin(theta)])
    pts = gu.ravel()[:, None] * axis_u + gv.ravel()[:, None] * axis_v
    cloud = sw.PointCloud(points=pts)
    normal = np.cross(axis_u, axis_v)
    mesh = build_dtm(cloud, projection_plane=(normal, 0.0), max_edge=2.0)
    return mesh


def rect_region(mesh, u_range, v_range):
    uv = mesh.project(mesh.vertices)
    inside = ((uv[:, 0] >= u_range[0]) & (uv[:, 0] <= u_range[1])
              & (uv[:, 1] >= v_range[0]) & (uv[:, 1] <= v_range[1]))
    members = np.flatnonzero(inside)
    return Region(vertex_set=members, area_m2=1.0, mean_rate_mm_day=1.0)


# ---------------------------------------------------------------------------
# region extent
# ---------------------------------------------------------------------------


def test_region_extent_axis_aligned_rectangle():
    mesh = tilted_mesh()
    # 10 m across-slope, 20 m along the fall line (the motion fallback)
    region = rect_region(mesh, (10, 20), (0, 20))
    field = DeformationField(values=np.full(len(mesh.vertices), 0.2),
                             valid=np.ones(len(mesh.vertices), dtype=bool),
                             interval_days=100)
    shape = region_extent(region, field, mesh)
    # vertex extents undershoot the continuous rectangle by up to one
    # grid spacing (about 0.51 m here)
    assert shape.W_m == pytest.approx(10.0, abs=0.6)
    assert shape.L_m == pytest.approx(20.0, abs=0.6)
    assert shape.theta_deg == pytest.approx(math.degrees(math.atan(2)), abs=1.5)


def test_region_extent_rotated_rectangle_with_azimuth_override():
    mesh = tilted_mesh(extent=(40.0, 40.0), n=90)
    uv = mesh.project(mesh.vertices)
    for rot in (0.0, 37.0):
        ang = math.radians(rot)
        rot2 = np.array([[math.cos(ang), -math.sin(ang)],
                         [math.sin(ang), math.cos(ang)]])
        centered = (uv - np.array([20.0, 20.0])) @ rot2
        inside = (np.abs(centered[:, 0]) <= 5.0) & (np.abs(centered[:, 1]) <= 10.0)
        region = Region(vertex_set=np.flatnonzero(inside), area_m2=1.0,
                        mean_rate_mm_day=1.0)
        field = DeformationField(values=np.full(len(mesh.vertices), 0.2),
                                 valid=np.ones(len(mesh.vertices), bool),
                                 interval_days=100)
        # motion along the rectangle's long axis, rotated identically
        shape = region_extent(region, field, mesh,
                              motion_azimuth_deg=90.0 + rot)
        assert shape.W_m == pytest.approx(10.0, abs=0.8)
        assert shape.L_m == pytest.approx(20.0, abs=0.8)


def test_region_extent_undefined_motion():
    # horizontal plane, zero displacement: no direction exists
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 10, 500), rng.uniform(0, 10, 500),
                           np.zeros(500)])
    mesh = build_dtm(sw.PointCloud(points=pts),
                     projection_plane=(np.array([0, 0, 1.0]), 0.0),
                     max_edge=3.0)
    region = Region(vertex_set=np.arange(len(mesh.vertices)), area_m2=1.0,
                    mean_rate_mm_day=1.0)
    field = DeformationField(values=np.zeros(len(mesh.vertices)),
                             valid=np.ones(len(mesh.vertices), bool),
                             interval_days=100)
    with pytest.raises(UndefinedMotionVector):
        region_extent(region, field, mesh)


# ---------------------------------------------------------------------------
# shape angle and class
# ---------------------------------------------------------------------------


def test_shape_angle_square():
    assert shape_angle(7.0, 7.0) == pytest.approx(45.0)


@pytest.mark.parametrize("W,L,expected_deg", [
    (31.1, 56.0, 60.95),
    (16.4, 44.8, 69.89),
])
def test_shape_angle_reference_measurements(W, L, expected_deg):
    assert shape_angle(W, L) == pytest.approx(expected_deg, abs=0.05)


def test_shape_angle_rejects_nonpositive():
    with pytest.raises(ValueError):
        shape_angle(0.0, 10.0)
    with pytest.raises(ValueError):
        shape_angle(10.0, -1.0)


@pytest.mark.parametrize("W,L,expected", [
    (31.1, 56.0, ShapeClass.L),
    (9.9, 16.5, ShapeClass.L),
    (16.4, 44.8, ShapeClass.VL),
    (20.9, 32.1, ShapeClass.L),
    (24.3, 52.1, ShapeClass.L),
])
def test_classify_reference_rows(W, L, expected):
    assert classify_shape(shape_angle(W, L)) is expected


@pytest.mark.parametrize("theta,expected", [
    (45.0, ShapeClass.L),      # inclusive lower bound
    (67.5, ShapeClass.VL),
    (22.5, ShapeClass.W),
    (10.0, ShapeClass.VW),
    (44.999999, ShapeClass.W),
    (89.9999, ShapeClass.VL),
])
def test_classify_boundaries(theta, expected):
    assert classify_shape(theta) is expected


def test_classify_rejects_out_of_range():
    for theta in (0.0, 90.0, -5.0, 120.0):
        with pytest.raises(ValueError):
            classify_shape(theta)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(1e-9, 90.0, exclude_max=True))
def test_classify_total_and_single_valued(theta):
    cls = classify_shape(theta)
    bounds = {ShapeClass.VW: (0.0, 22.5), ShapeClass.W: (22.5, 45.0),
              ShapeClass.L: (45.0, 67.5), ShapeClass.VL: (67.5, 90.0)}
    lo, hi = bounds[cls]
    assert lo <= theta < hi or (cls is ShapeClass.VW and theta < 22.5)


@settings(max_examples=100, deadline=None)
@given(W=st.floats(0.1, 1e3), L=st.floats(0.1, 1e3))
@example(W=0.10000000000000002, L=0.1)
def test_classify_monotonic_consistency(W, L):
    theta = shape_angle(W, L)
    cls = classify_shape(theta)
    if L > W:
        assert theta > 45.0 or theta == pytest.approx(45.0)
        if theta > 45.0:
            assert cls in (ShapeClass.L, ShapeClass.VL)
    if L < W:
        assert cls in (ShapeClass.W, ShapeClass.VW)


@settings(max_examples=100, deadline=None)
@given(W=st.floats(0.1, 1e3), L=st.floats(0.1, 1e3),
       k=st.floats(1e-3, 1e3))
def test_classify_scale_invariant(W, L, k):
    theta = shape_angle(W, L)
    # skip draws within float noise of a class boundary
    for bound in (22.5, 45.0, 67.5):
        if abs(theta - bound) < 1e-9:
            return
    assert classify_shape(shape_angle(k * W, k * L)) is classify_shape(theta)


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------


def test_error_budget_reference_value():
    budget = error_budget(6, 30, 60, 10, 10)
    assert budget.sigma_mm == pytest.approx(76.0, abs=0.05)


def test_error_budget_single_component():
    assert error_budget(0, 0, 60, 0, 0).sigma_mm == pytest.approx(60.0)


def test_error_budget_rejects_negative():
    with pytest.raises(ValueError):
        error_budget(-1, 0, 0, 0, 0)


@settings(max_examples=100, deadline=None)
@given(comps=st.tuples(*[st.floats(0, 500) for _ in range(5)]))
def test_error_budget_matches_formula_oracle(comps):
    budget = error_budget(*comps)
    mults = (2, 2, 1, 2, 1)
    oracle = math.sqrt(sum(m * c * c for m, c in zip(mults, comps)))
    assert budget.sigma_mm == pytest.approx(oracle, rel=1e-12)
    # sigma dominates each weighted component
    for m, c in zip(mults, comps):
        assert budget.sigma_mm >= math.sqrt(m) * c - 1e-9


@settings(max_examples=60, deadline=None)
@given(comps=st.tuples(*[st.floats(0, 100) for _ in range(5)]),
       bump=st.floats(0, 50), which=st.integers(0, 4))
def test_error_budget_monotone(comps, bump, which):
    grown = list(comps)
    grown[which] += bump
    assert error_budget(*grown).sigma_mm >= error_budget(*comps).sigma_mm


def test_relative_error_reference_range():
    assert relative_error(76.0, 10.0) == pytest.approx(0.0076)
    assert relative_error(76.0, 2.0) == pytest.approx(0.038)
    assert relative_error(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        relative_error(76.0, 0.0)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b,days", [
    ("2013-03-14", "2013-08-17", 156),
    ("2013-08-17", "2013-11-06", 81),
    ("2013-11-06", "2014-09-13", 311),
    ("2014-09-13", "2015-01-09", 118),
])
def test_interval_days_known_pairs(a, b, days):
    assert interval_days(a, b) == days


def test_interval_days_leap_aware():
    assert interval_days("2016-02-01", "2016-03-01") == 29
    assert interval_days("2015-02-01", "2015-03-01") == 28


def test_interval_days_additive():
    dates = ["2013-03-14", "2013-08-17", "2013-11-06", "2014-09-13"]
    total = interval_days(dates[0], dates[-1])
    parts = sum(interval_days(a, b) for a, b in zip(dates, dates[1:]))
    assert total == parts


def test_interval_days_rejects_reversed():
    with pytest.raises(ValueError):
        interval_days("2014-01-01", "2014-01-01")
    with pytest.raises(ValueError):
        interval_days("2014-02-01", "2014-01-01")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_build_report_empty():
    report = build_report(epochs=[], fields=[], regions=[], shapes=[],
                          annotations=[], budget=error_budget(*DEFAULT_BUDGET_MM))
    assert report["epoch_pairs"] == []
    assert report["regions"] == []
    text = report_to_json(report)
    assert parse_report(text) == report


def test_build_report_region_row_rendering():
    region = Region(vertex_set=np.array([0, 1, 2]), area_m2=500.0,
                    mean_rate_mm_day=3.0, volume_m3=648.2, region_id=1)
    shape = sw.ShapeMeasure(W_m=31.1, L_m=56.0,
                            theta_deg=shape_angle(31.1, 56.0),
                            motion_vector=(0.0, 1.0))
    report = build_report(
        epochs=[EpochRecord("I", datetime.date(2013, 3, 14), 6)],
        fields=[], regions=[region], shapes=[shape],
        annotations=[MotionAnnotation(region_id=1, cruden_type="RS")],
        budget=error_budget(*DEFAULT_BUDGET_MM))
    row = report["regions"][0]
    assert row["type"] == "L-RS"
    assert row["volume_m3"] == pytest.approx(648.2)
    assert row["W_m"] == pytest.approx(31.1)
    rendered = render_report_text(report)
    assert "L-RS" in rendered and "648.2" in rendered
    assert "76.0" in rendered


def test_build_report_roundtrip_field_for_field():
    values = np.array([0.1, -0.2, 0.4, np.nan])
    field = DeformationField(values=values,
                             valid=np.array([True, True, True, False]),
                             interval_days=156,
                             compared_epoch="II", reference_epoch="I")
    report = build_report(
        epochs=[EpochRecord("I", datetime.date(2013, 3, 14), 6),
                EpochRecord("II", datetime.date(2013, 8, 17), 4)],
        fields=[field], regions=[], shapes=[], annotations=[],
        budget=error_budget(*DEFAULT_BUDGET_MM),
        parameters={"max_dist_m": 5.0})
    again = parse_report(report_to_json(report))
    assert again == report
    stats = field_stats(field)
    assert again["epoch_pairs"][0]["mean_cm"] == stats.mean * 100
    assert again["epoch_pairs"][0]["interval_days"] == 156


def test_build_report_id_mismatch():
    region = Region(vertex_set=np.array([0]), area_m2=1.0,
                    mean_rate_mm_day=1.0, region_id=1)
    with pytest.raises(ValueError):
        build_report(epochs=[], fields=[], regions=[region], shapes=[None],
                     annotations=[MotionAnnotation(region_id=9)],
                     budget=error_budget(*DEFAULT_BUDGET_MM))
    with pytest.raises(ValueError):
        build_report(epochs=[], fields=[], regions=[region], shapes=[],
                     annotations=[], budget=error_budget(*DEFAULT_BUDGET_MM))


def test_motion_annotation_validates_type():
    MotionAnnotation(region_id=1, cruden_type="FL")
    with pytest.raises(ValueError):
        MotionAnnotation(region_id=1, cruden_type="XX")
