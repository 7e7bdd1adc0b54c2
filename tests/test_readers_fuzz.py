"""Malformed files raise a SlopewatchError subclass and nothing else.

Mutates valid mesh, field and cloud files, binary PLY as written and the
ASCII PLY and XYZ literals of ``ply_literals`` (byte edits and header-token
swaps), and builds PLY headers from a small grammar, then feeds every
result to each reader. Derandomised, so a run is repeatable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import slopewatch as sw
from slopewatch.cloud import parse_cloud
from slopewatch.errors import SlopewatchError
from slopewatch.terrain import (build_dtm, mesh_distance, read_deformation,
                                read_mesh, write_deformation, write_mesh)

from ply_literals import (CLOUD_PLY, CLOUD_XYZ, FIELD_PLY, MESH_NO_FACES_PLY,
                          MESH_PLY)

FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _valid_files() -> list[bytes]:
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 4, 12), rng.uniform(0, 4, 12),
                           rng.uniform(0, 0.2, 12)]) + 1000.0
    cloud = sw.PointCloud(points=pts)
    mesh = build_dtm(cloud, max_edge=10.0)
    field = mesh_distance(mesh, mesh, interval_days=3.0, compared_epoch="II",
                          reference_epoch="I")
    return [write_mesh(mesh), write_deformation(mesh, field),
            sw.write_cloud(cloud), MESH_PLY, MESH_NO_FACES_PLY, FIELD_PLY,
            CLOUD_PLY, CLOUD_XYZ]


VALID = _valid_files()
TOKENS = [b"-1", b"0", b"3", b"abc", b"1e999", b"nan", b"inf", b"99999999999",
          b"255", b"char", b"uchar", b"float", b"int", b"list", b"", b"face",
          b"vertex", b"x", b"valid", b"property", b"element", b"comment",
          b"projection_plane", b"interval_days", b"1e308", b"ascii",
          b"binary_little_endian", b"end_header", b"\n"]


def _read_all(data: bytes) -> None:
    for read in (lambda d: parse_cloud(d, "ply"),
                 lambda d: parse_cloud(d, "xyz_ascii"),
                 read_mesh, read_deformation):
        try:
            read(data)
        except SlopewatchError:
            pass


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, payload in edits:
        pos = int(where * len(out))
        if kind == "replace":
            out[pos:pos + len(payload)] = payload
        elif kind == "insert":
            out[pos:pos] = payload
        elif kind == "delete":
            del out[pos:pos + len(payload) + 1]
        else:   # swap the whitespace-delimited token around pos
            start = out.rfind(b" ", 0, pos) + 1
            end = pos
            while end < len(out) and out[end:end + 1] not in (b" ", b"\n"):
                end += 1
            out[start:end] = payload
    return bytes(out)


@FUZZ
@given(which=st.integers(0, len(VALID) - 1),
       edits=st.lists(st.tuples(
           st.sampled_from(["replace", "insert", "delete", "token"]),
           st.floats(0, 1, exclude_max=True),
           st.one_of(st.sampled_from(TOKENS),
                     st.binary(min_size=1, max_size=8))),
           min_size=1, max_size=4))
def test_mutated_files_raise_only_package_errors(which, edits):
    _read_all(_mutate(VALID[which], edits))


_TYPES = ["char", "uchar", "short", "int", "uint", "float", "double", "bogus"]
_NAMES = ["x", "y", "z", "valid", "displacement_m", "vertex_indices"]
_PROPERTY = st.one_of(
    st.tuples(st.sampled_from(_TYPES), st.sampled_from(_NAMES)),
    st.tuples(st.just("list"), st.sampled_from(_TYPES),
              st.sampled_from(_TYPES), st.sampled_from(_NAMES)))
_ELEMENT = st.tuples(
    st.sampled_from(["vertex", "face", "other"]),
    st.sampled_from(["0", "1", "3", "-1", "abc", "100000000000"]),
    st.lists(_PROPERTY, max_size=5))
_COMMENTS = ["projection_plane 0 0 1 0", "projection_plane 0 0 0 0",
             "projection_plane a b c d", "interval_days 0",
             "interval_days nan", "interval_days x", "compared_epoch II"]
_BODY = ["0", "1", "2", "3", "-1", "-3", "1.5", "nan", "inf", "1e308", "300"]


@FUZZ
@given(fmt=st.sampled_from(["ascii", "binary_little_endian",
                            "binary_big_endian"]),
       comments=st.lists(st.sampled_from(_COMMENTS), max_size=2),
       elements=st.lists(_ELEMENT, max_size=3),
       text=st.lists(st.sampled_from(_BODY), max_size=60),
       blob=st.binary(max_size=200))
def test_grammar_headers_raise_only_package_errors(fmt, comments, elements,
                                                   text, blob):
    lines = ["ply", f"format {fmt} 1.0"] + [f"comment {c}" for c in comments]
    for name, count, props in elements:
        lines.append(f"element {name} {count}")
        lines += ["property " + " ".join(p) for p in props]
    head = ("\n".join(lines + ["end_header"]) + "\n").encode()
    _read_all(head + (" ".join(text).encode() if fmt == "ascii" else blob))
