"""Malformed files raise a SlopewatchError subclass and nothing else.

Mutates valid mesh, field and cloud files, binary PLY as written and the
ASCII PLY and XYZ literals of ``ply_literals`` (byte edits and header-token
swaps), and builds PLY headers from a small grammar, then feeds every
result to each reader. Valid random elements, written as ASCII and as
binary PLY, must read to the same arrays. Derandomised, so a run is
repeatable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slopewatch as sw
from slopewatch.cloud import _read_ply, parse_cloud
from slopewatch.errors import CloudFormatError, SlopewatchError
from slopewatch.terrain import (build_dtm, mesh_distance, read_deformation,
                                read_mesh, write_deformation, write_mesh)

from ply_literals import (CLOUD_PLY, CLOUD_XYZ, FIELD_PLY, MESH,
                          MESH_NO_FACES_PLY, MESH_PLY)

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


# every PLY type name with its little-endian layout
_PLY_TYPES = {"char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
              "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
              "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
              "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8"}
_INT_TYPES = [t for t, layout in _PLY_TYPES.items() if "f" not in layout]


def _ply_bytes(fmt: str, elements) -> bytes:
    """PLY stream of ``elements``, each (name, props, rows): props as
    ("scalar", name, type) or ("list", name, count type, item type), a row
    one value per property, a sequence for a list."""
    def enc(value, ptype):
        if fmt == "ascii":
            return repr(value).encode() + b" "
        return np.array(value, dtype=_PLY_TYPES[ptype]).tobytes()

    head, body = ["ply", f"format {fmt} 1.0"], b""
    for name, props, rows in elements:
        head.append(f"element {name} {len(rows)}")
        head += [f"property {p[2]} {p[1]}" if p[0] == "scalar"
                 else f"property list {p[2]} {p[3]} {p[1]}" for p in props]
        for row in rows:
            for p, value in zip(props, row):
                body += (enc(value, p[2]) if p[0] == "scalar" else
                         enc(len(value), p[2]) + b"".join(enc(v, p[3]) for v in value))
    return ("\n".join(head + ["end_header"]) + "\n").encode() + body


def _value(ptype: str):
    if "f" in _PLY_TYPES[ptype]:
        return st.floats(width=32)
    info = np.iinfo(_PLY_TYPES[ptype])
    return st.integers(int(info.min), int(info.max))


@st.composite
def _element(draw):
    """(props, rows) of one element: scalars of any type and lists of
    integer types in any order, each list one length (0 included) over 0
    to 5 rows."""
    props, columns = [], []
    rows = draw(st.integers(0, 5))
    for i in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            ptype = draw(st.sampled_from(sorted(_PLY_TYPES)))
            props.append(("scalar", f"p{i}", ptype))
            columns.append(draw(st.lists(_value(ptype), min_size=rows, max_size=rows)))
        else:
            item = draw(st.sampled_from(_INT_TYPES))
            props.append(("list", f"p{i}", draw(st.sampled_from(_INT_TYPES)), item))
            m = draw(st.integers(0, 4))
            columns.append(draw(st.lists(st.lists(_value(item), min_size=m, max_size=m),
                                         min_size=rows, max_size=rows)))
    return props, list(zip(*columns)) if rows else []


@FUZZ
@given(element=_element())
def test_ascii_and_binary_read_the_same_element(element):
    """One element of any layout reads to the same arrays from ASCII and
    from binary PLY, and the element after it still lines up."""
    props, rows = element
    tail = ("tail", [("scalar", "t", "double")], [(2.5,)])
    reads = [_read_ply(_ply_bytes(fmt, [("body", props, rows), tail]))[0]
             for fmt in ("ascii", "binary_little_endian")]
    for got in reads:
        np.testing.assert_array_equal(got["tail"]["t"], [2.5])
        for k, p in enumerate(props):
            if p[0] == "scalar":
                want = np.array([r[k] for r in rows], dtype=np.float64)
            else:
                want = (np.array([r[k] for r in rows], dtype=np.int64)
                        if rows else np.zeros((0, 3), dtype=np.int64))
            assert got["body"][p[1]].dtype == want.dtype
            np.testing.assert_array_equal(got["body"][p[1]], want)
    assert reads[0].keys() == reads[1].keys()


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
@pytest.mark.parametrize("before,after", [([], ["red", "green", "blue"]),
                                          (["flags"], []),
                                          (["flags"], ["red"])],
                         ids=["colour-after", "flags-before", "flags-and-colour"])
def test_mesh_face_list_among_scalars(fmt, before, after):
    """A face element with scalars (a colour, flags) around its one list
    of vertex indices reads the same triangles from ASCII and binary."""
    vertex = [("scalar", axis, "double") for axis in "xyz"]
    face = ([("scalar", n, "uchar") for n in before]
            + [("list", "vertex_indices", "uchar", "int")]
            + [("scalar", n, "uchar") for n in after])
    rows = [tuple([7] * len(before) + [tri] + [200] * len(after))
            for tri in MESH.triangles.tolist()]
    data = _ply_bytes(fmt, [("vertex", vertex, MESH.vertices.tolist()),
                            ("face", face, rows)])
    mesh, scalars = read_mesh(data)
    np.testing.assert_array_equal(mesh.triangles, MESH.triangles)
    np.testing.assert_array_equal(mesh.vertices, MESH.vertices)
    assert scalars == {}


@pytest.mark.parametrize("fmt,body", [("ascii", b"0.5 -1"),
                                      ("binary_little_endian", b"\0" * 8 + b"\xff")],
                         ids=["ascii", "binary"])
def test_negative_list_count_after_a_scalar_is_refused(fmt, body):
    """A count of -1 would shorten the row to the scalar before it and read
    as an empty list, so the decoder refuses it in either encoding."""
    head = (f"ply\nformat {fmt} 1.0\nelement e 1\nproperty double s\n"
            "property list char char v\nend_header\n").encode()
    with pytest.raises(CloudFormatError, match="negative"):
        _read_ply(head + body)
