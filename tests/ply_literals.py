"""Short ASCII PLY and XYZ files, each the text of a small object that the
tests also write as binary PLY; both must read to the same values."""

import numpy as np

from slopewatch.cloud import PointCloud
from slopewatch.terrain import DeformationField, TriangleMesh

CLOUD = PointCloud(points=np.array([[12345.5, -9876.25, 345.125],
                                    [12347.0, -9875.5, 344.75],
                                    [12344.25, -9877.0, 346.5]]),
                   scalars={"intensity": np.array([42.5, 7.0, 0.25])})

CLOUD_XYZ = b"""# x y z intensity
12345.5 -9876.25 345.125 42.5
12347 -9875.5 344.75 7
12344.25 -9877 346.5 0.25
"""

CLOUD_PLY = b"""ply
format ascii 1.0
element vertex 3
property double x
property double y
property double z
property float intensity
end_header
12345.5 -9876.25 345.125 42.5
12347 -9875.5 344.75 7
12344.25 -9877 346.5 0.25
"""

MESH = TriangleMesh(vertices=np.array([[1000.0, 2000.0, 50.0],
                                       [1002.0, 2000.0, 50.5],
                                       [1000.0, 2002.0, 51.0],
                                       [1002.0, 2002.0, 50.25]]),
                    triangles=np.array([[0, 1, 2], [1, 3, 2]]),
                    plane_normal=np.array([0.0, 0.0, 1.0]), plane_offset=0.0)

MESH_PLY = b"""ply
format ascii 1.0
comment projection_plane 0 0 1 0
element vertex 4
property double x
property double y
property double z
element face 2
property list uchar int vertex_indices
end_header
1000 2000 50
1002 2000 50.5
1000 2002 51
1002 2002 50.25
3 0 1 2
3 1 3 2
"""

# the unit points on the axes, no faces
MESH_NO_FACES_PLY = b"""ply
format ascii 1.0
comment projection_plane 0 0 1 0
element vertex 3
property double x
property double y
property double z
element face 0
property list uchar int vertex_indices
end_header
1 0 0
0 1 0
0 0 1
"""

FIELD = DeformationField(values=np.array([0.25, -0.5, np.nan, 0.125]),
                         valid=np.array([True, True, False, True]),
                         interval_days=4.0, compared_epoch="II",
                         reference_epoch="I")

FIELD_PLY = b"""ply
format ascii 1.0
comment projection_plane 0 0 1 0
comment interval_days 4
comment compared_epoch II
comment reference_epoch I
element vertex 4
property double x
property double y
property double z
property double displacement_m
property double rate_mm_day
property double valid
element face 2
property list uchar int vertex_indices
end_header
1000 2000 50 0.25 62.5 1
1002 2000 50.5 -0.5 125 1
1000 2002 51 0 0 0
1002 2002 50.25 0.125 31.25 1
3 0 1 2
3 1 3 2
"""
