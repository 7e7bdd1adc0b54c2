"""Terrestrial-laser-scanning slope monitoring toolkit.

Point cloud registration (pairwise, multi-view, multi-epoch), vegetation
filtering for steep slopes, DTM differencing with rate and region analysis,
landslide shape classification with an error budget, and a synthetic scene
generator for end-to-end validation.
"""

from .cloud import (EpochRecord, PointClass, PointCloud, concat_clouds,
                    diameter, estimate_normals, fit_plane, parse_cloud,
                    read_cloud, voxel_downsample, write_cloud)
from .rigid import RigidTransform
from .registration import (FeatureSet, IcpParams, RegistrationResult,
                           coarse_register, evaluate_registration,
                           extract_descriptors, fit_rigid, icp,
                           register_global_hybrid, register_multiview,
                           select_keypoints)
from .ground import (ClothParams, GroundLabeling, SubSlope, csf_classify,
                     filter_vegetation, partition_subslopes)
from .terrain import (DeformationField, Region, TriangleMesh, build_dtm,
                      dtm_from_ground, field_stats, mesh_distance, rate_field,
                      region_volume, significant_regions)
from .analysis import (ErrorBudget, MotionAnnotation, ShapeClass, ShapeMeasure,
                       build_report, classify_shape, error_budget,
                       interval_days, region_extent, relative_error,
                       report_to_json, shape_angle)
from .synth import (LandslideSpec, SceneTruth, add_vegetation, apply_landslide,
                    gen_terrain, simulate_stations, stations_facing_slope)
from .bench import BenchmarkConfig, TrialConfig, run_table2_benchmark
from .pipeline import EpochSpec, PipelineConfig, default_config, run_pipeline

__version__ = "0.1.0"
