"""Kinematic self-calibration of sensor-carrying chains from range scans.

The package aligns overlapping scans of an arbitrary static scene, taken
by a range sensor mounted on the terminal frame of a kinematic chain, by
optimizing the chain's parameters with a point-to-plane bundle
adjustment wrapped in an ICP-style outer loop.  A ray-casting simulator
provides synthetic datasets with ground truth.
"""

from .dataset import (FrameTable, ProjectedCloud, ScanDataset, SensorKind,
                      interpolate_joints, load_dataset, project_to_base,
                      save_dataset)
from .errors import (ConfigurationError, DimensionError, ExtrapolationError,
                     InvalidParameterError, KincalError, MatchingFailure,
                     ParseError, SingularSystemError)
from .geomfilter import (ORIGIN_POSITION_RULE, VIEW_DIRECTION_RULE,
                         FilteredCloud, compute_scale,
                         estimate_normal, estimate_normals, filter_cloud,
                         normal_overlap, orient_normal)
from .kincore import (EESegment, JointKind, KinematicModel, ParamMask,
                      Segment, chain_derivatives, chain_poses, default_mask,
                      denormalize_params, ee_segment_transform,
                      forward_kinematics, joint_transform, load_model,
                      normalize_params, pack_params, save_model,
                      static_segment_transform, unpack_params)
from .matching import (Match, MatchSet, SpatialIndex, build_index,
                       find_matches, match_all, validate_matches)
from .optimizer import (CalibrationConfig, CalibrationReport,
                        CorrespondenceSet, IterationStats, LMResult,
                        build_correspondences, calibrate, lm_minimize,
                        residual, total_error)
from .ply import write_ply
from .simulator import (Box, NoiseModel, Plane, SensorSpec, Sphere,
                        TrajectoryLeg, TrajectorySpec, TriangleMesh,
                        default_scene, evaluate_against_truth, load_scene,
                        load_trajectory, perturb_model, raycast, raycast_batch,
                        save_scene, save_trajectory, simulate_dataset,
                        simulate_scans)
from .transforms import RigidTransform, rot_x, rot_y, rot_z, rotation_angle

__version__ = "0.1.0"
