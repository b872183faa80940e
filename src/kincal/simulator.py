"""Synthetic scan generation with ground truth.

Primitive scenes are ray-cast through a simulated range sensor mounted on
the terminal frame of a kinematic chain.  Range noise grows linearly with
distance (sigma = sigma_rel * range + sigma_abs) and is applied along the
ray; all randomness is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import textio
from .dataset import FrameTable, ScanDataset, SensorKind, interpolate_joints
from .errors import (ConfigurationError, DimensionError, InvalidParameterError,
                     ParseError)
from .kincore import (KinematicModel, ParamMask, chain_poses, default_mask,
                      pack_params, translation_flags, unpack_params)
from .transforms import rotation_angle

_RAY_EPS = 1e-9


# --- scene primitives --------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float).reshape(3)
        normal = np.asarray(self.normal, dtype=float).reshape(3)
        length = np.linalg.norm(normal)
        if not np.isfinite(length) or length == 0.0:
            raise InvalidParameterError("plane normal must be a nonzero vector")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal / length)

    def intersect(self, origins, directions):
        denom = directions @ self.normal
        numer = (self.point - origins) @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = numer / denom
        t = np.where(np.abs(denom) < _RAY_EPS, np.inf, t)
        return np.where(t > _RAY_EPS, t, np.inf)


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise InvalidParameterError("sphere radius must be positive")
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float).reshape(3))

    def intersect(self, origins, directions):
        rel = origins - self.center
        b = np.einsum("nk,nk->n", rel, directions)
        c = np.einsum("nk,nk->n", rel, rel) - self.radius ** 2
        disc = b * b - c
        hit = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
        t_near = -b - sqrt_disc
        t_far = -b + sqrt_disc
        t = np.where(t_near > _RAY_EPS, t_near,
                     np.where(t_far > _RAY_EPS, t_far, np.inf))
        return np.where(hit, t, np.inf)


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        half = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not np.all(half > 0.0):
            raise InvalidParameterError("box half extents must be positive")
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "half_extents", half)
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=float).reshape(3, 3))

    def intersect(self, origins, directions):
        local_o = (origins - self.center) @ self.rotation
        local_d = directions @ self.rotation
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (-self.half_extents - local_o) / local_d
            t_hi = (self.half_extents - local_o) / local_d
        parallel = np.abs(local_d) < _RAY_EPS
        inside = np.abs(local_o) <= self.half_extents
        # parallel-inside spans the whole line, parallel-outside is empty
        t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
        t_hi = np.where(parallel, np.inf, t_hi)
        # slab by slab: a reduction over an axis of length 3 costs more
        near, far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
        t_near = np.maximum(np.maximum(near[:, 0], near[:, 1]), near[:, 2])
        t_far = np.minimum(np.minimum(far[:, 0], far[:, 1]), far[:, 2])
        ok = t_far >= np.maximum(t_near, _RAY_EPS)
        t = np.where(t_near > _RAY_EPS, t_near, t_far)
        return np.where(ok & (t > _RAY_EPS), t, np.inf)


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray     # (F, 3) int

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        faces = np.asarray(self.faces, dtype=int).reshape(-1, 3)
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise InvalidParameterError("mesh face index out of range")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)

    def intersect(self, origins, directions):
        # Moller-Trumbore, one vectorized pass per triangle
        best = np.full(origins.shape[0], np.inf)
        for face in self.faces:
            v0, v1, v2 = self.vertices[face]
            e1 = v1 - v0
            e2 = v2 - v0
            pvec = np.cross(directions, e2)
            det = pvec @ e1
            ok = np.abs(det) > _RAY_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_det = 1.0 / det
                tvec = origins - v0
                u = np.einsum("nk,nk->n", tvec, pvec) * inv_det
                qvec = np.cross(tvec, e1)
                v = np.einsum("nk,nk->n", directions, qvec) * inv_det
                t = (qvec @ e2) * inv_det
            ok &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > _RAY_EPS)
            best = np.where(ok & (t < best), t, best)
        return best


def raycast_batch(scene, origins, directions) -> np.ndarray:
    """Nearest hit distance per ray; inf encodes a miss."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    best = np.full(origins.shape[0], np.inf)
    for prim in scene:
        best = np.minimum(best, prim.intersect(origins, directions))
    return best


def raycast(scene, origin, direction):
    """Nearest positive hit distance along one unit ray, or None for a miss."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise InvalidParameterError("ray direction must be unit length")
    t = raycast_batch(scene, origin, direction)[0]
    return None if np.isinf(t) else float(t)


# --- sensor and trajectory ----------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Linear Gaussian range noise: sigma = sigma_rel * range + sigma_abs."""

    sigma_abs: float = 0.0
    sigma_rel: float = 0.0

    def __post_init__(self):
        if self.sigma_abs < 0.0 or self.sigma_rel < 0.0:
            raise InvalidParameterError("noise sigmas must be non-negative")

    def sigma(self, ranges):
        return self.sigma_rel * np.asarray(ranges) + self.sigma_abs


@dataclass(frozen=True)
class SensorSpec:
    """Ray layout and range behavior of a simulated sensor.

    Depth cameras cast a rows x cols frustum per frame; line scanners a
    fan of ``rows`` rays per sample; single-beam LiDARs sweep ``rows``
    sequential beams per rotation.  ``sample_rate`` counts frames, lines
    or rotations per second.
    """

    kind: SensorKind
    rows: int
    cols: int
    fov_rows: float
    fov_cols: float
    min_range: float
    max_range: float
    noise: NoiseModel = NoiseModel()
    sample_rate: float = 10.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidParameterError("ray counts must be at least 1")
        if not 0.0 <= self.min_range < self.max_range:
            raise InvalidParameterError("need 0 <= min_range < max_range")
        if self.sample_rate <= 0.0:
            raise InvalidParameterError("sample rate must be positive")

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the sensor frame, (rows, cols, 3).

        The sensor looks along +z; rows fan across fov_rows (local y for
        cameras), columns across fov_cols (local x).  Line scanners and
        LiDARs fan their beams across fov_rows within a single column.
        """
        if self.kind is SensorKind.DEPTH_CAMERA:
            ang_r = _spread(self.fov_rows, self.rows)
            ang_c = _spread(self.fov_cols, self.cols)
            tan_r = np.tan(ang_r)[:, None]
            tan_c = np.tan(ang_c)[None, :]
            dirs = np.stack([np.broadcast_to(tan_c, (self.rows, self.cols)),
                             np.broadcast_to(tan_r, (self.rows, self.cols)),
                             np.ones((self.rows, self.cols))], axis=-1)
        else:
            ang_r = _spread(self.fov_rows, self.rows)
            dirs = np.stack([np.zeros(self.rows),
                             np.sin(ang_r),
                             np.cos(ang_r)], axis=-1)
            dirs = np.broadcast_to(dirs[:, None, :], (self.rows, self.cols, 3)).copy()
        return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def _spread(fov: float, count: int) -> np.ndarray:
    if count == 1:
        return np.zeros(1)
    return np.linspace(-fov / 2.0, fov / 2.0, count)


@dataclass(frozen=True)
class TrajectoryLeg:
    start: np.ndarray
    end: np.ndarray
    duration: float

    def __post_init__(self):
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        if start.shape != end.shape:
            raise DimensionError("leg start and end must have the same arity")
        if self.duration <= 0.0:
            raise InvalidParameterError("leg duration must be positive")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class TrajectorySpec:
    """Constant-velocity joint-space legs, or static poses for cameras."""

    legs: tuple[TrajectoryLeg, ...] = ()
    static_poses: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        object.__setattr__(self, "static_poses",
                           tuple(np.asarray(p, dtype=float) for p in self.static_poses))
        if bool(self.legs) == bool(self.static_poses):
            raise ConfigurationError(
                "trajectory needs either legs or static poses, not both"
            )

    @property
    def joint_count(self) -> int:
        if self.legs:
            return self.legs[0].start.size
        return self.static_poses[0].size

    @property
    def total_duration(self) -> float:
        return sum(leg.duration for leg in self.legs)

    def joint_samples(self):
        """Timestamped (time, joints) knots across all legs."""
        knots = []
        t = 0.0
        for leg in self.legs:
            if not knots or not np.array_equal(knots[-1][1], leg.start):
                knots.append((t, leg.start))
            t += leg.duration
            knots.append((t, leg.end))
        return knots


def simulate_dataset(scene, model: KinematicModel, spec: SensorSpec,
                     traj: TrajectorySpec, seed: int) -> ScanDataset:
    """Scan the scene along the trajectory; deterministic given the seed.

    Depth cameras expect a trajectory with exactly one static pose (one
    frame per dataset); continuous sensors expect legs.  Ranges outside
    the sensor's view range and misses are flagged invalid.
    """
    if traj.joint_count != model.joint_count:
        raise DimensionError(
            f"trajectory joint arity {traj.joint_count} does not match the model"
        )
    rows, cols = spec.rows, spec.cols
    dirs_local = spec.ray_directions()

    if spec.kind is SensorKind.DEPTH_CAMERA:
        if len(traj.static_poses) != 1:
            raise ConfigurationError(
                "depth camera simulation takes exactly one static pose per dataset"
            )
        frame_joints = traj.static_poses[0].reshape(1, model.joint_count)
        frame = np.zeros(rows * cols, dtype=int)
    else:
        if not traj.legs:
            raise ConfigurationError("continuous sensors need trajectory legs")
        duration = traj.total_duration
        sample_count = max(int(np.floor(duration * spec.sample_rate)), 1)
        cols = sample_count
        col_times = np.arange(cols) / spec.sample_rate
        if spec.kind is SensorKind.SINGLE_BEAM_LIDAR:
            # each beam of a rotation gets its own interpolated joint state
            offsets = (np.arange(rows) / rows) / spec.sample_rate
            times = np.minimum(col_times[None, :] + offsets[:, None], duration)
        else:
            times = np.broadcast_to(col_times[None, :], (rows, cols))
        # one frame per distinct sample time
        frame_times, frame = np.unique(times.reshape(-1), return_inverse=True)
        frame_joints = interpolate_joints(traj.joint_samples(), frame_times)
        dirs_local = np.broadcast_to(dirs_local[:, :1, :], (rows, cols, 3)).copy()

    flat_dirs = dirs_local.reshape(-1, 3)
    poses = chain_poses(model, frame_joints)
    origins = poses[:, :3, 3].take(frame, axis=0)
    dirs_world = np.einsum("nij,nj->ni", poses[:, :3, :3].take(frame, axis=0),
                           flat_dirs)

    ranges = raycast_batch(scene, origins, dirs_world)
    valid = np.isfinite(ranges) & (ranges >= spec.min_range) & (ranges <= spec.max_range)

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(ranges.shape)
    noisy = np.where(valid, ranges + noise * spec.noise.sigma(np.where(valid, ranges, 0.0)),
                     np.nan)
    points = flat_dirs * noisy[:, None]

    return ScanDataset(spec.kind,
                       points.reshape(rows, cols, 3),
                       valid.reshape(rows, cols),
                       frame_joints[frame].reshape(rows, cols, model.joint_count),
                       FrameTable(np.where(valid, frame, -1).reshape(rows, cols),
                                  frame_joints))


# --- model perturbation and evaluation ----------------------------------------

def perturb_model(model: KinematicModel, mask: ParamMask,
                  rot_magnitude: float, trans_magnitude: float,
                  seed: int) -> KinematicModel:
    """Uniform +-magnitude noise on masked-in scalars only."""
    if rot_magnitude < 0.0 or trans_magnitude < 0.0:
        raise InvalidParameterError("perturbation magnitudes must be non-negative")
    mask.check(model)
    params = pack_params(model)
    is_translation = translation_flags(model)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, params.size)
    magnitudes = np.where(is_translation, trans_magnitude, rot_magnitude)
    params[mask.flags] += (noise * magnitudes)[mask.flags]
    return unpack_params(params, model)


def evaluate_against_truth(found: KinematicModel, truth: KinematicModel,
                           probe_joints, mask: ParamMask | None = None):
    """Mean terminal-pose discrepancy over probe configurations.

    Masked-out (non-calibratable) scalars of ``found`` are replaced by
    the reference values before comparing, mirroring how a reference
    calibration is substituted for segments the method cannot observe.
    Returns (orientation error in degrees, position error in mm).
    """
    if found.joint_count != truth.joint_count:
        raise DimensionError("models have different joint counts")
    if found.param_count != truth.param_count:
        raise DimensionError("models have different parameter layouts")
    mask = mask if mask is not None else default_mask(truth)
    mask.check(truth)
    params = pack_params(found)
    truth_params = pack_params(truth)
    params[~mask.flags] = truth_params[~mask.flags]
    found_sub = unpack_params(params, truth)

    probe_joints = list(probe_joints)
    if not probe_joints:
        raise InvalidParameterError("need at least one probe configuration")
    pose_f = chain_poses(found_sub, probe_joints)
    pose_t = chain_poses(truth, probe_joints)
    rot_err = rotation_angle(np.swapaxes(pose_f[:, :3, :3], 1, 2) @ pose_t[:, :3, :3])
    pos_err = np.linalg.norm(pose_f[:, :3, 3] - pose_t[:, :3, 3], axis=1)
    return np.degrees(rot_err.mean()), 1000.0 * pos_err.mean()


# --- default scene and file formats --------------------------------------------

def default_scene():
    """Desk-scale test scene: an open five-plane box holding a sphere and
    a tilted box, giving both fold edges and curvature."""
    c, s = np.cos(0.4), np.sin(0.4)
    rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return [
        Plane((0.0, 0.0, -0.5), (0.0, 0.0, 1.0)),    # floor
        Plane((1.7, 0.0, 0.0), (-1.0, 0.0, 0.0)),
        Plane((-1.7, 0.0, 0.0), (1.0, 0.0, 0.0)),
        Plane((0.0, 1.7, 0.0), (0.0, -1.0, 0.0)),
        Plane((0.0, -1.7, 0.0), (0.0, 1.0, 0.0)),
        Sphere((0.9, 0.35, -0.2), 0.3),
        Box((-0.7, 0.6, -0.2), (0.25, 0.2, 0.3), rot_z),
    ]


_SCENE_HEADER = "scene v1"
_TRAJ_HEADER = "trajectory v1"


def save_scene(scene, path):
    lines = [_SCENE_HEADER]
    for prim in scene:
        if isinstance(prim, Plane):
            lines.append(f"plane {textio.floats(prim.point, prim.normal)}")
        elif isinstance(prim, Sphere):
            lines.append(f"sphere {textio.floats(prim.center, prim.radius)}")
        elif isinstance(prim, Box):
            rotvec = _rotation_to_rotvec(prim.rotation)
            lines.append(f"box {textio.floats(prim.center, prim.half_extents, rotvec)}")
        elif isinstance(prim, TriangleMesh):
            lines.append("mesh")
            lines.extend(f"v {v}" for v in textio.float_rows(prim.vertices))
            lines.extend("f " + " ".join(map(str, f)) for f in prim.faces.tolist())
            lines.append("endmesh")
        else:
            raise InvalidParameterError(f"unknown primitive {type(prim).__name__}")
    textio.write_lines(path, lines)


# fields per line, tag included
_SCENE_FIELDS = {"plane": 7, "sphere": 5, "box": 10, "mesh": 1}
_MESH_FIELDS = {"v": 4, "f": 4, "endmesh": 1}


def load_scene(path):
    scene = []
    mesh = None  # vertex ("v") and face ("f") rows of an open mesh block
    for lineno, tokens in textio.records(path, _SCENE_HEADER):
        try:
            tag = tokens[0]
            fields = (_SCENE_FIELDS if mesh is None else _MESH_FIELDS).get(tag)
            if fields is None:
                raise ValueError(f"unknown primitive {tag!r}" if mesh is None
                                 else f"unexpected {tag!r} inside mesh")
            if tag == "box" and len(tokens) == 7:  # no rotation vector: unrotated
                tokens += ["0.0"] * 3
            elif tag == "box" and len(tokens) != 10:
                raise ValueError("box takes 6 or 9 numbers")
            textio.expect_fields(tokens, fields)
            vals = [(int if tag == "f" else float)(t) for t in tokens[1:]]
            if tag in ("v", "f"):
                mesh[tag].append(vals)
            elif tag == "mesh":
                mesh = {"v": [], "f": []}
            elif tag == "endmesh":
                scene.append(TriangleMesh(mesh["v"], mesh["f"]))
                mesh = None
            elif tag == "plane":
                scene.append(Plane(vals[:3], vals[3:]))
            elif tag == "sphere":
                scene.append(Sphere(vals[:3], vals[3]))
            else:
                scene.append(Box(vals[:3], vals[3:6], _rotvec_to_rotation(np.array(vals[6:]))))
        except (ValueError, IndexError) as exc:
            raise textio.located(path, lineno, exc) from None
    if mesh is not None:
        raise ParseError(f"{path}: unterminated mesh block")
    return scene


def save_trajectory(traj: TrajectorySpec, path):
    textio.write_lines(path, [_TRAJ_HEADER]
                       + [f"pose {textio.floats(pose)}" for pose in traj.static_poses]
                       + [f"leg {textio.floats(leg.duration, leg.start, leg.end)}"
                          for leg in traj.legs])


def load_trajectory(path) -> TrajectorySpec:
    poses = []
    legs = []
    for lineno, tokens in textio.records(path, _TRAJ_HEADER):
        try:
            if tokens[0] not in ("pose", "leg"):
                raise ValueError(f"unknown line tag {tokens[0]!r}")
            if legs if tokens[0] == "pose" else poses:
                raise ValueError("pose and leg lines cannot be mixed")
            values = [float(t) for t in tokens[1:]]
            if tokens[0] == "pose":
                poses.append(np.array(values))
            elif len(values) % 2 != 1:
                raise ValueError("leg needs a duration and equally long "
                                 "start/end vectors")
            else:
                half = len(values) // 2
                legs.append(TrajectoryLeg(values[1:half + 1], values[half + 1:],
                                          values[0]))
        except (ValueError, IndexError) as exc:
            raise textio.located(path, lineno, exc) from None
    if not (poses or legs):
        raise ParseError(f"{path}: trajectory needs pose or leg lines")
    return TrajectorySpec(legs=tuple(legs), static_poses=tuple(poses))


def _rotvec_to_rotation(rotvec: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(rotvec)
    if angle == 0.0:
        return np.eye(3)
    axis = rotvec / angle
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _rotation_to_rotvec(rotation: np.ndarray) -> np.ndarray:
    angle = rotation_angle(rotation)
    if angle < 1e-12:
        return np.zeros(3)
    axis = np.array([rotation[2, 1] - rotation[1, 2],
                     rotation[0, 2] - rotation[2, 0],
                     rotation[1, 0] - rotation[0, 1]])
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        # angle near pi: take the dominant diagonal direction
        axis = np.sqrt(np.maximum(np.diag(rotation) + 1.0, 0.0) / 2.0)
        axis = axis / np.linalg.norm(axis)
        return axis * angle
    return axis / norm * angle
