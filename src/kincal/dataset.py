"""Grid-ordered scan data with per-point joint states.

A dataset keeps the raw sensor-frame points exactly as recorded, on a
rows x cols grid, together with one joint vector per cell.  Invalid
measurements are flagged rather than deleted so grid neighborhoods stay
intact for normal estimation.  Units are meters and radians throughout.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ExtrapolationError, ParseError
from .kincore import KinematicModel, chain_poses


class SensorKind(enum.Enum):
    SINGLE_BEAM_LIDAR = "single_beam_lidar"
    LINE_SCANNER = "line_scanner"
    DEPTH_CAMERA = "depth_camera"


class FrameTable(NamedTuple):
    ids: np.ndarray     # (rows, cols): row of ``joints`` per cell, -1 if invalid
    joints: np.ndarray  # (frames, joint_count) distinct joint vectors


@dataclass(frozen=True)
class ScanDataset:
    """Sensor-frame points and matching joint vectors on a fixed grid.

    ``frames`` holds the distinct joint vectors once; it is found from the
    valid cells' joints when the producer does not give it.
    """

    kind: SensorKind
    points: np.ndarray  # (rows, cols, 3), sensor frame, meters
    valid: np.ndarray   # (rows, cols) bool
    joints: np.ndarray  # (rows, cols, joint_count)
    frames: FrameTable | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        joints = np.asarray(self.joints, dtype=float)
        if points.ndim != 3 or points.shape[2] != 3:
            raise DimensionError(f"points must be (rows, cols, 3), got {points.shape}")
        if valid.shape != points.shape[:2]:
            raise DimensionError("validity grid does not match the point grid")
        if joints.ndim != 3 or joints.shape[:2] != points.shape[:2]:
            raise DimensionError("joint grid does not match the point grid")
        if np.any(valid) and not np.all(np.isfinite(joints[valid])):
            raise DimensionError("valid cells must carry finite joint vectors")
        if np.any(valid) and not np.all(np.isfinite(points[valid])):
            raise DimensionError("valid cells must carry finite points")
        ids, rows = map(np.asarray, self.frames or _find_frames(joints, valid))
        if (ids.shape != valid.shape
                or np.any(np.where(valid, (ids < 0) | (ids >= len(rows)), ids != -1))
                or not np.array_equal(rows[ids[valid]], joints[valid])):
            raise DimensionError("frame table does not match the joint grid")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "frames", FrameTable(ids, rows))

    @property
    def rows(self) -> int:
        return self.points.shape[0]

    @property
    def cols(self) -> int:
        return self.points.shape[1]

    @property
    def joint_count(self) -> int:
        return self.joints.shape[2]


def _find_frames(joints, valid) -> FrameTable:
    """Number the distinct joint rows of the valid cells in sorted order."""
    rows = joints[valid]
    order = np.arange(len(rows))
    for column in rows.T[::-1]:
        order = order[np.argsort(column[order], kind="stable")]
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.full(valid.shape, -1)
    ids[valid] = (np.cumsum(first) - 1)[np.argsort(order)]
    return FrameTable(ids, ranked[first])


@dataclass(frozen=True)
class ProjectedCloud:
    """Base-frame image of a ScanDataset; grid indices correspond 1:1."""

    points: np.ndarray        # (rows, cols, 3), base frame
    valid: np.ndarray         # (rows, cols) bool
    sensor_origins: np.ndarray  # (rows, cols, 3): chain origin per cell

    @property
    def rows(self) -> int:
        return self.points.shape[0]

    @property
    def cols(self) -> int:
        return self.points.shape[1]


def project_to_base(ds: ScanDataset, model: KinematicModel) -> ProjectedCloud:
    """Map every valid point through the chain at its own joint state.

    The chain is evaluated once per row of the dataset's frame table
    (``ds.frames``: one frame per camera pose or per scan-line sample
    time, built once per dataset), and each cell takes the pose of its
    frame id.
    """
    if ds.joint_count != model.joint_count:
        raise DimensionError(
            f"dataset joint arity {ds.joint_count} != model joint count {model.joint_count}"
        )
    out = np.full_like(ds.points, np.nan)
    origins = np.full_like(ds.points, np.nan)
    poses = chain_poses(model, ds.frames.joints)
    frame = ds.frames.ids[ds.valid]
    translations = poses[:, :3, 3].take(frame, axis=0)
    rotations = poses[:, :3, :3].take(frame, axis=0)
    out[ds.valid] = np.einsum("nij,nj->ni", rotations, ds.points[ds.valid]) + translations
    origins[ds.valid] = translations
    return ProjectedCloud(out, ds.valid.copy(), origins)


def interpolate_joints(samples, t) -> np.ndarray:
    """Per-joint linear interpolation of a timestamped joint-state stream.

    ``samples`` is a time-sorted sequence of (time, joint_vector).  ``t``
    is one time, giving one joint vector, or an array of times, giving
    one joint vector per time.  Times outside the sampled range raise;
    there is no silent extrapolation.
    """
    if len(samples) < 2:
        raise DimensionError("need at least two joint samples to interpolate")
    times = np.array([s[0] for s in samples], dtype=float)
    values = np.array([np.asarray(s[1], dtype=float) for s in samples])
    if np.any(np.diff(times) < 0):
        raise DimensionError("joint samples must be sorted by time")
    t = np.asarray(t, dtype=float)
    outside = ~((t >= times[0]) & (t <= times[-1]))
    if np.any(outside):
        raise ExtrapolationError(f"time {t[outside].flat[0]} outside sampled "
                                 f"range [{times[0]}, {times[-1]}]")
    hi = np.searchsorted(times, t, side="left")
    lo = np.maximum(hi - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = ((t - times[lo]) / (times[hi] - times[lo]))[..., None]
    return np.where((times[hi] == t)[..., None], values[hi],
                    values[lo] + w * (values[hi] - values[lo]))


# --- on-disk format ---------------------------------------------------------
#
# A dataset is a directory of three text files:
#   meta    key/value lines: kind, rows, cols, joint_count
#   points  one record per cell: i j valid x y z
#   joints  one record per cell: i j q_1 ... q_n
# Decimal meters and radians; invalid cells may carry nan coordinates.

def save_dataset(ds: ScanDataset, path):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta"), "w") as fh:
        fh.write(f"kind {ds.kind.value}\n")
        fh.write(f"rows {ds.rows}\n")
        fh.write(f"cols {ds.cols}\n")
        fh.write(f"joint_count {ds.joint_count}\n")
    with open(os.path.join(path, "points"), "w") as fh:
        for i in range(ds.rows):
            for j in range(ds.cols):
                x, y, z = (float(v) for v in ds.points[i, j])
                fh.write(f"{i} {j} {int(ds.valid[i, j])} {x!r} {y!r} {z!r}\n")
    with open(os.path.join(path, "joints"), "w") as fh:
        for i in range(ds.rows):
            for j in range(ds.cols):
                qs = " ".join(repr(float(q)) for q in ds.joints[i, j])
                fh.write(f"{i} {j} {qs}\n".rstrip() + "\n")


def _read_meta(path):
    meta = {}
    meta_path = os.path.join(path, "meta")
    with open(meta_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"{meta_path}:{lineno}: expected 'key value'")
            meta[parts[0]] = parts[1]
    for key in ("kind", "rows", "cols", "joint_count"):
        if key not in meta:
            raise ParseError(f"{meta_path}: missing key {key!r}")
    try:
        kind = SensorKind(meta["kind"])
    except ValueError:
        raise ParseError(f"{meta_path}: unknown sensor kind {meta['kind']!r}") from None
    try:
        return kind, int(meta["rows"]), int(meta["cols"]), int(meta["joint_count"])
    except ValueError as exc:
        raise ParseError(f"{meta_path}: {exc}") from None


def load_dataset(path) -> ScanDataset:
    kind, rows, cols, joint_count = _read_meta(path)
    points = np.full((rows, cols, 3), np.nan)
    valid = np.zeros((rows, cols), dtype=bool)
    joints = np.full((rows, cols, joint_count), np.nan)

    points_path = os.path.join(path, "points")
    with open(points_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 6:
                raise ParseError(f"{points_path}:{lineno}: expected 6 fields, got {len(tokens)}")
            try:
                i, j, flag = int(tokens[0]), int(tokens[1]), int(tokens[2])
                xyz = [float(t) for t in tokens[3:6]]
            except ValueError as exc:
                raise ParseError(f"{points_path}:{lineno}: {exc}") from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise ParseError(f"{points_path}:{lineno}: cell ({i}, {j}) outside grid")
            points[i, j] = xyz
            valid[i, j] = bool(flag)

    joints_path = os.path.join(path, "joints")
    with open(joints_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2 + joint_count:
                raise ParseError(
                    f"{joints_path}:{lineno}: expected {2 + joint_count} fields, "
                    f"got {len(tokens)}"
                )
            try:
                i, j = int(tokens[0]), int(tokens[1])
                qs = [float(t) for t in tokens[2:]]
            except ValueError as exc:
                raise ParseError(f"{joints_path}:{lineno}: {exc}") from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise ParseError(f"{joints_path}:{lineno}: cell ({i}, {j}) outside grid")
            joints[i, j] = qs

    return ScanDataset(kind, points, valid, joints)
