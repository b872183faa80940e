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

from . import textio
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
        valid_joints = joints[valid]
        if not np.all(np.isfinite(valid_joints)):
            raise DimensionError("valid cells must carry finite joint vectors")
        if np.any(valid) and not np.all(np.isfinite(points[valid])):
            raise DimensionError("valid cells must carry finite points")
        ids, rows = map(np.asarray, self.frames or _find_frames(valid_joints, valid))
        if (ids.shape != valid.shape
                or np.any(np.where(valid, (ids < 0) | (ids >= len(rows)), ids != -1))
                or not np.array_equal(rows[ids[valid]], valid_joints)):
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


def _find_frames(rows, valid) -> FrameTable:
    """Number the distinct joint ``rows`` of the ``valid`` cells in sorted
    order."""
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
# A cell has at most one record per file; textio holds the record rules.

def save_dataset(ds: ScanDataset, path):
    os.makedirs(path, exist_ok=True)
    textio.write_lines(os.path.join(path, "meta"),
                       [f"kind {ds.kind.value}", f"rows {ds.rows}", f"cols {ds.cols}",
                        f"joint_count {ds.joint_count}"])
    cells = [f"{i} {j}" for i in range(ds.rows) for j in range(ds.cols)]
    flags = ds.valid.reshape(-1).astype(int).tolist()
    points = textio.float_rows(ds.points.reshape(-1, 3))
    textio.write_lines(os.path.join(path, "points"),
                       [f"{c} {v} {p}" for c, v, p in zip(cells, flags, points)])
    joints = textio.float_rows(ds.joints.reshape(len(cells), ds.joint_count))
    textio.write_lines(os.path.join(path, "joints"),
                       [f"{c} {q}".rstrip() for c, q in zip(cells, joints)])


_META_KEYS = ("kind", "rows", "cols", "joint_count")


def _read_meta(path):
    meta_path = os.path.join(path, "meta")
    meta = {}
    for lineno, tokens in textio.records(meta_path):
        try:
            textio.expect_fields(tokens, 2)
            key, value = tokens
            if key == "kind":
                meta[key] = SensorKind(value)
            elif key in _META_KEYS:
                meta[key] = int(value)
                if meta[key] < 0:
                    raise ValueError(f"{key} must not be negative, got {value}")
        except (ValueError, IndexError) as exc:
            raise textio.located(meta_path, lineno, exc) from None
    for key in _META_KEYS:
        if key not in meta:
            raise ParseError(f"{meta_path}: missing key {key!r}")
    return tuple(meta[key] for key in _META_KEYS)


def _read_cells(path, rows, cols, width, flagged=False):
    """The ``i j [flag] v_1 ... v_width`` records of a per-cell file as a
    (rows, cols, width) grid and a (rows, cols) grid of their flags;
    cells without a record hold nan and False."""
    values, flags = {}, []
    for lineno, tokens in textio.records(path):
        try:
            textio.expect_fields(tokens, 2 + flagged + width)
            i, j = int(tokens[0]), int(tokens[1])
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"cell ({i}, {j}) outside grid")
            cell = i * cols + j
            if cell in values:
                raise ValueError(f"cell ({i}, {j}) is listed twice")
            flags.append(flagged and textio.flag(tokens[2]))
            values[cell] = [float(t) for t in tokens[2 + flagged:]]
        except (ValueError, IndexError) as exc:
            raise textio.located(path, lineno, exc) from None
    index = list(values)
    grid = np.full((rows * cols, width), np.nan)
    grid[index] = np.reshape(list(values.values()), (len(index), width))
    flag_grid = np.zeros(rows * cols, dtype=bool)
    flag_grid[index] = flags
    return grid.reshape(rows, cols, width), flag_grid.reshape(rows, cols)


def load_dataset(path) -> ScanDataset:
    kind, rows, cols, joint_count = _read_meta(path)
    points, valid = _read_cells(os.path.join(path, "points"), rows, cols, 3,
                                flagged=True)
    joints, _ = _read_cells(os.path.join(path, "joints"), rows, cols, joint_count)
    return ScanDataset(kind, points, valid, joints)
