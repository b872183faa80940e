"""Grid-based normal estimation, orientation, and noise/edge rejection.

Normals come from the cross products of backward and forward neighbor
differences on the scan grid.  Because the optimizer deforms clouds
non-rigidly between iterations, nothing here is cached: every call works
from the cloud it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ProjectedCloud
from .errors import InvalidParameterError

# cross products shorter than this (relative to the factor norms) are treated
# as degenerate and yield an undefined normal
DEGENERATE_CROSS_TOL = 1e-12

VIEW_DIRECTION_RULE = "view_direction"
ORIGIN_POSITION_RULE = "origin_position"


@dataclass(frozen=True)
class FilteredCloud:
    """Validated points of one dataset, with oriented unit normals.

    Points are stored row-major by grid index, so positional order is a
    deterministic function of the grid.
    """

    dataset_id: int
    positions: np.ndarray  # (N, 3)
    normals: np.ndarray    # (N, 3), unit length
    rows: np.ndarray       # (N,) grid row per point
    cols: np.ndarray       # (N,) grid col per point

    def __len__(self) -> int:
        return self.positions.shape[0]


def _normalize_rows(vectors, scale_floor):
    norms = np.linalg.norm(vectors, axis=-1)
    good = norms > scale_floor
    out = np.zeros_like(vectors)
    np.divide(vectors, norms[..., None], out=out, where=good[..., None])
    return out, good


def estimate_normals(cloud: ProjectedCloud) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell surface normals from the two neighbor-difference crosses.

    Returns (normals, defined) with shapes (rows, cols, 3) and
    (rows, cols).  Border cells, cells with invalid neighbors and
    degenerate crosses are undefined.
    """
    points = cloud.points
    rows, cols = points.shape[:2]
    normals = np.zeros((rows, cols, 3))
    defined = np.zeros((rows, cols), dtype=bool)
    if rows < 3 or cols < 3:
        return normals, defined

    center = points[1:-1, 1:-1]
    back_r = points[:-2, 1:-1] - center   # p[i-1, j] - p[i, j]
    back_c = points[1:-1, :-2] - center   # p[i, j-1] - p[i, j]
    fwd_r = points[2:, 1:-1] - center     # p[i+1, j] - p[i, j]
    fwd_c = points[1:-1, 2:] - center     # p[i, j+1] - p[i, j]

    ok = (cloud.valid[1:-1, 1:-1] & cloud.valid[:-2, 1:-1] & cloud.valid[1:-1, :-2]
          & cloud.valid[2:, 1:-1] & cloud.valid[1:-1, 2:])

    def unit_cross(u, v):
        cross = np.cross(u, v)
        floor = (DEGENERATE_CROSS_TOL
                 * np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
        norms = np.linalg.norm(cross, axis=-1)
        good = norms > np.maximum(floor, 0.0)
        good &= norms > 0.0
        out = np.zeros_like(cross)
        np.divide(cross, norms[..., None], out=out, where=good[..., None])
        return out, good

    m_back, good_back = unit_cross(back_r, back_c)
    m_fwd, good_fwd = unit_cross(fwd_r, fwd_c)
    summed, good_sum = _normalize_rows(m_back + m_fwd, 1e-12)

    ok &= good_back & good_fwd & good_sum
    normals[1:-1, 1:-1] = np.where(ok[..., None], summed, 0.0)
    defined[1:-1, 1:-1] = ok
    return normals, defined


def estimate_normal(cloud: ProjectedCloud, i: int, j: int):
    """Normal at one cell, or None when undefined."""
    if not (0 < i < cloud.rows - 1 and 0 < j < cloud.cols - 1):
        return None
    sub = ProjectedCloud(cloud.points[i - 1:i + 2, j - 1:j + 2],
                         cloud.valid[i - 1:i + 2, j - 1:j + 2],
                         cloud.sensor_origins[i - 1:i + 2, j - 1:j + 2])
    normals, defined = estimate_normals(sub)
    return normals[1, 1].copy() if defined[1, 1] else None


def orient_normal(normal, position, sensor_origin, rule=VIEW_DIRECTION_RULE):
    """Flip the normal, if needed, to a deterministic sensor-relative sign.

    ``view_direction`` (default) keeps the normal facing the sensor:
    n . (p - o) <= 0.  ``origin_position`` applies the sign test against
    the sensor origin directly: n . o <= 0.
    """
    normal = np.asarray(normal, dtype=float)
    if rule == VIEW_DIRECTION_RULE:
        keep = normal @ (np.asarray(position) - np.asarray(sensor_origin)) <= 0.0
    elif rule == ORIGIN_POSITION_RULE:
        keep = normal @ np.asarray(sensor_origin) <= 0.0
    else:
        raise InvalidParameterError(f"unknown orientation rule {rule!r}")
    return normal if keep else -normal


def normal_overlap_grid(normals, defined, n: int, m: int):
    """Windowed mean |dot| of each cell's normal with its neighbors.

    Off-grid cells and cells with undefined normals are excluded from
    both numerator and denominator.  Returns (overlap, defined_count)
    grids; overlap is zero where the center is undefined.
    """
    rows, cols = defined.shape
    sums = np.zeros((rows, cols))
    counts = np.zeros((rows, cols), dtype=int)
    masked = np.where(defined[..., None], normals, 0.0)
    for a in range(-n, n + 1):
        for b in range(-m, m + 1):
            src_r = slice(max(a, 0), rows + min(a, 0))
            dst_r = slice(max(-a, 0), rows + min(-a, 0))
            src_c = slice(max(b, 0), cols + min(b, 0))
            dst_c = slice(max(-b, 0), cols + min(-b, 0))
            dots = np.abs(np.einsum("rck,rck->rc",
                                    masked[dst_r, dst_c], masked[src_r, src_c]))
            has = defined[dst_r, dst_c] & defined[src_r, src_c]
            sums[dst_r, dst_c] += np.where(has, dots, 0.0)
            counts[dst_r, dst_c] += has
    overlap = np.zeros((rows, cols))
    np.divide(sums, counts, out=overlap, where=counts > 0)
    overlap[~defined] = 0.0
    return overlap, counts


def normal_overlap(normals, defined, i: int, j: int, n: int, m: int):
    """Overlap at one cell, or None when the center normal is undefined."""
    if not defined[i, j]:
        return None
    overlap, _ = normal_overlap_grid(normals, defined, n, m)
    return float(overlap[i, j])


def filter_cloud(cloud: ProjectedCloud, n: int, m: int, g_min: float,
                 dataset_id: int = 0) -> FilteredCloud:
    """Keep valid cells whose oriented normal is defined and whose
    windowed normal overlap reaches g_min.

    Cells whose window holds fewer defined normals than half the window
    size are dropped as well, so grid borders are not conflated with
    geometric edges.
    """
    if not 0.0 <= g_min <= 1.0:
        raise InvalidParameterError(f"g_min must lie in [0, 1], got {g_min}")
    normals, defined = estimate_normals(cloud)
    # orient_normal's view-direction rule: every normal faces its sensor
    flip = np.einsum("rck,rck->rc", normals, cloud.points - cloud.sensor_origins) > 0.0
    normals[flip] = -normals[flip]
    overlap, counts = normal_overlap_grid(normals, defined, n, m)
    window = (2 * n + 1) * (2 * m + 1)
    keep = defined & (overlap >= g_min) & (2 * counts >= window)
    rows, cols = np.nonzero(keep)
    return FilteredCloud(
        dataset_id=dataset_id,
        positions=cloud.points[rows, cols],
        normals=normals[rows, cols],
        rows=rows,
        cols=cols,
    )


def compute_scale(cloud: ProjectedCloud) -> float:
    """Mean base-frame point norm; the translation normalization scale."""
    pts = cloud.points[cloud.valid]
    if pts.shape[0] == 0:
        raise InvalidParameterError("cannot compute scale of an empty cloud")
    return float(np.mean(np.linalg.norm(pts, axis=1)))
