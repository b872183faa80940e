"""Cross-dataset nearest-neighbor correspondences with validation.

For every ordered pair of filtered clouds (i < j) a k-d tree over cloud
j answers one exact nearest-neighbor query per point of cloud i.  The
tree is rebuilt from scratch by every caller: clouds deform between ICP
iterations, so nothing may be cached across them.

A ``MatchSet`` stacks all clouds into one point array, in dataset-id
order, and stores each candidate as two rows of that stack.  The stack
carries each point's dataset id and grid cell, so validation and
correspondence building gather through the rows and never split the
candidates by dataset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError, InvalidParameterError
from .geomfilter import FilteredCloud

# worker threads for nearest-neighbor queries; -1 means all cores.
# Results are identical for any value, only wall time changes.
QUERY_WORKERS = -1


class SpatialIndex:
    """Exact nearest-neighbor index over a filtered cloud.

    Ties at identical distance resolve to the lowest point index, which
    is row-major grid order (lowest row, then column).
    """

    def __init__(self, cloud: FilteredCloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.positions) if len(cloud) else None

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the nearest indexed point per query.

        Empty index: returns empty results for zero queries and index -1
        with infinite distance otherwise.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._tree is None:
            return (np.full(points.shape[0], -1, dtype=int),
                    np.full(points.shape[0], np.inf))
        k = min(2, len(self.cloud))
        dist, idx = self._tree.query(points, k=k, workers=QUERY_WORKERS)
        if k == 1:
            return idx.reshape(-1).astype(int), dist.reshape(-1)
        best_idx = idx[:, 0].astype(int)
        best_dist = dist[:, 0]
        ties = np.flatnonzero(dist[:, 1] == best_dist)
        for row in ties:
            # the ball compares squared distances with the squared radius,
            # which can round below them: grow it so no tied point drops out
            near = np.asarray(self._tree.query_ball_point(
                points[row], best_dist[row] * (1.0 + 1e-9)), dtype=int)
            gaps = np.linalg.norm(self.cloud.positions[near] - points[row],
                                  axis=1)
            best_idx[row] = near[gaps == gaps.min()].min()
        return best_idx, best_dist


def build_index(cloud: FilteredCloud) -> SpatialIndex:
    return SpatialIndex(cloud)


@dataclass(frozen=True)
class MatchSet:
    """Candidate point pairs over one stack of filtered clouds.

    The stack holds the clouds in dataset-id order, each in its own
    row-major grid order; ``dataset``, ``positions``, ``normals``,
    ``rows`` and ``cols`` describe each stacked point.  ``a`` and ``b``
    are the stack rows of the two endpoints, with dataset[a] < dataset[b].
    """

    a: np.ndarray
    b: np.ndarray
    dataset: np.ndarray    # (M,) dataset id per stacked point
    positions: np.ndarray  # (M, 3)
    normals: np.ndarray    # (M, 3)
    rows: np.ndarray       # (M,) grid row per stacked point
    cols: np.ndarray       # (M,) grid col per stacked point

    def __len__(self) -> int:
        return self.a.size

    def pair_counts(self) -> dict:
        """Candidates per (a dataset id, b dataset id) pair that has any."""
        return dict(Counter(zip(self.dataset[self.a].tolist(),
                                self.dataset[self.b].tolist())))


def match_all(clouds) -> MatchSet:
    """Candidates over all dataset pairs i < j (bundle adjustment style).

    Pair (i, j) holds one unvalidated candidate per point of cloud i: its
    nearest point of cloud j.  Candidates run pair by pair in dataset-id
    order, then point by point; pairs with an empty cloud hold none.
    """
    clouds = sorted(clouds, key=lambda cloud: cloud.dataset_id)
    if len(clouds) < 2:
        raise ConfigurationError("matching needs at least two clouds")
    ids = [cloud.dataset_id for cloud in clouds]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("cloud dataset ids must be unique")
    sizes = [len(cloud) for cloud in clouds]
    offsets = np.cumsum([0] + sizes)
    indexes = {j: build_index(clouds[j]) for j in range(1, len(clouds))}

    parts_a, parts_b = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for i, j in combinations(range(len(clouds)), 2):
        if sizes[i] and sizes[j]:
            idx, _ = indexes[j].query(clouds[i].positions)
            parts_a.append(np.arange(offsets[i], offsets[i + 1]))
            parts_b.append(offsets[j] + idx)
    return MatchSet(np.concatenate(parts_a), np.concatenate(parts_b),
                    np.repeat(ids, sizes),
                    np.concatenate([cloud.positions for cloud in clouds]),
                    np.concatenate([cloud.normals for cloud in clouds]),
                    np.concatenate([cloud.rows for cloud in clouds]),
                    np.concatenate([cloud.cols for cloud in clouds]))


def validate_matches(ms: MatchSet, d_max: float, f_min: float) -> MatchSet:
    """Keep matches within d_max and with normal agreement >= f_min.

    d_max is interpreted in the same units as the cloud positions, so
    callers matching normalized clouds must divide the configured value
    by the scale once.
    """
    if d_max <= 0.0:
        raise InvalidParameterError(f"d_max must be positive, got {d_max}")
    if not -1.0 <= f_min <= 1.0:
        raise InvalidParameterError(f"f_min must lie in [-1, 1], got {f_min}")
    dist = np.linalg.norm(ms.positions[ms.a] - ms.positions[ms.b], axis=1)
    overlap = np.einsum("nk,nk->n", ms.normals[ms.a], ms.normals[ms.b])
    keep = (dist <= d_max) & (overlap >= f_min)
    return replace(ms, a=ms.a[keep], b=ms.b[keep])
