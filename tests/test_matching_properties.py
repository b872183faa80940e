"""Property tests of the stacked match set against brute force.

Points lie on a half-unit grid, so squared distances are exact and
equidistant candidates (ties, including duplicate points) are common.
Normals are axis vectors, so normal agreements are exactly -1, 0 or 1.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import kincal as kc
from kincal.geomfilter import FilteredCloud

AXES = np.vstack([np.eye(3), -np.eye(3)])
GRID = st.integers(-2, 2).map(lambda v: 0.5 * v)


@st.composite
def clouds(draw):
    """2-4 grid clouds with distinct, shuffled dataset ids; mostly one is
    empty, but four non-empty clouds are needed to tell (i, j) order
    from (j, i) order."""
    count = draw(st.integers(2, 4))
    ids = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count,
                        unique=True))
    empty = draw(st.sampled_from([None, *range(count)]))
    out = []
    for k, ds_id in enumerate(ids):
        size = 0 if k == empty else draw(st.integers(1, 12))
        positions = np.array([[draw(GRID) for _ in range(3)]
                              for _ in range(size)]).reshape(size, 3)
        normals = AXES[[draw(st.integers(0, 5)) for _ in range(size)]]
        out.append(FilteredCloud(dataset_id=ds_id, positions=positions,
                                 normals=normals, rows=np.arange(size),
                                 cols=np.full(size, ds_id)))
    return out


def by_id(clouds):
    return sorted(clouds, key=lambda cloud: cloud.dataset_id)


def brute_force_pairs(clouds):
    """(i, j, a index, b index) of every candidate, in (i, j, point) order;
    the nearest point of cloud j, lowest index among equidistant ones."""
    out = []
    for qa, qb in combinations(by_id(clouds), 2):
        for p in range(len(qa) if len(qb) else 0):
            sq = np.sum((qb.positions - qa.positions[p]) ** 2, axis=1)
            out.append((qa, qb, p, int(np.flatnonzero(sq == sq.min())[0])))
    return out


def stack_offsets(clouds):
    ordered = by_id(clouds)
    sizes = np.cumsum([0] + [len(cloud) for cloud in ordered[:-1]])
    return {cloud.dataset_id: int(offset)
            for cloud, offset in zip(ordered, sizes)}


@settings(deadline=None)
@given(clouds())
def test_candidates_are_brute_force_nearest_in_pair_order(cs):
    ms = kc.match_all(cs)
    offsets = stack_offsets(cs)
    expected = brute_force_pairs(cs)
    np.testing.assert_array_equal(
        ms.a, [offsets[qa.dataset_id] + p for qa, _, p, _ in expected])
    np.testing.assert_array_equal(
        ms.b, [offsets[qb.dataset_id] + q for _, qb, _, q in expected])
    # the stack holds the clouds in dataset-id order
    ordered = by_id(cs)
    for name in ("positions", "normals", "rows", "cols"):
        np.testing.assert_array_equal(
            getattr(ms, name),
            np.concatenate([getattr(cloud, name) for cloud in ordered]))
    np.testing.assert_array_equal(
        ms.dataset, np.repeat([c.dataset_id for c in ordered],
                              [len(c) for c in ordered]))


@settings(deadline=None)
@given(clouds())
def test_pair_counts_are_the_pair_sizes(cs):
    expected = {(qa.dataset_id, qb.dataset_id): len(qa)
                for qa, qb in combinations(by_id(cs), 2)
                if len(qa) and len(qb)}
    assert kc.match_all(cs).pair_counts() == expected


@settings(deadline=None)
@given(clouds(), st.sampled_from([0.5, float(np.sqrt(0.5)), 1.0, 1.5, 3.0]),
       st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
def test_validation_keeps_the_pairs_a_per_pair_filter_keeps(cs, d_max, f_min):
    offsets = stack_offsets(cs)
    kept = [(offsets[qa.dataset_id] + p, offsets[qb.dataset_id] + q)
            for qa, qb, p, q in brute_force_pairs(cs)
            if np.sqrt(np.sum((qa.positions[p] - qb.positions[q]) ** 2)) <= d_max
            and qa.normals[p] @ qb.normals[q] >= f_min]
    ms = kc.validate_matches(kc.match_all(cs), d_max, f_min)
    assert list(zip(ms.a.tolist(), ms.b.tolist())) == kept


# --- bounded search -------------------------------------------------------------
# Radii that are grid distances, so candidates at exactly the radius are
# common.  Grid distances are sqrt(k) / 2, far more than 1e-6 relative
# apart, so no candidate lies just beyond a radius.
RADII = [0.5, float(np.sqrt(0.5)), 1.0, 1.5]


def within(ms, radius):
    """``ms`` restricted to the candidates within ``radius``, in order."""
    dist = np.linalg.norm(ms.positions[ms.a] - ms.positions[ms.b], axis=1)
    keep = dist <= radius
    return ms.a[keep], ms.b[keep]


@settings(deadline=None)
@given(clouds(), st.sampled_from(RADII))
def test_bounded_candidates_are_the_unbounded_ones_within_the_radius(cs, radius):
    full, bounded = kc.match_all(cs), kc.match_all(cs, radius)
    a, b = within(full, radius)
    np.testing.assert_array_equal(bounded.a, a)
    np.testing.assert_array_equal(bounded.b, b)
    for name in ("dataset", "positions", "normals", "rows", "cols"):
        np.testing.assert_array_equal(getattr(bounded, name), getattr(full, name))
    # queries per pair, not candidates: the same with and without a radius
    assert bounded.pair_counts() == full.pair_counts()
    for d_max in [d for d in RADII if d <= radius]:
        for f_min in (-1.0, 0.0, 1.0):
            kept = kc.validate_matches(bounded, d_max, f_min)
            expected = kc.validate_matches(full, d_max, f_min)
            np.testing.assert_array_equal(kept.a, expected.a)
            np.testing.assert_array_equal(kept.b, expected.b)


@settings(deadline=None)
@given(clouds(), st.sampled_from(RADII))
def test_bounded_query_misses_get_minus_one_and_inf(cs, bound):
    index = kc.build_index(next(cloud for cloud in cs if len(cloud)))
    points = np.concatenate([cloud.positions for cloud in cs])
    full_idx, full_dist = index.query(points)
    idx, dist = index.query(points, bound)
    inside, beyond = full_dist < bound, full_dist > bound
    np.testing.assert_array_equal(idx[inside], full_idx[inside])
    np.testing.assert_array_equal(dist[inside], full_dist[inside])
    assert np.all(idx[beyond] == -1) and np.all(dist[beyond] == np.inf)
    # at exactly the bound the tree may keep the point or drop it
    at = ~inside & ~beyond
    assert np.all((idx[at] == full_idx[at]) | (idx[at] == -1))


def test_equidistant_points_beyond_the_bound_are_a_miss():
    cloud = FilteredCloud(dataset_id=0, positions=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                          normals=AXES[[2, 2]], rows=np.arange(2), cols=np.zeros(2))
    idx, dist = kc.build_index(cloud).query(np.zeros((1, 3)), 0.5)
    assert idx.tolist() == [-1]
    assert dist.tolist() == [np.inf]


def test_match_all_rejects_a_radius_that_is_not_positive():
    cloud = FilteredCloud(dataset_id=0, positions=np.zeros((1, 3)),
                          normals=AXES[[2]], rows=np.arange(1), cols=np.zeros(1))
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(kc.InvalidParameterError):
            kc.match_all([cloud, replace(cloud, dataset_id=1)], radius)
