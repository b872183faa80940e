"""Property tests of the stacked match set against brute force.

Points lie on a half-unit grid, so squared distances are exact and
equidistant candidates (ties, including duplicate points) are common.
Normals are axis vectors, so normal agreements are exactly -1, 0 or 1.
"""

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
