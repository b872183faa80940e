import numpy as np
import pytest

import kincal as kc
from kincal.errors import ConfigurationError, InvalidParameterError
from kincal.geomfilter import FilteredCloud


def make_cloud(positions, dataset_id=0, normals=None, rng=None):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    count = positions.shape[0]
    if normals is None:
        if rng is None:
            normals = np.tile([0.0, 0.0, 1.0], (count, 1))
        else:
            normals = rng.normal(size=(count, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return FilteredCloud(dataset_id=dataset_id, positions=positions,
                         normals=np.asarray(normals, dtype=float),
                         rows=np.arange(count), cols=np.zeros(count, dtype=int))


def brute_force_nn(queries, candidates):
    dists = np.linalg.norm(queries[:, None, :] - candidates[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def test_query_indexed_point_is_itself(rng):
    cloud = make_cloud(rng.uniform(-1, 1, (50, 3)))
    index = kc.build_index(cloud)
    idx, dist = index.query(cloud.positions)
    np.testing.assert_array_equal(idx, np.arange(50))
    np.testing.assert_array_equal(dist, np.zeros(50))


def test_query_matches_linear_scan(rng):
    cloud = make_cloud(rng.uniform(-1, 1, (1000, 3)))
    queries = rng.uniform(-1, 1, (100, 3))
    idx, _ = kc.build_index(cloud).query(queries)
    np.testing.assert_array_equal(idx, brute_force_nn(queries, cloud.positions))


def test_tie_break_lowest_grid_index():
    # two candidates exactly equidistant from the query
    cloud = make_cloud([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    idx, dist = kc.build_index(cloud).query(np.zeros((1, 3)))
    assert idx[0] == 0
    assert dist[0] == pytest.approx(1.0)
    # order reversed in the grid: still the lowest index wins
    cloud = make_cloud([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    idx, _ = kc.build_index(cloud).query(np.zeros((1, 3)))
    assert idx[0] == 0
    # sqrt(0.75) squared rounds below 0.75: the tie still resolves
    cloud = make_cloud(np.zeros((3, 3)))
    idx, dist = kc.build_index(cloud).query(np.full((1, 3), 0.5))
    assert idx[0] == 0
    assert dist[0] == np.sqrt(0.75)


def test_empty_index():
    cloud = make_cloud(np.zeros((0, 3)))
    idx, dist = kc.build_index(cloud).query(np.zeros((2, 3)))
    np.testing.assert_array_equal(idx, [-1, -1])
    assert np.isinf(dist).all()


def test_match_all_single_direction(rng):
    qa = make_cloud(rng.uniform(-1, 1, (20, 3)), dataset_id=0)
    qb = make_cloud(rng.uniform(-1, 1, (30, 3)), dataset_id=1)
    ms = kc.match_all([qa, qb])
    assert len(ms) == 20
    np.testing.assert_array_equal(ms.a, np.arange(20))
    np.testing.assert_array_equal(ms.b - 20,
                                  brute_force_nn(qa.positions, qb.positions))
    assert ms.dataset[ms.a[3]] == 0 and ms.dataset[ms.b[3]] == 1


def test_match_all_same_cloud_twice(rng):
    pts = rng.uniform(-1, 1, (15, 3))
    qa = make_cloud(pts, dataset_id=0)
    qb = make_cloud(pts, dataset_id=1)
    ms = kc.match_all([qa, qb])
    np.testing.assert_array_equal(ms.a, ms.b - 15)


def test_match_all_pair_blocks(rng):
    clouds = [make_cloud(rng.uniform(-1, 1, (10, 3)), dataset_id=i)
              for i in range(3)]
    ms = kc.match_all(clouds)
    counts = ms.pair_counts()
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    assert all(c == 10 for c in counts.values())

    clouds = [make_cloud(rng.uniform(-1, 1, (4, 3)), dataset_id=i)
              for i in range(7)]
    assert len(kc.match_all(clouds).pair_counts()) == 21
    # no intra-dataset matches and no reversed duplicates
    assert all(a < b for a, b in kc.match_all(clouds).pair_counts())


def test_match_all_needs_two_clouds(rng):
    with pytest.raises(ConfigurationError):
        kc.match_all([make_cloud(rng.uniform(-1, 1, (5, 3)))])
    with pytest.raises(ConfigurationError):
        kc.match_all([make_cloud(np.zeros((2, 3)), dataset_id=1),
                      make_cloud(np.zeros((2, 3)), dataset_id=1)])


def test_validate_distance():
    qa = make_cloud([[0.0, 0.0, 0.0]], dataset_id=0)
    qb = make_cloud([[0.025, 0.0, 0.0]], dataset_id=1)
    ms = kc.match_all([qa, qb])
    assert len(kc.validate_matches(ms, d_max=0.020, f_min=-1.0)) == 0
    assert len(kc.validate_matches(ms, d_max=0.030, f_min=-1.0)) == 1


def test_validate_normal_agreement():
    angle = np.arccos(0.7)
    qa = make_cloud([[0.0, 0.0, 0.0]], dataset_id=0, normals=[[0.0, 0.0, 1.0]])
    qb = make_cloud([[0.0, 0.0, 0.0]], dataset_id=1,
                    normals=[[np.sin(angle), 0.0, np.cos(angle)]])
    ms = kc.match_all([qa, qb])
    assert len(kc.validate_matches(ms, d_max=1.0, f_min=0.8)) == 0
    assert len(kc.validate_matches(ms, d_max=1.0, f_min=0.69)) == 1


def test_validate_identical_points_kept():
    qa = make_cloud([[0.3, 0.2, 0.1]], dataset_id=0)
    qb = make_cloud([[0.3, 0.2, 0.1]], dataset_id=1)
    ms = kc.match_all([qa, qb])
    assert len(kc.validate_matches(ms, d_max=1e-9, f_min=1.0)) == 1


def test_validate_parameter_ranges(rng):
    qa = make_cloud(rng.uniform(-1, 1, (3, 3)), dataset_id=0)
    qb = make_cloud(rng.uniform(-1, 1, (3, 3)), dataset_id=1)
    ms = kc.match_all([qa, qb])
    with pytest.raises(InvalidParameterError):
        kc.validate_matches(ms, d_max=0.0, f_min=0.5)
    with pytest.raises(InvalidParameterError):
        kc.validate_matches(ms, d_max=1.0, f_min=1.5)


def test_validate_is_subset(rng):
    qa = make_cloud(rng.uniform(-1, 1, (200, 3)), dataset_id=0, rng=rng)
    qb = make_cloud(rng.uniform(-1, 1, (200, 3)), dataset_id=1, rng=rng)
    ms = kc.match_all([qa, qb])
    kept = kc.validate_matches(ms, d_max=0.2, f_min=0.0)
    assert len(kept) <= len(ms)
    all_pairs = {(int(a), int(b)) for a, b in zip(ms.a, ms.b)}
    kept_pairs = {(int(a), int(b)) for a, b in zip(kept.a, kept.b)}
    assert kept_pairs <= all_pairs
    # every survivor satisfies both predicates
    for a, b in zip(kept.a, kept.b - 200):
        assert np.linalg.norm(qa.positions[a] - qb.positions[b]) <= 0.2
        assert qa.normals[a] @ qb.normals[b] >= 0.0
