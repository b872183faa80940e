"""Round-trip properties of the text file formats.

Save -> load -> save writes the same bytes, and every float read back has
the bit pattern that was written; the one exception is nan, which is
written as ``nan`` whatever its sign and payload.
"""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import kincal as kc

# finite floats of every kind: -0.0, subnormals and the extremes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_BUT_NAN_SIGN = st.one_of(st.floats(allow_nan=False), st.just(np.nan))
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
PROPERTY_SETTINGS = settings(deadline=None, max_examples=40)


def bits(values):
    """Bit patterns of float values, every nan as the nan ``repr`` writes."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


def assert_same_floats(found, expected):
    np.testing.assert_array_equal(bits(found), bits(expected))


def round_trip(save, load, value):
    """(loaded value, first file bytes, second file bytes) of save -> load -> save."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        save(value, first)
        loaded = load(first)
        save(loaded, second)
        return loaded, file_bytes(first), file_bytes(second)


def file_bytes(path):
    if os.path.isdir(path):
        return {name: file_bytes(os.path.join(path, name)) for name in os.listdir(path)}
    with open(path, "rb") as fh:
        return fh.read()


@st.composite
def datasets(draw):
    rows, cols, joint_count = (draw(st.integers(0, 3)) for _ in range(3))
    valid = draw(hnp.arrays(bool, (rows, cols)))
    points = draw(hnp.arrays(float, (rows, cols, 3), elements=ANY_BUT_NAN_SIGN))
    joints = draw(hnp.arrays(float, (rows, cols, joint_count), elements=ANY_BUT_NAN_SIGN))
    finite_points = draw(hnp.arrays(float, (rows, cols, 3), elements=FINITE))
    finite_joints = draw(hnp.arrays(float, (rows, cols, joint_count), elements=FINITE))
    points[valid] = finite_points[valid]
    joints[valid] = finite_joints[valid]
    points[~valid & draw(hnp.arrays(bool, (rows, cols)))] = np.nan
    return kc.ScanDataset(draw(st.sampled_from(list(kc.SensorKind))),
                          points, valid, joints)


@PROPERTY_SETTINGS
@given(datasets())
def test_dataset_round_trip(ds):
    loaded, first, second = round_trip(kc.save_dataset, kc.load_dataset, ds)
    assert first == second
    assert loaded.kind is ds.kind
    np.testing.assert_array_equal(loaded.valid, ds.valid)
    assert_same_floats(loaded.points, ds.points)
    assert_same_floats(loaded.joints, ds.joints)


@st.composite
def models_and_masks(draw):
    links = draw(st.integers(0, 3))
    kinds = st.sampled_from(list(kc.JointKind))
    if links == 0:
        kinds = st.one_of(st.none(), kinds)

    def segment():
        kind = draw(kinds)
        alpha, beta, x, y = (draw(FINITE) for _ in range(4))
        if kind is kc.JointKind.PRISMATIC:
            x = y = draw(st.sampled_from([0.0, -0.0]))
        return kc.Segment(alpha, beta, x, y, joint=kind)

    model = kc.KinematicModel(segment(), tuple(segment() for _ in range(links)),
                              kc.EESegment(*(draw(FINITE) for _ in range(6))))
    return model, kc.ParamMask(draw(hnp.arrays(bool, model.param_count)))


@PROPERTY_SETTINGS
@given(models_and_masks())
def test_model_round_trip(case):
    model, mask = case
    (loaded, loaded_mask), first, second = round_trip(
        lambda case, path: kc.save_model(*case, path), kc.load_model, case)
    assert first == second
    assert loaded == model
    assert_same_floats(kc.pack_params(loaded), kc.pack_params(model))
    np.testing.assert_array_equal(loaded_mask.flags, mask.flags)


# Plane renormalizes its normal and Box keeps a rotation matrix that the file
# stores as a rotation vector, so only axis normals and unrotated boxes come
# back bit for bit; their points, centres and extents always do.
POINT = st.tuples(FINITE, FINITE, FINITE)
AXIS_SCALE = st.floats(min_value=1e-100, max_value=1e100)


@st.composite
def primitives(draw):
    kind = draw(st.sampled_from(["plane", "sphere", "box", "mesh"]))
    if kind == "plane":
        normal = np.zeros(3)
        normal[draw(st.integers(0, 2))] = draw(AXIS_SCALE) * draw(st.sampled_from([1, -1]))
        return kc.Plane(draw(POINT), normal)
    if kind == "sphere":
        return kc.Sphere(draw(POINT), draw(POSITIVE))
    if kind == "box":
        return kc.Box(draw(POINT), draw(st.tuples(POSITIVE, POSITIVE, POSITIVE)))
    vertices = draw(st.lists(POINT, min_size=1, max_size=4))
    faces = draw(st.lists(st.tuples(*[st.integers(0, len(vertices) - 1)] * 3), max_size=3))
    return kc.TriangleMesh(vertices, faces)


def primitive_floats(prim):
    if isinstance(prim, kc.Plane):
        return np.r_[prim.point, prim.normal]
    if isinstance(prim, kc.Sphere):
        return np.r_[prim.center, prim.radius]
    if isinstance(prim, kc.Box):
        return np.r_[prim.center, prim.half_extents, prim.rotation.reshape(-1)]
    return prim.vertices.reshape(-1)


@PROPERTY_SETTINGS
@given(st.lists(primitives(), max_size=4))
def test_scene_round_trip(scene):
    loaded, first, second = round_trip(kc.save_scene, kc.load_scene, scene)
    assert first == second
    assert [type(p) for p in loaded] == [type(p) for p in scene]
    for found, expected in zip(loaded, scene):
        assert_same_floats(primitive_floats(found), primitive_floats(expected))
        if isinstance(expected, kc.TriangleMesh):
            np.testing.assert_array_equal(found.faces, expected.faces)


@st.composite
def trajectories(draw):
    arity = draw(st.integers(0, 3))
    vector = hnp.arrays(float, arity, elements=FINITE)
    if draw(st.booleans()):
        poses = draw(st.lists(vector, min_size=1, max_size=3))
        return kc.TrajectorySpec(static_poses=tuple(poses))
    legs = draw(st.lists(st.builds(kc.TrajectoryLeg, vector, vector, POSITIVE),
                         min_size=1, max_size=3))
    return kc.TrajectorySpec(legs=tuple(legs))


def trajectory_floats(traj):
    return np.concatenate([np.zeros(0), *traj.static_poses,
                           *(np.r_[leg.duration, leg.start, leg.end] for leg in traj.legs)])


@PROPERTY_SETTINGS
@given(trajectories())
def test_trajectory_round_trip(traj):
    loaded, first, second = round_trip(kc.save_trajectory, kc.load_trajectory, traj)
    assert first == second
    assert (len(loaded.legs), len(loaded.static_poses)) == (len(traj.legs), len(traj.static_poses))
    assert_same_floats(trajectory_floats(loaded), trajectory_floats(traj))


def read_ply(path):
    """(points, colours or None) of an ASCII PLY with float x y z first."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[:lines.index("end_header")]
    count = int(next(line.split()[2] for line in header
                     if line.startswith("element vertex ")))
    rows = [line.split() for line in lines[len(header) + 1:]]
    assert len(rows) == count
    points = np.array([[float(t) for t in row[:3]] for row in rows]).reshape(count, 3)
    if "property uchar red" not in header:
        return points, None
    return points, np.array([[int(t) for t in row[3:]] for row in rows]).reshape(count, 3)


@PROPERTY_SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    hnp.arrays(float, (n, 3), elements=FINITE),
    st.one_of(st.none(), hnp.arrays(int, (n, 3), elements=st.integers(0, 255))))))
def test_write_ply_parses_back(case):
    points, colors = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.ply")
        kc.write_ply(path, points, colors)
        found_points, found_colors = read_ply(path)
    assert_same_floats(found_points, points)
    if colors is None:
        assert found_colors is None
    else:
        np.testing.assert_array_equal(found_colors, colors)
