import numpy as np
import pytest

import kincal as kc
from kincal.errors import (ConfigurationError, DimensionError,
                           InvalidParameterError, ParseError)
from kincal.simulator import Box, Plane, Sphere, TriangleMesh

from conftest import assert_exact_frame_table, seven_joint_arm

UP = np.array([0.0, 0.0, 1.0])


# --- ray casting ---------------------------------------------------------------

def test_raycast_plane():
    scene = [Plane((0.0, 0.0, 1.0), UP)]
    assert kc.raycast(scene, [0.0, 0.0, 0.0], UP) == pytest.approx(1.0)
    # parallel ray misses
    assert kc.raycast(scene, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) is None
    # plane behind the origin misses
    assert kc.raycast(scene, [0.0, 0.0, 2.0], UP) is None


def test_raycast_sphere():
    scene = [Sphere((0.0, 0.0, 3.0), 1.0)]
    assert kc.raycast(scene, [0.0, 0.0, 0.0], UP) == pytest.approx(2.0)
    # from inside: exits through the far wall
    assert kc.raycast(scene, [0.0, 0.0, 3.0], UP) == pytest.approx(1.0)
    assert kc.raycast(scene, [5.0, 0.0, 0.0], UP) is None


def test_raycast_box():
    scene = [Box((0.0, 0.0, 2.0), (0.5, 0.5, 0.5))]
    assert kc.raycast(scene, [0.0, 0.0, 0.0], UP) == pytest.approx(1.5)
    assert kc.raycast(scene, [2.0, 0.0, 0.0], UP) is None
    # rotated 45 degrees about x: the corner edge comes closer
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    scene = [Box((0.0, 0.0, 2.0), (0.5, 0.5, 0.5), rot)]
    assert kc.raycast(scene, [0.0, 0.0, 0.0], UP) == pytest.approx(
        2.0 - 0.5 * np.sqrt(2.0))


def test_raycast_mesh():
    mesh = TriangleMesh([[0.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]],
                        [[0, 1, 2]])
    assert kc.raycast([mesh], [0.0, 0.0, 0.0], UP) == pytest.approx(1.0)
    assert kc.raycast([mesh], [0.0, -5.0, 0.0], UP) is None


def test_raycast_nearest_across_primitives():
    scene = [Plane((0.0, 0.0, 4.0), UP), Sphere((0.0, 0.0, 3.0), 1.0)]
    assert kc.raycast(scene, [0.0, 0.0, 0.0], UP) == pytest.approx(2.0)


def test_raycast_requires_unit_direction():
    with pytest.raises(InvalidParameterError):
        kc.raycast([Plane((0, 0, 1), UP)], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0])


def test_primitive_validation():
    with pytest.raises(InvalidParameterError):
        Plane((0, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidParameterError):
        Sphere((0, 0, 0), -1.0)
    with pytest.raises(InvalidParameterError):
        Box((0, 0, 0), (1.0, 0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        TriangleMesh([[0, 0, 0]], [[0, 1, 2]])


# --- dataset simulation ----------------------------------------------------------

def camera_spec(rows=8, cols=8, **kwargs):
    defaults = dict(kind=kc.SensorKind.DEPTH_CAMERA, rows=rows, cols=cols,
                    fov_rows=0.8, fov_cols=0.8, min_range=0.05, max_range=10.0)
    defaults.update(kwargs)
    return kc.SensorSpec(**defaults)


def static_traj(q):
    return kc.TrajectorySpec(static_poses=(np.asarray(q, dtype=float),))


def test_noiseless_plane_scan_lies_on_plane():
    scene = [Plane((0.0, 0.0, 2.0), UP)]
    model = kc.KinematicModel(kc.Segment(), (), kc.EESegment())
    ds = kc.simulate_dataset(scene, model, camera_spec(), static_traj([]), seed=0)
    assert ds.valid.all()
    proj = kc.project_to_base(ds, model)
    np.testing.assert_allclose(proj.points[..., 2], 2.0, atol=1e-12)


def test_range_clipping():
    scene = [Plane((0.0, 0.0, 2.0), UP)]
    model = kc.KinematicModel(kc.Segment(), (), kc.EESegment())
    ds = kc.simulate_dataset(scene, model, camera_spec(max_range=1.5),
                             static_traj([]), seed=0)
    assert not ds.valid.any()
    ds = kc.simulate_dataset(scene, model, camera_spec(min_range=3.0, max_range=4.0),
                             static_traj([]), seed=0)
    assert not ds.valid.any()


def test_determinism():
    scene = kc.default_scene()
    model = seven_joint_arm()
    traj = static_traj([-2.2008, 0.7925, -2.2392, -0.3573, 1.7988, 2.48, 1.6288])
    spec = camera_spec(noise=kc.NoiseModel(sigma_abs=0.002, sigma_rel=0.001))
    a = kc.simulate_dataset(scene, model, spec, traj, seed=42)
    b = kc.simulate_dataset(scene, model, spec, traj, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.valid, b.valid)
    c = kc.simulate_dataset(scene, model, spec, traj, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_noise_std_matches_linear_model():
    # sigma_rel = 0.21%, sigma_abs = 2.53 mm at z = 2 m -> sigma = 6.73 mm
    scene = [Plane((0.0, 0.0, 2.0), UP)]
    model = kc.KinematicModel(kc.Segment(), (), kc.EESegment())
    spec = camera_spec(rows=317, cols=317, fov_rows=1e-6, fov_cols=1e-6,
                       noise=kc.NoiseModel(sigma_abs=0.00253, sigma_rel=0.0021))
    ds = kc.simulate_dataset(scene, model, spec, static_traj([]), seed=5)
    ranges = np.linalg.norm(ds.points[ds.valid], axis=1)
    sigma = np.std(ranges - 2.0)
    assert ranges.size > 100000
    assert abs(sigma - 0.00673) / 0.00673 < 0.02


def test_joint_arity_mismatch():
    scene = kc.default_scene()
    with pytest.raises(DimensionError):
        kc.simulate_dataset(scene, seven_joint_arm(), camera_spec(),
                            static_traj([0.0, 0.0]), seed=0)


def test_camera_needs_single_static_pose():
    scene = kc.default_scene()
    model = seven_joint_arm()
    traj = kc.TrajectorySpec(legs=(kc.TrajectoryLeg(np.zeros(7), np.ones(7), 1.0),))
    with pytest.raises(ConfigurationError):
        kc.simulate_dataset(scene, model, camera_spec(), traj, seed=0)


def test_line_scanner_columns_follow_trajectory():
    scene = [Plane((0.0, 0.0, -0.5), UP)]
    J = kc.JointKind.PRISMATIC
    # sensor slides up from 0 to 1 m, aimed at the floor by a half-turn EE
    model = kc.KinematicModel(kc.Segment(joint=J), (), kc.EESegment(alpha=np.pi))
    traj = kc.TrajectorySpec(legs=(kc.TrajectoryLeg([0.0], [1.0], 1.0),))
    spec = kc.SensorSpec(kind=kc.SensorKind.LINE_SCANNER, rows=5, cols=1,
                         fov_rows=0.5, fov_cols=0.0, min_range=0.01,
                         max_range=10.0, sample_rate=10.0)
    ds = kc.simulate_dataset(scene, model, spec, traj, seed=0)
    assert ds.cols == 10
    # every column shares one joint state; columns advance in time
    for j in range(ds.cols):
        assert np.unique(ds.joints[:, j, 0]).size == 1
    np.testing.assert_allclose(ds.joints[0, :, 0], np.arange(10) / 10.0,
                               atol=1e-12)
    # base joint moves along -z here (alpha = pi), so ranges grow with height
    proj = kc.project_to_base(ds, model)
    assert ds.valid.all()
    np.testing.assert_allclose(proj.points[..., 2], -0.5, atol=1e-12)


def test_lidar_per_point_joint_states():
    scene = [Sphere((0.0, 0.0, 0.0), 3.0)]
    J = kc.JointKind.REVOLUTE
    model = kc.KinematicModel(kc.Segment(joint=J), (), kc.EESegment())
    traj = kc.TrajectorySpec(legs=(kc.TrajectoryLeg([0.0], [1.0], 1.0),))
    spec = kc.SensorSpec(kind=kc.SensorKind.SINGLE_BEAM_LIDAR, rows=4, cols=1,
                         fov_rows=0.5, fov_cols=0.0, min_range=0.01,
                         max_range=10.0, sample_rate=2.0)
    ds = kc.simulate_dataset(scene, model, spec, traj, seed=0)
    assert ds.cols == 2
    # points within one rotation (column) carry distinct interpolated states
    assert np.unique(ds.joints[:, 0, 0]).size == 4
    np.testing.assert_allclose(ds.joints[:, 0, 0], np.arange(4) / 8.0, atol=1e-12)


def test_distortion_homotopy_decreases_to_zero():
    scene = [Plane((0.0, 0.0, 1.5), UP)]
    truth = seven_joint_arm()
    # keep the camera pointing at the plane across small joint motion
    traj = static_traj(np.zeros(7))
    ds = kc.simulate_dataset(scene, truth, camera_spec(rows=16, cols=16),
                             traj, seed=0)
    mask = kc.default_mask(truth)
    perturbed = kc.perturb_model(truth, mask, np.radians(1.0), 0.003, seed=4)
    v_truth = kc.pack_params(truth)
    v_pert = kc.pack_params(perturbed)

    def deviation(lam):
        model = kc.unpack_params(v_truth + lam * (v_pert - v_truth), truth)
        proj = kc.project_to_base(ds, model)
        return np.abs(proj.points[ds.valid][:, 2] - 1.5).mean()

    devs = [deviation(lam) for lam in (1.0, 0.75, 0.5, 0.25, 0.0)]
    assert devs[0] > 1e-4
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-10


# --- perturbation and evaluation ---------------------------------------------------

def test_perturb_zero_magnitudes_is_identity():
    model = seven_joint_arm()
    mask = kc.default_mask(model)
    assert kc.perturb_model(model, mask, 0.0, 0.0, seed=1) == model


def test_perturb_respects_mask_and_bounds():
    model = seven_joint_arm()
    mask = kc.default_mask(model)
    rot, trans = np.radians(2.0), 0.005
    out = kc.perturb_model(model, mask, rot, trans, seed=2)
    delta = kc.pack_params(out) - kc.pack_params(model)
    np.testing.assert_array_equal(delta[~mask.flags], 0.0)
    from kincal.kincore import translation_flags
    is_trans = translation_flags(model)
    assert np.all(np.abs(delta[is_trans]) <= trans)
    assert np.all(np.abs(delta[~is_trans]) <= rot)
    assert np.any(delta != 0.0)


def test_evaluate_identical_models_is_zero():
    model = seven_joint_arm()
    deg, mm = kc.evaluate_against_truth(model, model, [np.zeros(7)])
    assert deg == 0.0 and mm == 0.0


def test_evaluate_rejects_probes_of_different_lengths():
    model = seven_joint_arm()
    with pytest.raises(DimensionError):
        kc.evaluate_against_truth(model, model, [np.zeros(7), np.zeros(6)])


def test_evaluate_pure_ee_shift():
    truth = seven_joint_arm()
    v = kc.pack_params(truth)
    v[-1] += 0.003
    shifted = kc.unpack_params(v, truth)
    deg, mm = kc.evaluate_against_truth(shifted, truth,
                                        [np.zeros(7), np.ones(7) * 0.3])
    # arccos near 1 limits the measurable angle to ~1e-6 degrees
    assert deg == pytest.approx(0.0, abs=1e-5)
    assert mm == pytest.approx(3.0, rel=1e-9)


def test_evaluate_matches_per_probe_oracle(rng):
    truth = seven_joint_arm()
    mask = kc.default_mask(truth)
    found = kc.perturb_model(truth, mask, 0.01, 0.002, seed=6)
    probes = [rng.uniform(-np.pi, np.pi, 7) for _ in range(20)]
    deg, mm = kc.evaluate_against_truth(found, truth, probes)
    rots, dists = [], []
    for q in probes:
        a = kc.forward_kinematics(found, q)
        b = kc.forward_kinematics(truth, q)
        rots.append(kc.rotation_angle(a.rotation.T @ b.rotation))
        dists.append(np.linalg.norm(a.translation - b.translation))
    assert deg == pytest.approx(np.degrees(np.mean(rots)), rel=1e-12)
    assert mm == pytest.approx(1000.0 * np.mean(dists), rel=1e-12)


def test_evaluate_substitutes_masked_out_scalars():
    truth = seven_joint_arm()
    found = kc.perturb_model(truth, kc.default_mask(truth), 0.01, 0.002, seed=7)
    # corrupt a masked-out scalar of the found model: it must not matter
    v = kc.pack_params(found)
    v[0] += 10.0  # base alpha is masked out by default
    corrupted = kc.unpack_params(v, truth)
    a = kc.evaluate_against_truth(found, truth, [np.zeros(7)])
    b = kc.evaluate_against_truth(corrupted, truth, [np.zeros(7)])
    assert a == b


# --- scene and trajectory files ------------------------------------------------------

def test_scene_roundtrip(tmp_path):
    scene = kc.default_scene() + [TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])]
    path = tmp_path / "scene.txt"
    kc.save_scene(scene, path)
    loaded = kc.load_scene(path)
    assert len(loaded) == len(scene)
    origins = np.zeros((5, 3))
    dirs = np.array([[0, 0, 1.0], [0, 1, 0], [1, 0, 0], [0, 0, -1], [0, -1, 0]])
    np.testing.assert_allclose(kc.raycast_batch(loaded, origins, dirs),
                               kc.raycast_batch(scene, origins, dirs),
                               rtol=1e-12)


def test_scene_parse_errors(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("nope\n")
    with pytest.raises(ParseError):
        kc.load_scene(path)
    path.write_text("scene v1\nfrustum 1 2 3\n")
    with pytest.raises(ParseError, match="frustum"):
        kc.load_scene(path)
    path.write_text("scene v1\nmesh\nv 0 0 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        kc.load_scene(path)



@pytest.mark.parametrize("line, message", [
    ("plane 0 0 0 0 0 1 99 98", "expected 7 fields, got 9"),
    ("plane 0 0 0 0 0", "expected 7 fields, got 6"),
    ("sphere 0 0 0 1 5", "expected 5 fields, got 6"),
    ("box 0 0 0 1 1 1 0", "box takes 6 or 9 numbers"),
    ("mesh 3", "expected 1 fields, got 2"),
])
def test_scene_lines_take_exact_field_counts(tmp_path, line, message):
    path = tmp_path / "scene.txt"
    path.write_text(f"scene v1\n{line}\n")
    with pytest.raises(ParseError, match=f"scene.txt:2: {message}"):
        kc.load_scene(path)


def test_trajectory_roundtrip(tmp_path):
    traj = kc.TrajectorySpec(legs=(
        kc.TrajectoryLeg([0.0, 0.0], [1.0, -1.0], 2.0),
        kc.TrajectoryLeg([1.0, -1.0], [0.5, 0.5], 1.0)))
    path = tmp_path / "traj.txt"
    kc.save_trajectory(traj, path)
    loaded = kc.load_trajectory(path)
    assert len(loaded.legs) == 2
    np.testing.assert_array_equal(loaded.legs[0].end, [1.0, -1.0])
    assert loaded.legs[1].duration == 1.0

    static = kc.TrajectorySpec(static_poses=(np.array([0.1, 0.2]),))
    kc.save_trajectory(static, path)
    loaded = kc.load_trajectory(path)
    np.testing.assert_array_equal(loaded.static_poses[0], [0.1, 0.2])


@pytest.mark.parametrize("lines, location", [
    (["pose 0.1 0.2", "leg 1 0 0 1 1"], ":3: pose and leg lines cannot be mixed"),
    (["leg 1 0 1", "# then", "pose 0.5"], ":4: pose and leg lines cannot be mixed"),
    ([], ": trajectory needs pose or leg lines"),
    (["# nothing"], ": trajectory needs pose or leg lines"),
])
def test_trajectory_lines_are_all_pose_or_all_leg(tmp_path, lines, location):
    path = tmp_path / "traj.txt"
    path.write_text("\n".join(["trajectory v1", *lines]) + "\n")
    with pytest.raises(ParseError) as info:
        kc.load_trajectory(path)
    assert str(info.value) == f"{path}{location}"


def test_numpy_scalars_are_written_as_plain_floats(tmp_path):
    kc.save_scene([Sphere((0.0, 0.0, 0.0), np.float64(0.3))], tmp_path / "scene.txt")
    assert kc.load_scene(tmp_path / "scene.txt")[0].radius == 0.3
    leg = kc.TrajectoryLeg([0.0], [1.0], np.float64(2.0))
    kc.save_trajectory(kc.TrajectorySpec(legs=(leg,)), tmp_path / "traj.txt")
    assert kc.load_trajectory(tmp_path / "traj.txt").legs[0].duration == 2.0


def test_trajectory_validation():
    with pytest.raises(ConfigurationError):
        kc.TrajectorySpec()
    with pytest.raises(ConfigurationError):
        kc.TrajectorySpec(legs=(kc.TrajectoryLeg([0.0], [1.0], 1.0),),
                          static_poses=(np.zeros(1),))
    with pytest.raises(InvalidParameterError):
        kc.TrajectoryLeg([0.0], [1.0], 0.0)
    with pytest.raises(DimensionError):
        kc.TrajectoryLeg([0.0], [1.0, 2.0], 1.0)


# --- frame table -------------------------------------------------------------

def test_depth_scan_has_one_frame():
    # a sphere fills only the middle of the view: the corner rays miss
    scene = [Sphere((0.0, 0.0, 2.0), 0.5)]
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.REVOLUTE), (),
                              kc.EESegment())
    ds = kc.simulate_dataset(scene, model, camera_spec(rows=8, cols=8),
                             static_traj([0.3]), seed=0)
    assert ds.valid.any() and not ds.valid.all()
    np.testing.assert_array_equal(ds.frames.joints, [[0.3]])
    assert_exact_frame_table(ds)


def test_line_scanner_has_one_frame_per_column():
    scene = [Plane((0.0, 0.0, -0.5), UP)]
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.PRISMATIC), (),
                              kc.EESegment(alpha=np.pi))
    traj = kc.TrajectorySpec(legs=(kc.TrajectoryLeg([0.0], [1.0], 1.0),))
    # the outer beams of the fan are longer than max_range
    spec = kc.SensorSpec(kind=kc.SensorKind.LINE_SCANNER, rows=5, cols=1,
                         fov_rows=1.5, fov_cols=0.0, min_range=0.01,
                         max_range=1.0, sample_rate=10.0)
    ds = kc.simulate_dataset(scene, model, spec, traj, seed=0)
    assert ds.valid.any() and not ds.valid.all()
    assert ds.frames.joints.shape == (ds.cols, 1)
    columns = np.broadcast_to(np.arange(ds.cols), ds.valid.shape)
    np.testing.assert_array_equal(ds.frames.ids[ds.valid], columns[ds.valid])
    assert_exact_frame_table(ds)


def test_lidar_has_one_frame_per_sample_time():
    scene = [Sphere((0.0, 0.0, 0.0), 3.0)]
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.REVOLUTE), (),
                              kc.EESegment())
    traj = kc.TrajectorySpec(legs=(kc.TrajectoryLeg([0.0], [1.0], 1.0),))
    spec = kc.SensorSpec(kind=kc.SensorKind.SINGLE_BEAM_LIDAR, rows=4, cols=1,
                         fov_rows=0.5, fov_cols=0.0, min_range=0.01,
                         max_range=10.0, sample_rate=2.0)
    ds = kc.simulate_dataset(scene, model, spec, traj, seed=0)
    # two rotations of four beams: eight distinct sample times
    times = np.arange(8) / 8.0
    np.testing.assert_array_equal(
        ds.frames.joints, kc.interpolate_joints(traj.joint_samples(), times))
    assert_exact_frame_table(ds)
