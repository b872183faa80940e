import numpy as np
import pytest

import kincal as kc
from kincal.errors import (ConfigurationError, MatchingFailure,
                           SingularSystemError)
from kincal.optimizer import CorrespondenceSet

from conftest import random_model, seven_joint_arm


def zero_joint_model(z=0.0):
    return kc.KinematicModel(kc.Segment(), (), kc.EESegment(z=z))


def plane_correspondences(count=40, z_offset=0.0, seed=0):
    """Anchored plane points matched against a model-driven copy.

    Endpoint a is frozen at identity; endpoint b moves with the model.
    Both endpoints lie on the plane z = 0 in their own frames, offset
    tangentially, so the residual is exactly the model's EE z.
    """
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, (count, 2))
    points_a = np.column_stack([xy, np.zeros(count), np.ones(count)])
    points_b = points_a.copy()
    points_b[:, :2] += rng.uniform(-0.01, 0.01, (count, 2))
    normals = np.tile([0.0, 0.0, 1.0], (count, 1))
    return CorrespondenceSet(
        points_a=points_a,
        points_b=points_b,
        frame_a=np.zeros(count, dtype=int),
        frame_b=np.ones(count, dtype=int),
        normals=normals,
        frame_joints=np.zeros((2, 0)),
        frame_frozen=np.array([True, False]),
        frozen_transforms=np.broadcast_to(np.eye(4), (2, 4, 4)).copy(),
    )


# --- residual and total error ---------------------------------------------------

def test_residual_identical_points_is_zero():
    model = seven_joint_arm()
    q = np.linspace(-1, 1, 7)
    p = np.array([0.1, 0.2, 0.3])
    assert kc.residual(model, p, q, p, q, [0.0, 0.0, 1.0]) == 0.0


def test_residual_tangent_offset_is_zero():
    model = zero_joint_model()
    r = kc.residual(model, [0.0, 0.0, 0.5], [], [0.3, -0.2, 0.5], [],
                    [0.0, 0.0, 1.0])
    assert r == pytest.approx(0.0, abs=1e-15)


def test_residual_normal_offset_is_delta():
    model = zero_joint_model()
    delta = 0.0123
    r = kc.residual(model, [0.0, 0.0, delta], [], [0.0, 0.0, 0.0], [],
                    [0.0, 0.0, 1.0])
    assert r == pytest.approx(delta, abs=1e-15)


def test_total_error_hand_sum():
    # two matches with residuals 0.3 and -0.4 sum to 0.25
    corr = CorrespondenceSet(
        points_a=np.array([[0.0, 0.0, 0.3, 1.0], [0.0, 0.0, -0.4, 1.0]]),
        points_b=np.zeros((2, 4)) + [0, 0, 0, 1],
        frame_a=np.zeros(2, dtype=int),
        frame_b=np.zeros(2, dtype=int),
        normals=np.tile([0.0, 0.0, 1.0], (2, 1)),
        frame_joints=np.zeros((1, 0)),
        frame_frozen=np.array([False]),
        frozen_transforms=np.eye(4)[None],
    )
    model = zero_joint_model()
    assert kc.total_error(corr, model) == pytest.approx(0.25, rel=1e-15)
    # flipping every normal leaves the squared sum unchanged
    corr.normals = -corr.normals
    assert kc.total_error(corr, model) == pytest.approx(0.25, rel=1e-15)


def test_total_error_empty_warns():
    corr = plane_correspondences(count=0)
    with pytest.warns(RuntimeWarning):
        assert kc.total_error(corr, zero_joint_model()) == 0.0


def test_residuals_match_scalar_oracle(rng):
    model = random_model(rng, links=2)
    count = 50
    corr = CorrespondenceSet(
        points_a=np.column_stack([rng.uniform(-1, 1, (count, 3)), np.ones(count)]),
        points_b=np.column_stack([rng.uniform(-1, 1, (count, 3)), np.ones(count)]),
        frame_a=rng.integers(0, 3, count),
        frame_b=rng.integers(0, 3, count),
        normals=rng.normal(size=(count, 3)),
        frame_joints=rng.uniform(-np.pi, np.pi, (3, 3)),
        frame_frozen=np.zeros(3, dtype=bool),
        frozen_transforms=np.broadcast_to(np.eye(4), (3, 4, 4)).copy(),
    )
    corr.normals /= np.linalg.norm(corr.normals, axis=1, keepdims=True)
    res = corr.residuals(model)
    for k in range(count):
        expected = kc.residual(model,
                               corr.points_a[k, :3], corr.frame_joints[corr.frame_a[k]],
                               corr.points_b[k, :3], corr.frame_joints[corr.frame_b[k]],
                               corr.normals[k])
        assert res[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)


# --- Jacobian -------------------------------------------------------------------

def test_jacobian_matches_central_differences(rng):
    model = random_model(rng, links=2)
    count = 30
    corr = CorrespondenceSet(
        points_a=np.column_stack([rng.uniform(-1, 1, (count, 3)), np.ones(count)]),
        points_b=np.column_stack([rng.uniform(-1, 1, (count, 3)), np.ones(count)]),
        frame_a=rng.integers(0, 2, count),
        frame_b=2 + rng.integers(0, 2, count),
        normals=rng.normal(size=(count, 3)),
        frame_joints=rng.uniform(-np.pi, np.pi, (4, 3)),
        frame_frozen=np.zeros(4, dtype=bool),
        frozen_transforms=np.broadcast_to(np.eye(4), (4, 4, 4)).copy(),
    )
    corr.normals /= np.linalg.norm(corr.normals, axis=1, keepdims=True)
    free = np.arange(model.param_count)
    jac = corr.jacobian(model, free)
    v = kc.pack_params(model)
    h = 1e-6
    for p in free:
        vp, vm = v.copy(), v.copy()
        vp[p] += h
        vm[p] -= h
        fd = (corr.residuals(kc.unpack_params(vp, model))
              - corr.residuals(kc.unpack_params(vm, model))) / (2 * h)
        # floor shields the relative test from central-difference roundoff
        scale = np.maximum(np.abs(fd), 1e-2)
        assert np.max(np.abs(jac[:, p] - fd) / scale) < 1e-4


def test_jacobian_zero_for_frozen_frames():
    corr = plane_correspondences()
    model = zero_joint_model(z=0.005)
    jac = corr.jacobian(model, np.arange(model.param_count))
    # endpoint a is frozen so it contributes nothing; with u_z normals and
    # identity rotations, the x/y translation columns of the moving endpoint
    # vanish while the z column does not
    assert np.any(jac[:, 9] != 0.0)
    np.testing.assert_array_equal(jac[:, [2, 3, 7, 8]], 0.0)


# --- LM solve -------------------------------------------------------------------

def ee_z_mask(model):
    flags = np.zeros(model.param_count, dtype=bool)
    flags[-1] = True
    return kc.ParamMask(flags)


def golden_section(fun, lo, hi, tol=1e-12):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2.0


def test_lm_recovers_ee_z_against_golden_section():
    corr = plane_correspondences()
    start = zero_joint_model(z=0.005)
    mask = ee_z_mask(start)
    result = kc.lm_minimize(corr, start, mask)
    assert result.updated

    def cost_at(z):
        return kc.total_error(corr, zero_joint_model(z=z))

    z_star = golden_section(cost_at, -0.01, 0.01)
    assert result.model.ee.z == pytest.approx(z_star, abs=1e-6)
    assert abs(result.model.ee.z) < 1e-6


def test_lm_already_optimal_keeps_cost():
    corr = plane_correspondences()
    start = zero_joint_model(z=0.0)
    result = kc.lm_minimize(corr, start, ee_z_mask(start))
    assert result.accepted_costs[-1] <= result.accepted_costs[0]
    assert result.model.ee.z == pytest.approx(0.0, abs=1e-12)


def test_lm_all_masked_is_noop():
    corr = plane_correspondences()
    start = zero_joint_model(z=0.005)
    mask = kc.ParamMask(np.zeros(start.param_count, dtype=bool))
    result = kc.lm_minimize(corr, start, mask)
    assert not result.updated
    assert result.model == start


def test_lm_masked_out_scalars_bit_identical(rng):
    corr = plane_correspondences()
    start = kc.KinematicModel(kc.Segment(), (),
                              kc.EESegment(0.1, -0.2, 0.3, 0.04, 0.05, 0.006))
    flags = np.zeros(start.param_count, dtype=bool)
    flags[-1] = True
    result = kc.lm_minimize(corr, start, kc.ParamMask(flags))
    v0 = kc.pack_params(start)
    v1 = kc.pack_params(result.model)
    np.testing.assert_array_equal(v0[:-1], v1[:-1])
    assert v1[-1] != v0[-1]


def test_lm_costs_non_increasing():
    corr = plane_correspondences()
    start = zero_joint_model(z=0.005)
    result = kc.lm_minimize(corr, start, ee_z_mask(start))
    costs = np.array(result.accepted_costs)
    assert np.all(np.diff(costs) <= 0.0)


def test_lm_singular_system_names_indices():
    corr = plane_correspondences()
    start = zero_joint_model()
    flags = np.zeros(start.param_count, dtype=bool)
    flags[7] = True  # EE x: orthogonal to every u_z normal here
    flags[9] = True
    with pytest.raises(SingularSystemError) as info:
        kc.lm_minimize(corr, start, kc.ParamMask(flags))
    assert 7 in info.value.indices


def test_lm_underdetermined_rejected():
    corr = plane_correspondences(count=3)
    start = zero_joint_model()
    mask = kc.ParamMask(np.ones(start.param_count, dtype=bool))
    with pytest.raises(ConfigurationError):
        kc.lm_minimize(corr, start, mask)


# --- calibrate outer loop --------------------------------------------------------

# joint configurations looking at the default scene from 0.5-1.2 m
POSE_A = np.array([-2.2008, 0.7925, -2.2392, -0.3573, 1.7988, 2.4800, 1.6288])
POSE_B = np.array([-1.6860, -2.8988, -2.4175, 0.3472, 0.8607, -1.1008, 0.9013])
POSE_C = np.array([-0.3275, 0.4134, -2.7485, 0.3460, 1.9767, 1.2915, 1.9048])


def simulate_depth_scans(model, poses, noise_abs=0.0, rows=32, cols=32, seed0=50):
    scene = kc.default_scene()
    spec = kc.SensorSpec(kind=kc.SensorKind.DEPTH_CAMERA, rows=rows, cols=cols,
                         fov_rows=1.0, fov_cols=1.0, min_range=0.1, max_range=4.0,
                         noise=kc.NoiseModel(sigma_abs=noise_abs))
    return [kc.simulate_dataset(scene, model, spec,
                                kc.TrajectorySpec(static_poses=(q,)),
                                seed=seed0 + i)
            for i, q in enumerate(poses)]


def test_calibrate_fixed_point():
    truth = seven_joint_arm()
    poses = [POSE_A, POSE_B, POSE_C]
    datasets = simulate_depth_scans(truth, poses)
    report = kc.calibrate(datasets, truth,
                          kc.CalibrationConfig(i_max=5, d_max=0.05))
    assert report.converged
    assert len(report.iterations) == 1
    assert report.iterations[0].delta_k <= 1e-4


def test_calibrate_requires_two_datasets():
    truth = seven_joint_arm()
    datasets = simulate_depth_scans(truth, [POSE_A])
    with pytest.raises(ConfigurationError):
        kc.calibrate(datasets, truth)


def test_calibrate_rejects_first_dataset_without_valid_cells():
    truth = seven_joint_arm()
    datasets = simulate_depth_scans(truth, [POSE_A, POSE_B])
    first = datasets[0]
    datasets[0] = kc.ScanDataset(first.kind, first.points,
                                 np.zeros_like(first.valid), first.joints)
    with pytest.raises(ConfigurationError, match="scale"):
        kc.calibrate(datasets, truth)


def test_calibrate_matching_failure_reports_pairs():
    truth = seven_joint_arm()
    poses = [POSE_A, POSE_B]
    datasets = simulate_depth_scans(truth, poses)
    with pytest.raises(MatchingFailure) as info:
        kc.calibrate(datasets, truth, kc.CalibrationConfig(d_max=1e-9))
    assert (0, 1) in info.value.pair_counts


def first_clouds(datasets, model, cfg):
    return [kc.filter_cloud(kc.project_to_base(ds, model), cfg.n, cfg.m,
                            cfg.g_min, dataset_id=i)
            for i, ds in enumerate(datasets)]


def test_matching_failure_counts_the_queries_of_each_pair():
    truth = seven_joint_arm()
    datasets = simulate_depth_scans(truth, [POSE_A, POSE_B, POSE_C])
    cfg = kc.CalibrationConfig(d_max=1e-9)
    with pytest.raises(MatchingFailure) as info:
        kc.calibrate(datasets, truth, cfg)
    sizes = [len(cloud) for cloud in first_clouds(datasets, truth, cfg)]
    assert info.value.pair_counts == {(0, 1): sizes[0], (0, 2): sizes[0],
                                      (1, 2): sizes[1]}


def test_bounded_matching_validates_the_same_pairs_on_arm_scans():
    """First-iteration clouds of noisy scans seen through a perturbed model,
    as in the noise-scaling acceptance run."""
    truth = seven_joint_arm()
    mask = kc.default_mask(truth)
    k_init = kc.perturb_model(truth, mask, np.radians(2.0), 0.005, seed=4)
    datasets = simulate_depth_scans(truth, [POSE_A, POSE_B, POSE_C],
                                    noise_abs=0.0025)
    cfg = kc.CalibrationConfig()
    clouds = first_clouds(datasets, k_init, cfg)
    bounded = kc.match_all(clouds, cfg.d_max)
    full = kc.match_all(clouds)
    assert len(bounded) < len(full)
    kept = kc.validate_matches(bounded, cfg.d_max, cfg.f_min)
    expected = kc.validate_matches(full, cfg.d_max, cfg.f_min)
    assert len(expected) > 0
    np.testing.assert_array_equal(kept.a, expected.a)
    np.testing.assert_array_equal(kept.b, expected.b)


def test_calibrate_mask_bit_exactness_and_report():
    truth = seven_joint_arm()
    mask = kc.default_mask(truth)
    k_init = kc.perturb_model(truth, mask, np.radians(0.5), 0.002, seed=9)
    poses = [POSE_A, POSE_B, POSE_C]
    datasets = simulate_depth_scans(truth, poses)
    report = kc.calibrate(datasets, k_init, kc.CalibrationConfig(i_max=8))
    v_init = kc.pack_params(k_init)
    v_final = kc.pack_params(report.final_model)
    np.testing.assert_array_equal(v_final[~mask.flags], v_init[~mask.flags])
    assert len(report.iterations) <= 8
    assert report.scale > 0.0
    assert report.wall_time > 0.0
    for stats in report.iterations:
        inner = np.array(stats.inner_costs)
        assert np.all(np.diff(inner) <= 0.0)


def test_calibration_config_validation():
    with pytest.raises(ConfigurationError):
        kc.CalibrationConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        kc.CalibrationConfig(i_max=0)
    with pytest.raises(ConfigurationError):
        kc.CalibrationConfig(g_min=1.5)


# --- correspondences over frame tables -------------------------------------------

def line_sweeps(model, poses, seed0=70):
    """Line-scanner sweeps of the default scene, one wrist joint moving
    per sweep (up and down in turn), so each scan line has its own joint
    frame."""
    spec = kc.SensorSpec(kind=kc.SensorKind.LINE_SCANNER, rows=32, cols=1,
                         fov_rows=1.0, fov_cols=0.0, min_range=0.1,
                         max_range=4.0, noise=kc.NoiseModel(sigma_abs=0.001),
                         sample_rate=10.0)
    datasets = []
    for i, q in enumerate(poses):
        step = 0.3 if i % 2 else -0.3
        start, end = q.copy(), q.copy()
        start[4 + i % 2] -= step
        end[4 + i % 2] += step
        leg = kc.TrajectoryLeg(start, end, 2.0)
        datasets.append(kc.simulate_dataset(kc.default_scene(), model, spec,
                                            kc.TrajectorySpec(legs=(leg,)),
                                            seed=seed0 + i))
    return datasets


def validated_matches(datasets, model, cfg=kc.CalibrationConfig(d_max=0.05)):
    clouds = [kc.filter_cloud(kc.project_to_base(ds, model), cfg.n, cfg.m,
                              cfg.g_min, dataset_id=i)
              for i, ds in enumerate(datasets)]
    return kc.validate_matches(kc.match_all(clouds), cfg.d_max, cfg.f_min)


def test_correspondence_frames_carry_each_endpoints_joints():
    truth = seven_joint_arm()
    datasets = (simulate_depth_scans(truth, [POSE_A])
                + line_sweeps(truth, [POSE_B, POSE_C]))
    ms = validated_matches(datasets, truth)
    assert len(ms) > 0
    corr = kc.build_correspondences(ms, dict(enumerate(datasets)),
                                    anchor_models={1: truth})
    for ends, points, frame in ((ms.a, corr.points_a, corr.frame_a),
                                (ms.b, corr.points_b, corr.frame_b)):
        for ds_id, ds in enumerate(datasets):
            sel = ms.dataset[ends] == ds_id
            cells = ms.rows[ends[sel]], ms.cols[ends[sel]]
            np.testing.assert_array_equal(points[sel, :3], ds.points[cells])
            np.testing.assert_array_equal(corr.frame_joints[frame[sel]],
                                          ds.joints[cells])
            # exactly the anchored dataset's endpoints are frozen
            np.testing.assert_array_equal(corr.frame_frozen[frame[sel]],
                                          ds_id == 1)
    assert len(corr.frame_joints) > 3  # the sweeps bring many frames
    frozen = corr.frame_frozen
    np.testing.assert_array_equal(corr.frozen_transforms[frozen],
                                  kc.chain_poses(truth, corr.frame_joints[frozen]))
    np.testing.assert_array_equal(corr.frozen_transforms[~frozen],
                                  np.broadcast_to(np.eye(4), ((~frozen).sum(), 4, 4)))


def test_rigid_subcase_with_three_datasets_solves():
    scene = [kc.Plane((0.0, 0.0, 2.0), (0.0, 0.0, -1.0)),
             kc.Plane((0.8, 0.0, 0.0), (-1.0, 0.0, 0.0)),
             kc.Plane((0.0, 0.8, 0.0), (0.0, -1.0, 0.0))]
    spec = kc.SensorSpec(kind=kc.SensorKind.DEPTH_CAMERA, rows=48, cols=48,
                         fov_rows=1.0, fov_cols=1.0, min_range=0.1,
                         max_range=6.0, noise=kc.NoiseModel(sigma_abs=0.0005))
    identity = zero_joint_model()
    displaced = kc.KinematicModel(kc.Segment(), (),
                                  kc.EESegment(alpha=0.02, beta=-0.01,
                                               gamma=0.015, x=0.02, y=-0.01,
                                               z=0.015))
    pose = kc.TrajectorySpec(static_poses=(np.zeros(0),))
    # the reference scan, then two scans from the displaced pose
    datasets = [kc.simulate_dataset(scene, model, spec, pose, seed=seed)
                for seed, model in enumerate((identity, displaced, displaced))]
    flags = np.zeros(identity.param_count, dtype=bool)
    flags[4:] = True
    report = kc.calibrate(datasets, identity,
                          kc.CalibrationConfig(mask=kc.ParamMask(flags),
                                               d_max=0.1, g_min=0.9, f_min=0.9))
    assert report.converged
    found = kc.forward_kinematics(report.final_model, []).matrix
    truth = kc.forward_kinematics(displaced, []).matrix
    assert np.degrees(kc.rotation_angle(found[:3, :3].T @ truth[:3, :3])) < 0.05
    assert 1000.0 * np.linalg.norm(found[:3, 3] - truth[:3, 3]) < 1.0


def test_calibrate_loaded_datasets_like_simulated_ones(tmp_path):
    truth = seven_joint_arm()
    mask = kc.default_mask(truth)
    k_init = kc.perturb_model(truth, mask, np.radians(0.5), 0.002, seed=3)
    simulated = (simulate_depth_scans(truth, [POSE_A, POSE_B, POSE_C])
                 + line_sweeps(truth, [POSE_A, POSE_C]))
    loaded = []
    for i, ds in enumerate(simulated):
        kc.save_dataset(ds, tmp_path / f"ds{i}")
        loaded.append(kc.load_dataset(tmp_path / f"ds{i}"))
    cfg = kc.CalibrationConfig(i_max=2, lm_max_iterations=3)
    expected = kc.calibrate(simulated, k_init, cfg)
    found = kc.calibrate(loaded, k_init, cfg)
    np.testing.assert_array_equal(kc.pack_params(found.final_model),
                                  kc.pack_params(expected.final_model))
    assert found.iterations == expected.iterations
