import numpy as np
import pytest

import kincal as kc
from kincal.errors import (DimensionError, InvalidParameterError, ParseError)
from kincal.kincore import translation_flags
from kincal.transforms import rot_x, rot_y, rot_z

from conftest import (joint_free_model, planar_2r, prismatic_model,
                      random_model, segment_product, seven_joint_arm)


def hom(rotation, translation=(0.0, 0.0, 0.0)):
    out = np.eye(4)
    out[:3, :3] = rotation
    out[:3, 3] = translation
    return out


# --- elementary transforms ----------------------------------------------------

def test_static_segment_identity():
    t = kc.static_segment_transform(kc.Segment())
    np.testing.assert_array_equal(t.matrix, np.eye(4))


def test_static_segment_pure_rotation():
    # alpha = pi/2 maps u_y onto u_z
    t = kc.static_segment_transform(kc.Segment(alpha=np.pi / 2))
    expected = hom(rot_x(np.pi / 2))
    np.testing.assert_allclose(t.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(t.rotation @ [0, 1, 0], [0, 0, 1], atol=1e-15)
    np.testing.assert_array_equal(t.translation, np.zeros(3))


def test_static_segment_pure_translation():
    t = kc.static_segment_transform(kc.Segment(x=0.4, y=-0.2))
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_allclose(t.translation, [0.4, -0.2, 0.0], atol=1e-15)


def test_static_segment_matches_homogeneous_product(rng):
    for _ in range(20):
        a, b, x, y = rng.uniform(-2, 2, 4)
        t = kc.static_segment_transform(kc.Segment(alpha=a, beta=b, x=x, y=y))
        expected = hom(rot_x(a)) @ hom(rot_y(b)) @ hom(np.eye(3), (x, y, 0))
        np.testing.assert_allclose(t.matrix, expected, atol=1e-14)


def test_ee_segment_identity_and_examples():
    np.testing.assert_array_equal(
        kc.ee_segment_transform(kc.EESegment()).matrix, np.eye(4))

    t = kc.ee_segment_transform(kc.EESegment(gamma=np.pi, z=0.1))
    np.testing.assert_allclose(t.rotation, rot_z(np.pi), atol=1e-15)
    np.testing.assert_allclose(t.translation, [0, 0, 0.1], atol=1e-15)

    # rot-then-trans order: z offset is rotated by alpha = pi/2
    t = kc.ee_segment_transform(kc.EESegment(alpha=np.pi / 2, z=1.0))
    np.testing.assert_allclose(t.translation, [0.0, -1.0, 0.0], atol=1e-15)


def test_ee_segment_matches_homogeneous_product(rng):
    for _ in range(20):
        a, b, g, x, y, z = rng.uniform(-2, 2, 6)
        t = kc.ee_segment_transform(kc.EESegment(a, b, g, x, y, z))
        expected = (hom(rot_x(a)) @ hom(rot_y(b)) @ hom(rot_z(g))
                    @ hom(np.eye(3), (x, y, z)))
        np.testing.assert_allclose(t.matrix, expected, atol=1e-14)


def test_joint_transform():
    np.testing.assert_array_equal(
        kc.joint_transform(kc.JointKind.REVOLUTE, 0.0).matrix, np.eye(4))
    t = kc.joint_transform(kc.JointKind.REVOLUTE, np.pi)
    np.testing.assert_allclose(t.rotation, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)
    t = kc.joint_transform(kc.JointKind.PRISMATIC, 0.25)
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_array_equal(t.translation, [0, 0, 0.25])
    with pytest.raises(InvalidParameterError):
        kc.joint_transform(kc.JointKind.REVOLUTE, np.nan)


def test_non_finite_segment_rejected():
    with pytest.raises(InvalidParameterError):
        kc.Segment(alpha=np.inf)
    with pytest.raises(InvalidParameterError):
        kc.EESegment(z=np.nan)


def test_prismatic_segment_xy_invariant():
    with pytest.raises(InvalidParameterError):
        kc.Segment(x=0.1, joint=kc.JointKind.PRISMATIC)
    kc.Segment(alpha=0.3, beta=0.2, joint=kc.JointKind.PRISMATIC)


# --- forward kinematics -------------------------------------------------------

def test_fk_zero_model_is_identity():
    model = kc.KinematicModel(kc.Segment(), (), kc.EESegment())
    np.testing.assert_array_equal(kc.forward_kinematics(model, []).matrix,
                                  np.eye(4))


def test_fk_planar_2r_matches_closed_form(rng):
    l1, l2 = 0.42, 0.31
    model = planar_2r(l1, l2)
    for _ in range(25):
        q1, q2 = rng.uniform(-np.pi, np.pi, 2)
        pose = kc.forward_kinematics(model, [q1, q2])
        expected = [l1 * np.cos(q1) + l2 * np.cos(q1 + q2),
                    l1 * np.sin(q1) + l2 * np.sin(q1 + q2),
                    0.0]
        np.testing.assert_allclose(pose.translation, expected, atol=1e-14)


def test_fk_single_revolute_quarter_turn():
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.REVOLUTE), (),
                              kc.EESegment(x=1.0))
    pose = kc.forward_kinematics(model, [np.pi / 2])
    np.testing.assert_allclose(pose.translation, [0.0, 1.0, 0.0], atol=1e-15)


def test_fk_equals_per_segment_product(rng):
    model = seven_joint_arm()
    q = rng.uniform(-np.pi, np.pi, 7)
    pose = kc.forward_kinematics(model, q)
    np.testing.assert_allclose(pose.matrix, segment_product(model, q),
                               atol=1e-12)


def test_fk_joint_arity_checked():
    with pytest.raises(DimensionError):
        kc.forward_kinematics(seven_joint_arm(), np.zeros(6))


def test_fk_is_rigid(rng):
    model = random_model(rng, links=3)
    pose = kc.forward_kinematics(model, rng.uniform(-np.pi, np.pi, 4))
    np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3),
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(pose.rotation), 1.0, atol=1e-12)


def test_scale_equivariance(rng):
    # scaling all translation parameters scales the FK translation exactly
    model = random_model(rng, links=2)
    q = rng.uniform(-np.pi, np.pi, 3)
    s = 3.7
    scaled = kc.unpack_params(
        kc.denormalize_params(kc.pack_params(model), s, model), model)
    pose = kc.forward_kinematics(model, q)
    pose_scaled = kc.forward_kinematics(scaled, q)
    np.testing.assert_allclose(pose_scaled.rotation, pose.rotation, atol=1e-14)
    np.testing.assert_allclose(pose_scaled.translation, s * pose.translation,
                               rtol=1e-12)


def test_scale_equivariance_with_prismatic():
    J = kc.JointKind
    model = kc.KinematicModel(
        kc.Segment(alpha=0.2, joint=J.REVOLUTE),
        (kc.Segment(alpha=0.5, beta=-0.1, joint=J.PRISMATIC),),
        kc.EESegment(0.1, 0.2, 0.3, 0.04, 0.05, 0.06))
    s = 2.5
    q = np.array([0.7, 0.3])
    q_scaled = np.array([0.7, 0.3 * s])  # prismatic value in meters scales too
    scaled = kc.unpack_params(
        kc.denormalize_params(kc.pack_params(model), s, model), model)
    pose = kc.forward_kinematics(model, q)
    pose_scaled = kc.forward_kinematics(scaled, q_scaled)
    np.testing.assert_allclose(pose_scaled.rotation, pose.rotation, atol=1e-14)
    np.testing.assert_allclose(pose_scaled.translation, s * pose.translation,
                               rtol=1e-12)


# --- packing, masking, normalization ------------------------------------------

def test_pack_unpack_roundtrip(rng):
    model = seven_joint_arm()
    assert model.param_count == 34
    v = rng.uniform(-1, 1, 34)
    np.testing.assert_array_equal(kc.pack_params(kc.unpack_params(v, model)), v)
    again = kc.unpack_params(kc.pack_params(model), model)
    assert again == model


def test_seven_joint_calibratable_count():
    model = seven_joint_arm()
    mask = kc.default_mask(model)
    assert len(mask) == 34
    assert mask.free_indices.size == 28
    # base block and first link's (beta, y) are held fixed
    assert not mask.flags[0:4].any()
    assert not mask.flags[5] and not mask.flags[7]
    assert mask.flags[4] and mask.flags[6]


def test_prismatic_mask_zeroes_xy():
    J = kc.JointKind
    model = kc.KinematicModel(
        kc.Segment(joint=J.REVOLUTE),
        (kc.Segment(joint=J.PRISMATIC), kc.Segment(x=0.2, joint=J.REVOLUTE)),
        kc.EESegment())
    mask = kc.default_mask(model)
    # link 1 feeds a prismatic joint: alpha, beta stay, x, y are fixed
    assert mask.flags[4]
    assert not mask.flags[6] and not mask.flags[7]
    assert mask.flags[8:12].all()


def test_unpack_wrong_length():
    with pytest.raises(DimensionError):
        kc.unpack_params(np.zeros(10), seven_joint_arm())


def test_normalize_denormalize(rng):
    model = seven_joint_arm()
    v = rng.uniform(-1, 1, model.param_count)
    np.testing.assert_array_equal(kc.normalize_params(v, 1.0, model), v)

    v2 = kc.pack_params(kc.unpack_params(v, model))
    normed = kc.normalize_params(v2, 2.0, model)
    flags = translation_flags(model)
    np.testing.assert_array_equal(normed[flags], v2[flags] / 2.0)
    np.testing.assert_array_equal(normed[~flags], v2[~flags])

    roundtrip = kc.denormalize_params(kc.normalize_params(v, 3.7, model),
                                      3.7, model)
    assert np.max(np.abs(roundtrip - v)) < 1e-12
    with pytest.raises(InvalidParameterError):
        kc.normalize_params(v, 0.0, model)


def test_mask_length_checked():
    with pytest.raises(DimensionError):
        kc.ParamMask(np.ones(5, dtype=bool)).check(seven_joint_arm())


# --- batched chain kernel -----------------------------------------------------

def kernel_models(rng):
    return [random_model(rng, links=2), prismatic_model(rng),
            joint_free_model(rng)]


def test_chain_poses_equal_segment_product(rng):
    for model in kernel_models(rng):
        q = rng.uniform(-np.pi, np.pi, (5, model.joint_count))
        poses = kc.chain_poses(model, q)
        assert poses.shape == (5, 4, 4)
        for pose, joints in zip(poses, q):
            np.testing.assert_allclose(pose, segment_product(model, joints),
                                       atol=1e-13)


def test_chain_derivatives_match_finite_differences(rng):
    for model in kernel_models(rng):
        q = rng.uniform(-np.pi, np.pi, (5, model.joint_count))
        # x, y of a segment feeding a prismatic joint must stay zero
        flags = np.ones(model.param_count, dtype=bool)
        for i, seg in enumerate((model.base, *model.links)):
            if seg.joint is kc.JointKind.PRISMATIC:
                flags[4 * i + 2:4 * i + 4] = False
        free = np.flatnonzero(flags)
        deriv = kc.chain_derivatives(model, q, free)
        assert deriv.shape == (5, free.size, 4, 4)
        v = kc.pack_params(model)
        h = 1e-7
        for col, p in enumerate(free):
            vp, vm = v.copy(), v.copy()
            vp[p] += h
            vm[p] -= h
            fd = (kc.chain_poses(kc.unpack_params(vp, model), q)
                  - kc.chain_poses(kc.unpack_params(vm, model), q)) / (2 * h)
            np.testing.assert_allclose(deriv[:, col], fd, atol=1e-6)


# --- model file I/O -----------------------------------------------------------

def test_model_file_roundtrip(tmp_path, rng):
    model = kc.unpack_params(rng.uniform(-1, 1, 34), seven_joint_arm())
    mask = kc.default_mask(model)
    path = tmp_path / "model.txt"
    kc.save_model(model, mask, path)
    loaded, loaded_mask = kc.load_model(path)
    assert loaded == model
    np.testing.assert_array_equal(loaded_mask.flags, mask.flags)


def test_model_file_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ParseError):
        kc.load_model(path)
    path.write_text("mcpc v1\nbase revolute 0 0 0 0 1 1\nee 0 0 0 0 0 0 1 1 1 1 1 1\n")
    with pytest.raises(ParseError, match=":2:"):
        kc.load_model(path)
    path.write_text("mcpc v1\nbase banana 0 0 0 0 1 1 1 1\nee 0 0 0 0 0 0 1 1 1 1 1 1\n")
    with pytest.raises(ParseError, match="banana"):
        kc.load_model(path)


MODEL_BASE = "base revolute 0 0 0 0 1 0 1 0"
MODEL_SEG = "seg revolute 0 0 0 0 0 0 0 0"
MODEL_EE = "ee 0 0 0 0 0 0 0 0 0 0 0 0"


def write_model_lines(path, *lines):
    path.write_text("\n".join(["mcpc v1", *lines]) + "\n")


def test_model_file_lines_run_base_seg_ee(tmp_path):
    path = tmp_path / "model.txt"
    write_model_lines(path, MODEL_BASE, MODEL_SEG, MODEL_EE)
    _, mask = kc.load_model(path)
    np.testing.assert_array_equal(mask.flags[:8], [1, 0, 1, 0, 0, 0, 0, 0])
    # (lines, line number of the first one out of order)
    for lines, lineno in [((MODEL_SEG, MODEL_BASE, MODEL_EE), 2),
                          ((MODEL_BASE, MODEL_EE, MODEL_SEG), 4),
                          ((MODEL_BASE, MODEL_SEG, MODEL_EE, MODEL_EE), 5),
                          ((MODEL_BASE, MODEL_BASE, MODEL_EE), 3)]:
        write_model_lines(path, *lines)
        with pytest.raises(ParseError, match=f"model.txt:{lineno}: unexpected"):
            kc.load_model(path)


@pytest.mark.parametrize("base, seg", [
    (MODEL_BASE, "seg none 0 0 0 0 0 0 0 0"),
    ("base none 0 0 0 0 1 0 1 0", MODEL_SEG),
])
def test_seg_lines_need_joints(tmp_path, base, seg):
    path = tmp_path / "model.txt"
    write_model_lines(path, base, seg, MODEL_EE)
    with pytest.raises(ParseError, match="model.txt:3: a seg line needs a joint"):
        kc.load_model(path)


@pytest.mark.parametrize("bit", ["7", "-1", "1.0", "01"])
def test_model_mask_bits_are_0_or_1(tmp_path, bit):
    path = tmp_path / "model.txt"
    write_model_lines(path, MODEL_BASE, f"seg revolute 0 0 0 0 0 {bit} 0 0", MODEL_EE)
    with pytest.raises(ParseError, match=f"model.txt:3: flag must be 0 or 1, got '{bit}'"):
        kc.load_model(path)
