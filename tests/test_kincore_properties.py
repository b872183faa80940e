"""Property tests of the batched chain kernel over random chains."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import kincal as kc
from kincal.errors import DimensionError, InvalidParameterError

from conftest import segment_product

VALUES = st.floats(min_value=-3.0, max_value=3.0)


@st.composite
def models(draw):
    """Chains of 0-3 links with mixed joint kinds; joint-free when the
    base carries no joint."""
    links = draw(st.integers(0, 3))
    kinds = st.sampled_from(list(kc.JointKind))
    if links == 0 and draw(st.booleans()):
        kinds = st.none()

    def segment():
        kind = draw(kinds)
        alpha, beta, x, y = (draw(VALUES) for _ in range(4))
        if kind is kc.JointKind.PRISMATIC:
            x = y = 0.0
        return kc.Segment(alpha, beta, x, y, joint=kind)

    base = segment()
    return kc.KinematicModel(base, tuple(segment() for _ in range(links)),
                             kc.EESegment(*(draw(VALUES) for _ in range(6))))


@st.composite
def models_and_joints(draw):
    model = draw(models())
    frames = draw(st.integers(1, 5))
    joints = draw(hnp.arrays(float, (frames, model.joint_count),
                             elements=VALUES))
    return model, joints


@settings(deadline=None)
@given(models_and_joints())
def test_chain_poses_equal_segment_product(case):
    model, joints = case
    poses = kc.chain_poses(model, joints)
    assert poses.shape == (joints.shape[0], 4, 4)
    for pose, q in zip(poses, joints):
        np.testing.assert_allclose(pose, segment_product(model, q), atol=1e-12)


@settings(deadline=None)
@given(models_and_joints())
def test_chain_derivatives_batch_equals_single_frames(case):
    model, joints = case
    free = np.arange(model.param_count)
    batch = kc.chain_derivatives(model, joints, free)
    for deriv, q in zip(batch, joints):
        np.testing.assert_array_equal(
            deriv, kc.chain_derivatives(model, q[None], free)[0])


@settings(deadline=None)
@given(models_and_joints(), st.data(),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_joint_rejected(case, data, bad):
    model, joints = case
    assume(model.joint_count > 0)
    frame = data.draw(st.integers(0, joints.shape[0] - 1))
    joint = data.draw(st.integers(0, model.joint_count - 1))
    joints = joints.copy()
    joints[frame, joint] = bad
    with pytest.raises(InvalidParameterError):
        kc.chain_poses(model, joints)
    with pytest.raises(InvalidParameterError):
        kc.chain_derivatives(model, joints, [model.param_count - 1])


@settings(deadline=None)
@given(models_and_joints(), st.sampled_from([-1, 1]))
def test_wrong_arity_rejected(case, change):
    model, joints = case
    assume(model.joint_count + change >= 0)
    wrong = np.zeros((joints.shape[0], model.joint_count + change))
    with pytest.raises(DimensionError):
        kc.chain_poses(model, wrong)
    with pytest.raises(DimensionError):
        kc.chain_derivatives(model, wrong, [0])
    with pytest.raises(DimensionError):
        kc.chain_poses(model, joints[0])
