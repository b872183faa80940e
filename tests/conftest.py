import numpy as np
import pytest

import kincal as kc


def seven_joint_arm() -> kc.KinematicModel:
    """7R chain with link geometry of a typical collaborative arm."""
    J = kc.JointKind.REVOLUTE
    return kc.KinematicModel(
        kc.Segment(joint=J),
        (
            kc.Segment(alpha=np.pi / 2, joint=J),
            kc.Segment(alpha=-np.pi / 2, x=0.42, joint=J),
            kc.Segment(alpha=-np.pi / 2, joint=J),
            kc.Segment(alpha=np.pi / 2, x=0.40, joint=J),
            kc.Segment(alpha=np.pi / 2, joint=J),
            kc.Segment(alpha=-np.pi / 2, joint=J),
        ),
        kc.EESegment(z=0.1),
    )


def planar_2r(l1: float, l2: float) -> kc.KinematicModel:
    J = kc.JointKind.REVOLUTE
    return kc.KinematicModel(
        kc.Segment(joint=J),
        (kc.Segment(x=l1, joint=J),),
        kc.EESegment(x=l2),
    )


def random_model(rng, links: int = 2) -> kc.KinematicModel:
    J = kc.JointKind.REVOLUTE
    def seg():
        a, b, x, y = rng.uniform(-1.0, 1.0, 4)
        return kc.Segment(alpha=a, beta=b, x=x, y=y, joint=J)
    ee_vals = rng.uniform(-1.0, 1.0, 6)
    return kc.KinematicModel(seg(), tuple(seg() for _ in range(links)),
                             kc.EESegment(*ee_vals))


def prismatic_model(rng) -> kc.KinematicModel:
    """R-P-R chain; the segment feeding the prismatic joint keeps x = y = 0."""
    J = kc.JointKind
    a, b = rng.uniform(-1.0, 1.0, 2)
    return kc.KinematicModel(
        kc.Segment(*rng.uniform(-1.0, 1.0, 4), joint=J.REVOLUTE),
        (kc.Segment(alpha=a, beta=b, joint=J.PRISMATIC),
         kc.Segment(*rng.uniform(-1.0, 1.0, 4), joint=J.REVOLUTE)),
        kc.EESegment(*rng.uniform(-1.0, 1.0, 6)))


def joint_free_model(rng) -> kc.KinematicModel:
    return kc.KinematicModel(kc.Segment(*rng.uniform(-1.0, 1.0, 4)), (),
                             kc.EESegment(*rng.uniform(-1.0, 1.0, 6)))


def segment_product(model: kc.KinematicModel, q) -> np.ndarray:
    """Reference pose: the per-segment transforms multiplied in chain order."""
    pose = np.eye(4)
    joints = iter(q)
    for seg in (model.base, *model.links):
        pose = pose @ kc.static_segment_transform(seg).matrix
        if seg.joint is not None:
            pose = pose @ kc.joint_transform(seg.joint, next(joints)).matrix
    return pose @ kc.ee_segment_transform(model.ee).matrix


def assert_exact_frame_table(ds):
    """Ids are -1 exactly on invalid cells, and each table row is bit-equal
    to the joint vector of every cell that refers to it."""
    ids, rows = ds.frames
    np.testing.assert_array_equal(ids == -1, ~ds.valid)
    assert np.all(ids[ds.valid] >= 0)
    np.testing.assert_array_equal(rows[ids[ds.valid]], ds.joints[ds.valid])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
