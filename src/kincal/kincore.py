"""Kinematic chain model: segments, the batched chain kernel, parameter packing.

The chain alternates static segments and joints::

    T = st(base) * jt(q_1) * st(link_1) * ... * jt(q_n) * st(ee)

Each static segment between two joints carries four scalars
(alpha, beta, x, y); the terminal segment additionally carries gamma and
z.  Every joint moves along the local z axis: revolute joints rotate
about it, prismatic joints translate along it.

The packed parameter vector is laid out base-to-tip, per segment
(alpha, beta, x, y), with the terminal segment packed as
(alpha, beta, gamma, x, y, z).  This order is also the on-disk order of
the model file.

``chain_poses`` and ``chain_derivatives`` (also bound as
``transform_and_derivatives``) are the only chain evaluators.
Both take a (frames, joint_count) batch of joint vectors and return the
poses, or their derivatives by packed parameters, of every frame at once;
``forward_kinematics`` is ``chain_poses`` for a single frame.  The
per-segment transforms are scalar reference forms of the same factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import textio
from .errors import DimensionError, InvalidParameterError, ParseError
from .transforms import RigidTransform, rot_x, rot_y, rot_z


class JointKind(enum.Enum):
    REVOLUTE = "revolute"
    PRISMATIC = "prismatic"


@dataclass(frozen=True)
class Segment:
    """Static segment; ``joint`` is the joint following it (None = terminal)."""

    alpha: float = 0.0
    beta: float = 0.0
    x: float = 0.0
    y: float = 0.0
    joint: JointKind | None = None

    def __post_init__(self):
        for name in ("alpha", "beta", "x", "y"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidParameterError(f"segment {name} must be finite")
        if self.joint is JointKind.PRISMATIC and (self.x != 0.0 or self.y != 0.0):
            raise InvalidParameterError(
                "segment followed by a prismatic joint must have x = y = 0"
            )

    @property
    def params(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.x, self.y])


@dataclass(frozen=True)
class EESegment:
    """Terminal segment with the two extra degrees of freedom gamma and z."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "x", "y", "z"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"EE segment {name} must be finite")

    @property
    def params(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.x, self.y, self.z])


@dataclass(frozen=True)
class KinematicModel:
    """Ordered chain: base segment, inner link segments, terminal segment.

    ``base.joint`` is the kind of joint 1; ``links[i].joint`` the kind of
    joint i+2.  A model with no joints has ``base.joint is None`` and an
    empty ``links`` tuple.
    """

    base: Segment
    links: tuple[Segment, ...]
    ee: EESegment

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if self.links and self.base.joint is None:
            raise InvalidParameterError("base segment must carry a joint when links exist")
        # only the EE segment is joint-free
        for i, link in enumerate(self.links):
            if link.joint is None:
                raise InvalidParameterError(f"link {i} is missing its joint")

    @property
    def joint_count(self) -> int:
        count = 1 if self.base.joint is not None else 0
        return count + sum(1 for link in self.links if link.joint is not None)

    @property
    def joint_kinds(self) -> tuple[JointKind, ...]:
        kinds = []
        if self.base.joint is not None:
            kinds.append(self.base.joint)
        kinds.extend(link.joint for link in self.links if link.joint is not None)
        return tuple(kinds)

    @property
    def param_count(self) -> int:
        return 4 * (1 + len(self.links)) + 6


@dataclass(frozen=True)
class ParamMask:
    """Per-scalar optimization flags over the packed parameter vector."""

    flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=bool))

    def check(self, model: KinematicModel):
        if self.flags.shape != (model.param_count,):
            raise DimensionError(
                f"mask length {self.flags.size} != parameter count {model.param_count}"
            )

    @property
    def free_indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    def __len__(self) -> int:
        return self.flags.size


def default_mask(model: KinematicModel) -> ParamMask:
    """All parameters free except the base segment, (beta, y) of the first
    link, and (x, y) of segments feeding prismatic joints."""
    flags = np.ones(model.param_count, dtype=bool)
    flags[0:4] = False
    if model.links:
        offset = 4  # first link starts after the base block
        flags[offset + 1] = False  # beta
        flags[offset + 3] = False  # y
    for i, seg in enumerate([model.base, *model.links]):
        if seg.joint is JointKind.PRISMATIC:
            flags[4 * i + 2] = False
            flags[4 * i + 3] = False
    return ParamMask(flags)


def check_joints(model: KinematicModel, joints) -> np.ndarray:
    """Validate a (frames, joint_count) batch of joint vectors."""
    try:
        joints = np.asarray(joints, dtype=float)
    except ValueError:  # rows of different lengths
        raise DimensionError("joint vectors differ in length") from None
    if joints.ndim != 2 or joints.shape[1] != model.joint_count:
        raise DimensionError(
            f"joint batch shape {joints.shape} != (frames, {model.joint_count})"
        )
    if not np.all(np.isfinite(joints)):
        raise InvalidParameterError("joint vector contains non-finite values")
    return joints


# --- elementary transforms -------------------------------------------------

def static_segment_transform(seg: Segment) -> RigidTransform:
    """rot_x(alpha) * rot_y(beta) * trans(x, y, 0)."""
    rotation = rot_x(seg.alpha) @ rot_y(seg.beta)
    return RigidTransform(rotation, rotation @ np.array([seg.x, seg.y, 0.0]),
                          _skip_checks=True)


def ee_segment_transform(ee: EESegment) -> RigidTransform:
    """rot_x(alpha) * rot_y(beta) * rot_z(gamma) * trans(x, y, z)."""
    rotation = rot_x(ee.alpha) @ rot_y(ee.beta) @ rot_z(ee.gamma)
    return RigidTransform(rotation, rotation @ np.array([ee.x, ee.y, ee.z]),
                          _skip_checks=True)


def joint_transform(kind: JointKind, q: float) -> RigidTransform:
    if not np.isfinite(q):
        raise InvalidParameterError("joint position must be finite")
    if kind is JointKind.REVOLUTE:
        return RigidTransform(rot_z(q), np.zeros(3), _skip_checks=True)
    if kind is JointKind.PRISMATIC:
        return RigidTransform(np.eye(3), np.array([0.0, 0.0, q]), _skip_checks=True)
    raise InvalidParameterError(f"unknown joint kind {kind!r}")


# --- batched chain kernel ----------------------------------------------------
#
# The chain is a product of elementary factors exp(v G), one per packed
# parameter and one per joint, where G generates a rotation about or a
# translation along the local x, y or z axis.  Since d/dv exp(v G) =
# exp(v G) G, the derivative by the parameter of factor i is
# prefix[i + 1] @ G @ suffix[i + 1] in terms of the partial products.

_RX, _RY, _RZ, _TX, _TY, _TZ = range(6)
_SEGMENT_AXES = (_RX, _RY, _TX, _TY)            # packed (alpha, beta, x, y)
_EE_AXES = (_RX, _RY, _RZ, _TX, _TY, _TZ)       # (alpha, beta, gamma, x, y, z)
_JOINT_AXES = {JointKind.REVOLUTE: _RZ, JointKind.PRISMATIC: _TZ}

_GENERATORS = np.zeros((6, 4, 4))
for _axis, (_i, _j) in enumerate(((1, 2), (2, 0), (0, 1))):
    _GENERATORS[_axis, _j, _i] = 1.0
    _GENERATORS[_axis, _i, _j] = -1.0
    _GENERATORS[3 + _axis, _axis, 3] = 1.0
_GENERATORS_SQ = _GENERATORS @ _GENERATORS


def _elementary(axes, values) -> np.ndarray:
    """exp(v G) for G = _GENERATORS[axes], broadcast over ``values``.

    Rodrigues' formula I + sin(v) G + (1 - cos v) G^2 for rotations; a
    translation generator squares to zero, so I + v G for those.
    """
    axes = np.asarray(axes, dtype=int)
    first = np.where(axes < 3, np.sin(values), values)[..., None, None]
    second = (1.0 - np.cos(values))[..., None, None]
    return np.eye(4) + first * _GENERATORS[axes] + second * _GENERATORS_SQ[axes]


def _factors(model: KinematicModel, joints: np.ndarray):
    """Elementary factors base to tip as (axis, packed index, matrix) for
    checked ``joints``.

    Parameter factors are (4, 4); joint factors are (F, 4, 4), built as
    they are reached, and carry the packed index None.
    """
    param_axes = _SEGMENT_AXES * (1 + len(model.links)) + _EE_AXES
    param_mats = _elementary(param_axes, pack_params(model))
    joint_axes = [_JOINT_AXES[kind] for kind in model.joint_kinds]
    for p, axis in enumerate(param_axes):
        yield axis, p, param_mats[p]
        # joint i follows y, the last scalar of segment i
        i = p // 4
        if p % 4 == 3 and i < len(joint_axes):
            yield joint_axes[i], None, _elementary(joint_axes[i], joints[:, i])


def chain_poses(model: KinematicModel, joints) -> np.ndarray:
    """Terminal (sensor) pose in the base frame for each row of the
    (F, joint_count) ``joints``: an (F, 4, 4) array."""
    joints = check_joints(model, joints)
    pose = np.broadcast_to(np.eye(4), (joints.shape[0], 4, 4))
    for _, _, mat in _factors(model, joints):
        pose = pose @ mat
    return pose


def chain_derivatives(model: KinematicModel, joints, free) -> np.ndarray:
    """Pose derivatives dT/dk by the packed indices ``free`` for each row
    of the (F, joint_count) ``joints``: an (F, len(free), 4, 4) array."""
    joints = check_joints(model, joints)
    factors = list(_factors(model, joints))
    prefix = [np.broadcast_to(np.eye(4), (joints.shape[0], 4, 4))]
    for _, _, mat in factors:
        prefix.append(prefix[-1] @ mat)
    suffix = [np.eye(4)]
    for _, _, mat in reversed(factors):
        suffix.append(mat @ suffix[-1])
    suffix.reverse()
    slot = {p: k for k, (_, p, _) in enumerate(factors) if p is not None}
    free = np.asarray(free, dtype=int)
    out = np.empty((joints.shape[0], free.size, 4, 4))
    for col, p in enumerate(free):
        k = slot[int(p)]
        out[:, col] = prefix[k + 1] @ _GENERATORS[factors[k][0]] @ suffix[k + 1]
    return out


# The benchmark's layer table (bench/tracing.py) times the derivative
# kernel under this name.
transform_and_derivatives = chain_derivatives


def forward_kinematics(model: KinematicModel, joints) -> RigidTransform:
    """Pose of the terminal (sensor) frame in the base frame at one joint
    vector; ``chain_poses`` evaluates a batch."""
    pose = chain_poses(model, np.asarray(joints, dtype=float)[None])[0]
    return RigidTransform(pose[:3, :3], pose[:3, 3], _skip_checks=True)


# --- parameter vector ------------------------------------------------------

def pack_params(model: KinematicModel) -> np.ndarray:
    parts = [model.base.params]
    parts.extend(link.params for link in model.links)
    parts.append(model.ee.params)
    return np.concatenate(parts)


def unpack_params(vector, template: KinematicModel) -> KinematicModel:
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (template.param_count,):
        raise DimensionError(
            f"vector length {vector.shape} != parameter count {template.param_count}"
        )
    base = replace(template.base, alpha=vector[0], beta=vector[1],
                   x=vector[2], y=vector[3])
    links = []
    for i, link in enumerate(template.links):
        o = 4 * (i + 1)
        links.append(replace(link, alpha=vector[o], beta=vector[o + 1],
                             x=vector[o + 2], y=vector[o + 3]))
    o = 4 * (1 + len(template.links))
    ee = EESegment(alpha=vector[o], beta=vector[o + 1], gamma=vector[o + 2],
                   x=vector[o + 3], y=vector[o + 4], z=vector[o + 5])
    return KinematicModel(base, tuple(links), ee)


def translation_flags(template: KinematicModel) -> np.ndarray:
    """True for packed entries holding meters rather than radians."""
    flags = np.zeros(template.param_count, dtype=bool)
    for i in range(1 + len(template.links)):
        flags[4 * i + 2] = True
        flags[4 * i + 3] = True
    flags[-3:] = True
    return flags


def normalize_params(vector, s: float, template: KinematicModel) -> np.ndarray:
    """Divide translation entries by the scale s; angles stay untouched."""
    if not np.isfinite(s) or s <= 0.0:
        raise InvalidParameterError(f"scale must be positive, got {s}")
    vector = np.asarray(vector, dtype=float).copy()
    flags = translation_flags(template)
    vector[flags] /= s
    return vector


def denormalize_params(vector, s: float, template: KinematicModel) -> np.ndarray:
    if not np.isfinite(s) or s <= 0.0:
        raise InvalidParameterError(f"scale must be positive, got {s}")
    vector = np.asarray(vector, dtype=float).copy()
    flags = translation_flags(template)
    vector[flags] *= s
    return vector


# --- model file I/O ---------------------------------------------------------

_HEADER = "mcpc v1"


def save_model(model: KinematicModel, mask: ParamMask, path):
    """Write the model as documented structured text.

    One line per segment, base to tip: ``base|seg <joint-kind> alpha beta
    x y m m m m`` and ``ee alpha beta gamma x y z m m m m m m``.  Angles
    in radians, lengths in meters, mask flags 0/1.
    """
    mask.check(model)
    bits = mask.flags.astype(int).tolist()
    lines = [_HEADER]
    for k, (tag, seg) in enumerate([("base", model.base)]
                                   + [("seg", link) for link in model.links]):
        kind = seg.joint.value if seg.joint is not None else "none"
        flags = " ".join(map(str, bits[4 * k:4 * k + 4]))
        lines.append(f"{tag} {kind} {textio.floats(seg.params)} {flags}")
    flags = " ".join(map(str, bits[-6:]))
    lines.append(f"ee {textio.floats(model.ee.params)} {flags}")
    textio.write_lines(path, lines)


def load_model(path) -> tuple[KinematicModel, ParamMask]:
    """Read a model file; its lines must run base, seg..., ee."""
    base, links, ee, bits = None, [], None, []
    for lineno, tokens in textio.records(path, _HEADER):
        try:
            tag = tokens[0]
            if tag not in ("base", "seg", "ee"):
                raise ValueError(f"unknown line tag {tag!r}")
            if ee is not None or (tag == "base") != (base is None):
                raise ValueError(f"unexpected {tag} line: model lines run "
                                 "base, seg..., ee")
            if tag == "ee":
                textio.expect_fields(tokens, 13)
                ee = EESegment(*map(float, tokens[1:7]))
            else:
                textio.expect_fields(tokens, 10)
                kind = None if tokens[1] == "none" else JointKind(tokens[1])
                if tag == "seg" and None in (kind, base.joint):
                    raise ValueError("a seg line needs a joint, and so does "
                                     "the base line")
                seg = Segment(*map(float, tokens[2:6]), joint=kind)
                if tag == "base":
                    base = seg
                else:
                    links.append(seg)
            bits += [textio.flag(t) for t in tokens[-6 if tag == "ee" else -4:]]
        except (ValueError, IndexError) as exc:
            raise textio.located(path, lineno, exc) from None
    if ee is None:
        raise ParseError(f"{path}: model needs a base line and an ee line")
    return KinematicModel(base, tuple(links), ee), ParamMask(bits)
