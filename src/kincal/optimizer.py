"""Point-to-plane bundle-adjustment cost, masked LM solve, and the outer
ICP-style calibration loop.

Each outer iteration re-projects, re-filters and re-matches all datasets
with the current parameters, then runs a damped least-squares solve over
the masked-in parameters with the correspondences and normals frozen.
Everything inside the solve happens in normalized units (translations
divided by the scene scale s); the stop criterion and the returned model
are denormalized.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import FrameTable, ScanDataset, project_to_base
from .errors import (ConfigurationError, MatchingFailure, SingularSystemError)
from .geomfilter import compute_scale, filter_cloud
from .kincore import (JointKind, KinematicModel, ParamMask, chain_derivatives,
                      chain_poses, default_mask, denormalize_params,
                      forward_kinematics, normalize_params, pack_params,
                      unpack_params)
from .matching import MatchSet, match_all, validate_matches


@dataclass(frozen=True)
class CalibrationConfig:
    """Filter, validation, solver and stop parameters.

    Defaults follow the Kinect-class depth camera row of the sensor
    parameter table; d_max is in meters and divided by the scene scale
    once before matching normalized clouds.
    """

    n: int = 2
    m: int = 2
    g_min: float = 0.75
    d_max: float = 0.020
    f_min: float = 0.80
    epsilon: float = 1e-4
    i_max: int = 50
    mask: ParamMask | None = None
    # inner LM solve
    lm_lambda0: float = 1e-4
    lm_max_iterations: int = 25
    lm_gradient_tol: float = 1e-10

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        if self.i_max < 1:
            raise ConfigurationError("i_max must be at least 1")
        if not 0.0 <= self.g_min <= 1.0:
            raise ConfigurationError("g_min must lie in [0, 1]")
        if self.d_max <= 0.0:
            raise ConfigurationError("d_max must be positive")
        if not -1.0 <= self.f_min <= 1.0:
            raise ConfigurationError("f_min must lie in [-1, 1]")


@dataclass(frozen=True)
class IterationStats:
    cost: float
    match_count: int
    delta_k: float
    inner_costs: tuple[float, ...]


@dataclass(frozen=True)
class CalibrationReport:
    final_model: KinematicModel
    scale: float
    converged: bool
    iterations: tuple[IterationStats, ...]
    wall_time: float


# --- residuals over frozen correspondences ----------------------------------

@dataclass
class CorrespondenceSet:
    """Frozen matches: raw sensor-frame endpoints, joint frames, normals.

    Endpoints reference one of ``frame_joints`` rows; frames flagged
    frozen keep the fixed transform in ``frozen_transforms`` instead of
    being re-evaluated from the candidate model (used to anchor the
    reference cloud in the joint-free rigid subcase).
    """

    points_a: np.ndarray   # (N, 4) homogeneous sensor-frame points
    points_b: np.ndarray   # (N, 4)
    frame_a: np.ndarray    # (N,) index into frame_joints
    frame_b: np.ndarray    # (N,)
    normals: np.ndarray    # (N, 3) frozen normals of the first endpoint
    frame_joints: np.ndarray        # (F, J)
    frame_frozen: np.ndarray        # (F,) bool
    frozen_transforms: np.ndarray   # (F, 4, 4); identity where not frozen

    def __len__(self) -> int:
        return self.points_a.shape[0]

    def frame_transforms(self, model: KinematicModel) -> np.ndarray:
        out = chain_poses(model, self.frame_joints)
        out[self.frame_frozen] = self.frozen_transforms[self.frame_frozen]
        return out

    def residuals(self, model: KinematicModel,
                  transforms: np.ndarray | None = None) -> np.ndarray:
        if transforms is None:
            transforms = self.frame_transforms(model)
        proj_a = np.einsum("nij,nj->ni",
                           transforms[self.frame_a][:, :3, :], self.points_a)
        proj_b = np.einsum("nij,nj->ni",
                           transforms[self.frame_b][:, :3, :], self.points_b)
        return np.einsum("nk,nk->n", proj_a - proj_b, self.normals)

    def jacobian(self, model: KinematicModel, free_indices) -> np.ndarray:
        """Analytic d residual / d k over the masked-in packed indices."""
        free_indices = np.asarray(free_indices, dtype=int)
        frame_count = self.frame_joints.shape[0]
        deriv = chain_derivatives(model, self.frame_joints, free_indices)
        deriv = deriv[:, :, :3, :].reshape(frame_count, free_indices.size, 12)
        jac = np.zeros((len(self), free_indices.size))
        for frame, points, sign in ((self.frame_a, self.points_a, 1.0),
                                    (self.frame_b, self.points_b, -1.0)):
            # rows sorted by frame: each frame owns one contiguous block
            order = np.argsort(frame, kind="stable")
            bounds = np.searchsorted(frame, np.arange(frame_count + 1),
                                     sorter=order)
            moving = (np.diff(bounds) > 0) & ~self.frame_frozen
            for f in np.flatnonzero(moving):
                rows = order[bounds[f]:bounds[f + 1]]
                # d r / d T[i, j] = normal[i] * point[j] for the row's frame
                outer = np.einsum("ni,nj->nij", self.normals[rows], points[rows])
                jac[rows] += outer.reshape(-1, 12) @ (sign * deriv[f]).T
        return jac


def residual(model: KinematicModel, point_a, joints_a, point_b, joints_b,
             normal) -> float:
    """Signed point-to-plane distance of one re-projected match."""
    proj_a = forward_kinematics(model, joints_a).apply(np.asarray(point_a, dtype=float))
    proj_b = forward_kinematics(model, joints_b).apply(np.asarray(point_b, dtype=float))
    return float((proj_a - proj_b) @ np.asarray(normal, dtype=float))


def total_error(corr: CorrespondenceSet, model: KinematicModel) -> float:
    """Sum of squared residuals; normal signs are immaterial."""
    if len(corr) == 0:
        warnings.warn("empty match set: total error is trivially zero",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    res = corr.residuals(model)
    return float(res @ res)


def build_correspondences(ms: MatchSet, datasets: dict,
                          anchor_models: dict | None = None) -> CorrespondenceSet:
    """Resolve a validated MatchSet against the raw datasets.

    ``datasets`` maps dataset id to the (normalized) ScanDataset.
    ``anchor_models`` maps dataset ids whose pose is held fixed to the
    model whose chain poses, evaluated once here, hold them.  Each
    endpoint's raw point and frame id are gathered through its cell in
    the datasets' grids stacked in id order.  Frames are the (dataset,
    frame id) pairs of the datasets' frame tables that some endpoint
    uses; the frames of anchored datasets are frozen.
    """
    anchor_models = anchor_models or {}
    ids = sorted(datasets)
    grids = [datasets[ds_id] for ds_id in ids]
    tables = [ds.frames.joints for ds in grids]
    frame_offsets = np.cumsum([0] + [len(table) for table in tables])
    cell_offsets = np.cumsum([0] + [ds.valid.size for ds in grids])
    # homogeneous raw point and frame of every grid cell; invalid cells
    # read frame offset - 1, but no stacked point lies on one
    raw_points = np.ones((cell_offsets[-1], 4))
    raw_points[:, :3] = np.concatenate([ds.points.reshape(-1, 3) for ds in grids])
    cell_frames = np.concatenate([offset + ds.frames.ids.ravel()
                                  for offset, ds in zip(frame_offsets, grids)])
    grid_of = np.searchsorted(ids, ms.dataset)
    widths = np.array([ds.cols for ds in grids])
    cell = cell_offsets[grid_of] + ms.rows * widths[grid_of] + ms.cols
    cell_a, cell_b = cell[ms.a], cell[ms.b]
    frame_a, frame_b = cell_frames[cell_a], cell_frames[cell_b]

    # keep the frames some endpoint uses, in (dataset, frame id) order
    used = np.zeros(frame_offsets[-1], dtype=bool)
    used[frame_a] = used[frame_b] = True
    renumber = np.cumsum(used) - 1
    owner = np.repeat(ids, np.diff(frame_offsets))[used]
    frame_joints = np.concatenate(tables)[used]
    frozen_transforms = np.broadcast_to(np.eye(4), (len(owner), 4, 4)).copy()
    for ds_id, anchor in anchor_models.items():
        mine = slice(*np.searchsorted(owner, [ds_id, ds_id + 1]))
        frozen_transforms[mine] = chain_poses(anchor, frame_joints[mine])

    return CorrespondenceSet(raw_points[cell_a], raw_points[cell_b],
                             renumber[frame_a], renumber[frame_b],
                             ms.normals[ms.a], frame_joints,
                             np.isin(owner, list(anchor_models)),
                             frozen_transforms)


# --- masked Levenberg-Marquardt ----------------------------------------------

@dataclass(frozen=True)
class LMResult:
    model: KinematicModel
    accepted_costs: tuple[float, ...]
    updated: bool


def lm_minimize(corr: CorrespondenceSet, model: KinematicModel,
                mask: ParamMask, lambda0: float = 1e-4,
                max_iterations: int = 25,
                gradient_tol: float = 1e-10) -> LMResult:
    """Minimize the total error over masked-in parameters only.

    Masked-out scalars are bit-identical in the returned model; accepted
    damping steps never increase the cost.
    """
    mask.check(model)
    free = mask.free_indices
    if free.size == 0:
        return LMResult(model, (total_error(corr, model),), updated=False)
    if len(corr) < free.size:
        raise ConfigurationError(
            f"{len(corr)} residuals cannot constrain {free.size} free parameters"
        )

    params = pack_params(model)
    current = model
    res = corr.residuals(current)
    cost = float(res @ res)
    accepted = [cost]
    lam = lambda0
    jac = None

    for _ in range(max_iterations):
        if jac is None:
            jac = corr.jacobian(current, free)
            col_norms = np.linalg.norm(jac, axis=0)
            dead = np.flatnonzero(col_norms <= 1e-14 * max(col_norms.max(), 1.0))
            if dead.size:
                raise SingularSystemError(
                    "residuals do not constrain packed parameter indices "
                    f"{[int(free[d]) for d in dead]}",
                    indices=(int(free[d]) for d in dead),
                )
            gram = jac.T @ jac
            grad = jac.T @ res
        if np.max(np.abs(grad)) < gradient_tol:
            break

        stepped = False
        while lam < 1e12:
            try:
                delta = np.linalg.solve(gram + lam * np.eye(free.size), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial_params = params.copy()
            trial_params[free] += delta
            trial = unpack_params(trial_params, current)
            trial_res = corr.residuals(trial)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost < cost:
                params = trial_params
                current = trial
                res = trial_res
                cost = trial_cost
                accepted.append(cost)
                lam = max(lam / 10.0, 1e-12)
                jac = None
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break

    # re-assemble through unpack so masked-out scalars come from the original
    final_params = pack_params(model)
    final_params[free] = params[free]
    final = unpack_params(final_params, model)
    return LMResult(final, tuple(accepted), updated=len(accepted) > 1)


# --- outer loop ---------------------------------------------------------------

def _normalize_dataset(ds: ScanDataset, s: float,
                       prismatic: np.ndarray) -> ScanDataset:
    joints = ds.joints.copy()
    frame_joints = ds.frames.joints.copy()
    if prismatic.any():
        joints[..., prismatic] /= s
        frame_joints[:, prismatic] /= s
    return ScanDataset(ds.kind, ds.points / s, ds.valid, joints,
                       FrameTable(ds.frames.ids, frame_joints))


def calibrate(datasets, k_init: KinematicModel,
              cfg: CalibrationConfig | None = None) -> CalibrationReport:
    """Estimate the kinematic parameters from two or more scan datasets.

    Runs the outer loop: project -> filter -> match -> validate -> solve,
    until the denormalized parameter change drops below cfg.epsilon
    (max-abs norm) or cfg.i_max iterations are reached.

    A joint-free model cannot move between scans, so in that rigid
    subcase the first dataset is anchored at the initial model and the
    terminal segment aligns the remaining scans to it; this degenerates
    to classic point-to-plane registration.
    """
    start = time.perf_counter()
    cfg = cfg or CalibrationConfig()
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ConfigurationError("calibration needs at least two datasets")
    for ds in datasets:
        if ds.joint_count != k_init.joint_count:
            raise ConfigurationError(
                f"dataset joint arity {ds.joint_count} does not match the model"
            )
    mask = cfg.mask if cfg.mask is not None else default_mask(k_init)
    mask.check(k_init)

    # scale from the initial projection; frozen for the whole run
    first = project_to_base(datasets[0], k_init)
    if not np.any(first.valid):
        raise ConfigurationError("no valid points available to compute the scale")
    s = compute_scale(first)
    if s <= 0.0:
        raise ConfigurationError("degenerate scene: scale is zero")

    prismatic = np.array([k is JointKind.PRISMATIC for k in k_init.joint_kinds],
                         dtype=bool)
    datasets_hat = [_normalize_dataset(ds, s, prismatic) for ds in datasets]
    d_max_hat = cfg.d_max / s

    template = k_init
    k_hat = unpack_params(normalize_params(pack_params(k_init), s, template),
                          template)

    anchors = {0: k_hat} if k_init.joint_count == 0 else {}

    prev_denorm = denormalize_params(pack_params(k_hat), s, template)
    iterations = []
    converged = False

    for _ in range(cfg.i_max):
        candidates = match_all(
            (filter_cloud(project_to_base(ds, anchors.get(ds_id, k_hat)),
                          cfg.n, cfg.m, cfg.g_min, dataset_id=ds_id)
             for ds_id, ds in enumerate(datasets_hat)), d_max_hat)
        matches = validate_matches(candidates, d_max_hat, cfg.f_min)
        if len(matches) == 0:
            counts = candidates.pair_counts()
            raise MatchingFailure(
                "no validated matches in this iteration; candidate counts per "
                f"dataset pair: {counts}", pair_counts=counts)

        corr = build_correspondences(matches, dict(enumerate(datasets_hat)),
                                     anchor_models=anchors)
        result = lm_minimize(corr, k_hat, mask, lambda0=cfg.lm_lambda0,
                             max_iterations=cfg.lm_max_iterations,
                             gradient_tol=cfg.lm_gradient_tol)
        k_hat = result.model

        denorm = denormalize_params(pack_params(k_hat), s, template)
        delta = float(np.max(np.abs(denorm - prev_denorm)))
        prev_denorm = denorm
        iterations.append(IterationStats(cost=result.accepted_costs[-1],
                                         match_count=len(matches),
                                         delta_k=delta,
                                         inner_costs=result.accepted_costs))
        if delta <= cfg.epsilon:
            converged = True
            break

    final = unpack_params(prev_denorm, template)
    # masked-out scalars must survive bit-exactly
    final_params = pack_params(k_init)
    final_params[mask.free_indices] = pack_params(final)[mask.free_indices]
    final = unpack_params(final_params, template)
    return CalibrationReport(final_model=final, scale=s, converged=converged,
                             iterations=tuple(iterations),
                             wall_time=time.perf_counter() - start)
