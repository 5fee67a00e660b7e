"""Run metrics and direct constraint checking against raw scenario geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..basis import Trajectory
from ..geometry import Obstacles, scaled_sq_norm
from .scenarios import Scenario, predict_obstacles


@dataclass
class RunMetrics:
    smoothness: float
    tracking: float
    arc_length: float
    success: bool
    iters: int
    residual_final: float
    min_clearance: float
    wall_time_ms: float


def eval_metrics(
    trajectory: Trajectory, scenario: Scenario, desired: np.ndarray | None = None, t_now: float = 0.0
) -> RunMetrics:
    """Smoothness / tracking / arc-length / clearance metrics of a sampled trajectory.

    The clearance is taken against the obstacles predicted from time t_now
    on, as for clearance_lower_bound.  Solver-specific fields (success,
    iters, residual, wall time) are filled by the runner; they default to
    zero here.
    """
    acc = trajectory.acc
    smoothness = float(np.sum(acc**2))
    if desired is None:
        tracking = 0.0
    else:
        desired = np.asarray(desired, dtype=float)
        tracking = float(np.sum((trajectory.pos - desired) ** 2))
    seg = np.diff(trajectory.pos, axis=0)
    arc_length = float(np.sum(np.linalg.norm(seg, axis=1)))
    min_clear = clearance_lower_bound(trajectory, scenario, t_now)
    return RunMetrics(
        smoothness=smoothness,
        tracking=tracking,
        arc_length=arc_length,
        success=False,
        iters=0,
        residual_final=0.0,
        min_clearance=min_clear,
        wall_time_ms=0.0,
    )


def _scaled_distances(trajectory: Trajectory, obstacles: Obstacles) -> np.ndarray:
    """Ellipsoidal distance (1 on the boundary) per obstacle and sample of
    the obstacles predicted on the trajectory's grid."""
    deltas = trajectory.pos.T[:, None, :] - obstacles.centres
    return np.sqrt(scaled_sq_norm(deltas, obstacles.a[:, None], obstacles.b[:, None]))


def check_collision_free(trajectory: Trajectory, scenario: Scenario, margin: float = 0.0) -> tuple[bool, float]:
    """Direct evaluation of the raw quadratic separation constraints.

    margin is expressed on the scaled-distance axis: every sample must have
    ellipsoidal distance >= 1 + margin.  Returns (ok, worst_violation) where
    worst_violation > 0 quantifies the deepest incursion (negative values
    mean slack).
    """
    if not scenario.obstacles:
        return True, -math.inf
    dists = _scaled_distances(trajectory, predict_obstacles(scenario, trajectory.t))
    worst = float(np.max(1.0 + margin - dists))
    return worst <= 0.0, worst


def clearance_lower_bound(trajectory: Trajectory, scenario: Scenario, t_now: float = 0.0) -> float:
    """Conservative metric clearance in meters.

    (scaled distance - 1) * min(a, b) is exact for spheres and a lower bound
    for ellipsoids; returns +inf with no obstacles.  The trajectory starts
    at time t_now of the obstacles' motion.
    """
    if not scenario.obstacles:
        return math.inf
    obstacles = predict_obstacles(scenario, trajectory.t, t_now)
    semi = np.minimum(obstacles.a, obstacles.b)[:, None]
    return float(np.min((_scaled_distances(trajectory, obstacles) - 1.0) * semi))
