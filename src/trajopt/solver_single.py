"""Single-robot trajectory optimization by alternating minimization.

The ellipsoidal separation constraints are rewritten through the polar
equalities from :mod:`trajopt.geometry`, with explicit copy variables for the
sines/cosines of the angles.  All equalities are relaxed into an augmented
Lagrangian and the blocks are swept in order:

    positions (equality-constrained QP, one cached KKT factor for all axes)
    -> angle copies (elementwise quadratics)
    -> angles (arctan2 of the copies)
    -> line-of-sight scales (analytic, clamped at 1)
    -> multiplier ascent

The KKT matrix of the position step is Q + rho_o * n_o * P'P; its size does
not depend on the obstacle count, and the factor is rebuilt only when rho_o
changes.  Works in 2-D (planar ellipses, no beta block) and 3-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import ObstacleTrack, angle2d, angles3d, los_scale, stalled


@dataclass
class SingleProblem:
    basis: BasisSet
    boundary: tuple[AxisBoundary, ...]
    desired: np.ndarray  # (n_p, dim)
    obstacles: list[ObstacleTrack] = field(default_factory=list)
    w_smooth: float = 1.0
    w_track: float = 1.0

    def __post_init__(self):
        self.desired = np.asarray(self.desired, dtype=float)
        if self.desired.shape != (self.basis.n_p, self.dim):
            raise ValueError(f"desired trajectory must be (n_p, {self.dim})")
        if self.w_smooth < 0 or self.w_track < 0 or self.w_smooth + self.w_track == 0:
            raise ValueError("need w_smooth, w_track >= 0 and not both zero")
        for obs in self.obstacles:
            if obs.centers.shape != (self.basis.n_p, self.dim):
                raise ValueError("obstacle track must cover the full grid in problem dimension")

    @property
    def dim(self) -> int:
        return len(self.boundary)

    @property
    def n_o(self) -> int:
        return len(self.obstacles)


@dataclass
class SingleParams:
    max_iter: int = 300
    tol: float = 1e-3
    rho_start: float = 1.0
    rho_growth: float = 1.4
    # cap keeps the position-step saddle within the qp-core conditioning
    # guard for degree-10 bases
    rho_cap: float = 1e3
    stall_window: int = 5
    stall_improvement: float = 0.01


@dataclass
class SingleState:
    xi: np.ndarray  # (dim, n_var)
    d: np.ndarray  # (n_o, n_p)
    alpha: np.ndarray
    beta: np.ndarray | None
    cos_a: np.ndarray
    sin_a: np.ndarray
    cos_b: np.ndarray | None
    sin_b: np.ndarray | None
    lam_pos: np.ndarray  # (dim, n_o, n_p)
    lam_cos_a: np.ndarray
    lam_sin_a: np.ndarray
    lam_cos_b: np.ndarray | None
    lam_sin_b: np.ndarray | None
    rho: float
    rho_o: float
    iteration: int = 0
    # equality residuals of the last sweep, as equality_residuals returns them
    residuals: dict = field(default_factory=dict, repr=False)
    # cached KKT factor for the position QP, keyed by the rho_o it was built at
    _factor: qpcore.KKTFactor | None = field(default=None, repr=False)
    _factor_rho_o: float | None = field(default=None, repr=False)
    n_factorizations: int = 0


@dataclass
class SingleSolution:
    trajectory: Trajectory
    converged: bool
    iterations: int
    residual_norm: float
    residual_max: float
    residual_history: list
    smoothness_cost: float
    tracking_cost: float
    n_factorizations: int
    state: SingleState


def _deltas(problem: SingleProblem, positions: np.ndarray) -> np.ndarray:
    """Robot-to-obstacle offsets, shape (n_o, n_p, dim)."""
    tracks = np.stack([obs.centers for obs in problem.obstacles])
    return positions[None, :, :] - tracks


def _semi_axes(problem: SingleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Obstacle semi-axes a and b, each shaped (n_o, 1) to broadcast over time."""
    a = np.array([obs.shape.a for obs in problem.obstacles])[:, None]
    b = np.array([obs.shape.b for obs in problem.obstacles])[:, None]
    return a, b


def init_state(problem: SingleProblem, seed: int | None = None, params: SingleParams | None = None) -> SingleState:
    """Initial AM state: d = 1, angles from the straight-line interpolant.

    Deterministic; the seed is accepted for interface symmetry with the
    sampling-based solvers and recorded nowhere.
    """
    params = params or SingleParams()
    basis = problem.basis
    n_o, n_p, dim = problem.n_o, basis.n_p, problem.dim

    start = np.array([bc.p0 for bc in problem.boundary])
    goal = np.array([bc.p1 for bc in problem.boundary])
    xi = straight_line_coeffs(basis, start, goal)
    line = basis.P @ xi.T

    d = np.ones((n_o, n_p))
    if n_o > 0:
        deltas = np.moveaxis(_deltas(problem, line), -1, 0)
        a, b = _semi_axes(problem)
        if dim == 3:
            alpha, beta = angles3d(deltas, a, b)
        else:
            alpha, beta = angle2d(deltas[0] / a, deltas[1] / b), None
    else:
        alpha = np.zeros((0, n_p))
        beta = np.zeros((0, n_p)) if dim == 3 else None

    zeros = np.zeros((n_o, n_p))
    return SingleState(
        xi=xi,
        d=d,
        alpha=alpha,
        beta=beta,
        cos_a=np.cos(alpha),
        sin_a=np.sin(alpha),
        cos_b=np.cos(beta) if beta is not None else None,
        sin_b=np.sin(beta) if beta is not None else None,
        lam_pos=np.zeros((dim, n_o, n_p)),
        lam_cos_a=zeros.copy(),
        lam_sin_a=zeros.copy(),
        lam_cos_b=zeros.copy() if dim == 3 else None,
        lam_sin_b=zeros.copy() if dim == 3 else None,
        rho=params.rho_start,
        rho_o=params.rho_start,
    )


def _cost_blocks(problem: SingleProblem):
    """Quadratic cost Q (shared by all axes) and per-axis linear terms."""
    basis = problem.basis
    Q = 2.0 * (problem.w_smooth * basis.Pddot.T @ basis.Pddot + problem.w_track * basis.P.T @ basis.P)
    q = -2.0 * problem.w_track * (basis.P.T @ problem.desired).T  # (dim, n_var)
    return Q, q


def _position_targets(problem: SingleProblem, state: SingleState) -> np.ndarray:
    """Per-axis reconstruction targets a*d*cos... stacked as (dim, n_o, n_p)."""
    a, b = _semi_axes(problem)
    tracks = np.stack([obs.centers for obs in problem.obstacles])  # (n_o, n_p, dim)
    if problem.dim == 3:
        tx = tracks[:, :, 0] + a * state.d * state.cos_a * state.sin_b
        ty = tracks[:, :, 1] + a * state.d * state.sin_a * state.sin_b
        tz = tracks[:, :, 2] + b * state.d * state.cos_b
        return np.stack([tx, ty, tz])
    tx = tracks[:, :, 0] + a * state.d * state.cos_a
    ty = tracks[:, :, 1] + b * state.d * state.sin_a
    return np.stack([tx, ty])


def _position_step(state: SingleState, problem: SingleProblem) -> None:
    basis = problem.basis
    Q, q = _cost_blocks(problem)
    A = boundary_matrix(basis)
    bs = np.stack([bc.values() for bc in problem.boundary])

    if state._factor is None or state._factor_rho_o != state.rho_o:
        D = Q + state.rho_o * problem.n_o * (basis.P.T @ basis.P) if problem.n_o else Q
        state._factor = qpcore.factorize(D, A)
        state._factor_rho_o = state.rho_o
        state.n_factorizations += 1

    if problem.n_o:
        targets = _position_targets(problem, state)  # (dim, n_o, n_p)
        lam_sum = state.lam_pos.sum(axis=1)  # (dim, n_p)
        q_lin = q + lam_sum @ basis.P - state.rho_o * targets.sum(axis=1) @ basis.P
    else:
        q_lin = q
    xis, _ = qpcore.solve_batch(state._factor, qpcore.BatchRHS(qs=q_lin, bs=bs))
    state.xi = xis


def _alpha_copy_step(state: SingleState, problem: SingleProblem) -> None:
    """Exact elementwise minimizer of the relaxation over the alpha copies."""
    if problem.n_o == 0:
        return
    deltas = _deltas(problem, problem.basis.P @ state.xi.T)
    a, b = _semi_axes(problem)
    rho, rho_o = state.rho, state.rho_o
    dx, dy = deltas[:, :, 0], deltas[:, :, 1]
    if problem.dim == 3:
        # x couples cos, y couples sin, both through a*d*sin(beta)
        coef = a * state.d * state.sin_b
        den = rho + rho_o * coef**2
        state.cos_a = (rho * np.cos(state.alpha) - state.lam_cos_a + coef * (state.lam_pos[0] + rho_o * dx)) / den
        state.sin_a = (rho * np.sin(state.alpha) - state.lam_sin_a + coef * (state.lam_pos[1] + rho_o * dy)) / den
    else:
        coef_x = a * state.d
        coef_y = b * state.d
        state.cos_a = (rho * np.cos(state.alpha) - state.lam_cos_a + coef_x * (state.lam_pos[0] + rho_o * dx)) / (
            rho + rho_o * coef_x**2
        )
        state.sin_a = (rho * np.sin(state.alpha) - state.lam_sin_a + coef_y * (state.lam_pos[1] + rho_o * dy)) / (
            rho + rho_o * coef_y**2
        )


def _alpha_extract(state: SingleState, problem: SingleProblem) -> None:
    if problem.n_o:
        state.alpha = np.arctan2(state.sin_a, state.cos_a)


def _beta_copy_step(state: SingleState, problem: SingleProblem) -> None:
    if problem.n_o == 0 or problem.dim != 3:
        return
    deltas = _deltas(problem, problem.basis.P @ state.xi.T)
    a, b = _semi_axes(problem)
    rho, rho_o = state.rho, state.rho_o
    dx, dy, dz = deltas[:, :, 0], deltas[:, :, 1], deltas[:, :, 2]
    coef_cb = b * state.d
    state.cos_b = (rho * np.cos(state.beta) - state.lam_cos_b + coef_cb * (state.lam_pos[2] + rho_o * dz)) / (
        rho + rho_o * coef_cb**2
    )
    # sin(beta) appears in both the x and y reconstruction rows; keeping
    # both couplings makes this the exact block minimizer
    coef_sb = a * state.d
    num = (
        rho * np.sin(state.beta)
        - state.lam_sin_b
        + coef_sb * (state.cos_a * (state.lam_pos[0] + rho_o * dx) + state.sin_a * (state.lam_pos[1] + rho_o * dy))
    )
    den_sb = rho + rho_o * coef_sb**2 * (state.cos_a**2 + state.sin_a**2)
    state.sin_b = num / den_sb


def _beta_extract(state: SingleState, problem: SingleProblem) -> None:
    if problem.n_o and problem.dim == 3:
        state.beta = np.arctan2(state.sin_b, state.cos_b)


def _d_step(state: SingleState, problem: SingleProblem) -> None:
    """Analytic line-of-sight update from the freshly solved positions."""
    if problem.n_o == 0:
        return
    deltas = _deltas(problem, problem.basis.P @ state.xi.T)
    state.d = los_scale(np.moveaxis(deltas, -1, 0), *_semi_axes(problem))


def equality_residuals(state: SingleState, problem: SingleProblem) -> dict:
    """Raw residual arrays of every relaxed equality family."""
    res: dict[str, np.ndarray] = {}
    if problem.n_o:
        positions = problem.basis.P @ state.xi.T
        deltas = _deltas(problem, positions)
        a, b = _semi_axes(problem)
        if problem.dim == 3:
            res["coll_x"] = deltas[:, :, 0] - a * state.d * state.cos_a * state.sin_b
            res["coll_y"] = deltas[:, :, 1] - a * state.d * state.sin_a * state.sin_b
            res["coll_z"] = deltas[:, :, 2] - b * state.d * state.cos_b
            res["copy_cos_b"] = state.cos_b - np.cos(state.beta)
            res["copy_sin_b"] = state.sin_b - np.sin(state.beta)
        else:
            res["coll_x"] = deltas[:, :, 0] - a * state.d * state.cos_a
            res["coll_y"] = deltas[:, :, 1] - b * state.d * state.sin_a
        res["copy_cos_a"] = state.cos_a - np.cos(state.alpha)
        res["copy_sin_a"] = state.sin_a - np.sin(state.alpha)
    return res


def residual_report(state: SingleState, problem: SingleProblem) -> dict:
    """Norm and max-abs element per residual family."""
    return {
        name: {"norm": float(np.linalg.norm(r)), "max_abs": float(np.max(np.abs(r))) if r.size else 0.0}
        for name, r in equality_residuals(state, problem).items()
    }


def _residual_extremes(res: dict) -> tuple[float, float]:
    if not res:
        return 0.0, 0.0
    stacked = np.concatenate([r.ravel() for r in res.values()])
    return float(np.linalg.norm(stacked)), float(np.max(np.abs(stacked)))


def _multiplier_step(state: SingleState, problem: SingleProblem) -> None:
    # the multipliers do not enter the residuals, so they stay those of the sweep
    res = state.residuals = equality_residuals(state, problem)
    if not res:
        return
    state.lam_pos[0] += state.rho_o * res["coll_x"]
    state.lam_pos[1] += state.rho_o * res["coll_y"]
    state.lam_cos_a += state.rho * res["copy_cos_a"]
    state.lam_sin_a += state.rho * res["copy_sin_a"]
    if problem.dim == 3:
        state.lam_pos[2] += state.rho_o * res["coll_z"]
        state.lam_cos_b += state.rho * res["copy_cos_b"]
        state.lam_sin_b += state.rho * res["copy_sin_b"]


def augmented_lagrangian(state: SingleState, problem: SingleProblem) -> float:
    """Objective plus multiplier and quadratic penalty terms (fixed multipliers).

    Used by tests to check that the minimization blocks do not increase the
    relaxation.  The d and multiplier steps are excluded from that property:
    d follows the analytic line-of-sight rule and the multiplier step is dual
    ascent.
    """
    basis = problem.basis
    acc = basis.Pddot @ state.xi.T
    pos = basis.P @ state.xi.T
    value = problem.w_smooth * float(np.sum(acc**2)) + problem.w_track * float(np.sum((pos - problem.desired) ** 2))
    res = equality_residuals(state, problem)
    if not res:
        return value
    for axis_idx, name in enumerate(("coll_x", "coll_y", "coll_z")[: problem.dim]):
        r = res[name]
        value += float(np.sum(state.lam_pos[axis_idx] * r)) + 0.5 * state.rho_o * float(np.sum(r**2))
    copies = [("copy_cos_a", state.lam_cos_a), ("copy_sin_a", state.lam_sin_a)]
    if problem.dim == 3:
        copies += [("copy_cos_b", state.lam_cos_b), ("copy_sin_b", state.lam_sin_b)]
    for name, lam in copies:
        r = res[name]
        value += 0.5 * state.rho * float(np.sum((r + lam / state.rho) ** 2))
    return value


def am_iteration(state: SingleState, problem: SingleProblem) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state."""
    if problem.n_o:
        state.cos_a = np.cos(state.alpha)
        state.sin_a = np.sin(state.alpha)
        if problem.dim == 3:
            state.cos_b = np.cos(state.beta)
            state.sin_b = np.sin(state.beta)
    _position_step(state, problem)
    _alpha_copy_step(state, problem)
    _alpha_extract(state, problem)
    _beta_copy_step(state, problem)
    _beta_extract(state, problem)
    _d_step(state, problem)
    _multiplier_step(state, problem)
    state.iteration += 1
    return state


def solve_single(problem: SingleProblem, params: SingleParams | None = None, state: SingleState | None = None) -> SingleSolution:
    """Run the AM loop until residual tolerance or max_iter.

    Non-convergence is reported through the flag, never raised.  Passing a
    state warm-starts from a previous solve (receding-horizon use).
    """
    params = params or SingleParams()
    state = state if state is not None else init_state(problem, params=params)
    history: list[dict] = []
    max_hist: list[float] = []
    last_change = 0
    converged = False
    for _ in range(params.max_iter):
        am_iteration(state, problem)
        norm, max_abs = _residual_extremes(state.residuals)
        history.append({"norm": norm, "max_abs": max_abs, "rho_o": state.rho_o})
        max_hist.append(max_abs)
        if max_abs <= params.tol:
            converged = True
            break
        since_change = state.iteration - last_change
        if stalled(max_hist, since_change, params.stall_window, params.stall_improvement, max(params.tol, 0.0)):
            state.rho = min(state.rho * params.rho_growth, params.rho_cap)
            state.rho_o = min(state.rho_o * params.rho_growth, params.rho_cap)
            last_change = state.iteration

    traj = sample_trajectory(problem.basis, state.xi.T)
    if not history:
        norm, max_abs = _residual_extremes(equality_residuals(state, problem))
    smooth = float(np.sum(traj.acc**2))
    track = float(np.sum((traj.pos - problem.desired) ** 2))
    return SingleSolution(
        trajectory=traj,
        converged=converged,
        iterations=state.iteration,
        residual_norm=norm,
        residual_max=max_abs,
        residual_history=history,
        smoothness_cost=smooth,
        tracking_cost=track,
        n_factorizations=state.n_factorizations,
        state=state,
    )
