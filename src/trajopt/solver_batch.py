"""Batch 2-D trajectory optimization for a multi-circle footprint with heading.

Hundreds of Gaussian initializations are refined simultaneously.  Per member
the decision vector is xi = (xi_x, xi_c, xi_y, xi_s) where xi_c/xi_s
parameterize copies of cos(psi)/sin(psi), plus a separate heading block
xi_psi.  Velocity/acceleration norm bounds and per-circle collision
constraints are rewritten as one stacked equality F xi = g(alpha, d, psi)
whose matrix F never changes, so the xi-step KKT matrix Q + rho F'F is
factorized once per rho value and applied to the whole batch in one shot.

The heading block is fit to arctan2(sin-copy, cos-copy) targets (a convex
surrogate), the angle blocks have arctan2 closed forms, and the scale blocks
reduce to clamped single-variable quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import ObstacleTrack, angle2d, los_scale, scaled_sq_norm, stalled


@dataclass(frozen=True)
class FootprintSpec:
    """Signed circle offsets along the body x-axis (meters)."""

    offsets: tuple

    def __post_init__(self):
        if len(self.offsets) < 1:
            raise ValueError("footprint needs at least one circle")

    @property
    def n_c(self) -> int:
        return len(self.offsets)


@dataclass
class BatchProblem:
    basis: BasisSet
    boundary: tuple[AxisBoundary, AxisBoundary]  # x, y
    psi_boundary: tuple[float, float]
    desired: np.ndarray  # (n_p, 2)
    obstacles: list[ObstacleTrack]
    footprint: FootprintSpec
    v_max: float
    a_max: float
    n_batch: int
    w_smooth: float = 1.0
    w_track: float = 1.0

    def __post_init__(self):
        self.desired = np.asarray(self.desired, dtype=float)
        if self.v_max <= 0 or self.a_max <= 0:
            raise ValueError("v_max and a_max must be positive")
        if self.n_batch < 1:
            raise ValueError("batch size must be at least 1")
        if self.desired.shape != (self.basis.n_p, 2):
            raise ValueError("desired trajectory must be (n_p, 2)")

    @property
    def n_o(self) -> int:
        return len(self.obstacles)


@dataclass
class BatchParams:
    max_iter: int = 100
    tol: float = 1e-2
    rho_start: float = 1.0
    rho_growth: float = 1.4
    # cap keeps the shared saddle within the qp-core conditioning guard
    rho_cap: float = 1e3
    stall_window: int = 5
    stall_improvement: float = 0.01
    d_margin: float = 1e-2
    kin_margin: float = 1e-2


@dataclass
class BatchState:
    xi: np.ndarray  # (N_b, 4m): [xi_x | xi_c | xi_y | xi_s]
    xi_psi: np.ndarray  # (N_b, m)
    psi: np.ndarray  # (N_b, n_p) samples of the current heading fit
    alpha_coll: np.ndarray  # (N_b, n_c, n_o, n_p)
    alpha_v: np.ndarray  # (N_b, n_p)
    alpha_a: np.ndarray
    d_coll: np.ndarray
    d_v: np.ndarray
    d_a: np.ndarray
    lam: np.ndarray  # (N_b, 4m)
    lam_psi: np.ndarray  # (N_b, m)
    rho: float
    rho_psi: float
    iteration: int = 0
    n_factorizations: int = 0
    _factor_xi: qpcore.KKTFactor | None = field(default=None, repr=False)
    _factor_psi: qpcore.KKTFactor | None = field(default=None, repr=False)
    _factor_rho: float | None = field(default=None, repr=False)
    _psi_targets: np.ndarray | None = field(default=None, repr=False)
    # residual F xi - g of the last iteration, (N_b, rows)
    residual: np.ndarray | None = field(default=None, repr=False)


@dataclass
class RankedSolutions:
    trajectories: list[Trajectory]
    costs: np.ndarray
    aug_costs: np.ndarray
    residual_max: np.ndarray
    residual_norm: np.ndarray
    feasible: np.ndarray
    best_index: int | None
    best_history: list
    iterations: int
    n_factorizations: int
    state: BatchState

    @property
    def best(self) -> Trajectory | None:
        return self.trajectories[self.best_index] if self.best_index is not None else None


def sample_initializations(mean: np.ndarray, covariance: np.ndarray, n_batch: int, seed) -> np.ndarray:
    """Draw coefficient samples from N(mean, covariance), deterministic per seed."""
    mean = np.asarray(mean, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    if covariance.shape != (mean.size, mean.size):
        raise ValueError("covariance shape does not match mean")
    if not np.allclose(covariance, covariance.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(covariance)
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError("covariance must be positive semi-definite")
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal(mean, covariance, size=n_batch, method="svd")


class _Structure:
    """Constant matrices of one BatchProblem (F, boundary rows, cost blocks)."""

    def __init__(self, problem: BatchProblem):
        basis = problem.basis
        m = basis.n_var
        n_p = basis.n_p
        self.m = m
        P, Pdot, Pddot = basis.P, basis.Pdot, basis.Pddot
        zeros = np.zeros((n_p, m))

        half_rows = [np.hstack([Pdot, zeros]), np.hstack([Pddot, zeros])]
        for r_c in problem.footprint.offsets:
            for _ in range(problem.n_o):
                half_rows.append(np.hstack([P, r_c * P]))
        half_rows.append(np.hstack([zeros, P]))
        F_half = np.vstack(half_rows)
        self.F = np.block(
            [
                [F_half, np.zeros((F_half.shape[0], 2 * m))],
                [np.zeros((F_half.shape[0], 2 * m)), F_half],
            ]
        )
        self.FtF = self.F.T @ self.F

        cost_xx = problem.w_smooth * Pddot.T @ Pddot + problem.w_track * P.T @ P
        self.Q = np.zeros((4 * m, 4 * m))
        self.Q[:m, :m] = cost_xx
        self.Q[2 * m : 3 * m, 2 * m : 3 * m] = cost_xx
        self.q = np.concatenate(
            [
                -problem.w_track * P.T @ problem.desired[:, 0],
                np.zeros(m),
                -problem.w_track * P.T @ problem.desired[:, 1],
                np.zeros(m),
            ]
        )

        B = boundary_matrix(basis)
        self.A = np.zeros((12, 4 * m))
        self.A[:6, :m] = B
        self.A[6:, 2 * m : 3 * m] = B
        self.b = np.concatenate([problem.boundary[0].values(), problem.boundary[1].values()])

        self.A_psi = np.vstack([P[0], P[-1]])
        self.b_psi = np.asarray(problem.psi_boundary, dtype=float)
        self.Q_psi_smooth = Pddot.T @ Pddot

        self.obs_x = np.stack([o.centers[:, 0] for o in problem.obstacles]) if problem.n_o else np.zeros((0, n_p))
        self.obs_y = np.stack([o.centers[:, 1] for o in problem.obstacles]) if problem.n_o else np.zeros((0, n_p))
        self.obs_a = np.array([o.shape.a for o in problem.obstacles])
        self.obs_b = np.array([o.shape.b for o in problem.obstacles])
        self.r = np.asarray(problem.footprint.offsets, dtype=float)


def _footprint_deltas(problem, struct, x, y, psi):
    """Circle-center offsets to every obstacle, shape (N_b, n_c, n_o, n_p)."""
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    r = struct.r[None, :, None, None]
    cx = x[:, None, None, :] + r * cos_psi[:, None, None, :]
    cy = y[:, None, None, :] + r * sin_psi[:, None, None, :]
    dx = cx - struct.obs_x[None, None, :, :]
    dy = cy - struct.obs_y[None, None, :, :]
    return dx, dy


def _build_g(problem, struct, state):
    """Stacked targets matching the F row layout, shape (N_b, rows)."""
    n_b = state.xi.shape[0]
    parts_x = [
        problem.v_max * state.d_v * np.cos(state.alpha_v),
        problem.a_max * state.d_a * np.cos(state.alpha_a),
    ]
    parts_y = [
        problem.v_max * state.d_v * np.sin(state.alpha_v),
        problem.a_max * state.d_a * np.sin(state.alpha_a),
    ]
    if problem.n_o:
        a = struct.obs_a[None, None, :, None]
        b = struct.obs_b[None, None, :, None]
        coll_x = struct.obs_x[None, None, :, :] + a * state.d_coll * np.cos(state.alpha_coll)
        coll_y = struct.obs_y[None, None, :, :] + b * state.d_coll * np.sin(state.alpha_coll)
        parts_x.append(coll_x.reshape(n_b, -1))
        parts_y.append(coll_y.reshape(n_b, -1))
    parts_x.append(np.cos(state.psi))
    parts_y.append(np.sin(state.psi))
    return np.hstack(parts_x + parts_y)


def _split(xi, m):
    return xi[:, :m], xi[:, m : 2 * m], xi[:, 2 * m : 3 * m], xi[:, 3 * m :]


def init_state(problem: BatchProblem, samples: np.ndarray, params: BatchParams | None = None) -> BatchState:
    """State from position-coefficient samples (N_b, 2m): [xi_x | xi_y].

    The heading is seeded from the desired-path direction; copies, angles and
    scales are made consistent with the sampled geometry; multipliers start
    at zero.
    """
    params = params or BatchParams()
    struct = _Structure(problem)
    basis, m = problem.basis, struct.m
    samples = np.asarray(samples, dtype=float)
    n_b = samples.shape[0]
    if samples.shape != (n_b, 2 * m):
        raise ValueError(f"expected samples of shape (N_b, {2 * m})")

    path_dir = np.gradient(problem.desired, axis=0)
    psi_des = np.unwrap(np.arctan2(path_dir[:, 1], path_dir[:, 0]))
    xi_psi_one, *_ = np.linalg.lstsq(basis.P, psi_des, rcond=None)
    xi_psi = np.tile(xi_psi_one, (n_b, 1))
    psi = xi_psi @ basis.P.T

    xi_c_one, *_ = np.linalg.lstsq(basis.P, np.cos(psi_des), rcond=None)
    xi_s_one, *_ = np.linalg.lstsq(basis.P, np.sin(psi_des), rcond=None)
    xi = np.hstack(
        [samples[:, :m], np.tile(xi_c_one, (n_b, 1)), samples[:, m:], np.tile(xi_s_one, (n_b, 1))]
    )

    state = BatchState(
        xi=xi,
        xi_psi=xi_psi,
        psi=psi,
        alpha_coll=np.zeros((n_b, problem.footprint.n_c, problem.n_o, basis.n_p)),
        alpha_v=np.zeros((n_b, basis.n_p)),
        alpha_a=np.zeros((n_b, basis.n_p)),
        d_coll=np.ones((n_b, problem.footprint.n_c, problem.n_o, basis.n_p)),
        d_v=np.ones((n_b, basis.n_p)),
        d_a=np.ones((n_b, basis.n_p)),
        lam=np.zeros((n_b, 4 * m)),
        lam_psi=np.zeros((n_b, m)),
        rho=params.rho_start,
        rho_psi=params.rho_start,
    )
    alpha_step(state, problem, struct)
    d_step(state, problem, struct)
    return state


def _ensure_factors(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    if state._factor_xi is not None and state._factor_rho == state.rho:
        return
    Q_bar = struct.Q + state.rho * struct.FtF
    state._factor_xi = qpcore.factorize(Q_bar, struct.A)
    Q_psi = struct.Q_psi_smooth + state.rho_psi * problem.basis.P.T @ problem.basis.P
    state._factor_psi = qpcore.factorize(Q_psi, struct.A_psi)
    state._factor_rho = state.rho
    state.n_factorizations += 2


def batch_xi_step(state: BatchState, problem: BatchProblem, struct: _Structure | None = None) -> None:
    """Shared-factor QP update of every member's stacked coefficients."""
    struct = struct or _Structure(problem)
    _ensure_factors(state, problem, struct)
    g = _build_g(problem, struct, state)
    q_lin = struct.q[None, :] - state.lam - state.rho * (g @ struct.F)
    bs = np.tile(struct.b, (state.xi.shape[0], 1))
    state.xi, _ = qpcore.solve_batch(state._factor_xi, qpcore.BatchRHS(qs=q_lin, bs=bs))


def heading_step(state: BatchState, problem: BatchProblem, struct: _Structure | None = None) -> None:
    """Fit the heading block to unwrapped arctan2 targets from the copies."""
    struct = struct or _Structure(problem)
    _ensure_factors(state, problem, struct)
    basis = problem.basis
    _, xi_c, _, xi_s = _split(state.xi, struct.m)
    raw = np.arctan2(xi_s @ basis.P.T, xi_c @ basis.P.T)
    # nearest-branch unwrapping against the previous heading iterate
    targets = raw + 2.0 * np.pi * np.round((state.psi - raw) / (2.0 * np.pi))
    q_lin = -state.lam_psi - state.rho_psi * (targets @ basis.P)
    bs = np.tile(struct.b_psi, (state.xi.shape[0], 1))
    state.xi_psi, _ = qpcore.solve_batch(state._factor_psi, qpcore.BatchRHS(qs=q_lin, bs=bs))
    state.psi = state.xi_psi @ basis.P.T
    state._psi_targets = targets


def alpha_step(state: BatchState, problem: BatchProblem, struct: _Structure | None = None) -> None:
    """Polar angles of every collision offset (scaled by the ellipse) and of velocity and acceleration."""
    struct = struct or _Structure(problem)
    basis, m = problem.basis, struct.m
    xi_x, _, xi_y, _ = _split(state.xi, m)
    if problem.n_o:
        dx, dy = _footprint_deltas(problem, struct, xi_x @ basis.P.T, xi_y @ basis.P.T, state.psi)
        state.alpha_coll = angle2d(dx / struct.obs_a[:, None], dy / struct.obs_b[:, None])
    state.alpha_v = angle2d(xi_x @ basis.Pdot.T, xi_y @ basis.Pdot.T)
    state.alpha_a = angle2d(xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T)


def d_step(state: BatchState, problem: BatchProblem, struct: _Structure | None = None) -> None:
    """Closed-form scales; with the angles of alpha_step each is the clamped scaled norm."""
    struct = struct or _Structure(problem)
    basis, m = problem.basis, struct.m
    xi_x, _, xi_y, _ = _split(state.xi, m)
    if problem.n_o:
        dx, dy = _footprint_deltas(problem, struct, xi_x @ basis.P.T, xi_y @ basis.P.T, state.psi)
        state.d_coll = los_scale((dx, dy), struct.obs_a[:, None], struct.obs_b[:, None])
    vel = (xi_x @ basis.Pdot.T, xi_y @ basis.Pdot.T)
    state.d_v = los_scale(vel, problem.v_max, problem.v_max, 0.0, 1.0)
    acc = (xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T)
    state.d_a = los_scale(acc, problem.a_max, problem.a_max, 0.0, 1.0)


def _residual_matrix(state, problem, struct):
    g = _build_g(problem, struct, state)
    return state.xi @ struct.F.T - g


def batch_iteration(state: BatchState, problem: BatchProblem, struct: _Structure | None = None) -> BatchState:
    struct = struct or _Structure(problem)
    batch_xi_step(state, problem, struct)
    heading_step(state, problem, struct)
    alpha_step(state, problem, struct)
    d_step(state, problem, struct)
    res = state.residual = _residual_matrix(state, problem, struct)
    state.lam = state.lam - state.rho * (res @ struct.F)
    psi_res = state.psi - state._psi_targets
    state.lam_psi = state.lam_psi - state.rho_psi * (psi_res @ problem.basis.P)
    state.iteration += 1
    return state


def _member_costs(state, problem, struct):
    basis, m = problem.basis, struct.m
    xi_x, _, xi_y, _ = _split(state.xi, m)
    ax, ay = xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T
    psi_acc = state.xi_psi @ basis.Pddot.T
    x, y = xi_x @ basis.P.T, xi_y @ basis.P.T
    smooth = np.sum(ax**2 + ay**2, axis=1) + np.sum(psi_acc**2, axis=1)
    track = np.sum((x - problem.desired[:, 0]) ** 2 + (y - problem.desired[:, 1]) ** 2, axis=1)
    return problem.w_smooth * smooth + problem.w_track * track


def check_raw_feasibility(state, problem, struct, d_margin, kin_margin):
    """Direct evaluation of the original quadratic constraints per member."""
    basis, m = problem.basis, struct.m
    xi_x, _, xi_y, _ = _split(state.xi, m)
    x, y = xi_x @ basis.P.T, xi_y @ basis.P.T
    ok = np.ones(x.shape[0], dtype=bool)
    if problem.n_o:
        dx, dy = _footprint_deltas(problem, struct, x, y, state.psi)
        dist = np.sqrt(scaled_sq_norm((dx, dy), struct.obs_a[:, None], struct.obs_b[:, None]))
        ok &= dist.min(axis=(1, 2, 3)) >= 1.0 - d_margin
    speed = np.hypot(xi_x @ basis.Pdot.T, xi_y @ basis.Pdot.T)
    ok &= speed.max(axis=1) <= problem.v_max * (1.0 + kin_margin)
    accel = np.hypot(xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T)
    ok &= accel.max(axis=1) <= problem.a_max * (1.0 + kin_margin)
    return ok


def solve_batch_opt(
    problem: BatchProblem,
    params: BatchParams | None = None,
    *,
    samples: np.ndarray | None = None,
    mean: np.ndarray | None = None,
    covariance: np.ndarray | None = None,
    seed=0,
    state: BatchState | None = None,
) -> RankedSolutions:
    """Run the batch optimizer and rank members.

    Members are initialized from explicit coefficient samples, or drawn from
    N(mean, covariance) (defaults: straight-line mean, diagonal covariance
    scaled to the start-goal distance).  Passing state warm-starts.
    """
    params = params or BatchParams()
    struct = _Structure(problem)
    basis, m = problem.basis, struct.m

    if state is None:
        if samples is None:
            if mean is None:
                bx, by = problem.boundary
                mean = straight_line_coeffs(basis, [bx.p0, by.p0], [bx.p1, by.p1]).ravel()
            if covariance is None:
                bx, by = problem.boundary
                scale = max(np.hypot(bx.p1 - bx.p0, by.p1 - by.p0) / 10.0, 0.5)
                covariance = np.eye(2 * m) * scale**2
            samples = sample_initializations(mean, covariance, problem.n_batch, seed)
        state = init_state(problem, samples, params)

    best_history = []
    last_change = 0
    maxabs_hist: list[float] = []
    for _ in range(params.max_iter):
        batch_iteration(state, problem, struct)
        res = state.residual
        per_member_max = np.max(np.abs(res), axis=1)
        per_member_norm = np.linalg.norm(res, axis=1)
        best_idx = int(np.argmin(per_member_norm))
        best_history.append(
            {"norm": float(per_member_norm[best_idx]), "max_abs": float(per_member_max[best_idx]), "rho": state.rho}
        )
        maxabs_hist.append(float(per_member_max.min()))
        since_change = state.iteration - last_change
        if stalled(maxabs_hist, since_change, params.stall_window, params.stall_improvement, max(params.tol, 0.0)):
            state.rho = min(state.rho * params.rho_growth, params.rho_cap)
            state.rho_psi = min(state.rho_psi * params.rho_growth, params.rho_cap)
            last_change = state.iteration

    if not best_history:
        res = _residual_matrix(state, problem, struct)
    residual_max = np.max(np.abs(res), axis=1)
    residual_norm = np.linalg.norm(res, axis=1)
    feasible = (residual_max <= params.tol) & check_raw_feasibility(
        state, problem, struct, params.d_margin, params.kin_margin
    )
    costs = _member_costs(state, problem, struct)
    aug_costs = costs + state.rho * residual_norm
    best_index = int(np.argmin(np.where(feasible, aug_costs, np.inf))) if feasible.any() else None

    xi_x, _, xi_y, _ = _split(state.xi, m)
    trajectories = [
        sample_trajectory(basis, np.column_stack([xi_x[i], xi_y[i]]), psi=state.psi[i]) for i in range(state.xi.shape[0])
    ]
    return RankedSolutions(
        trajectories=trajectories,
        costs=costs,
        aug_costs=aug_costs,
        residual_max=residual_max,
        residual_norm=residual_norm,
        feasible=feasible,
        best_index=best_index,
        best_history=best_history,
        iterations=state.iteration,
        n_factorizations=state.n_factorizations,
        state=state,
    )
