"""Batch 2-D trajectory optimization for a multi-circle footprint with heading.

Hundreds of Gaussian initializations are refined simultaneously.  Per member
the decision vector is xi = (xi_x, xi_c, xi_y, xi_s) where xi_c/xi_s
parameterize copies of cos(psi)/sin(psi), plus a separate heading block
xi_psi.  Velocity/acceleration norm bounds and per-circle collision
constraints are polar equalities F xi = g; per axis (x with the cos copy)
the rows are Pdot xi_x = t_v, Pddot xi_x = t_a, P xi_x + r_c P xi_c =
centre_o + t_coll for every circle c and obstacle o, and P xi_c = cos(psi).

Each target is the closed-form polar projection of its offset, and
geometry.radial_clamp gives the residual offset - target with no angles.
The solver works in residual form: F, g and the targets are never stored.
polar_step, the one residual pass per iterate, takes per axis the residuals

    velocity, acceleration:  radial_clamp of Pdot xi_x, Pddot xi_x
    collision:               radial_clamp of x + r_c cos psi - centre_o, plus r_c (P xi_c - cos psi)
    copy:                    P xi_c - cos psi

and residual @ F as one product per family,

    x columns:     (sum_c sum_o res_coll) @ P + res_v @ Pdot + res_a @ Pddot
    copy columns:  (sum_c r_c sum_o res_coll + res_copy) @ P

F'F is one closed-form (2m, 2m) block per axis,

    [[Pdot'Pdot + Pddot'Pddot + n_c n_o P'P,  (sum r) n_o P'P          ],
     [(sum r) n_o P'P,                         ((sum r^2) n_o + 1) P'P ]]

So the xi-step KKT matrix Q + rho F'F is factorized once per penalty value
and applied to the whole batch in one shot.  From the same pass the
multiplier step reads residual @ F, the next xi step g @ F = xi F'F -
residual @ F, and the ranking each member's residual max and norm.  The
obstacle centres enter g @ F linearly, so a warm start on moved obstacles
adds the products of the centre displacement once.  The heading block is
fit to arctan2(sin-copy, cos-copy) targets (a convex surrogate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import D_CAP, ObstacleTrack, check_schedule, radial_clamp, scaled_sq_norm, stalled


@dataclass(frozen=True)
class FootprintSpec:
    """Signed circle offsets along the body x-axis (meters)."""

    offsets: tuple

    def __post_init__(self):
        if len(self.offsets) < 1:
            raise ValueError("footprint needs at least one circle")
        if not np.all(np.isfinite(np.asarray(self.offsets, dtype=float))):
            raise ValueError("footprint offsets must be finite")

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
        n_p = self.basis.n_p
        for name, limit in (("v_max", self.v_max), ("a_max", self.a_max)):
            if not (np.isfinite(limit) and limit > 0):
                raise ValueError(f"{name} must be positive and finite, got {limit}")
        if self.n_batch < 1:
            raise ValueError("batch size must be at least 1")
        if self.desired.shape != (n_p, 2) or not np.all(np.isfinite(self.desired)):
            raise ValueError("desired trajectory must be finite and (n_p, 2)")
        values = np.concatenate([bc.values() for bc in self.boundary] + [np.asarray(self.psi_boundary, dtype=float)])
        if values.shape != (2 * 6 + 2,) or not np.all(np.isfinite(values)):  # two axes of six, the heading pair
            raise ValueError("need two finite axis boundaries and a finite psi_boundary pair")
        for i, o in enumerate(self.obstacles):
            centers = np.asarray(o.centers, dtype=float)
            if centers.shape != (n_p, 2) or not np.all(np.isfinite(centers)):
                raise ValueError(f"obstacle {i} centres must be finite and {(n_p, 2)}, got shape {centers.shape}")

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

    def __post_init__(self):
        check_schedule(self)


@dataclass
class BatchState:
    xi: np.ndarray  # (N_b, 4m): [xi_x | xi_c | xi_y | xi_s]
    xi_psi: np.ndarray  # (N_b, m)
    psi: np.ndarray  # (N_b, n_p) samples of the current heading fit
    # the last residual pass: g @ F and the per-member max and norm of F xi - g
    target_products: np.ndarray  # (N_b, 4m)
    residual_max: np.ndarray  # (N_b,)
    residual_norm: np.ndarray  # (N_b,)
    # the layout target_products were formed on
    centres: np.ndarray  # (2, n_o, n_p) obstacle centres
    offsets: np.ndarray  # (n_c,) footprint circle offsets
    lam: np.ndarray  # (N_b, 4m)
    lam_psi: np.ndarray  # (N_b, m)
    rho: float
    rho_psi: float
    iteration: int = 0
    n_factorizations: int = 0
    _factor_xi: qpcore.KKTFactor | None = field(default=None, repr=False)
    _factor_psi: qpcore.KKTFactor | None = field(default=None, repr=False)
    # the (Q, A) pairs the two factors were built from, and their (rho, rho_psi)
    _factor_key: tuple | None = field(default=None, repr=False)
    _factor_rho: tuple | None = field(default=None, repr=False)
    _psi_targets: np.ndarray | None = field(default=None, repr=False)


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
    """Constant matrices of one BatchProblem (F'F, boundary rows, cost blocks)."""

    def __init__(self, problem: BatchProblem):
        basis = problem.basis
        m, n_p, n_o = basis.n_var, basis.n_p, problem.n_o
        self.m = m
        P, Pdot, Pddot = basis.P, basis.Pdot, basis.Pddot
        self.PtP = PtP = P.T @ P
        self.r = r = np.asarray(problem.footprint.offsets, dtype=float)

        coupling = r.sum() * n_o * PtP
        pos_block = Pdot.T @ Pdot + Pddot.T @ Pddot + r.size * n_o * PtP
        self.FtF = np.kron(np.eye(2), np.block([[pos_block, coupling], [coupling, (r @ r * n_o + 1.0) * PtP]]))

        cost_xx = problem.w_smooth * Pddot.T @ Pddot + problem.w_track * PtP
        self.Q = np.zeros((4 * m, 4 * m))
        self.Q[:m, :m] = cost_xx
        self.Q[2 * m : 3 * m, 2 * m : 3 * m] = cost_xx
        track = [-problem.w_track * P.T @ problem.desired[:, k] for k in range(2)]
        self.q = np.concatenate([track[0], np.zeros(m), track[1], np.zeros(m)])

        B = boundary_matrix(basis)
        self.A = np.zeros((12, 4 * m))
        self.A[:6, :m] = B
        self.A[6:, 2 * m : 3 * m] = B
        self.b = np.concatenate([problem.boundary[0].values(), problem.boundary[1].values()])

        self.A_psi = np.vstack([P[0], P[-1]])
        self.b_psi = np.asarray(problem.psi_boundary, dtype=float)
        self.Q_psi_smooth = Pddot.T @ Pddot

        centres = [np.asarray(o.centers, dtype=float).T for o in problem.obstacles]
        self.obs = np.stack(centres, axis=1) if n_o else np.zeros((2, 0, n_p))  # (2, n_o, n_p)
        self.obs_a = np.array([o.shape.a for o in problem.obstacles])
        self.obs_b = np.array([o.shape.b for o in problem.obstacles])

    def saddles(self, rho: float, rho_psi: float) -> tuple:
        """The (Q, A) pairs of the xi and heading factors at these penalties."""
        return self.Q + rho * self.FtF, self.A, self.Q_psi_smooth + rho_psi * self.PtP, self.A_psi


def _footprint_deltas(struct, pos, trig):
    """Circle-center offsets to every obstacle per axis, (N_b, n_c, n_o, n_p); trig is (cos psi, sin psi)."""
    r = struct.r[None, :, None, None]
    return [p[:, None, None, :] + r * t[:, None, None, :] - struct.obs[k] for k, (p, t) in enumerate(zip(pos, trig))]


def _split(xi, m):
    return xi[:, :m], xi[:, m : 2 * m], xi[:, 2 * m : 3 * m], xi[:, 3 * m :]


def init_state(problem: BatchProblem, samples: np.ndarray, params: BatchParams | None = None) -> BatchState:
    """State from position-coefficient samples (N_b, 2m): [xi_x | xi_y].

    The heading is seeded from the desired-path direction; copies are made
    consistent with it and the first residual pass is taken at the sampled
    geometry; multipliers start at zero.
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
    xi = np.hstack([samples[:, :m], np.tile(xi_c_one, (n_b, 1)), samples[:, m:], np.tile(xi_s_one, (n_b, 1))])

    # the products and residuals are set by polar_step below
    state = BatchState(xi, xi_psi, psi, None, None, None, struct.obs, struct.r, lam=np.zeros((n_b, 4 * m)),
                       lam_psi=np.zeros((n_b, m)), rho=params.rho_start, rho_psi=params.rho_start)
    polar_step(state, problem, struct)
    return state


def _check_state(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Reject a warm state whose arrays do not fit this problem.

    Cached factors of other saddle matrices are dropped, so the first iteration factors afresh.
    """
    n_b, m, n_p = state.xi.shape[0], struct.m, problem.basis.n_p
    shapes = {"xi": (n_b, 4 * m), "xi_psi": (n_b, m), "psi": (n_b, n_p), "lam": (n_b, 4 * m), "lam_psi": (n_b, m),
              "target_products": (n_b, 4 * m), "residual_max": (n_b,), "residual_norm": (n_b,),
              "centres": struct.obs.shape, "offsets": struct.r.shape}
    for name, shape in shapes.items():
        got = np.shape(getattr(state, name))
        if got != shape:
            raise ValueError(f"warm state {name} has shape {got}, expected {shape} for this problem")
    if state._factor_xi is not None:
        key = struct.saddles(*state._factor_rho)
        if not all(np.array_equal(new, old) for new, old in zip(key, state._factor_key)):
            state._factor_xi = state._factor_psi = None


def _recentre(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Move a warm state's collision targets, relative to the centres, onto this problem's centres."""

    def centre_products(offsets, centres):  # every circle's collision rows target the centre
        x, y = centres.sum(axis=1) @ problem.basis.P
        return np.concatenate([offsets.size * x, offsets.sum() * x, offsets.size * y, offsets.sum() * y])

    shift = centre_products(struct.r, struct.obs) - centre_products(state.offsets, state.centres)
    state.target_products = state.target_products + shift
    state.centres, state.offsets = struct.obs, struct.r


def _ensure_factors(state: BatchState, struct: _Structure) -> None:
    """Factor both saddle matrices unless the cached factors are at the current penalties."""
    if state._factor_xi is not None and state._factor_rho == (state.rho, state.rho_psi):
        return
    key = struct.saddles(state.rho, state.rho_psi)
    state._factor_xi = qpcore.factorize(*key[:2])
    state._factor_psi = qpcore.factorize(*key[2:])
    state._factor_key, state._factor_rho = key, (state.rho, state.rho_psi)
    state.n_factorizations += 2


def batch_xi_step(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Shared-factor QP update of every member's stacked coefficients."""
    _ensure_factors(state, struct)
    q_lin = struct.q[None, :] - state.lam - state.rho * state.target_products
    bs = np.tile(struct.b, (state.xi.shape[0], 1))
    state.xi, _ = qpcore.solve_batch(state._factor_xi, qpcore.BatchRHS(qs=q_lin, bs=bs))


def heading_step(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Fit the heading block to unwrapped arctan2 targets from the copies."""
    _ensure_factors(state, struct)
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


def polar_step(state: BatchState, problem: BatchProblem, struct: _Structure) -> np.ndarray:
    """The residual pass at the current iterate, family by family in sample space.

    Returns residual @ F, (N_b, 4m), and sets the state's residual_max,
    residual_norm and target products g @ F = xi F'F - residual @ F.
    """
    basis, n_b = problem.basis, state.xi.shape[0]
    xi_x, xi_c, xi_y, xi_s = _split(state.xi, struct.m)
    trig = (np.cos(state.psi), np.sin(state.psi))
    coll = radial_clamp(_footprint_deltas(struct, (xi_x @ basis.P.T, xi_y @ basis.P.T), trig),
                        struct.obs_a[:, None], struct.obs_b[:, None], 1.0, D_CAP)
    vel = radial_clamp((xi_x @ basis.Pdot.T, xi_y @ basis.Pdot.T), problem.v_max, problem.v_max, 0.0, 1.0)
    acc = radial_clamp((xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T), problem.a_max, problem.a_max, 0.0, 1.0)
    res_max, sq, products = np.zeros(n_b), np.zeros(n_b), []
    for k, xi_q in enumerate((xi_c, xi_s)):
        copy = xi_q @ basis.P.T - trig[k]
        # the collision rows read the copy P xi_c where the clamped offsets read cos psi
        coll[k] += struct.r[None, :, None, None] * copy[:, None, None, :]
        for res in (vel[k], acc[k], coll[k], copy):
            flat = res.reshape(n_b, -1)
            res_max = np.maximum(res_max, np.abs(flat).max(axis=1, initial=0.0))
            sq += np.einsum("ij,ij->i", flat, flat)
        per_circle = coll[k].sum(axis=2)  # (N_b, n_c, n_p), summed over obstacles
        products.append(per_circle.sum(axis=1) @ basis.P + vel[k] @ basis.Pdot + acc[k] @ basis.Pddot)
        products.append((np.tensordot(struct.r, per_circle, axes=(0, 1)) + copy) @ basis.P)
    residual_products = np.hstack(products)
    state.target_products = state.xi @ struct.FtF - residual_products
    state.residual_max, state.residual_norm = res_max, np.sqrt(sq)
    return residual_products


def batch_iteration(state: BatchState, problem: BatchProblem, struct: _Structure) -> BatchState:
    batch_xi_step(state, problem, struct)
    heading_step(state, problem, struct)
    state.lam = state.lam - state.rho * polar_step(state, problem, struct)
    state.lam_psi = state.lam_psi - state.rho_psi * ((state.psi - state._psi_targets) @ problem.basis.P)
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
        dx, dy = _footprint_deltas(struct, (x, y), (np.cos(state.psi), np.sin(state.psi)))
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
    scaled to the start-goal distance).  Passing state warm-starts; its
    shapes must fit the problem, and its cached factors are reused only
    while the saddle matrices they factor are unchanged.
    """
    params = params or BatchParams()
    struct = _Structure(problem)
    basis, m = problem.basis, struct.m

    if state is None:
        if samples is None:
            bx, by = problem.boundary
            if mean is None:
                mean = straight_line_coeffs(basis, [bx.p0, by.p0], [bx.p1, by.p1]).ravel()
            if covariance is None:
                scale = max(np.hypot(bx.p1 - bx.p0, by.p1 - by.p0) / 10.0, 0.5)
                covariance = np.eye(2 * m) * scale**2
            samples = sample_initializations(mean, covariance, problem.n_batch, seed)
        state = init_state(problem, samples, params)
    else:
        _check_state(state, problem, struct)
        _recentre(state, problem, struct)

    best_history = []
    last_change = 0
    maxabs_hist: list[float] = []
    for _ in range(params.max_iter):
        batch_iteration(state, problem, struct)
        best_idx = int(np.argmin(state.residual_norm))
        best_history.append(
            {"norm": float(state.residual_norm[best_idx]), "max_abs": float(state.residual_max[best_idx]), "rho": state.rho}
        )
        maxabs_hist.append(float(state.residual_max.min()))
        since_change = state.iteration - last_change
        if stalled(maxabs_hist, since_change, params.stall_window, params.stall_improvement, max(params.tol, 0.0)):
            state.rho = min(state.rho * params.rho_growth, params.rho_cap)
            state.rho_psi = min(state.rho_psi * params.rho_growth, params.rho_cap)
            last_change = state.iteration

    residual_max, residual_norm = state.residual_max, state.residual_norm
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
        trajectories=trajectories, costs=costs, aug_costs=aug_costs, residual_max=residual_max,
        residual_norm=residual_norm, feasible=feasible, best_index=best_index, best_history=best_history,
        iterations=state.iteration, n_factorizations=state.n_factorizations, state=state,
    )
