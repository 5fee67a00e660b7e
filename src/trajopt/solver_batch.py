"""Batch 2-D trajectory optimization for a multi-circle footprint with heading.

Hundreds of Gaussian initializations are refined simultaneously.  Per member
the decision vector is xi = (xi_x, xi_c, xi_y, xi_s) where xi_c/xi_s
parameterize copies of cos(psi)/sin(psi), plus a separate heading block
xi_psi.  Velocity/acceleration norm bounds and per-circle collision
constraints are polar equalities F xi = g; per axis (x with the cos copy)
the rows are Pdot xi_x = t_v, Pddot xi_x = t_a, P xi_x + r_c P xi_c =
centre_o + t_coll for every circle c and obstacle o, and P xi_c = cos(psi).

Each target is the closed-form polar projection of its row's own value,
and geometry.radial_clamp gives the residual value - target with no angles.
The solver works in residual form: F, g and the targets are never stored.
polar_step, the one residual pass per iterate, takes per axis the residuals

    velocity, acceleration:  radial_clamp of Pdot xi_x, Pddot xi_x
    collision:               radial_clamp of P xi_x + r_c P xi_c - centre_o
    copy:                    P xi_c - cos psi

and residual @ F as one product per family,

    x columns:     (sum_c sum_o res_coll) @ P + res_v @ Pdot + res_a @ Pddot
    copy columns:  (sum_c r_c sum_o res_coll + res_copy) @ P

The collision rows place each footprint circle by the copies, as the rows
F xi read it, so their values are the circles the xi step moves; the true
circles at cos psi serve only the raw feasibility check.  At a fixed point
P xi_c = cos psi and the two coincide.  The rows are taken on their active
set by geometry.ObstacleRows, the pass the priest projection shares, with
every footprint circle one point of that pass.  The clamp's residual is
exactly zero wherever the squared scaled norm q of an offset lies in
[1, D_CAP**2], and in dynamic-flow plans 0.06-1.2% of the (member, circle,
obstacle, time) entries fall outside it in any iteration, so only those
(NaN included) are clamped; q itself is formed only on the time windows
where a circle can come near an obstacle (the pass's broad phase).  The
sums over obstacles add the active terms in obstacle order and equal the
dense sum bit for bit, and so do residual @ F, g @ F and the per-member
residual max; the per-member norm sums its squares in another order.  The
velocity and acceleration rows go through geometry.norm_clamp, which
clamps only the samples beyond their bound.  A family with no such sample
costs one pass over its squared norms: norm_clamp returns None and the
family adds nothing to the residual max, the norm or the products, whose
terms would all be zero.  The copies P xi_c, P xi_s are formed once per
iteration, for the heading step and the residual pass.

F'F is one closed-form (2m, 2m) block per axis,

    [[Pdot'Pdot + Pddot'Pddot + n_c n_o P'P,  (sum r) n_o P'P          ],
     [(sum r) n_o P'P,                         ((sum r^2) n_o + 1) P'P ]]

So the xi-step KKT matrix Q + rho F'F is factorized once per penalty value
and applied to the whole batch in one shot; the state keeps it, and the
heading block's Q_psi + rho P'P, in a qpcore.FactorCache each.  From
the same pass the multiplier step reads residual @ F, the next xi step
g @ F = xi F'F - residual @ F, and the ranking each member's residual max
and norm.  The obstacle centres enter g @ F linearly, so a warm start on
moved obstacles adds the products of the centre displacement once.  The
heading block is fit to arctan2(sin-copy, cos-copy) targets (a convex
surrogate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import ObstacleRows, Obstacles, check_gaussian, check_obstacles, check_schedule, draw_gaussian, norm_clamp, stalled


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
    obstacles: Obstacles | None  # None: no obstacles
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
        self.obstacles = check_obstacles(self.obstacles, 2, n_p)

    @property
    def n_o(self) -> int:
        return self.obstacles.n_o


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
        if not (np.isfinite(self.d_margin) and 0.0 <= self.d_margin < 1.0):
            raise ValueError(f"d_margin must lie in [0, 1), got {self.d_margin}")
        if not (np.isfinite(self.kin_margin) and self.kin_margin >= 0.0):
            raise ValueError(f"kin_margin must be non-negative and finite, got {self.kin_margin}")


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
    rho: float  # the penalty of the xi and heading steps
    iteration: int = 0
    # the KKT factors of the xi and heading steps
    xi_factors: qpcore.FactorCache = field(default_factory=qpcore.FactorCache, repr=False)
    psi_factors: qpcore.FactorCache = field(default_factory=qpcore.FactorCache, repr=False)
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
    check_gaussian(mean, covariance)
    return draw_gaussian(np.random.default_rng(seed), mean, covariance, n_batch)


class _Structure:
    """Constant matrices of one BatchProblem (F'F, boundary rows, cost blocks)."""

    def __init__(self, problem: BatchProblem):
        basis = problem.basis
        m, n_o = basis.n_var, problem.n_o
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

        self.obstacles = problem.obstacles
        self._rows = None
        # the factor caches compare these by identity first
        for keyed in (self.Q, self.FtF, self.A, self.Q_psi_smooth, self.PtP, self.A_psi):
            keyed.setflags(write=False)

    def obstacle_rows(self, n_b: int) -> ObstacleRows:
        """The collision pass's workspace for n_b members, allocated at its first use in a solve."""
        if self._rows is None or self._rows.n != n_b * self.r.size:
            self._rows = ObstacleRows(self.obstacles, n_b * self.r.size)
        return self._rows


def _circles(struct, basis, xi, heading):
    """Footprint circle centres as points of the collision pass, (N_b * n_c, 2, n_p).

    heading is the (N_b, n_p) pair placing the circles along the body
    x-axis: the copies (P xi_c, P xi_s) in the residual pass, (cos psi,
    sin psi) for the true circles.  The circles are member-major.
    """
    xi_x, _, xi_y, _ = _split(xi, struct.m)
    r = struct.r[None, :, None]
    circles = [(xi_p @ basis.P.T)[:, None, :] + r * h[:, None, :] for xi_p, h in zip((xi_x, xi_y), heading)]
    return np.stack(circles, axis=2).reshape(-1, 2, basis.n_p)


def _split(xi, m):
    return xi[:, :m], xi[:, m : 2 * m], xi[:, 2 * m : 3 * m], xi[:, 3 * m :]


def _placed(xi, basis, m):
    """The heading copies (P xi_c, P xi_s) of every member, (N_b, n_p) each."""
    _, xi_c, _, xi_s = _split(xi, m)
    return xi_c @ basis.P.T, xi_s @ basis.P.T


def init_state(
    problem: BatchProblem,
    samples: np.ndarray,
    params: BatchParams | None = None,
    struct: _Structure | None = None,
) -> BatchState:
    """State from position-coefficient samples (N_b, 2m): [xi_x | xi_y].

    The heading is seeded from the desired-path direction; copies are made
    consistent with it and the first residual pass is taken at the sampled
    geometry; multipliers start at zero.  Samples must be finite, with at
    least one member.
    """
    params = params or BatchParams()
    struct = struct or _Structure(problem)
    basis, m = problem.basis, struct.m
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] != 2 * m:
        raise ValueError(f"expected samples of shape (N_b, {2 * m}) with N_b >= 1, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    n_b = samples.shape[0]

    path_dir = np.gradient(problem.desired, axis=0)
    psi_des = np.unwrap(np.arctan2(path_dir[:, 1], path_dir[:, 0]))
    xi_psi_one, *_ = np.linalg.lstsq(basis.P, psi_des, rcond=None)
    xi_psi = np.tile(xi_psi_one, (n_b, 1))
    psi = xi_psi @ basis.P.T

    xi_c_one, *_ = np.linalg.lstsq(basis.P, np.cos(psi_des), rcond=None)
    xi_s_one, *_ = np.linalg.lstsq(basis.P, np.sin(psi_des), rcond=None)
    xi = np.hstack([samples[:, :m], np.tile(xi_c_one, (n_b, 1)), samples[:, m:], np.tile(xi_s_one, (n_b, 1))])

    # the products and residuals are set by polar_step below
    state = BatchState(xi, xi_psi, psi, None, None, None, struct.obstacles.centres, struct.r, lam=np.zeros((n_b, 4 * m)),
                       lam_psi=np.zeros((n_b, m)), rho=params.rho_start)
    polar_step(state, problem, struct, _placed(state.xi, basis, m))
    return state


def _check_state(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Reject a warm state whose arrays do not fit this problem.

    Its factor caches are left as they are: the first iteration refactors
    the saddles of this problem that differ from the ones they hold.
    """
    n_b, m, n_p = state.xi.shape[0], struct.m, problem.basis.n_p
    shapes = {"xi": (n_b, 4 * m), "xi_psi": (n_b, m), "psi": (n_b, n_p), "lam": (n_b, 4 * m), "lam_psi": (n_b, m),
              "target_products": (n_b, 4 * m), "residual_max": (n_b,), "residual_norm": (n_b,),
              "centres": struct.obstacles.centres.shape, "offsets": struct.r.shape}
    for name, shape in shapes.items():
        got = np.shape(getattr(state, name))
        if got != shape:
            raise ValueError(f"warm state {name} has shape {got}, expected {shape} for this problem")


def _recentre(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Move a warm state's collision targets, relative to the centres, onto this problem's centres."""

    def centre_products(offsets, centres):  # every circle's collision rows target the centre
        # summed pairwise over a contiguous obstacle axis, (n_p, 2, n_o): the order warm outputs are recorded in
        x, y = np.ascontiguousarray(centres.transpose(2, 0, 1)).sum(axis=2).T @ problem.basis.P
        return np.concatenate([offsets.size * x, offsets.sum() * x, offsets.size * y, offsets.sum() * y])

    centres = struct.obstacles.centres
    shift = centre_products(struct.r, centres) - centre_products(state.offsets, state.centres)
    state.target_products = state.target_products + shift
    state.centres, state.offsets = centres, struct.r


def batch_xi_step(state: BatchState, problem: BatchProblem, struct: _Structure) -> None:
    """Shared-factor QP update of every member's stacked coefficients."""
    factor = state.xi_factors.get(struct.Q, struct.FtF, struct.A, state.rho)
    q_lin = struct.q[None, :] - state.lam - state.rho * state.target_products
    bs = np.tile(struct.b, (state.xi.shape[0], 1))
    state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=bs))


def heading_step(state: BatchState, problem: BatchProblem, struct: _Structure, placed: tuple) -> None:
    """Fit the heading block to unwrapped arctan2 targets from the copies placed = (P xi_c, P xi_s)."""
    factor = state.psi_factors.get(struct.Q_psi_smooth, struct.PtP, struct.A_psi, state.rho)
    basis = problem.basis
    raw = np.arctan2(placed[1], placed[0])
    # nearest-branch unwrapping against the previous heading iterate
    targets = raw + 2.0 * np.pi * np.round((state.psi - raw) / (2.0 * np.pi))
    q_lin = -state.lam_psi - state.rho * (targets @ basis.P)
    bs = np.tile(struct.b_psi, (state.xi.shape[0], 1))
    state.xi_psi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=bs))
    state.psi = state.xi_psi @ basis.P.T
    state._psi_targets = targets


def polar_step(state: BatchState, problem: BatchProblem, struct: _Structure, placed: tuple) -> np.ndarray:
    """The residual pass at the current iterate, family by family in sample space.

    placed is the pair of heading copies (P xi_c, P xi_s) at the iterate.
    Returns residual @ F, (N_b, 4m), and sets the state's residual_max,
    residual_norm and target products g @ F = xi F'F - residual @ F.  A
    kinematic family with no sample beyond its bound (norm_clamp's None)
    adds nothing to the max, the norm or the products.
    """
    basis, n_b, n_c = problem.basis, state.xi.shape[0], struct.r.size
    xi_x, _, xi_y, _ = _split(state.xi, struct.m)
    copies = [p - t for p, t in zip(placed, (np.cos(state.psi), np.sin(state.psi)))]
    # each collision row's value is its circle placed by the copies, less the centre
    sums, coll_sq, coll_peak = struct.obstacle_rows(n_b).residuals(_circles(struct, basis, state.xi, placed))
    res_max, sq = coll_peak.reshape(n_b, n_c).max(axis=1), coll_sq.reshape(n_b, n_c).sum(axis=1)
    kinematic = []  # the velocity and acceleration families with an active sample
    for limit, mat in ((problem.v_max, basis.Pdot), (problem.a_max, basis.Pddot)):
        res = norm_clamp([xi_x @ mat.T, xi_y @ mat.T], limit)
        if res is not None:
            kinematic.append((res, mat))
    products = []
    for k, copy in enumerate(copies):
        per_circle = sums[k].reshape(n_b, n_c, -1)  # summed over obstacles
        x_columns = per_circle.sum(axis=1) @ basis.P
        for res, mat in kinematic:
            res_max = np.maximum(res_max, np.abs(res[k]).max(axis=1))
            sq += np.einsum("ij,ij->i", res[k], res[k])
            x_columns += res[k] @ mat
        res_max = np.maximum(res_max, np.abs(copy).max(axis=1))
        sq += np.einsum("ij,ij->i", copy, copy)
        products.append(x_columns)
        products.append((np.tensordot(struct.r, per_circle, axes=(0, 1)) + copy) @ basis.P)
    residual_products = np.hstack(products)
    state.target_products = state.xi @ struct.FtF - residual_products
    state.residual_max, state.residual_norm = res_max, np.sqrt(sq)
    return residual_products


def batch_iteration(state: BatchState, problem: BatchProblem, struct: _Structure) -> BatchState:
    batch_xi_step(state, problem, struct)
    placed = _placed(state.xi, problem.basis, struct.m)  # shared by the heading step and the residual pass
    heading_step(state, problem, struct, placed)
    state.lam = state.lam - state.rho * polar_step(state, problem, struct, placed)
    state.lam_psi = state.lam_psi - state.rho * ((state.psi - state._psi_targets) @ problem.basis.P)
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
    """Direct evaluation of the original quadratic constraints per member.

    A member is feasible when every circle keeps a scaled distance of at
    least 1 - d_margin from every obstacle, and its speed and acceleration
    stay within (1 + kin_margin) of their limits; d_margin lies in [0, 1).
    """
    basis, m, n_b = problem.basis, struct.m, state.xi.shape[0]
    xi_x, _, xi_y, _ = _split(state.xi, m)
    ok = np.ones(n_b, dtype=bool)
    if problem.n_o:
        circles = _circles(struct, basis, state.xi, (np.cos(state.psi), np.sin(state.psi)))
        # exact here: an entry the broad phase skips has q >= 1, and d_margin >= 0
        q = struct.obstacle_rows(n_b).least_sq_norms(circles)
        # sqrt is monotone, so the least distance is the root of the least q
        ok &= np.sqrt(q.reshape(n_b, -1).min(axis=1)) >= 1.0 - d_margin
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
        state = init_state(problem, samples, params, struct)
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
        iterations=state.iteration, n_factorizations=state.xi_factors.count + state.psi_factors.count, state=state,
    )
