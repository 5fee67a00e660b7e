"""Projection-guided sampling optimization with a plain CEM baseline.

Sampled coefficient vectors are individually projected toward the feasible
set before their cost is evaluated, so the sampling distribution receives a
useful signal even when every raw sample is infeasible.  The projection is
an alternating scheme on

    min 0.5 ||xi_bar - xi||^2   s.t.  A xi_bar = b_eq,
                                      F xi_bar = e(alpha, beta, d)

where the rows of F sample each axis's position once per obstacle, its
velocity and acceleration, and its position twice more for the lower and
upper workspace bounds.  The collision, velocity and acceleration rows are
in polar form.  Their closed-form alpha/beta/d sub-steps need no angles:
since cos(arctan2(y, x)) = x / r, the target of an offset delta is
delta * clip(r, lower, upper) / r, a radial clamp of its scaled norm r
(geometry.radial_clamp).  The workspace rows take a clipped slack, so
their residual is pos - clip(pos, s_min, s_max).

Each inner iteration works in sample space per axis and returns to
coefficient space with one small product per family:

    residual @ F = (sum_obstacles res + res_box) @ P + res_v @ Pdot + res_a @ Pddot
    e @ F        = xi @ F'F - residual @ F

F is never built.  F'F is block diagonal with one (m, m) block per axis,
n_o P'P + Pdot'Pdot + Pddot'Pddot + 2 P'P, and the saddle matrix of the
coefficient step, built from I + rho F'F, does not depend on the sample, so
one cached factor serves the whole batch for every inner iteration.

The collision rows are taken on their active set by geometry.ObstacleRows,
the pass the batch solver shares.  A collision residual is exactly zero
wherever the squared scaled norm q of its offset lies in [1, D_CAP**2] (the
zero band of radial_clamp), and in practice under 1% of the (sample,
obstacle, time) entries fall outside it.  The pass's broad phase cuts time
into windows and forms q only where a sample's range over a window meets
an obstacle's box, widened by its semi-axes, on every axis: about 1% of the
entries in barn-like plans.  Only the entries outside the band (NaN
included) go through radial_clamp.  Each per-axis sum over obstacles is
the active residuals added in obstacle order, and equals the dense sum bit
for bit.  The velocity and acceleration rows go through geometry.norm_clamp,
the batch solver's too, which clamps only where their q exceeds 1 (their
zero band is [0, 1]) or is NaN.  A family with no sample beyond its bound
costs one pass over its squared norms and adds nothing to the residual
norm or the products; so does the workspace family when every sample lies
inside the box.  Each iterate gets one residual pass, shared by the next
step, the residual history and the final scores and samples.  The CEM
baseline's obstacle penalty, the sum of max(0, 1 - q), takes the same broad
phase (ObstacleRows.penetrations).

The cost functional is a black box evaluated on a stack of sampled
trajectories; nothing here differentiates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix
from .geometry import ObstacleRows, Obstacles, check_gaussian, check_obstacles, draw_gaussian, norm_clamp

_SPEED_EPS = 1e-6


@dataclass
class PriestParams:
    n_outer: int = 13
    n_batch: int = 110
    n_constraint_elite: int = 80
    n_elite: int = 20
    n_inner: int = 30
    sigma: float = 0.7
    gamma: float = -1.0
    residual_weight: float = 1.0
    seed: int | None = 0

    def __post_init__(self):
        for name in ("n_outer", "n_inner", "n_elite"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (self.n_elite <= self.n_constraint_elite <= self.n_batch):
            raise ValueError("need n_elite <= n_constraint_elite <= n_batch")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("learning rate sigma must lie in (0, 1]")
        if not (np.isfinite(self.gamma) and self.gamma != 0.0):
            raise ValueError(f"gamma must be finite and nonzero, got {self.gamma}")
        if not np.isfinite(self.residual_weight):
            raise ValueError(f"residual_weight must be finite, got {self.residual_weight}")


@dataclass
class CemParams:
    n_batch: int = 110
    n_elite: int = 20
    iterations: int = 13
    seed: int | None = 0
    penalty_weight: float = 1.0

    def __post_init__(self):
        for name in ("iterations", "n_elite"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_elite > self.n_batch:
            raise ValueError("need n_elite <= n_batch")
        if not np.isfinite(self.penalty_weight):
            raise ValueError(f"penalty_weight must be finite, got {self.penalty_weight}")


@dataclass
class SamplingDistribution:
    mu: np.ndarray
    sigma_mat: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma_mat = np.asarray(self.sigma_mat, dtype=float)
        check_gaussian(self.mu, self.sigma_mat)


@dataclass
class ProjectedSample:
    projected: np.ndarray
    residual: float
    trajectory: Trajectory
    aug_cost: float


class ProjectionSetup:
    """Constant matrices and obstacle data for projecting onto one scene.

    Workspace bounds, velocity and acceleration limits are optional; with
    everything absent the projection reduces to the minimum-change
    correction onto the boundary equalities.  Inputs are checked here, so a
    projection never starts on malformed scene data.
    """

    def __init__(
        self,
        basis: BasisSet,
        boundary: tuple[AxisBoundary, ...],
        obstacles: Obstacles | None = None,
        v_max: float | None = None,
        a_max: float | None = None,
        s_min=None,
        s_max=None,
        rho: float = 1.0,
        start_orders=(0, 1, 2),
        end_orders=(0,),
    ):
        self.basis = basis
        self.boundary = boundary
        self.dim = len(boundary)
        self.v_max = v_max
        self.a_max = a_max
        self.s_min = None if s_min is None else np.asarray(s_min, dtype=float)
        self.s_max = None if s_max is None else np.asarray(s_max, dtype=float)
        self.rho = rho

        m, dim = basis.n_var, self.dim
        self.m = m
        self.b_eq = np.concatenate([bc.values(start_orders, end_orders) for bc in boundary])
        self._validate()
        self.obstacles = check_obstacles(obstacles, dim, basis.n_p)
        self.n_o = n_o = self.obstacles.n_o

        self.A = np.kron(np.eye(dim), boundary_matrix(basis, start_orders, end_orders))
        # position, velocity and acceleration samples of one axis in one product
        self._pva = np.vstack([basis.P, basis.Pdot, basis.Pddot])

        # F'F of the stacked constraint rows, one (m, m) block per axis: every
        # obstacle and both workspace bounds contribute P'P
        PtP = basis.P.T @ basis.P
        FtF = n_o * PtP
        if v_max is not None:
            FtF = FtF + basis.Pdot.T @ basis.Pdot
        if a_max is not None:
            FtF = FtF + basis.Pddot.T @ basis.Pddot
        if self.s_min is not None:
            FtF = FtF + 2.0 * PtP
        self.FtF = FtF

        self.factor = qpcore.factorize(np.eye(dim * m) + rho * np.kron(np.eye(dim), FtF), self.A)
        self.n_factorizations = 1

    def _validate(self):
        dim = self.dim
        if dim not in (2, 3):
            raise ValueError(f"need 2 or 3 axis boundaries, got {dim}")
        if not np.all(np.isfinite(self.b_eq)):
            raise ValueError("boundary values must be finite")
        for name, limit in (("v_max", self.v_max), ("a_max", self.a_max)):
            if limit is not None and not (np.isfinite(limit) and limit > 0):
                raise ValueError(f"{name} must be positive and finite, got {limit}")
        if (self.s_min is None) != (self.s_max is None):
            raise ValueError("give both workspace bounds s_min and s_max, or neither")
        if self.s_min is not None:
            if self.s_min.shape != (dim,) or self.s_max.shape != (dim,):
                raise ValueError(f"workspace bounds must have shape ({dim},)")
            if not (np.all(np.isfinite(self.s_min)) and np.all(np.isfinite(self.s_max))):
                raise ValueError("workspace bounds must be finite")
            if np.any(self.s_min >= self.s_max):
                raise ValueError("workspace bounds need s_min < s_max on every axis")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    # -- sampling helpers ----------------------------------------------------

    def axis_samples(self, xis: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Apply one basis matrix per axis: (N, dim*m) -> (N, dim, rows of mat)."""
        xis = np.atleast_2d(xis)
        n = xis.shape[0]
        return (xis.reshape(n * self.dim, self.m) @ mat.T).reshape(n, self.dim, mat.shape[0])

    def pva_samples(self, xis: np.ndarray) -> np.ndarray:
        """Position, velocity and acceleration samples: (N, dim, 3, n_p)."""
        xis = np.atleast_2d(xis)
        return self.axis_samples(xis, self._pva).reshape(xis.shape[0], self.dim, 3, self.basis.n_p)

    def trajectory_of(self, xi: np.ndarray) -> Trajectory:
        return self._trajectory(self.pva_samples(xi)[0])

    def _trajectory(self, pva: np.ndarray) -> Trajectory:
        pos, vel, acc = pos_vel_acc(pva)
        return Trajectory(t=self.basis.grid.timestamps, pos=pos, vel=vel, acc=acc)


def pos_vel_acc(pva: np.ndarray) -> np.ndarray:
    """Position, velocity and acceleration of (..., dim, 3, n_p) samples: a (3, ..., n_p, dim) view."""
    return np.moveaxis(pva, -2, 0).swapaxes(-1, -2)


def _residuals(setup: ProjectionSetup, pva: np.ndarray, rows: ObstacleRows):
    """Residuals x - e of every constraint family, in sample space.

    pva holds the (N, dim, 3, n_p) samples and rows the obstacle workspace
    for N samples.  Returns (obstacle, families, sq): obstacle is the
    (dim, N, n_p) sum over obstacles of the collision residuals; families
    pairs each other family's (N, dim, n_p) residual with the basis matrix
    it is sampled by, so that residual @ F is the sum of their products; sq
    is the (N,) squared norm of all residuals per sample.  A workspace
    family with every sample inside the box, or a kinematic one with none
    beyond its bound, is left out of families: its residual is all zero.
    """
    pos = pva[:, :, 0]
    obstacle, sq, _ = rows.residuals(pos)
    families = []
    if setup.s_min is not None:
        # max(0, pos - s_max) - max(0, s_min - pos) value for value, as fl(s - p) = -fl(p - s)
        box = pos - np.clip(pos, setup.s_min[:, None], setup.s_max[:, None])
        if box.any():  # NaN counts as nonzero
            families.append((box, setup.basis.P))
    for order, limit, mat in ((1, setup.v_max, setup.basis.Pdot), (2, setup.a_max, setup.basis.Pddot)):
        if limit is not None:
            res = norm_clamp([pva[:, k, order] for k in range(setup.dim)], limit)
            if res is not None:
                families.append((np.stack(res, axis=1), mat))
    for res, _ in families:
        sq += np.einsum("nij,nij->n", res, res)
    return obstacle, families, sq


def project(
    setup: ProjectionSetup,
    samples: np.ndarray,
    n_inner: int = 30,
    residual_history: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project each sampled coefficient vector toward the feasible set.

    All samples share the cached saddle factor; each inner iteration takes
    the clamp residuals in sample space, returns them to coefficient space
    with one product per family, ascends the multipliers, and makes one
    batched coefficient solve.  Each iterate gets one residual pass, which
    serves the next iteration, the history and, for the last iterate, the
    returned scores.  Returns (xi_bar, scores, pva): the (N, dim*m)
    projected coefficients, their (N,) residual scores and their
    (N, dim, 3, n_p) samples.  Pass a list as residual_history to collect
    the per-inner-iteration residual scores (shape (N,) each).
    """
    if n_inner < 1:
        raise ValueError("n_inner must be at least 1")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dim, m = setup.dim, setup.m
    if samples.ndim != 2 or samples.shape[1] != dim * m:
        raise ValueError(f"samples must have shape (N, {dim * m}), got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    n = samples.shape[0]
    rows = ObstacleRows(setup.obstacles, n)
    xi_bar = samples.copy()
    lam = np.zeros_like(samples)
    bs = np.tile(setup.b_eq, (n, 1))
    rho = setup.rho
    pva = setup.pva_samples(xi_bar)
    obstacle, families, sq = _residuals(setup, pva, rows)
    for _ in range(n_inner):
        res_f = np.empty((n, dim, m))  # residual @ F, per axis
        for k in range(dim):
            res_f[:, k] = obstacle[k] @ setup.basis.P
        for res, mat in families:
            res_f += (res.reshape(n * dim, -1) @ mat).reshape(n, dim, m)
        res_f = res_f.reshape(n, dim * m)
        lam = lam - rho * res_f
        # e @ F = xi @ F'F - residual @ F
        e_f = (xi_bar.reshape(n * dim, m) @ setup.FtF).reshape(n, dim * m) - res_f
        q_lin = -(samples + lam + rho * e_f)
        xi_bar, _ = qpcore.solve_batch(setup.factor, qpcore.BatchRHS(qs=q_lin, bs=bs))
        pva = setup.pva_samples(xi_bar)
        obstacle, families, sq = _residuals(setup, pva, rows)
        if residual_history is not None:
            residual_history.append(np.sqrt(sq))

    return xi_bar, np.sqrt(sq), pva


def residual_scores(setup: ProjectionSetup, xis: np.ndarray) -> np.ndarray:
    """Constraint-violation score per sample: L2 norm of the stacked
    reformulated-equality residuals and clipped affine violations."""
    pva = setup.pva_samples(xis)
    _, _, sq = _residuals(setup, pva, ObstacleRows(setup.obstacles, pva.shape[0]))
    return np.sqrt(sq)


@dataclass
class PriestResult:
    best: ProjectedSample
    mu: np.ndarray
    sigma_mat: np.ndarray
    history: list
    params: PriestParams


def update_distribution(mu, sigma_mat, elite_xi, elite_costs, sigma, gamma):
    """Exponentially weighted mean/covariance refit with learning rate.

    Weights exp((cost - min cost) / gamma) favor low cost for gamma < 0; the
    min-cost shift only stabilizes the exponentials (the normalized weights
    are shift-invariant).  Only the elites with a finite cost are weighed;
    with none, (mu, sigma_mat) is returned unchanged.
    """
    elite_xi = np.asarray(elite_xi, dtype=float)
    costs = np.asarray(elite_costs, dtype=float)
    finite = np.isfinite(costs)
    if not finite.any():
        return mu, sigma_mat
    elite_xi, costs = elite_xi[finite], costs[finite]
    weights = np.exp((costs - costs.min()) / gamma)
    wsum = weights.sum()
    weighted_mean = (weights[:, None] * elite_xi).sum(axis=0) / wsum
    new_mu = (1.0 - sigma) * mu + sigma * weighted_mean
    centered = elite_xi - new_mu[None, :]
    weighted_cov = (weights[:, None, None] * (centered[:, :, None] * centered[:, None, :])).sum(axis=0) / wsum
    new_sigma = (1.0 - sigma) * sigma_mat + sigma * weighted_cov
    return new_mu, new_sigma


def _batch_costs(c1, pva: np.ndarray) -> np.ndarray:
    costs = np.asarray(c1(pva), dtype=float)
    if costs.shape != (pva.shape[0],):
        raise ValueError(f"c1 must return one cost per sample, shape ({pva.shape[0]},), got {costs.shape}")
    return costs


def priest_optimize(
    setup: ProjectionSetup,
    c1,
    distribution: SamplingDistribution,
    params: PriestParams | None = None,
) -> PriestResult:
    """Projection-guided sampling loop.

    c1 is any callable that maps a stack of (N, dim, 3, n_p) pva samples (see
    pos_vel_acc) to their (N,) costs, called once per outer iteration on the
    n_constraint_elite lowest-residual samples; a stable argsort ranks the
    costs, NaN last.  The returned sample is the lowest-augmented-cost member
    of the final elite set; per-iteration bests are kept in the history.
    """
    params = params or PriestParams()
    rng = np.random.default_rng(params.seed)
    mu = distribution.mu.copy()
    sigma_mat = distribution.sigma_mat.copy()
    history = []
    for _ in range(params.n_outer):
        samples = draw_gaussian(rng, mu, sigma_mat, params.n_batch)
        xi_bar, residuals, pva = project(setup, samples, n_inner=params.n_inner)
        keep = np.argsort(residuals, kind="stable")[: params.n_constraint_elite]
        aug_costs = _batch_costs(c1, pva[keep]) + params.residual_weight * residuals[keep]
        order = np.argsort(aug_costs, kind="stable")[: params.n_elite]
        elites = keep[order]
        mu, sigma_mat = update_distribution(mu, sigma_mat, xi_bar[elites], aug_costs[order], params.sigma, params.gamma)
        best, best_cost = elites[0], float(aug_costs[order[0]])
        history.append(
            {
                "best_aug_cost": best_cost,
                "best_residual": float(residuals[best]),
                "min_residual": float(residuals.min()),
            }
        )
    trajectory = setup._trajectory(pva[best])
    best_sample = ProjectedSample(
        projected=xi_bar[best], residual=float(residuals[best]), trajectory=trajectory, aug_cost=best_cost
    )
    return PriestResult(best=best_sample, mu=mu, sigma_mat=sigma_mat, history=history, params=params)


@dataclass
class CemResult:
    best_xi: np.ndarray
    best_cost: float
    best_trajectory: Trajectory
    mu: np.ndarray
    sigma_mat: np.ndarray
    history: list
    params: CemParams


def _cem_penalty(setup: ProjectionSetup, pva: np.ndarray, rows: ObstacleRows) -> np.ndarray:
    """Linear max(0, g) penalties of the raw inequality constraints on the
    (N, dim, 3, n_p) samples pva; rows is the obstacle workspace for N samples."""
    pos, vel, acc = pva[:, :, 0], pva[:, :, 1], pva[:, :, 2]
    total = np.zeros(pva.shape[0])
    if setup.n_o:
        total += rows.penetrations(pos)
    if setup.v_max is not None:
        total += np.maximum(0.0, (vel**2).sum(axis=1) - setup.v_max**2).sum(axis=1)
    if setup.a_max is not None:
        total += np.maximum(0.0, (acc**2).sum(axis=1) - setup.a_max**2).sum(axis=1)
    if setup.s_min is not None:
        box = np.maximum(0.0, setup.s_min[:, None] - pos) + np.maximum(0.0, pos - setup.s_max[:, None])
        total += box.sum(axis=(1, 2))
    return total


def cem_optimize(
    setup: ProjectionSetup,
    c1,
    distribution: SamplingDistribution,
    params: CemParams | None = None,
) -> CemResult:
    """Plain cross-entropy baseline: no projection, penalty-based evaluation,
    unweighted elite mean/covariance refit.  c1 is as in priest_optimize,
    called once per iteration on every raw sample.  The best sample is the
    first iteration's until a lower cost is drawn (a NaN one until any
    number), so a cost that is never finite still returns one."""
    params = params or CemParams()
    rng = np.random.default_rng(params.seed)
    mu = distribution.mu.copy()
    sigma_mat = distribution.sigma_mat.copy()
    rows = ObstacleRows(setup.obstacles, params.n_batch)
    history = []
    best_xi, best_cost = None, np.inf
    for _ in range(params.iterations):
        samples = draw_gaussian(rng, mu, sigma_mat, params.n_batch)
        pva = setup.pva_samples(samples)
        costs = _batch_costs(c1, pva) + params.penalty_weight * _cem_penalty(setup, pva, rows)
        order = np.argsort(costs, kind="stable")
        elites = samples[order[: params.n_elite]]
        mu = elites.mean(axis=0)
        centered = elites - mu[None, :]
        sigma_mat = (centered[:, :, None] * centered[:, None, :]).mean(axis=0)
        top = costs[order[0]]  # NaN only when every cost is
        if best_xi is None or top < best_cost or (np.isnan(best_cost) and not np.isnan(top)):
            best_cost = float(top)
            best_xi = samples[order[0]].copy()
        history.append({"best_cost": float(costs[order[0]]), "mean_cost": float(costs.mean())})
    return CemResult(
        best_xi=best_xi,
        best_cost=best_cost,
        best_trajectory=setup.trajectory_of(best_xi),
        mu=mu,
        sigma_mat=sigma_mat,
        history=history,
        params=params,
    )


def flatness_car(vel: np.ndarray, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward speed and curvature of planar trajectories.

    Curvature is undefined (NaN) where the speed is below threshold.
    vel/acc have shape (..., n_p, 2); speed and curvature (..., n_p).
    """
    vel = np.asarray(vel, dtype=float)
    acc = np.asarray(acc, dtype=float)
    speed = np.hypot(vel[..., 0], vel[..., 1])
    kappa = np.full_like(speed, np.nan)
    ok = speed > _SPEED_EPS
    kappa[ok] = (acc[..., 1] * vel[..., 0] - acc[..., 0] * vel[..., 1])[ok] / speed[ok] ** 3
    return speed, kappa


def barn_cost(pos: np.ndarray, vel: np.ndarray, acc: np.ndarray, line_start, line_end):
    """Clutter-navigation cost: squared accelerations, squared curvature, and
    squared orthogonal distance to the straight start-goal line.

    pos/vel/acc have shape (..., n_p, dim); the cost has the leading shape.
    Curvature terms are skipped at samples with near-zero speed.
    """
    pos = np.asarray(pos, dtype=float)
    acc = np.asarray(acc, dtype=float)
    smooth = np.sum(acc[..., 0] ** 2 + acc[..., 1] ** 2, axis=-1)
    _, kappa = flatness_car(vel, acc)
    c_kappa = np.nansum(kappa**2, axis=-1)
    start = np.asarray(line_start, dtype=float)[:2]
    end = np.asarray(line_end, dtype=float)[:2]
    axis = end - start
    length = np.linalg.norm(axis)
    rel = pos[..., :2] - start
    if length < 1e-12:
        dist2 = (rel**2).sum(axis=-1)
    else:
        u = axis / length
        along = rel @ u
        dist2 = (rel**2).sum(axis=-1) - along**2
    c_p = np.sum(np.maximum(dist2, 0.0), axis=-1)
    return smooth + c_kappa + c_p
