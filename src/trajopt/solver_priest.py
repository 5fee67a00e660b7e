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

F is never built.  F'F is block diagonal with the same (m, m) block for
every axis, n_o P'P + Pdot'Pdot + Pddot'Pddot + 2 P'P (summed from the
basis's own Gram blocks), and the boundary rows A, the basis's own, are
per axis too, so the coefficient step splits into one saddle per
axis, all on the block I + rho F'F and the one axis's boundary rows.  That
block does not depend on the axis or the sample: one cached (m, m) factor
serves every axis of every sample, applied to the (N * dim, m) axis rows of
the batch in one product, for every inner iteration.

The collision rows are taken on their active set by geometry.ObstacleRows,
the pass the batch solver shares.  A collision residual is exactly zero
wherever the squared scaled norm q of its offset lies in [1, D_CAP**2] (the
zero band of radial_clamp), and in practice under 1% of the (sample,
obstacle, time) entries fall outside it.  The pass's broad phase cuts time
into windows and forms q only where a sample's range over a window meets
an obstacle's box, widened by its semi-axes, on every axis: about 2% of the
entries in barn-like plans (1.5-3.1% at the first pass of 110 samples, and
0.6-3.3% after 30 inner iterations, over seeds 0-5).  Only the entries
outside the band (NaN included) go through radial_clamp.  Each per-axis sum
over obstacles is the active residuals added in obstacle order, and equals
the dense sum bit for bit.  The velocity and acceleration rows go through
geometry.norm_clamp, the batch solver's too, which clamps only where their
q exceeds 1 (their zero band is [0, 1]) or is NaN.  A family with no sample
beyond its bound costs one pass over its squared norms and adds nothing to
the residual norm or the products.  So does the workspace family when
every sample lies inside the box, which the per-axis extremes of the
positions, read from the broad phase, show without forming the box.  Each
iterate gets one residual pass, shared by the next step, the residual
history and the final scores and samples; the per-sample squared norms are
reduced from it only where they are read, for the history and after the
last iterate.  The CEM baseline's obstacle penalty, the sum of
max(0, 1 - q), takes the same broad phase (ObstacleRows.penetrations), and
its workspace term the same extremes test.

The cost functional is a black box evaluated on a stack of sampled
trajectories; nothing here differentiates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory
from .geometry import ObstacleRows, Obstacles, check_count, check_gaussian, check_obstacles, check_real, draw_gaussian, norm_clamp

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
        check_count(self, 1, "n_outer", "n_batch", "n_constraint_elite", "n_elite", "n_inner")
        if self.seed is not None:
            check_count(self, 0, "seed")
        if not (self.n_elite <= self.n_constraint_elite <= self.n_batch):
            raise ValueError("need n_elite <= n_constraint_elite <= n_batch")
        check_real(self, "positive and finite", "sigma")
        if self.sigma > 1.0:
            raise ValueError(f"learning rate sigma must lie in (0, 1], got {self.sigma}")
        check_real(self, "finite", "gamma", "residual_weight")
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero")


@dataclass
class CemParams:
    n_batch: int = 110
    n_elite: int = 20
    iterations: int = 13
    seed: int | None = 0
    penalty_weight: float = 1.0

    def __post_init__(self):
        check_count(self, 1, "iterations", "n_batch", "n_elite")
        if self.seed is not None:
            check_count(self, 0, "seed")
        if self.n_elite > self.n_batch:
            raise ValueError("need n_elite <= n_batch")
        check_real(self, "finite", "penalty_weight")


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

    # the projection's penalty, fixed as in PRIEST: one factor serves every inner iteration
    rho = 1.0

    def __init__(
        self,
        basis: BasisSet,
        boundary: tuple[AxisBoundary, ...],
        obstacles: Obstacles | None = None,
        v_max: float | None = None,
        a_max: float | None = None,
        s_min=None,
        s_max=None,
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

        m, dim = basis.n_var, self.dim
        self.m = m
        self.b_eq = np.concatenate([bc.values(start_orders, end_orders) for bc in boundary])
        self._validate()
        self.obstacles = check_obstacles(obstacles, dim, basis.n_p)
        self.n_o = n_o = self.obstacles.n_o

        # position, velocity and acceleration samples of one axis in one product
        self._pva = np.vstack([basis.P, basis.Pdot, basis.Pddot])

        # F'F of the stacked constraint rows, one (m, m) block per axis: every
        # obstacle and both workspace bounds contribute P'P
        PtP, PdtPd, PddtPdd = basis.gram
        FtF = n_o * PtP
        if v_max is not None:
            FtF = FtF + PdtPd
        if a_max is not None:
            FtF = FtF + PddtPdd
        if self.s_min is not None:
            FtF = FtF + 2.0 * PtP
        self.FtF = FtF

        # the saddle of one axis on the basis's boundary rows; every axis of every sample shares it
        self.factor = qpcore.factorize(np.eye(m) + self.rho * FtF, basis.boundary_rows(start_orders, end_orders))
        self.n_factorizations = 1

    def _validate(self):
        dim = self.dim
        if dim not in (2, 3):
            raise ValueError(f"need 2 or 3 axis boundaries, got {dim}")
        if not np.all(np.isfinite(self.b_eq)):
            raise ValueError("boundary values must be finite")
        check_real(self, "positive and finite", *(name for name in ("v_max", "a_max") if getattr(self, name) is not None))
        if (self.s_min is None) != (self.s_max is None):
            raise ValueError("give both workspace bounds s_min and s_max, or neither")
        if self.s_min is not None:
            if self.s_min.shape != (dim,) or self.s_max.shape != (dim,):
                raise ValueError(f"workspace bounds must have shape ({dim},)")
            if not (np.all(np.isfinite(self.s_min)) and np.all(np.isfinite(self.s_max))):
                raise ValueError("workspace bounds must be finite")
            if np.any(self.s_min >= self.s_max):
                raise ValueError("workspace bounds need s_min < s_max on every axis")

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


def _inside(setup: ProjectionSetup, rows: ObstacleRows) -> bool:
    """Whether every point of rows' last pass lies inside the workspace box, from each axis's extremes.

    NaN fails the comparison, so a NaN position is never inside.
    """
    least, greatest = rows.extremes()
    return bool(np.all(least >= setup.s_min) and np.all(greatest <= setup.s_max))


def _family_residuals(setup: ProjectionSetup, pva: np.ndarray, rows: ObstacleRows):
    """Residuals x - e of every constraint family, in sample space.

    pva holds the (N, dim, 3, n_p) samples and rows the obstacle workspace
    for N samples.  Returns (obstacle, families): obstacle is the
    (dim, N, n_p) sum over obstacles of the collision residuals; families
    pairs each other family's (N, dim, n_p) residual with the basis matrix
    it is sampled by, so that residual @ F is the sum of their products.  A
    workspace family with every sample inside the box, or a kinematic one
    with none beyond its bound, is left out of families: its residual is all
    zero.  rows keeps the collision entries for _sq_norms.
    """
    pos = pva[:, :, 0]
    obstacle = rows.residuals(pos)
    families = []
    if setup.s_min is not None and not _inside(setup, rows):
        # max(0, pos - s_max) - max(0, s_min - pos) value for value, as fl(s - p) = -fl(p - s);
        # np.maximum then np.minimum give np.clip's values, NaN included
        box = pos - np.minimum(np.maximum(pos, setup.s_min[:, None]), setup.s_max[:, None])
        if box.any():  # NaN counts as nonzero
            families.append((box, setup.basis.P))
    for order, limit, mat in ((1, setup.v_max, setup.basis.Pdot), (2, setup.a_max, setup.basis.Pddot)):
        if limit is not None:
            res = norm_clamp([pva[:, k, order] for k in range(setup.dim)], limit)
            if res is not None:
                families.append((np.stack(res, axis=1), mat))
    return obstacle, families


def _sq_norms(rows: ObstacleRows, families: list) -> np.ndarray:
    """The (N,) squared norm of all residuals per sample, of the pass that gave families."""
    sq, _ = rows.scores()
    for res, _ in families:
        sq += np.einsum("nij,nij->n", res, res)
    return sq


def _check_samples(setup: ProjectionSetup, samples) -> np.ndarray:
    """samples as an (N, dim*m) float array with N >= 1; any other shape is rejected."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.ndim != 2 or samples.shape[1] != setup.dim * setup.m:
        raise ValueError(f"samples must have shape (N, {setup.dim * setup.m}), got {samples.shape}")
    if not samples.shape[0]:
        raise ValueError("samples must hold at least one sample, got 0")
    return samples


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
    returned scores; the scores are reduced only where they are read.
    Returns (xi_bar, scores, pva): the (N, dim*m) projected coefficients,
    their (N,) residual scores and their (N, dim, 3, n_p) samples.  Pass a
    list as residual_history to collect the per-inner-iteration residual
    scores (shape (N,) each).
    """
    if n_inner < 1:
        raise ValueError("n_inner must be at least 1")
    samples = _check_samples(setup, samples)
    dim, m = setup.dim, setup.m
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    n = samples.shape[0]
    rows = ObstacleRows(setup.obstacles, n)
    xi_bar = samples.copy()
    # the coefficient step takes axis rows, (N * dim, m): row i * dim + k is axis k of sample i
    lam = np.zeros((n * dim, m))
    # the boundary values of each axis are the same for every sample and inner iteration
    boundary = np.tile(qpcore.boundary_part(setup.factor, setup.b_eq.reshape(dim, -1)), (n, 1))
    rho = setup.rho
    pva = setup.pva_samples(xi_bar)
    obstacle, families = _family_residuals(setup, pva, rows)
    for _ in range(n_inner):
        res_f = np.empty((n * dim, m))  # residual @ F
        for k in range(dim):
            res_f[k::dim] = obstacle[k] @ setup.basis.P
        for res, mat in families:
            res_f += res.reshape(n * dim, -1) @ mat
        lam = lam - rho * res_f
        # e @ F = xi @ F'F - residual @ F
        e_f = xi_bar.reshape(n * dim, m) @ setup.FtF - res_f
        q_lin = -(samples.reshape(n * dim, m) + lam + rho * e_f)
        xi_bar = qpcore.apply_primal(setup.factor, q_lin, boundary).reshape(n, dim * m)
        pva = setup.pva_samples(xi_bar)
        obstacle, families = _family_residuals(setup, pva, rows)
        if residual_history is not None:
            residual_history.append(np.sqrt(_sq_norms(rows, families)))

    return xi_bar, np.sqrt(_sq_norms(rows, families)), pva


def residual_scores(setup: ProjectionSetup, xis: np.ndarray) -> np.ndarray:
    """Constraint-violation score per sample: L2 norm of the stacked
    reformulated-equality residuals and clipped affine violations.

    xis is an (N, dim*m) array with N >= 1; other shapes are rejected.
    """
    pva = setup.pva_samples(_check_samples(setup, xis))
    rows = ObstacleRows(setup.obstacles, pva.shape[0])
    _, families = _family_residuals(setup, pva, rows)
    return np.sqrt(_sq_norms(rows, families))


@dataclass
class PriestResult:
    best: ProjectedSample
    mu: np.ndarray
    sigma_mat: np.ndarray
    history: list
    params: PriestParams


def update_distribution(mu, sigma_mat, elite_xi, elite_costs, sigma, gamma):
    """Exponentially weighted mean/covariance refit with learning rate.

    Weights exp((cost - shift) / gamma) favor low cost for gamma < 0 and
    high cost for gamma > 0.  The shift is the cost of the largest weight,
    the least cost for gamma < 0 and the greatest for gamma > 0, so no
    exponent is positive; it only stabilizes the exponentials (the
    normalized weights are shift-invariant).  Only the elites with a finite
    cost are weighed; with none, (mu, sigma_mat) is returned unchanged.
    """
    elite_xi = np.asarray(elite_xi, dtype=float)
    costs = np.asarray(elite_costs, dtype=float)
    finite = np.isfinite(costs)
    if not finite.any():
        return mu, sigma_mat
    elite_xi, costs = elite_xi[finite], costs[finite]
    weights = np.exp((costs - (costs.min() if gamma < 0 else costs.max())) / gamma)
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
    total += rows.penetrations(pos)  # zero without obstacles; the pass gives the box test its extremes
    if setup.v_max is not None:
        total += np.maximum(0.0, (vel**2).sum(axis=1) - setup.v_max**2).sum(axis=1)
    if setup.a_max is not None:
        total += np.maximum(0.0, (acc**2).sum(axis=1) - setup.a_max**2).sum(axis=1)
    if setup.s_min is not None and not _inside(setup, rows):
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
    unweighted elite mean/covariance refit (update_distribution with equal
    weights and learning rate 1).  c1 is as in priest_optimize,
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
        mu, sigma_mat = update_distribution(mu, sigma_mat, elites, np.zeros(len(elites)), sigma=1.0, gamma=-1.0)
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
