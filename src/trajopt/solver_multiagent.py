"""Joint multi-agent trajectory optimization with pairwise sphere constraints.

All agents' coefficients are optimized together.  Pairwise separation is
rewritten through spherical polar equalities per unordered pair and relaxed
into scaled quadratic penalties.  The per-axis coefficient steps share one
saddle matrix Q + rho * A_fo' A_fo whose factorization is precomputed for a
staged schedule of rho values, so the whole solve performs exactly one
factorization per schedule level no matter how many iterations run or how
many pairwise constraints exist.

Static obstacles enter as stationary pseudo-agents wrapped in circumscribing
spheres: they contribute constraint rows against every real agent but no
decision variables.

A practical inflation trick absorbs the non-zero terminal residual: the
solver plans with agent radii enlarged by a multiple of the typical
post-convergence residual, so approximate constraint satisfaction still
yields true geometric clearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory
from .geometry import D_CAP, EllipsoidShape, angles3d, closed_form_d_3d, stalled


@dataclass(frozen=True)
class StaticSphere:
    center: np.ndarray
    radius: float


@dataclass
class MultiAgentProblem:
    basis: BasisSet
    boundaries: list[tuple[AxisBoundary, AxisBoundary, AxisBoundary]]  # per agent: x, y, z
    agent_shape: EllipsoidShape  # (a, a, b) spheroid half-dims of one agent
    static_obstacles: list[StaticSphere] = field(default_factory=list)

    @property
    def n_agents(self) -> int:
        return len(self.boundaries)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("need at least one agent")


@dataclass
class JointParams:
    max_iter: int = 200
    tol_norm: float = 0.01
    tol_max: float = 1e-3
    rho_start: float = 1.0
    rho_final: float = 1e4
    rho_levels: int = 10
    stall_window: int = 5
    stall_improvement: float = 0.01
    inflation_factor: float = 4.0
    typical_residual: float = 0.01


@dataclass
class JointState:
    xi: np.ndarray  # (3, N_a * m)
    d: np.ndarray  # (n_pairs, n_p)
    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray  # (3, n_pairs, n_p)
    level: int = 0
    iteration: int = 0


@dataclass
class JointSolution:
    trajectories: list[Trajectory]
    converged: bool
    iterations: int
    residual_norm: float
    residual_max: float
    residual_history: list
    min_pair_distance: float
    inflated_radius: tuple[float, float]
    n_factorizations: int
    state: JointState


def inflate_radius(radius: float, typical_residual: float, factor: float) -> float:
    """Planning radius absorbing the expected terminal constraint residual."""
    if radius < 0 or typical_residual < 0 or factor < 0:
        raise ValueError("inflation inputs must be non-negative")
    return radius + factor * typical_residual


class _JointStructure:
    def __init__(self, problem: MultiAgentProblem, params: JointParams):
        basis = problem.basis
        self.basis = basis
        m, n_p = basis.n_var, basis.n_p
        n_a = problem.n_agents
        self.m, self.n_a = m, n_a

        a_inf = inflate_radius(problem.agent_shape.a, params.typical_residual, params.inflation_factor)
        b_inf = inflate_radius(problem.agent_shape.b, params.typical_residual, params.inflation_factor)
        self.inflated = (a_inf, b_inf)

        # pair bookkeeping: agent-agent pairs once each, then agent-static
        self.pair_i: list[int] = []
        self.pair_j: list[int] = []  # -1 marks a static partner
        self.pair_a: list[float] = []
        self.pair_b: list[float] = []
        static_centers = []
        for i in range(n_a):
            for j in range(i + 1, n_a):
                self.pair_i.append(i)
                self.pair_j.append(j)
                self.pair_a.append(2.0 * a_inf)
                self.pair_b.append(2.0 * b_inf)
        for sphere in problem.static_obstacles:
            for i in range(n_a):
                self.pair_i.append(i)
                self.pair_j.append(-1)
                self.pair_a.append(a_inf + sphere.radius)
                self.pair_b.append(b_inf + sphere.radius)
                static_centers.append(np.asarray(sphere.center, dtype=float))
        self.n_pairs = len(self.pair_i)
        self.static_centers = static_centers  # aligned with pair_j == -1 order
        self.pa = np.asarray(self.pair_a)[:, None]
        self.pb = np.asarray(self.pair_b)[:, None]

        self.A_fo = np.zeros((self.n_pairs * n_p, n_a * m))
        for p in range(self.n_pairs):
            rows = slice(p * n_p, (p + 1) * n_p)
            i = self.pair_i[p]
            self.A_fo[rows, i * m : (i + 1) * m] = basis.P
            j = self.pair_j[p]
            if j >= 0:
                self.A_fo[rows, j * m : (j + 1) * m] = -basis.P

        Q_axis = basis.Pddot.T @ basis.Pddot
        self.Q = np.kron(np.eye(n_a), Q_axis)
        B = boundary_matrix(basis)
        self.A_eq = np.kron(np.eye(n_a), B)
        self.b_eq = np.stack(
            [
                np.concatenate([problem.boundaries[i][k].values() for i in range(n_a)])
                for k in range(3)
            ]
        )  # (3, 6 * N_a)

        # one factorization per rho level, shared by the x/y/z steps
        if self.n_pairs:
            AtA = self.A_fo.T @ self.A_fo
            ratio = (params.rho_final / params.rho_start) ** (1.0 / max(params.rho_levels - 1, 1))
            self.rho_levels = [params.rho_start * ratio**k for k in range(params.rho_levels)]
            self.factors = [qpcore.factorize(self.Q + rho * AtA, self.A_eq) for rho in self.rho_levels]
        else:
            self.rho_levels = [params.rho_start]
            self.factors = [qpcore.factorize(self.Q, self.A_eq)]
        self.n_factorizations = len(self.factors)

    def agent_positions(self, xi: np.ndarray) -> np.ndarray:
        """(N_a, n_p, 3) position samples from the stacked coefficients."""
        out = np.empty((self.n_a, self.basis.n_p, 3))
        for k in range(3):
            coeffs = xi[k].reshape(self.n_a, self.m)
            out[:, :, k] = coeffs @ self.basis.P.T
        return out

    def pair_deltas(self, positions: np.ndarray) -> np.ndarray:
        """(n_pairs, n_p, 3) offsets p_i - p_j (static partner uses its center)."""
        out = np.empty((self.n_pairs, self.basis.n_p, 3))
        s = 0
        for p in range(self.n_pairs):
            i, j = self.pair_i[p], self.pair_j[p]
            if j >= 0:
                out[p] = positions[i] - positions[j]
            else:
                out[p] = positions[i] - self.static_centers[s][None, :]
                s += 1
        return out


def _reconstruction(struct, state):
    """Target offsets a d sin(beta) cos(alpha) etc. per pair, (n_pairs, n_p, 3)."""
    sb, cb = np.sin(state.beta), np.cos(state.beta)
    sa, ca = np.sin(state.alpha), np.cos(state.alpha)
    return np.stack(
        [
            struct.pa * state.d * sb * ca,
            struct.pa * state.d * sb * sa,
            struct.pb * state.d * cb,
        ],
        axis=-1,
    )


def pairwise_residuals_arrays(struct: _JointStructure, state: JointState) -> np.ndarray:
    """(3, n_pairs, n_p) separation-equality residuals."""
    positions = struct.agent_positions(state.xi)
    deltas = struct.pair_deltas(positions)
    recon = _reconstruction(struct, state)
    return np.transpose(deltas - recon, (2, 0, 1))


def pairwise_residuals(state: JointState, problem: MultiAgentProblem, params: JointParams | None = None, struct=None) -> dict:
    """Norm and max-abs per axis family plus the stacked totals."""
    struct = struct or _JointStructure(problem, params or JointParams())
    res = pairwise_residuals_arrays(struct, state)
    report = {}
    for k, name in enumerate("xyz"):
        report[name] = {
            "norm": float(np.linalg.norm(res[k])),
            "max_abs": float(np.max(np.abs(res[k]))) if res[k].size else 0.0,
        }
    report["all"] = {
        "norm": float(np.linalg.norm(res)),
        "max_abs": float(np.max(np.abs(res))) if res.size else 0.0,
    }
    return report


def _init_state(problem, struct) -> JointState:
    n_pairs, n_p = struct.n_pairs, struct.basis.n_p
    xi = np.empty((3, struct.n_a * struct.m))
    for k in range(3):
        for i, bc in enumerate(problem.boundaries):
            line = np.linspace(bc[k].p0, bc[k].p1, n_p)
            coeffs, *_ = np.linalg.lstsq(struct.basis.P, line, rcond=None)
            xi[k, i * struct.m : (i + 1) * struct.m] = coeffs

    state = JointState(
        xi=xi,
        d=np.ones((n_pairs, n_p)),
        alpha=np.zeros((n_pairs, n_p)),
        beta=np.full((n_pairs, n_p), np.pi / 2),
        lam=np.zeros((3, n_pairs, n_p)),
    )
    if n_pairs:
        deltas = struct.pair_deltas(struct.agent_positions(xi))
        state.alpha, state.beta = angles3d(np.moveaxis(deltas, -1, 0), struct.pa, struct.pb)
    return state


def _iterate(state: JointState, struct: _JointStructure) -> None:
    rho = struct.rho_levels[state.level]
    factor = struct.factors[state.level]
    n_p = struct.basis.n_p

    if struct.n_pairs:
        recon = _reconstruction(struct, state)
        qs = np.empty((3, struct.n_a * struct.m))
        s = 0
        statics = np.zeros((struct.n_pairs, n_p, 3))
        for p in range(struct.n_pairs):
            if struct.pair_j[p] < 0:
                statics[p] = struct.static_centers[s][None, :]
                s += 1
        for k in range(3):
            b_fo = recon[:, :, k] - state.lam[k] / rho + statics[:, :, k]
            qs[k] = -rho * (struct.A_fo.T @ b_fo.ravel())
        xis, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=qs, bs=struct.b_eq))
        state.xi = xis
    else:
        qs = np.zeros((3, struct.n_a * struct.m))
        xis, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=qs, bs=struct.b_eq))
        state.xi = xis
        state.iteration += 1
        return

    deltas = struct.pair_deltas(struct.agent_positions(state.xi))
    dx, dy, dz = deltas[:, :, 0], deltas[:, :, 1], deltas[:, :, 2]
    state.alpha, state.beta = angles3d((dx, dy, dz), struct.pa, struct.pb)

    # the d targets are shifted by the multipliers, so d keeps the closed form
    shift = state.lam / rho
    state.d = closed_form_d_3d(
        dx + shift[0], dy + shift[1], dz + shift[2], state.alpha, state.beta, struct.pa, struct.pb, 1.0, D_CAP
    )

    res = pairwise_residuals_arrays(struct, state)
    state.lam = state.lam + rho * res
    state.iteration += 1


def solve_joint(problem: MultiAgentProblem, params: JointParams | None = None) -> JointSolution:
    """Run the joint AM loop over the staged penalty schedule.

    Non-convergence is flagged, not raised.  The schedule advances one level
    whenever the windowed residual norm stalls.
    """
    params = params or JointParams()
    struct = _JointStructure(problem, params)
    state = _init_state(problem, struct)

    history = []
    norms: list[float] = []
    last_change = 0
    converged = False
    for _ in range(params.max_iter):
        _iterate(state, struct)
        res = pairwise_residuals_arrays(struct, state)
        norm = float(np.linalg.norm(res))
        max_abs = float(np.max(np.abs(res))) if res.size else 0.0
        history.append({"norm": norm, "max_abs": max_abs, "rho": struct.rho_levels[state.level]})
        norms.append(norm)
        if norm <= params.tol_norm:
            converged = True
            break
        # staged schedule: spread the precomputed levels across the run, and
        # advance early whenever the windowed residual stalls
        n_levels = len(struct.rho_levels)
        scheduled = min(int(state.iteration * n_levels / max(params.max_iter, 1)), n_levels - 1)
        since_change = state.iteration - last_change
        stall = stalled(norms, since_change, params.stall_window, params.stall_improvement, 0.0)
        target = max(scheduled, state.level + 1 if stall else state.level)
        if target > state.level and state.level < n_levels - 1:
            state.level = min(target, n_levels - 1)
            last_change = state.iteration

    positions = struct.agent_positions(state.xi)
    trajectories = [
        sample_trajectory(struct.basis, state.xi[:, i * struct.m : (i + 1) * struct.m].T) for i in range(struct.n_a)
    ]

    min_dist = np.inf
    for i in range(struct.n_a):
        for j in range(i + 1, struct.n_a):
            dist = np.linalg.norm(positions[i] - positions[j], axis=1)
            min_dist = min(min_dist, float(dist.min()))

    res = pairwise_residuals_arrays(struct, state)
    return JointSolution(
        trajectories=trajectories,
        converged=converged,
        iterations=state.iteration,
        residual_norm=float(np.linalg.norm(res)),
        residual_max=float(np.max(np.abs(res))) if res.size else 0.0,
        residual_history=history,
        min_pair_distance=min_dist,
        inflated_radius=struct.inflated,
        n_factorizations=struct.n_factorizations,
        state=state,
    )
