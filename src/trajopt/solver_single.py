"""Single-robot trajectory optimization by alternating minimization.

The ellipsoidal separation constraints are rewritten through the polar
equalities from :mod:`trajopt.geometry`, with explicit copy variables for the
sines/cosines of the angles.  All equalities are relaxed into an augmented
Lagrangian and the blocks are swept in order:

    positions (equality-constrained QP, one cached KKT factor for all axes)
    -> angle copies (elementwise quadratics)
    -> angles (each copy pair projected onto the unit circle)
    -> line-of-sight scales (analytic, clamped at 1)
    -> multiplier ascent

The angles enter the equalities only through their cos and sin, so the state
keeps each angle as its unit pair (cos, sin) and no sweep forms an angle: the
angle step sets the pair to (c, s) / hypot(c, s) for the copy pair (c, s),
which is (cos, sin) of arctan2(s, c), and to (1, 0) at the origin, as
arctan2(0, 0) = 0 (geometry.unit_pair, the radial clamp's target at unit
semi-axes and scale).  Only init_state takes angles, of the straight-line
offsets, once per solve.  A 2-D problem is the 3-D one with sin(beta) = 1
and lateral semi-axes (a, b) in place of (a, a), so the reconstruction and
the alpha copy step are written once.

What the sweep reads from the problem is built once per solve in a
_SingleStructure: the cost blocks Q and q, the boundary rows A and values,
P'P, the obstacle tracks and the semi-axes.  Each sweep evaluates the
positions and their obstacle offsets once, right after the position step;
the copy, d and residual steps all read those offsets.

The KKT matrix of the position step is Q + rho * n_o * P'P; its size does
not depend on the obstacle count.  The state holds a qpcore.FactorCache for
it, keyed on Q, P'P, A and the penalty rho * n_o: within a solve the
factor is rebuilt only when rho changes, and a warm state on other
matrices (another basis, weights or obstacle count) refactors on its first
sweep.  Works in 2-D (planar ellipses, no beta block) and 3-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import ObstacleTrack, angle2d, angles3d, check_schedule, los_scale, stalled, unit_pair

_COLL = ("coll_x", "coll_y", "coll_z")


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
        n_p, dim = self.basis.n_p, self.dim
        if dim not in (2, 3):
            raise ValueError(f"need 2 or 3 axis boundaries, got {dim}")
        if self.desired.shape != (n_p, dim) or not np.all(np.isfinite(self.desired)):
            raise ValueError(f"desired trajectory must be finite and (n_p, {dim})")
        if not all(np.all(np.isfinite(bc.values())) for bc in self.boundary):
            raise ValueError("boundary values must be finite")
        weights = np.array([self.w_smooth, self.w_track], dtype=float)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0) or weights.sum() == 0:
            raise ValueError("need finite w_smooth, w_track >= 0 and not both zero")
        for i, obs in enumerate(self.obstacles):
            centers = np.asarray(obs.centers, dtype=float)
            if centers.shape != (n_p, dim) or not np.all(np.isfinite(centers)):
                raise ValueError(f"obstacle {i} centres must be finite and cover the grid, {(n_p, dim)}")

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

    def __post_init__(self):
        check_schedule(self)


@dataclass
class SingleState:
    xi: np.ndarray  # (dim, n_var)
    d: np.ndarray  # (n_o, n_p)
    # the angles as unit pairs (cos, sin), (2, n_o, n_p); unit_b is None in 2-D
    unit_a: np.ndarray
    unit_b: np.ndarray | None
    cos_a: np.ndarray
    sin_a: np.ndarray
    cos_b: np.ndarray | None
    sin_b: np.ndarray | None
    lam_pos: np.ndarray  # (dim, n_o, n_p)
    lam_cos_a: np.ndarray
    lam_sin_a: np.ndarray
    lam_cos_b: np.ndarray | None
    lam_sin_b: np.ndarray | None
    rho: float  # the one penalty of the position, copy and multiplier steps
    iteration: int = 0
    # equality residuals of the last sweep, as equality_residuals returns them
    residuals: dict = field(default_factory=dict, repr=False)
    # the position step's KKT factor
    factors: qpcore.FactorCache = field(default_factory=qpcore.FactorCache, repr=False)


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


def _cost_blocks(problem: SingleProblem):
    """Quadratic cost Q (shared by all axes) and per-axis linear terms."""
    basis = problem.basis
    Q = 2.0 * (problem.w_smooth * basis.Pddot.T @ basis.Pddot + problem.w_track * basis.P.T @ basis.P)
    q = -2.0 * problem.w_track * (basis.P.T @ problem.desired).T  # (dim, n_var)
    return Q, q


class _SingleStructure:
    """Constant arrays of one SingleProblem, built once per solve."""

    def __init__(self, problem: SingleProblem):
        basis = problem.basis
        self.P = basis.P
        self.dim, self.n_o = problem.dim, problem.n_o
        self.Q, self.q = _cost_blocks(problem)
        self.PtP = basis.P.T @ basis.P
        self.A = boundary_matrix(basis)
        # the factor cache compares these by identity first
        for keyed in (self.Q, self.PtP, self.A):
            keyed.setflags(write=False)
        self.bs = np.stack([bc.values() for bc in problem.boundary])  # (dim, 6)
        # obstacle tracks axis-major, (dim, n_o, n_p), and semi-axes (n_o, 1)
        self.tracks = np.zeros((problem.dim, 0, basis.n_p))
        if problem.n_o:
            self.tracks = np.stack([np.asarray(obs.centers, dtype=float).T for obs in problem.obstacles], axis=1)
        self.a = np.array([obs.shape.a for obs in problem.obstacles], dtype=float)[:, None]
        self.b = np.array([obs.shape.b for obs in problem.obstacles], dtype=float)[:, None]
        # semi-axes of the x and y rows, which carry cos(alpha) and sin(alpha)
        self.lateral = (self.a, self.a if problem.dim == 3 else self.b)

    def offsets(self, xi: np.ndarray) -> np.ndarray:
        """Robot-to-obstacle offsets per axis, (dim, n_o, n_p)."""
        return (self.P @ xi.T).T[:, None, :] - self.tracks


def _check_state(state: SingleState, problem: SingleProblem) -> None:
    """Reject a warm state whose arrays do not fit this problem.

    Its factor cache is left as it is: the first sweep refactors when this
    problem's saddle differs from the one it holds.
    """
    dim, n_o, n_p = problem.dim, problem.n_o, problem.basis.n_p
    polar = (n_o, n_p)
    shapes = {"xi": (dim, problem.basis.n_var), "d": polar, "unit_a": (2, *polar)}
    shapes.update(dict.fromkeys(("cos_a", "sin_a", "lam_cos_a", "lam_sin_a"), polar))
    shapes["lam_pos"] = (dim, *polar)
    # the beta block exists in 3-D only
    shapes["unit_b"] = (2, *polar) if dim == 3 else None
    shapes.update(dict.fromkeys(("cos_b", "sin_b", "lam_cos_b", "lam_sin_b"), polar if dim == 3 else None))
    for name, shape in shapes.items():
        value = getattr(state, name)
        got = None if value is None else np.shape(value)
        if got != shape:
            raise ValueError(f"warm state {name} has shape {got}, expected {shape} for this {dim}-D problem")


def init_state(
    problem: SingleProblem,
    seed: int | None = None,
    params: SingleParams | None = None,
    struct: _SingleStructure | None = None,
) -> SingleState:
    """Initial AM state: d = 1, angles from the straight-line interpolant.

    Deterministic; the seed is accepted for interface symmetry with the
    sampling-based solvers and recorded nowhere.
    """
    params = params or SingleParams()
    struct = struct or _SingleStructure(problem)
    n_o, n_p, dim = problem.n_o, problem.basis.n_p, problem.dim

    start = np.array([bc.p0 for bc in problem.boundary])
    goal = np.array([bc.p1 for bc in problem.boundary])
    xi = straight_line_coeffs(problem.basis, start, goal)

    deltas = struct.offsets(xi)
    unit_b = None
    if dim == 3:
        alpha, beta = angles3d(deltas, struct.a, struct.b)
        unit_b = np.stack([np.cos(beta), np.sin(beta)])
    else:
        alpha = angle2d(deltas[0] / struct.a, deltas[1] / struct.b)
    unit_a = np.stack([np.cos(alpha), np.sin(alpha)])

    zeros = np.zeros((n_o, n_p))
    return SingleState(
        xi=xi,
        d=np.ones((n_o, n_p)),
        unit_a=unit_a,
        unit_b=unit_b,
        cos_a=unit_a[0],
        sin_a=unit_a[1],
        cos_b=None if unit_b is None else unit_b[0],
        sin_b=None if unit_b is None else unit_b[1],
        lam_pos=np.zeros((dim, n_o, n_p)),
        lam_cos_a=zeros.copy(),
        lam_sin_a=zeros.copy(),
        lam_cos_b=zeros.copy() if dim == 3 else None,
        lam_sin_b=zeros.copy() if dim == 3 else None,
        rho=params.rho_start,
    )


def _planar_scale(state: SingleState) -> np.ndarray:
    """d sin(beta), the scale of the x and y rows; sin(beta) = 1 in 2-D."""
    return state.d if state.sin_b is None else state.d * state.sin_b


def _reconstruction(state: SingleState, struct: _SingleStructure) -> np.ndarray:
    """The polar points of the copies, (dim, n_o, n_p).

    x = a d cos(alpha) sin(beta), y = a d sin(alpha) sin(beta), z = b d cos(beta);
    in 2-D sin(beta) = 1 and y takes the semi-axis b.
    """
    (ax, ay), planar = struct.lateral, _planar_scale(state)
    rows = [ax * planar * state.cos_a, ay * planar * state.sin_a]
    if struct.dim == 3:
        rows.append(struct.b * state.d * state.cos_b)
    return np.array(rows)


def _position_step(state: SingleState, struct: _SingleStructure) -> None:
    factor = state.factors.get(struct.Q, struct.PtP, struct.A, state.rho * struct.n_o)
    q_lin = struct.q
    if struct.n_o:
        targets = struct.tracks + _reconstruction(state, struct)  # (dim, n_o, n_p)
        lam_sum = state.lam_pos.sum(axis=1)  # (dim, n_p)
        q_lin = struct.q + lam_sum @ struct.P - state.rho * targets.sum(axis=1) @ struct.P
    state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=struct.bs))


def _alpha_copy_step(state: SingleState, struct: _SingleStructure, offsets: np.ndarray) -> None:
    """Exact elementwise minimizer of the relaxation over the alpha copies.

    The x row couples the cos copy and the y row the sin copy, each through
    its lateral semi-axis times d sin(beta).  offsets are struct.offsets of
    state.xi.
    """
    planar, rho = _planar_scale(state), state.rho
    copies = []
    for semi, unit, lam, lam_pos, delta in zip(
        struct.lateral, state.unit_a, (state.lam_cos_a, state.lam_sin_a), state.lam_pos, offsets
    ):
        coef = semi * planar
        copies.append((rho * unit - lam + coef * (lam_pos + rho * delta)) / (rho + rho * coef**2))
    state.cos_a, state.sin_a = copies


def _beta_copy_step(state: SingleState, struct: _SingleStructure, offsets: np.ndarray) -> None:
    """Exact elementwise minimizer over the beta copies (3-D); offsets as in _alpha_copy_step."""
    dx, dy, dz = offsets
    a, b = struct.a, struct.b
    rho = state.rho
    cos_beta, sin_beta = state.unit_b
    coef_cb = b * state.d
    state.cos_b = (rho * cos_beta - state.lam_cos_b + coef_cb * (state.lam_pos[2] + rho * dz)) / (
        rho + rho * coef_cb**2
    )
    # sin(beta) appears in both the x and y reconstruction rows; keeping
    # both couplings makes this the exact block minimizer
    coef_sb = a * state.d
    num = (
        rho * sin_beta
        - state.lam_sin_b
        + coef_sb * (state.cos_a * (state.lam_pos[0] + rho * dx) + state.sin_a * (state.lam_pos[1] + rho * dy))
    )
    den_sb = rho + rho * coef_sb**2 * (state.cos_a**2 + state.sin_a**2)
    state.sin_b = num / den_sb


def _angle_step(state: SingleState) -> None:
    """Set each angle's unit pair to the projection of its copy pair onto the unit circle."""
    state.unit_a = unit_pair(state.cos_a, state.sin_a)
    if state.unit_b is not None:
        state.unit_b = unit_pair(state.cos_b, state.sin_b)


def equality_residuals(
    state: SingleState,
    problem: SingleProblem,
    offsets: np.ndarray | None = None,
    struct: _SingleStructure | None = None,
) -> dict:
    """Raw residual arrays of every relaxed equality family.

    offsets are the struct.offsets of state.xi when the caller already has
    them; they are computed from the state otherwise.
    """
    if not problem.n_o:
        return {}
    struct = struct or _SingleStructure(problem)
    offsets = struct.offsets(state.xi) if offsets is None else offsets
    res = dict(zip(_COLL, offsets - _reconstruction(state, struct)))
    if problem.dim == 3:
        res["copy_cos_b"] = state.cos_b - state.unit_b[0]
        res["copy_sin_b"] = state.sin_b - state.unit_b[1]
    res["copy_cos_a"] = state.cos_a - state.unit_a[0]
    res["copy_sin_a"] = state.sin_a - state.unit_a[1]
    return res


def _residual_extremes(res: dict) -> tuple[float, float]:
    if not res:
        return 0.0, 0.0
    stacked = np.concatenate([r.ravel() for r in res.values()])
    return float(np.linalg.norm(stacked)), float(np.max(np.abs(stacked)))


def am_iteration(state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state.

    Without a struct one is built, and the state is checked against the
    problem as a warm state is.
    """
    if struct is None:
        struct = _SingleStructure(problem)
        _check_state(state, problem)
    if struct.n_o:
        # the copies restart at the unit pairs, which also anchor the copy steps
        state.cos_a, state.sin_a = state.unit_a
        if struct.dim == 3:
            state.cos_b, state.sin_b = state.unit_b
    _position_step(state, struct)
    state.residuals = {}
    if struct.n_o:
        offsets = struct.offsets(state.xi)
        _alpha_copy_step(state, struct, offsets)
        if struct.dim == 3:
            _beta_copy_step(state, struct, offsets)
        _angle_step(state)
        state.d = los_scale(offsets, struct.a, struct.b)
        # the multipliers do not enter the residuals, so they stay those of the sweep
        res = state.residuals = equality_residuals(state, problem, offsets, struct)
        for k, name in enumerate(_COLL[: struct.dim]):
            state.lam_pos[k] += state.rho * res[name]
        copies = ("cos_a", "sin_a", "cos_b", "sin_b") if struct.dim == 3 else ("cos_a", "sin_a")
        for name in copies:
            lam = getattr(state, f"lam_{name}")
            lam += state.rho * res[f"copy_{name}"]
    state.iteration += 1
    return state


def solve_single(problem: SingleProblem, params: SingleParams | None = None, state: SingleState | None = None) -> SingleSolution:
    """Run the AM loop until residual tolerance or max_iter.

    Non-convergence is reported through the flag, never raised.  Passing a
    state warm-starts from a previous solve (receding-horizon use); its
    shapes must fit the problem, and its cached factor is reused only while
    the saddle matrix it factors is unchanged.
    """
    params = params or SingleParams()
    struct = _SingleStructure(problem)
    if state is None:
        state = init_state(problem, params=params, struct=struct)
    else:
        _check_state(state, problem)
    history: list[dict] = []
    max_hist: list[float] = []
    last_change = 0
    converged = False
    for _ in range(params.max_iter):
        am_iteration(state, problem, struct)
        norm, max_abs = _residual_extremes(state.residuals)
        history.append({"norm": norm, "max_abs": max_abs, "rho": state.rho})
        max_hist.append(max_abs)
        if max_abs <= params.tol:
            converged = True
            break
        since_change = state.iteration - last_change
        if stalled(max_hist, since_change, params.stall_window, params.stall_improvement, max(params.tol, 0.0)):
            state.rho = min(state.rho * params.rho_growth, params.rho_cap)
            last_change = state.iteration
    traj = sample_trajectory(problem.basis, state.xi.T)
    if not history:
        norm, max_abs = _residual_extremes(equality_residuals(state, problem, struct=struct))
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
        n_factorizations=state.factors.count,
        state=state,
    )
