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

What the sweep reads from the problem is built once per solve in a
_SingleStructure: the cost blocks Q and q, the boundary rows A and values,
P'P, the obstacle tracks and the semi-axes.  Each sweep takes cos/sin of the
angles once: the residual step takes them of the new angles, and the next
sweep reuses them to restart the copies and anchor the copy steps.  It
evaluates the positions and their obstacle offsets once, right after the
position step; the copy, d and residual steps all read those offsets.

The KKT matrix of the position step is Q + rho_o * n_o * P'P; its size does
not depend on the obstacle count.  The state caches its factor with the
(saddle, A) pair it factors, so the factor is reused while that saddle is
unchanged: within a solve it is rebuilt only when rho_o changes, and a warm
state whose factor came from other matrices (another basis, weights or
obstacle count) is refactored on its first sweep.  Works in 2-D (planar
ellipses, no beta block) and 3-D.
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
            if not all(np.isfinite(axis) and axis > 0 for axis in (obs.shape.a, obs.shape.b)):
                raise ValueError(f"obstacle {i} semi-axes must be positive and finite, got {obs.shape}")

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
        for name in ("rho_start", "rho_cap"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.rho_cap < self.rho_start:
            raise ValueError(f"rho_cap {self.rho_cap} is below rho_start {self.rho_start}")
        if not (np.isfinite(self.rho_growth) and self.rho_growth >= 1):
            raise ValueError(f"rho_growth must be finite and at least 1, got {self.rho_growth}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")
        if self.stall_window < 1:
            raise ValueError(f"stall_window must be at least 1, got {self.stall_window}")
        for name in ("tol", "stall_improvement"):
            if np.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")


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
    # cached KKT factor for the position QP, the (saddle, A) pair it factors
    # and the rho_o that saddle was built at
    _factor: qpcore.KKTFactor | None = field(default=None, repr=False)
    _factor_key: tuple | None = field(default=None, repr=False)
    _factor_rho_o: float | None = field(default=None, repr=False)
    n_factorizations: int = 0
    # (alpha, beta, _angle_trig of them): the residual step's cos/sin of the
    # new angles, reused by the next sweep while these arrays are the state's
    _trig: tuple | None = field(default=None, repr=False)


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
        self.n_o = problem.n_o
        self.Q, self.q = _cost_blocks(problem)
        self.PtP = basis.P.T @ basis.P
        self.A = boundary_matrix(basis)
        self.bs = np.stack([bc.values() for bc in problem.boundary])  # (dim, 6)
        # obstacle tracks axis-major, (dim, n_o, n_p), and semi-axes (n_o, 1)
        self.tracks = np.zeros((problem.dim, 0, basis.n_p))
        if problem.n_o:
            self.tracks = np.stack([np.asarray(obs.centers, dtype=float).T for obs in problem.obstacles], axis=1)
        self.a = np.array([obs.shape.a for obs in problem.obstacles], dtype=float)[:, None]
        self.b = np.array([obs.shape.b for obs in problem.obstacles], dtype=float)[:, None]

    def saddle(self, rho_o: float) -> np.ndarray:
        """The position-step KKT block Q + rho_o * n_o * P'P."""
        return self.Q + rho_o * self.n_o * self.PtP if self.n_o else self.Q

    def offsets(self, xi: np.ndarray) -> np.ndarray:
        """Robot-to-obstacle offsets per axis, (dim, n_o, n_p)."""
        return (self.P @ xi.T).T[:, None, :] - self.tracks


def _check_state(state: SingleState, problem: SingleProblem, struct: _SingleStructure) -> None:
    """Reject a warm state whose arrays do not fit this problem.

    A cached factor built from other matrices than this problem's saddle at
    the same rho_o is dropped, so the first sweep factors afresh.
    """
    dim, n_o, n_p = problem.dim, problem.n_o, problem.basis.n_p
    polar = (n_o, n_p)
    shapes = {"xi": (dim, problem.basis.n_var)}
    shapes.update(dict.fromkeys(("d", "alpha", "cos_a", "sin_a", "lam_cos_a", "lam_sin_a"), polar))
    shapes["lam_pos"] = (dim, n_o, n_p)
    # the beta block exists in 3-D only
    shapes.update(dict.fromkeys(("beta", "cos_b", "sin_b", "lam_cos_b", "lam_sin_b"), polar if dim == 3 else None))
    for name, shape in shapes.items():
        value = getattr(state, name)
        got = None if value is None else np.shape(value)
        if got != shape:
            raise ValueError(f"warm state {name} has shape {got}, expected {shape} for this {dim}-D problem")
    if state._factor is not None:
        key = (struct.saddle(state._factor_rho_o), struct.A)
        if not all(np.array_equal(new, old) for new, old in zip(key, state._factor_key)):
            state._factor = None


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

    d = np.ones((n_o, n_p))
    if n_o > 0:
        deltas = struct.offsets(xi)
        if dim == 3:
            alpha, beta = angles3d(deltas, struct.a, struct.b)
        else:
            alpha, beta = angle2d(deltas[0] / struct.a, deltas[1] / struct.b), None
    else:
        alpha = np.zeros((0, n_p))
        beta = np.zeros((0, n_p)) if dim == 3 else None

    zeros = np.zeros((n_o, n_p))
    state = SingleState(
        xi=xi,
        d=d,
        alpha=alpha,
        beta=beta,
        cos_a=None,
        sin_a=None,
        cos_b=None,
        sin_b=None,
        lam_pos=np.zeros((dim, n_o, n_p)),
        lam_cos_a=zeros.copy(),
        lam_sin_a=zeros.copy(),
        lam_cos_b=zeros.copy() if dim == 3 else None,
        lam_sin_b=zeros.copy() if dim == 3 else None,
        rho=params.rho_start,
        rho_o=params.rho_start,
    )
    state.cos_a, state.sin_a, state.cos_b, state.sin_b = _angle_trig(state)
    return state


def _angle_trig(state: SingleState) -> tuple:
    """(cos alpha, sin alpha, cos beta, sin beta); the beta pair is None in 2-D.

    Taken once per pair of angle arrays: the state keeps the last result
    with the arrays it came from, and reuses it while state.alpha and
    state.beta are those same arrays.  The solver replaces the angles with
    new arrays, never writing into them, so an unchanged array has
    unchanged values.
    """
    if state._trig is not None and state._trig[0] is state.alpha and state._trig[1] is state.beta:
        return state._trig[2]
    ca, sa = np.cos(state.alpha), np.sin(state.alpha)
    trig = (ca, sa, None, None) if state.beta is None else (ca, sa, np.cos(state.beta), np.sin(state.beta))
    state._trig = (state.alpha, state.beta, trig)
    return trig


def _position_targets(problem: SingleProblem, state: SingleState, struct: _SingleStructure | None = None) -> np.ndarray:
    """Per-axis reconstruction targets a*d*cos... stacked as (dim, n_o, n_p)."""
    struct = struct or _SingleStructure(problem)
    a, b, tracks = struct.a, struct.b, struct.tracks
    if problem.dim == 3:
        tx = tracks[0] + a * state.d * state.cos_a * state.sin_b
        ty = tracks[1] + a * state.d * state.sin_a * state.sin_b
        tz = tracks[2] + b * state.d * state.cos_b
        return np.stack([tx, ty, tz])
    tx = tracks[0] + a * state.d * state.cos_a
    ty = tracks[1] + b * state.d * state.sin_a
    return np.stack([tx, ty])


def _position_step(state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None) -> None:
    struct = struct or _SingleStructure(problem)
    if state._factor is None or state._factor_rho_o != state.rho_o:
        saddle = struct.saddle(state.rho_o)
        state._factor = qpcore.factorize(saddle, struct.A)
        state._factor_key = (saddle, struct.A)
        state._factor_rho_o = state.rho_o
        state.n_factorizations += 1

    q_lin = struct.q
    if struct.n_o:
        targets = _position_targets(problem, state, struct)  # (dim, n_o, n_p)
        lam_sum = state.lam_pos.sum(axis=1)  # (dim, n_p)
        q_lin = struct.q + lam_sum @ struct.P - state.rho_o * targets.sum(axis=1) @ struct.P
    state.xi, _ = qpcore.solve_batch(state._factor, qpcore.BatchRHS(qs=q_lin, bs=struct.bs))


def _alpha_copy_step(
    state: SingleState,
    problem: SingleProblem,
    struct: _SingleStructure | None = None,
    offsets: np.ndarray | None = None,
    trig: tuple | None = None,
) -> None:
    """Exact elementwise minimizer of the relaxation over the alpha copies.

    offsets are the struct.offsets of state.xi and trig the _angle_trig of
    the state when the caller already has them.
    """
    if problem.n_o == 0:
        return
    struct = struct or _SingleStructure(problem)
    dx, dy = (struct.offsets(state.xi) if offsets is None else offsets)[:2]
    cos_alpha, sin_alpha = (trig or _angle_trig(state))[:2]
    a, b = struct.a, struct.b
    rho, rho_o = state.rho, state.rho_o
    if problem.dim == 3:
        # x couples cos, y couples sin, both through a*d*sin(beta)
        coef = a * state.d * state.sin_b
        den = rho + rho_o * coef**2
        state.cos_a = (rho * cos_alpha - state.lam_cos_a + coef * (state.lam_pos[0] + rho_o * dx)) / den
        state.sin_a = (rho * sin_alpha - state.lam_sin_a + coef * (state.lam_pos[1] + rho_o * dy)) / den
    else:
        coef_x = a * state.d
        coef_y = b * state.d
        state.cos_a = (rho * cos_alpha - state.lam_cos_a + coef_x * (state.lam_pos[0] + rho_o * dx)) / (
            rho + rho_o * coef_x**2
        )
        state.sin_a = (rho * sin_alpha - state.lam_sin_a + coef_y * (state.lam_pos[1] + rho_o * dy)) / (
            rho + rho_o * coef_y**2
        )


def _alpha_extract(state: SingleState, problem: SingleProblem) -> None:
    if problem.n_o:
        state.alpha = np.arctan2(state.sin_a, state.cos_a)


def _beta_copy_step(
    state: SingleState,
    problem: SingleProblem,
    struct: _SingleStructure | None = None,
    offsets: np.ndarray | None = None,
    trig: tuple | None = None,
) -> None:
    """Exact elementwise minimizer over the beta copies; offsets and trig as in _alpha_copy_step."""
    if problem.n_o == 0 or problem.dim != 3:
        return
    struct = struct or _SingleStructure(problem)
    dx, dy, dz = struct.offsets(state.xi) if offsets is None else offsets
    cos_beta, sin_beta = (trig or _angle_trig(state))[2:]
    a, b = struct.a, struct.b
    rho, rho_o = state.rho, state.rho_o
    coef_cb = b * state.d
    state.cos_b = (rho * cos_beta - state.lam_cos_b + coef_cb * (state.lam_pos[2] + rho_o * dz)) / (
        rho + rho_o * coef_cb**2
    )
    # sin(beta) appears in both the x and y reconstruction rows; keeping
    # both couplings makes this the exact block minimizer
    coef_sb = a * state.d
    num = (
        rho * sin_beta
        - state.lam_sin_b
        + coef_sb * (state.cos_a * (state.lam_pos[0] + rho_o * dx) + state.sin_a * (state.lam_pos[1] + rho_o * dy))
    )
    den_sb = rho + rho_o * coef_sb**2 * (state.cos_a**2 + state.sin_a**2)
    state.sin_b = num / den_sb


def _beta_extract(state: SingleState, problem: SingleProblem) -> None:
    if problem.n_o and problem.dim == 3:
        state.beta = np.arctan2(state.sin_b, state.cos_b)


def _d_step(
    state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None, offsets: np.ndarray | None = None
) -> None:
    """Analytic line-of-sight update from the freshly solved positions."""
    if problem.n_o == 0:
        return
    struct = struct or _SingleStructure(problem)
    offsets = struct.offsets(state.xi) if offsets is None else offsets
    state.d = los_scale(offsets, struct.a, struct.b)


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
    res: dict[str, np.ndarray] = {}
    if problem.n_o:
        struct = struct or _SingleStructure(problem)
        deltas = struct.offsets(state.xi) if offsets is None else offsets
        a, b = struct.a, struct.b
        cos_alpha, sin_alpha, cos_beta, sin_beta = _angle_trig(state)
        if problem.dim == 3:
            res["coll_x"] = deltas[0] - a * state.d * state.cos_a * state.sin_b
            res["coll_y"] = deltas[1] - a * state.d * state.sin_a * state.sin_b
            res["coll_z"] = deltas[2] - b * state.d * state.cos_b
            res["copy_cos_b"] = state.cos_b - cos_beta
            res["copy_sin_b"] = state.sin_b - sin_beta
        else:
            res["coll_x"] = deltas[0] - a * state.d * state.cos_a
            res["coll_y"] = deltas[1] - b * state.d * state.sin_a
        res["copy_cos_a"] = state.cos_a - cos_alpha
        res["copy_sin_a"] = state.sin_a - sin_alpha
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


def _multiplier_step(
    state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None, offsets: np.ndarray | None = None
) -> None:
    # the multipliers do not enter the residuals, so they stay those of the sweep
    res = state.residuals = equality_residuals(state, problem, offsets, struct)
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


def am_iteration(state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state.

    Without a struct one is built, and the state is checked against it as a
    warm state is.
    """
    if struct is None:
        struct = _SingleStructure(problem)
        _check_state(state, problem, struct)
    trig = None
    if struct.n_o:
        # the copies restart at the angles, whose cos/sin also anchor the copy steps
        trig = _angle_trig(state)
        state.cos_a, state.sin_a, state.cos_b, state.sin_b = trig
    _position_step(state, problem, struct)
    offsets = struct.offsets(state.xi)
    _alpha_copy_step(state, problem, struct, offsets, trig)
    _alpha_extract(state, problem)
    _beta_copy_step(state, problem, struct, offsets, trig)
    _beta_extract(state, problem)
    _d_step(state, problem, struct, offsets)
    _multiplier_step(state, problem, struct, offsets)
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
        _check_state(state, problem, struct)
    history: list[dict] = []
    max_hist: list[float] = []
    last_change = 0
    converged = False
    for _ in range(params.max_iter):
        am_iteration(state, problem, struct)
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
        n_factorizations=state.n_factorizations,
        state=state,
    )
