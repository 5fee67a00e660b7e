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
and lateral semi-axes (a, b) in place of (a, a).

The state stacks the unit pairs, their copies and the copy multipliers as
(k, n_o, n_p) arrays in the rows cos(alpha), sin(alpha)[, cos(beta),
sin(beta)], k = 2 in 2-D and 4 in 3-D, so each step is one expression over
the stack: the polar points, coefficient rows times stack[:dim]; the copy
step of the rows each polar row holds one of, cos(alpha), sin(alpha)[,
cos(beta)] (sin(beta), in both the x and y rows, keeps its own formula);
one unit_pair pass over every pair; and the multiplier ascent from one
residual block, (dim + k, n_o, n_p), whose norm and max need no
concatenation.

What the sweep reads from the problem is built once per solve in a
_SingleStructure: the cost blocks Q and q, the boundary rows A and values,
P'P, and the centres and semi-axes of the problem's Obstacles.  Each sweep
evaluates the positions and their obstacle offsets once, right after the
position step; the copy, d and residual steps all read those offsets.

The KKT matrix of the position step is Q + rho * n_o * P'P; its size does
not depend on the obstacle count.  The state holds a qpcore.FactorCache for
it, keyed on Q, P'P, A and the penalty rho * n_o: within a solve the
factor is rebuilt only when rho changes, and a warm state on other
matrices (another basis, weights or obstacle count) refactors on its first
sweep.  Works in 2-D (planar ellipses, no beta block) and 3-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, sample_trajectory, straight_line_coeffs
from .geometry import Obstacles, angle2d, angles3d, check_obstacles, check_schedule, los_scale, stalled, unit_pair

_COLL = ("coll_x", "coll_y", "coll_z")


@dataclass
class SingleProblem:
    basis: BasisSet
    boundary: tuple[AxisBoundary, ...]
    desired: np.ndarray  # (n_p, dim)
    obstacles: Obstacles | None = None  # None: no obstacles
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
        self.obstacles = check_obstacles(self.obstacles, dim, n_p)

    @property
    def dim(self) -> int:
        return len(self.boundary)

    @property
    def n_o(self) -> int:
        return self.obstacles.n_o


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
    # the angles as unit pairs stacked (k, n_o, n_p) in the rows cos(alpha),
    # sin(alpha)[, cos(beta), sin(beta)]: k = 2 in 2-D and 4 in 3-D
    unit: np.ndarray
    copies: np.ndarray  # the copies of the unit pairs, (k, n_o, n_p)
    lam_pos: np.ndarray  # (dim, n_o, n_p)
    lam_copies: np.ndarray  # (k, n_o, n_p)
    # equality residuals of the last sweep, (dim + k, n_o, n_p), as
    # equality_residuals writes them
    residuals: np.ndarray = field(repr=False)
    rho: float  # the one penalty of the position, copy and multiplier steps
    iteration: int = 0
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
        obstacles = problem.obstacles  # centres (dim, n_o, n_p), and the semi-axes as (n_o, 1) columns
        self.centres, self.a, self.b = obstacles.centres, obstacles.a[:, None], obstacles.b[:, None]
        # semi-axis of each polar row x, y[, z], (dim, n_o, 1)
        self.semi = np.stack((self.a, self.a, self.b) if problem.dim == 3 else (self.a, self.b))

    def offsets(self, xi: np.ndarray) -> np.ndarray:
        """Robot-to-obstacle offsets per axis, (dim, n_o, n_p)."""
        return (self.P @ xi.T).T[:, None, :] - self.centres


def _pairs(stack: np.ndarray) -> np.ndarray:
    """A stack of rows viewed as its (cos, sin) pairs, (k // 2, 2, n_o, n_p)."""
    return stack.reshape(len(stack) // 2, 2, *stack.shape[1:])


def _check_state(state: SingleState, problem: SingleProblem) -> None:
    """Reject a warm state whose arrays do not fit this problem.

    Its factor cache is left as it is: the first sweep refactors when this
    problem's saddle differs from the one it holds.
    """
    dim, n_o, n_p = problem.dim, problem.n_o, problem.basis.n_p
    k = 2 * (dim - 1)  # the beta pair exists in 3-D only
    shapes = {"xi": (dim, problem.basis.n_var), "d": (n_o, n_p), "lam_pos": (dim, n_o, n_p)}
    shapes.update(dict.fromkeys(("unit", "copies", "lam_copies"), (k, n_o, n_p)))
    shapes["residuals"] = (dim + k, n_o, n_p)
    for name, shape in shapes.items():
        got = np.shape(getattr(state, name))
        if got != shape:
            raise ValueError(f"warm state {name} has shape {got}, expected {shape} for this {dim}-D problem")


def init_state(
    problem: SingleProblem,
    params: SingleParams | None = None,
    struct: _SingleStructure | None = None,
) -> SingleState:
    """Initial AM state: d = 1, angles from the straight-line interpolant.

    Deterministic: the same problem gives the same state.
    """
    params = params or SingleParams()
    struct = struct or _SingleStructure(problem)
    n_o, n_p, dim = problem.n_o, problem.basis.n_p, problem.dim

    start = np.array([bc.p0 for bc in problem.boundary])
    goal = np.array([bc.p1 for bc in problem.boundary])
    xi = straight_line_coeffs(problem.basis, start, goal)

    deltas = struct.offsets(xi)
    if dim == 3:
        angles = angles3d(deltas, struct.a, struct.b)
    else:
        angles = (angle2d(deltas[0] / struct.a, deltas[1] / struct.b),)
    unit = np.stack([trig(angle) for angle in angles for trig in (np.cos, np.sin)])
    return SingleState(
        xi=xi,
        d=np.ones((n_o, n_p)),
        unit=unit,
        copies=unit.copy(),
        lam_pos=np.zeros((dim, n_o, n_p)),
        lam_copies=np.zeros_like(unit),
        residuals=np.zeros((dim + len(unit), n_o, n_p)),
        rho=params.rho_start,
    )


def _row_coefs(struct: _SingleStructure, d: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """What multiplies each polar row's trig factor, (dim, n_o, n_p).

    x = a d sin(beta) cos(alpha), y = a d sin(beta) sin(alpha) and
    z = b d cos(beta), so the rows take the semi-axes times d sin(beta),
    d sin(beta) and d, sin(beta) read from the stack; in 2-D sin(beta) = 1
    and y takes the semi-axis b.  The polar points are these times stack[:dim].
    """
    if struct.dim == 2:
        return struct.semi * d
    return np.concatenate((struct.semi[:2] * (d * stack[3]), struct.semi[2:] * d))


def _position_step(state: SingleState, struct: _SingleStructure, coefs: np.ndarray) -> None:
    """The positions minimizing the relaxation, the polar points at the unit pairs (coefs of state.unit)."""
    factor = state.factors.get(struct.Q, struct.PtP, struct.A, state.rho * struct.n_o)
    q_lin = struct.q
    if struct.n_o:
        targets = struct.centres + coefs * state.unit[: struct.dim]  # (dim, n_o, n_p)
        lam_sum = state.lam_pos.sum(axis=1)  # (dim, n_p)
        q_lin = struct.q + lam_sum @ struct.P - state.rho * targets.sum(axis=1) @ struct.P
    state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=struct.bs))


def _copy_step(state: SingleState, struct: _SingleStructure, offsets: np.ndarray, coefs: np.ndarray) -> None:
    """Exact elementwise minimizer of the relaxation over the copies.

    The copies of cos(alpha), sin(alpha)[, cos(beta)] each enter one polar
    row, x, y[, z], through that row's coefficient (coefs, taken at the unit
    pairs the copies are anchored to).  sin(beta) enters both the x and y
    rows; keeping both couplings makes its step the exact block minimizer.
    offsets are struct.offsets of state.xi.
    """
    dim, rho, copies = struct.dim, state.rho, state.copies
    pulled = state.lam_pos + rho * offsets
    copies[:dim] = (rho * state.unit[:dim] - state.lam_copies[:dim] + coefs * pulled) / (rho + rho * coefs**2)
    if dim == 3:
        cos_a, sin_a = copies[:2]
        coef = struct.a * state.d
        num = rho * state.unit[3] - state.lam_copies[3] + coef * (cos_a * pulled[0] + sin_a * pulled[1])
        copies[3] = num / (rho + rho * coef**2 * (cos_a**2 + sin_a**2))


def _angle_step(state: SingleState) -> None:
    """Set every unit pair to the projection of its copy pair onto the unit circle."""
    copies = state.copies
    state.unit = unit_pair(copies[0::2], copies[1::2]).swapaxes(0, 1).reshape(copies.shape)


def equality_residuals(
    state: SingleState,
    problem: SingleProblem,
    offsets: np.ndarray | None = None,
    struct: _SingleStructure | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Residuals of every relaxed equality, (dim + k, n_o, n_p).

    The rows are the polar rows x, y[, z], offset minus polar point, then
    each copy minus its unit pair, the beta pair (3-D) before the alpha
    pair: the residual norm sums them in this order.  offsets are the
    struct.offsets of state.xi when the caller already has them; they are
    computed from the state otherwise.  Written into out when given.
    """
    struct = struct or _SingleStructure(problem)
    dim = struct.dim
    if out is None:
        out = np.empty((dim + len(state.unit), *state.d.shape))
    offsets = struct.offsets(state.xi) if offsets is None else offsets
    np.subtract(offsets, _row_coefs(struct, state.d, state.copies) * state.copies[:dim], out=out[:dim])
    np.subtract(_pairs(state.copies), _pairs(state.unit), out=_pairs(out[dim:])[::-1])
    return out


def _residual_extremes(res: np.ndarray) -> tuple[float, float]:
    if not res.size:
        return 0.0, 0.0
    flat = res.ravel()  # np.linalg.norm's own sum of squares, without its checks
    return math.sqrt(flat.dot(flat)), float(np.abs(flat).max())


def am_iteration(state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state.

    Without a struct one is built, and the state is checked against the
    problem as a warm state is.
    """
    if struct is None:
        struct = _SingleStructure(problem)
        _check_state(state, problem)
    # the position and copy steps both read the polar rows at the unit pairs
    coefs = _row_coefs(struct, state.d, state.unit)
    _position_step(state, struct, coefs)
    if struct.n_o:
        offsets = struct.offsets(state.xi)
        _copy_step(state, struct, offsets, coefs)
        _angle_step(state)
        state.d = los_scale(offsets, struct.a, struct.b)
        # the multipliers do not enter the residuals, so they stay those of the sweep
        res = equality_residuals(state, problem, offsets, struct, out=state.residuals)
        state.lam_pos += state.rho * res[: struct.dim]
        # the block holds the beta pair before the alpha pair
        lam_copies = _pairs(state.lam_copies)
        lam_copies += state.rho * _pairs(res[struct.dim :])[::-1]
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
