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
angle step sets the pair to (c, s) / r, r = sqrt(c*c + s*s), for the copy
pair (c, s), which is (cos, sin) of arctan2(s, c), and to (1, 0) at the
origin, as arctan2(0, 0) = 0 (geometry.unit_pair, the radial clamp's target
at unit semi-axes and scale, which takes hypot's radius only where c*c +
s*s is not a normal number).  Only init_state takes angles, of the straight-line
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
P'P, and the centres, semi-axes and inverse semi-axes of the problem's
Obstacles.  Each sweep evaluates the positions and their obstacle offsets
once, right after the position step; the copy, d and residual steps all
read those offsets.

A sweep writes in place: the copies, unit pairs, scales d, residuals and
both multiplier blocks are the state's own arrays, and the position
targets, offsets and other intermediates go to a workspace the structure
allocates once per solve.  So the views of the pair rows (the unit pairs,
copies and copy multipliers as pairs, unit_pair's swapped out, the copy
residuals in the pairs' order) are made once per solve too, in a
_PairViews.  Each in-place step keeps the arithmetic of the expression it
replaces, operation for operation, and the position step applies the
cached factor primal-only (qpcore.apply_primal), with the boundary part
the factor cache forms once per factor.  A warm state is checked before
the first sweep: shapes, finite values and a writeable float64 array for
everything a sweep writes.

The KKT matrix of the position step is Q + rho * n_o * P'P; its size does
not depend on the obstacle count.  The state holds a qpcore.FactorCache for
it, keyed on Q, P'P, A and the penalty rho * n_o: within a solve the
factor is rebuilt only when rho changes, and a warm state on other
matrices (another basis, weights or obstacle count) refactors on its first
sweep.  Works in 2-D (planar ellipses, no beta block) and 3-D.

In receding-horizon use the robot executes the first samples of each plan
before the next solve, so shift_state moves the warm state's time-indexed
arrays (d, the unit pairs and both multiplier blocks) that many samples
earlier and repeats the last one: the next solve starts from the rest of
the last plan, at the times it now stands for (the shifted warm start of
real-time iteration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, boundary_matrix, check_boundary_basis, endpoints, sample_trajectory, straight_line_coeffs
from .geometry import Obstacles, Schedule, angle2d, angles3d, check_obstacles, check_real, los_scale, residual_extremes, unit_pair

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
        check_boundary_basis(self.basis)
        if dim not in (2, 3):
            raise ValueError(f"need 2 or 3 axis boundaries, got {dim}")
        if self.desired.shape != (n_p, dim) or not np.all(np.isfinite(self.desired)):
            raise ValueError(f"desired trajectory must be finite and (n_p, {dim})")
        if not all(np.all(np.isfinite(bc.values())) for bc in self.boundary):
            raise ValueError("boundary values must be finite")
        check_real(self, "non-negative and finite", "w_smooth", "w_track")
        if self.w_smooth + self.w_track == 0:
            raise ValueError("w_smooth and w_track must not both be zero")
        self.obstacles = check_obstacles(self.obstacles, dim, n_p)

    @property
    def dim(self) -> int:
        return len(self.boundary)

    @property
    def n_o(self) -> int:
        return self.obstacles.n_o


@dataclass
class SingleParams(Schedule):
    max_iter: int = 300
    tol: float = 1e-3


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
        # their inverses, as los_scale would form them on every call
        self.inv_a, self.inv_b = 1.0 / self.a, 1.0 / self.b
        # semi-axis of each polar row x, y[, z], (dim, n_o, 1)
        self.semi = np.stack((self.a, self.a, self.b) if problem.dim == 3 else (self.a, self.b))
        # the sweep's workspace, (dim, n_o, n_p) each: the polar row
        # coefficients at the unit pairs, the offsets, the offsets pulled by
        # the multipliers and one block for intermediates; and rho times the residuals
        rows = self.centres.shape
        self.coefs, self.deltas, self.pulled, self.work = (np.empty(rows) for _ in range(4))
        self.scaled = np.empty((problem.dim + 2 * (problem.dim - 1), *rows[1:]))
        # its copy rows in the pairs' order: the block holds the beta pair first
        self.scaled_copies = _pairs(self.scaled[problem.dim :])[::-1]

    def offsets(self, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Robot-to-obstacle offsets per axis, (dim, n_o, n_p), written into out when given."""
        return np.subtract((self.P @ xi.T).T[:, None, :], self.centres, out=out)


def _pairs(stack: np.ndarray) -> np.ndarray:
    """A stack of rows viewed as its (cos, sin) pairs, (k // 2, 2, n_o, n_p)."""
    return stack.reshape(len(stack) // 2, 2, *stack.shape[1:])


class _PairViews:
    """The views of a state's pair rows that a sweep reads and writes.

    The unit pairs, copies and copy multipliers as (cos, sin) pairs, the
    cos and sin rows of the copies and the unit pairs as unit_pair's
    (2, k // 2, n_o, n_p) out, and the copy rows of a residual block in
    the pairs' order (the block holds the beta pair first): the state's
    own residual block unless another is given.  A sweep writes these
    arrays in place, so solve_single makes the views once per solve.
    """

    def __init__(self, state: SingleState, residuals: np.ndarray | None = None):
        residuals = state.residuals if residuals is None else residuals
        self.unit, self.copies, self.lam_copies = (_pairs(rows) for rows in (state.unit, state.copies, state.lam_copies))
        self.cos, self.sin = state.copies[0::2], state.copies[1::2]
        self.unit_out = self.unit.swapaxes(0, 1)
        self.residuals = residuals
        self.copy_residuals = _pairs(residuals[len(residuals) - len(state.unit) :])[::-1]


# the state arrays a sweep writes in place
_IN_PLACE = ("d", "unit", "copies", "lam_pos", "lam_copies", "residuals")


def _check_state(state: SingleState, problem: SingleProblem) -> None:
    """Reject a warm state that does not fit this problem or cannot be swept.

    Every array must have this problem's shape; those the solve reads, and
    rho, must be finite (rho positive); and those a sweep writes in place
    must be writeable float64 arrays that share no memory.  Its factor
    cache is left as it is: the first sweep refactors when this problem's
    saddle differs from the one it holds.
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
    written = [getattr(state, name) for name in _IN_PLACE]
    for name, value in zip(_IN_PLACE, written):
        if not isinstance(value, np.ndarray) or value.dtype != np.float64:
            raise ValueError(f"warm state {name} must be a float64 array")
        if not value.flags.writeable:
            raise ValueError(f"warm state {name} is read-only; a sweep writes it in place")
    for i, j in itertools.combinations(range(len(written)), 2):
        if np.may_share_memory(written[i], written[j]):
            raise ValueError(f"warm state {_IN_PLACE[i]} and {_IN_PLACE[j]} share memory; a sweep writes both in place")
    # the residual block is only written; xi is read when no sweep runs (max_iter = 0)
    for name in ("xi", *_IN_PLACE[:-1]):
        if not np.isfinite(getattr(state, name)).all():
            raise ValueError(f"warm state {name} is not finite")
    check_real(state, "positive and finite", "rho", prefix="warm state ")


def shift_state(state: SingleState, n: int) -> None:
    """Shift the warm state n executed samples along time, in place, repeating the last sample.

    d, unit, lam_pos and lam_copies take their values from n samples later,
    and their last n samples all take the last one.  xi, the copies and the
    residual block are left as they are: the first sweep writes them before
    it reads them.  Raises ValueError unless 1 <= n < n_p.
    """
    n_p = state.d.shape[-1]
    if not 1 <= n < n_p:
        raise ValueError(f"shift must lie in [1, {n_p}), got {n}")
    for rows in (state.d, state.unit, state.lam_pos, state.lam_copies):
        rows[..., :-n] = rows[..., n:]
        rows[..., -n:] = rows[..., -1:]


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

    xi = straight_line_coeffs(problem.basis, *endpoints(problem.boundary))

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


def _row_coefs(struct: _SingleStructure, d: np.ndarray, stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """What multiplies each polar row's trig factor, (dim, n_o, n_p), written into out when given.

    x = a d sin(beta) cos(alpha), y = a d sin(beta) sin(alpha) and
    z = b d cos(beta), so the rows take the semi-axes times d sin(beta),
    d sin(beta) and d, sin(beta) read from the stack; in 2-D sin(beta) = 1
    and y takes the semi-axis b.  The polar points are these times stack[:dim].
    """
    if struct.dim == 2:
        return np.multiply(struct.semi, d, out=out)
    if out is None:
        out = np.empty((3, *d.shape))
    np.multiply(d, stack[3], out=out[2])
    np.multiply(struct.semi[:2], out[2], out=out[:2])
    np.multiply(struct.semi[2], d, out=out[2])
    return out


def _position_step(state: SingleState, struct: _SingleStructure, coefs: np.ndarray) -> None:
    """The positions minimizing the relaxation, the polar points at the unit pairs (coefs of state.unit)."""
    factors = state.factors
    factor = factors.get(struct.Q, struct.PtP, struct.A, state.rho * struct.n_o)
    q_lin = struct.q
    if struct.n_o:
        # q + lam_sum @ P - rho * targets_sum @ P, the targets centres + coefs * unit
        targets = np.multiply(coefs, state.unit[: struct.dim], out=struct.work)
        targets += struct.centres
        pull = targets.sum(axis=1)  # (dim, n_p)
        pull *= state.rho
        q_lin = state.lam_pos.sum(axis=1) @ struct.P
        q_lin += struct.q
        q_lin -= pull @ struct.P
    state.xi = qpcore.apply_primal(factor, q_lin, factors.boundary(struct.bs))


def _copy_step(state: SingleState, struct: _SingleStructure, offsets: np.ndarray, coefs: np.ndarray) -> None:
    """Exact elementwise minimizer of the relaxation over the copies.

    The copies of cos(alpha), sin(alpha)[, cos(beta)] each enter one polar
    row, x, y[, z], through that row's coefficient (coefs, taken at the unit
    pairs the copies are anchored to).  sin(beta) enters both the x and y
    rows; keeping both couplings makes its step the exact block minimizer.
    offsets are struct.offsets of state.xi.
    """
    dim, rho, copies, work = struct.dim, state.rho, state.copies, struct.work
    # pulled = lam_pos + rho * offsets
    pulled = np.multiply(offsets, rho, out=struct.pulled)
    pulled += state.lam_pos
    # copies = (rho * unit - lam_copies + coefs * pulled) / (rho + rho * coefs**2)
    head = np.multiply(state.unit[:dim], rho, out=copies[:dim])
    head -= state.lam_copies[:dim]
    head += np.multiply(coefs, pulled, out=work)
    np.square(coefs, out=work)
    work *= rho
    work += rho
    head /= work
    if dim == 3:
        # sin(beta) = (rho * unit - lam_copies + coef * (cos_a * pulled_x + sin_a * pulled_y))
        #             / (rho + rho * coef**2 * (cos_a**2 + sin_a**2)), coef = a * d
        cos_a, sin_a = copies[:2]
        coef, pull, den = work
        np.multiply(struct.a, state.d, out=coef)
        np.multiply(cos_a, pulled[0], out=pull)
        pull += np.multiply(sin_a, pulled[1], out=den)
        pull *= coef
        num = np.multiply(state.unit[3], rho, out=copies[3])
        num -= state.lam_copies[3]
        num += pull
        np.square(coef, out=den)
        den *= rho
        den *= np.add(np.square(cos_a, out=coef), np.square(sin_a, out=pull), out=coef)
        den += rho
        num /= den


def _angle_step(state: SingleState, views: _PairViews | None = None) -> None:
    """Set every unit pair, in place, to the projection of its copy pair onto the unit circle."""
    views = views or _PairViews(state)
    unit_pair(views.cos, views.sin, out=views.unit_out)


def equality_residuals(
    state: SingleState,
    problem: SingleProblem,
    offsets: np.ndarray | None = None,
    struct: _SingleStructure | None = None,
    views: _PairViews | None = None,
) -> np.ndarray:
    """Residuals of every relaxed equality, (dim + k, n_o, n_p).

    The rows are the polar rows x, y[, z], offset minus polar point, then
    each copy minus its unit pair, the beta pair (3-D) before the alpha
    pair: the residual norm sums them in this order.  offsets are the
    struct.offsets of state.xi when the caller already has them; they are
    computed from the state otherwise.  Written into the residual block of
    views, the state's _PairViews, when given (a sweep's: the state's own
    block), into a new array otherwise.
    """
    struct = struct or _SingleStructure(problem)
    dim = struct.dim
    views = views or _PairViews(state, np.empty((dim + len(state.unit), *state.d.shape)))
    out = views.residuals
    offsets = struct.offsets(state.xi) if offsets is None else offsets
    # offsets minus the polar points, the row coefficients at the copies times copies[:dim]
    points = _row_coefs(struct, state.d, state.copies, out=out[:dim])
    points *= state.copies[:dim]
    np.subtract(offsets, points, out=points)
    np.subtract(views.copies, views.unit, out=views.copy_residuals)
    return out


def am_iteration(
    state: SingleState,
    problem: SingleProblem,
    struct: _SingleStructure | None = None,
    views: _PairViews | None = None,
) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state.

    Without a struct one is built, and the state is checked against the
    problem as a warm state is.  views are the state's _PairViews with its
    residual block, made here when not given.
    """
    if struct is None:
        struct = _SingleStructure(problem)
        _check_state(state, problem)
    # the position and copy steps both read the polar rows at the unit pairs
    coefs = _row_coefs(struct, state.d, state.unit, out=struct.coefs)
    _position_step(state, struct, coefs)
    if struct.n_o:
        offsets = struct.offsets(state.xi, out=struct.deltas)
        views = views or _PairViews(state)
        _copy_step(state, struct, offsets, coefs)
        _angle_step(state, views)
        los_scale(offsets, struct.inv_a, struct.inv_b, out=state.d, inverse=True)
        # the multipliers do not enter the residuals, so they stay those of the sweep
        res = equality_residuals(state, problem, offsets, struct, views=views)
        scaled = np.multiply(res, state.rho, out=struct.scaled)
        state.lam_pos += scaled[: struct.dim]
        views.lam_copies += struct.scaled_copies
    state.iteration += 1
    return state


def solve_single(problem: SingleProblem, params: SingleParams | None = None, state: SingleState | None = None) -> SingleSolution:
    """Run the AM loop until residual tolerance or max_iter.

    Non-convergence is reported through the flag, never raised.  Passing a
    state warm-starts from a previous solve (receding-horizon use); it must
    fit the problem (_check_state raises ValueError before the first sweep
    otherwise), the sweeps write its arrays in place, and its cached factor
    is reused only while the saddle matrix it factors is unchanged.
    iterations counts the sweeps of this call.
    """
    params = params or SingleParams()
    struct = _SingleStructure(problem)
    if state is None:
        state = init_state(problem, params=params, struct=struct)
    else:
        _check_state(state, problem)
    views = _PairViews(state)
    history: list[dict] = []
    max_hist: list[float] = []
    start = last_change = state.iteration
    converged = False
    for _ in range(params.max_iter):
        am_iteration(state, problem, struct, views)
        norm, max_abs = residual_extremes(state.residuals)
        history.append({"norm": norm, "max_abs": max_abs, "rho": state.rho})
        max_hist.append(max_abs)
        if max_abs <= params.tol:
            converged = True
            break
        if params.stalled(max_hist, state.iteration - last_change):
            state.rho = params.grown(state.rho)
            last_change = state.iteration
    traj = sample_trajectory(problem.basis, state.xi.T)
    if not history:
        norm, max_abs = residual_extremes(equality_residuals(state, problem, struct=struct))
    smooth = float(np.sum(traj.acc**2))
    track = float(np.sum((traj.pos - problem.desired) ** 2))
    return SingleSolution(
        trajectory=traj,
        converged=converged,
        iterations=state.iteration - start,
        residual_norm=norm,
        residual_max=max_abs,
        residual_history=history,
        smoothness_cost=smooth,
        tracking_cost=track,
        n_factorizations=state.factors.count,
        state=state,
    )
