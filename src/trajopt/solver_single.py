"""Single-robot trajectory optimization by alternating minimization.

The ellipsoidal separation constraints are rewritten through the polar
equalities from :mod:`trajopt.geometry`, offset = polar point, and relaxed
into an augmented Lagrangian.  As in the multi-agent iteration, the angles
of an offset delta enter the polar point only as delta / r (r its scaled
norm), so the sweep takes no angle: the state is the coefficients xi, the
line-of-sight scales d, the polar points recon, shaped (dim, n_o, n_p)
like the offsets, and their multipliers lam.  Each sweep is

    positions: the equality-constrained QP on the targets
               centres + recon - lam / rho (one cached KKT factor for all axes)
    -> polar:  d, recon = radial_target(delta, a, b, delta + lam / rho)
    -> residual = delta - recon
    -> multiplier ascent, lam += rho * residual

radial_target is the closed-form spheroid scale and point for a target
shifted by the multipliers; a 2-D offset (dx, dy) is the planar ellipse with
semi-axes (a, b).  At an offset of zero the point takes radial_target's
origin convention, (0, b d) in 2-D and (0, 0, b d) in 3-D.

The start state is the straight line from start to goal, d = 1 and recon
its offsets scaled onto the unit level set, with zero multipliers.  An
obstacle centred on that line gives offsets with no component across it,
and the radial sweep keeps every polar point on the line: the samples
clear and the path between them crosses the obstacle.  So in the start
state an offset whose part across the start-goal direction is shorter than
_TIE_PUSH * b takes that part as _TIE_PUSH * b along one fixed direction
(see _untie), which decides the side deterministically.

What the sweep reads from the problem is built once per solve in a
_SingleStructure: the cost blocks Q and q, the boundary rows A and values,
P'P, the centres, semi-axes and inverse semi-axes of the problem's
Obstacles, and the raw (uninflated) semi-axes of the clearance test.
P'P and A are the basis's own read-only arrays (BasisSet.gram and
boundary_rows), and Q is formed from its Gram blocks.  A
sweep writes in place: d, recon, the residuals and lam are the state's own
arrays, and the offsets and shifted targets go to a workspace the
structure allocates once per solve.  The position step applies the cached
factor primal-only (qpcore.apply_primal), with the boundary part the
factor cache forms once per factor.  A warm state is checked before the
first sweep: shapes, finite values and a writeable float64 array for
everything a sweep writes.

The KKT matrix of the position step is Q + rho * n_o * P'P; its size does
not depend on the obstacle count.  The state holds a qpcore.FactorCache for
it, keyed on Q, P'P, A and the penalty rho * n_o, which forms each factor
from a qpcore.Pencil of (Q, P'P, A) and keeps the pencil while those stay
equal: a new penalty (a grown rho or another obstacle count) rescales the
pencil's diagonal, and a warm state on other matrices (another basis or
weights) takes a new pencil on its first sweep.  So a receding-horizon
episode takes one eigendecomposition, not one factorization per penalty.
Works in 2-D (planar ellipses) and 3-D.

The solve stops when the residual max reaches tol or after max_iter
sweeps.  Its plan is certified when every sample lies on or outside every
raw obstacle (SingleProblem.raw_axes, the obstacles' own semi-axes when not
given), tested as bench.metrics takes min_clearance >= 0, so the two agree
bit for bit.  With SingleParams.extra_sweeps, a plan that is not certified
at the normal stop is swept on, up to that many further sweeps, until it
is; the solution reports certified and the extra sweeps taken.

In receding-horizon use the robot executes the first samples of each plan
before the next solve, so shift_state moves the warm state's time-indexed
arrays (d, recon and lam) that many samples earlier and repeats the last
one: the next solve starts from the rest of the last plan, at the times it
now stands for (the shifted warm start of real-time iteration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, check_boundary_basis, endpoints, sample_trajectory, straight_line_coeffs

# No sweep calls angle2d: perfbench's patch test (perfbench/tests) checks
# that patching geometry.angle2d rebinds this module's name as well.
from .geometry import Obstacles, Schedule, angle2d, check_count, check_obstacles, check_real, radial_target, residual_extremes, scaled_sq_norm  # noqa: F401

# The lateral part, times the obstacle's b, that a start offset takes when
# its own part across the start-goal direction is shorter.
_TIE_PUSH = 1e-3


@dataclass
class SingleProblem:
    basis: BasisSet
    boundary: tuple[AxisBoundary, ...]
    desired: np.ndarray  # (n_p, dim)
    obstacles: Obstacles | None = None  # None: no obstacles
    w_smooth: float = 1.0
    w_track: float = 1.0
    # (a, b), the (n_o,) semi-axes the plan is certified against, before any
    # planning inflation; None: the obstacles' own
    raw_axes: tuple | None = None

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
        if self.raw_axes is not None:
            # Obstacles' checks of semi-axes, one pair per obstacle
            raw = self.obstacles.with_axes(*self.raw_axes)
            self.raw_axes = raw.a, raw.b

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
    # the radial sweep needs a penalty that grows on slower progress than
    # batch's: at 0.01 corridor's residual max after 300 sweeps is 1.5e-2
    stall_improvement: float = 0.04
    # further sweeps allowed past the normal stop while the plan is not
    # certified (clear of the raw obstacles)
    extra_sweeps: int = 0

    def __post_init__(self):
        super().__post_init__()
        check_count(self, 0, "extra_sweeps")


@dataclass
class SingleState:
    xi: np.ndarray  # (dim, n_var)
    d: np.ndarray  # (n_o, n_p)
    recon: np.ndarray  # (dim, n_o, n_p) polar points d * delta / r at the offsets of xi
    lam: np.ndarray  # (dim, n_o, n_p)
    # residuals of the last sweep, offsets minus recon, (dim, n_o, n_p)
    residuals: np.ndarray = field(repr=False)
    rho: float  # the one penalty of the position and multiplier steps
    iteration: int = 0
    # the position step's KKT factor
    factors: qpcore.FactorCache = field(default_factory=qpcore.FactorCache, repr=False)


@dataclass
class SingleSolution:
    trajectory: Trajectory
    converged: bool  # the last residual max is within tol
    iterations: int
    residual_norm: float
    residual_max: float
    residual_history: list
    smoothness_cost: float
    tracking_cost: float
    n_factorizations: int
    state: SingleState
    certified: bool  # every sample clears every raw obstacle
    extra_sweeps: int  # sweeps taken past the normal stop


def _cost_blocks(problem: SingleProblem):
    """Quadratic cost Q (shared by all axes), from the basis's Gram blocks, and per-axis linear terms."""
    basis = problem.basis
    Q = 2.0 * (problem.w_smooth * basis.gram[2] + problem.w_track * basis.gram[0])
    q = -2.0 * problem.w_track * (basis.P.T @ problem.desired).T  # (dim, n_var)
    return Q, q


class _SingleStructure:
    """Constant arrays of one SingleProblem, built once per solve.

    P'P and the boundary rows A are the basis's own read-only arrays.
    """

    def __init__(self, problem: SingleProblem):
        basis = problem.basis
        self.P = basis.P
        self.dim, self.n_o = problem.dim, problem.n_o
        self.Q, self.q = _cost_blocks(problem)
        self.PtP, self.A = basis.gram[0], basis.boundary_rows()
        # the factor cache compares Q, P'P and A by identity first
        self.Q.setflags(write=False)
        self.bs = np.array([bc.values() for bc in problem.boundary])  # (dim, 6)
        obstacles = problem.obstacles  # centres (dim, n_o, n_p), and the semi-axes as (n_o, 1) columns
        self.centres, self.a, self.b = obstacles.centres, obstacles.a[:, None], obstacles.b[:, None]
        self.centre_sums = self.centres.sum(axis=1)  # (dim, n_p)
        rows = self.centres.shape
        # the inverse semi-axes, as radial_target would form them on every
        # call, spread over the samples so that each product is one pass;
        # forming them costs about what comparing the semi-axes with the
        # last solve's would, so they are not carried over
        self.inverse = tuple(np.divide(1.0, semi, out=np.empty(rows[1:])) for semi in (self.a, self.b))
        raw_a, raw_b = (obstacles.a, obstacles.b) if problem.raw_axes is None else problem.raw_axes
        # the clearance test's inverse raw semi-axes, as (n_o, 1) columns
        self.raw_inverse = 1.0 / raw_a[:, None], 1.0 / raw_b[:, None]
        # the sweep's workspace: the offsets, and the shifted targets, then rho times the residuals
        self.deltas, self.shifted = np.empty(rows), np.empty(rows)

    def offsets(self, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Robot-to-obstacle offsets per axis, (dim, n_o, n_p), written into out when given."""
        return np.subtract((self.P @ xi.T).T[:, None, :], self.centres, out=out)

    def clear(self, deltas: np.ndarray) -> bool:
        """Whether every offset lies on or outside its raw obstacle.

        The squared scaled distance q is at least 1 everywhere: bench.metrics'
        min_clearance >= 0 on the same samples, bit for bit (the offsets are
        formed alike, sqrt is monotone and exact at 1, so q >= 1 is
        sqrt(q) - 1 >= 0).  A NaN offset is not clear.  q is written into
        the workspace's shifted targets, which no sweep reads before writing.
        """
        if not self.n_o:
            return True
        q = scaled_sq_norm(deltas, *self.raw_inverse, out=self.shifted[0], inverse=True)
        return bool(q.min() >= 1.0)


# the state arrays a sweep writes in place
_IN_PLACE = ("d", "recon", "lam", "residuals")


def _check_state(state: SingleState, problem: SingleProblem) -> None:
    """Reject a warm state that does not fit this problem or cannot be swept.

    Every array must have this problem's shape; xi, d, recon, lam and rho
    must be finite (rho positive); and those a sweep writes in place must
    be writeable float64 arrays that share no memory.  Its factor cache is
    left as it is: the first sweep refactors when this problem's saddle
    differs from the one it holds.
    """
    dim, n_o, n_p = problem.dim, problem.n_o, problem.basis.n_p
    shapes = {"xi": (dim, problem.basis.n_var), "d": (n_o, n_p)}
    shapes.update(dict.fromkeys(("recon", "lam", "residuals"), (dim, n_o, n_p)))
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

    d, recon and lam take their values from n samples later, and their last
    n samples all take the last one.  xi and the residual block are left as
    they are: the first sweep writes them before it reads them.  Raises
    ValueError unless 1 <= n < n_p.
    """
    n_p = state.d.shape[-1]
    if not 1 <= n < n_p:
        raise ValueError(f"shift must lie in [1, {n_p}), got {n}")
    for rows in (state.d, state.recon, state.lam):
        rows[..., :-n] = rows[..., n:]
        rows[..., -n:] = rows[..., -1:]


def _untie(deltas: np.ndarray, b: np.ndarray, start: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """The start offsets with every tie broken.

    An offset whose part across the start-goal direction is shorter than
    _TIE_PUSH * b (a zero or -0.0 offset among them) takes that part as
    _TIE_PUSH * b along one fixed direction: the line's left normal in the
    x-y plane, (-u_y, u_x[, 0]) / |.| for u = goal - start, or the x axis
    when that is zero (a vertical line, or start = goal).  The others are
    kept.  deltas are (dim, n_o, n_p) and b the (n_o, 1) semi-axes; deltas
    itself is returned when nothing is tied.
    """
    u = goal - start
    length = np.sqrt(u @ u)
    unit = u / length if length > 0.0 else np.zeros_like(u)
    along = np.einsum("k...,k->...", deltas, unit)
    lateral = deltas - unit[:, None, None] * along
    push = np.broadcast_to(_TIE_PUSH * b, along.shape)
    tied = np.einsum("k...,k...->...", lateral, lateral) < push**2
    if not tied.any():
        return deltas
    across = np.zeros_like(u)
    across[:2] = -u[1], u[0]
    across_length = np.sqrt(across @ across)
    across = across / across_length if across_length > 0.0 else np.eye(len(u))[0]
    untied = deltas.copy()
    untied[:, tied] = unit[:, None] * along[tied] + across[:, None] * push[tied]
    return untied


def init_state(
    problem: SingleProblem,
    params: SingleParams | None = None,
    struct: _SingleStructure | None = None,
) -> SingleState:
    """Initial AM state: the straight line, d = 1, recon its offsets at unit scale (ties broken by _untie), lam = 0.

    Deterministic: the same problem gives the same state.
    """
    params = params or SingleParams()
    struct = struct or _SingleStructure(problem)
    start, goal = endpoints(problem.boundary)
    xi = straight_line_coeffs(problem.basis, start, goal)
    deltas = _untie(struct.offsets(xi), struct.b, start, goal)
    d, recon = radial_target(deltas, struct.a, struct.b, deltas, upper=1.0)  # the unit-scale start d = 1
    return SingleState(
        xi=xi,
        d=d,
        recon=recon,
        lam=np.zeros_like(recon),
        residuals=np.zeros_like(recon),
        rho=params.rho_start,
    )


def _position_step(state: SingleState, struct: _SingleStructure) -> None:
    """The positions minimizing the relaxation, on the targets centres + recon - lam / rho."""
    factors = state.factors
    factor = factors.get_from_pencil(struct.Q, struct.PtP, struct.A, state.rho * struct.n_o)
    q_lin = struct.q
    if struct.n_o:
        # q + (lam_sum - rho * (recon_sum + centre_sum)) @ P
        pull = state.recon.sum(axis=1)
        pull += struct.centre_sums
        pull *= state.rho
        rows = state.lam.sum(axis=1)
        rows -= pull
        q_lin = rows @ struct.P
        q_lin += struct.q
    state.xi = qpcore.apply_primal(factor, q_lin, factors.boundary(struct.bs))


def _polar_step(state: SingleState, struct: _SingleStructure, deltas: np.ndarray) -> None:
    """d and recon at the offsets deltas of state.xi, for the targets shifted by the multipliers; then the residuals and the multiplier ascent.

    Written into the state's arrays; deltas must not be struct.shifted.
    """
    shifted = np.divide(state.lam, state.rho, out=struct.shifted)
    shifted += deltas
    radial_target(deltas, struct.a, struct.b, shifted, out=(state.d, state.recon), inverse=struct.inverse)
    res = np.subtract(deltas, state.recon, out=state.residuals)
    state.lam += np.multiply(res, state.rho, out=shifted)


def equality_residuals(
    state: SingleState,
    problem: SingleProblem,
    struct: _SingleStructure | None = None,
) -> np.ndarray:
    """Residuals of the polar equalities at the state, offsets of state.xi minus state.recon, (dim, n_o, n_p), in a new array."""
    return (struct or _SingleStructure(problem)).offsets(state.xi) - state.recon


def am_iteration(state: SingleState, problem: SingleProblem, struct: _SingleStructure | None = None) -> SingleState:
    """One alternating-minimization sweep; mutates and returns the state.

    Without a struct one is built, and the state is checked against the
    problem as a warm state is.
    """
    if struct is None:
        struct = _SingleStructure(problem)
        _check_state(state, problem)
    _position_step(state, struct)
    if struct.n_o:
        _polar_step(state, struct, struct.offsets(state.xi, out=struct.deltas))
    state.iteration += 1
    return state


def solve_single(problem: SingleProblem, params: SingleParams | None = None, state: SingleState | None = None) -> SingleSolution:
    """Run the AM loop until residual tolerance or max_iter, then on while uncertified, up to extra_sweeps more.

    Non-convergence is reported through the flag, never raised.  Passing a
    state warm-starts from a previous solve (receding-horizon use); it must
    fit the problem (_check_state raises ValueError before the first sweep
    otherwise), the sweeps write its arrays in place, and its cached factor
    is reused only while the saddle matrix it factors is unchanged.
    iterations counts the sweeps of this call, extra ones included.
    """
    params = params or SingleParams()
    struct = _SingleStructure(problem)
    if state is None:
        state = init_state(problem, params=params, struct=struct)
    else:
        _check_state(state, problem)
    history: list[dict] = []
    max_hist: list[float] = []
    start = last_change = state.iteration
    converged = False
    extra = 0
    while True:
        swept = state.iteration - start
        if converged or swept >= params.max_iter:
            # the normal stop: done once the plan clears the raw obstacles or the allowance is spent
            certified = struct.clear(struct.deltas if swept else struct.offsets(state.xi))
            if certified or extra == params.extra_sweeps:
                break
            extra += 1
        am_iteration(state, problem, struct)
        norm, max_abs = residual_extremes(state.residuals)
        history.append({"norm": norm, "max_abs": max_abs, "rho": state.rho})
        max_hist.append(max_abs)
        converged = max_abs <= params.tol
        if not converged and params.stalled(max_hist, state.iteration - last_change):
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
        certified=certified,
        extra_sweeps=extra,
    )
