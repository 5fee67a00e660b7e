"""Joint multi-agent trajectory optimization with pairwise sphere constraints.

All agents' coefficients are optimized together.  Pairwise separation is
rewritten through spherical polar equalities per unordered pair and relaxed
into scaled quadratic penalties.  Pair p = (i, j) asks P xi_i - P xi_j to
equal its polar reconstruction, so the stacked pair rows are A_fo = E ⊗ P,
where E is the signed pair-agent incidence (+1 at i, -1 at an agent j,
nothing for a static partner).  A_fo is never built.  Since
E'E = L + D_static (L the pair-graph Laplacian, D_static the number of
static partners of each agent), the per-axis coefficient steps share one
saddle matrix

    Q + rho * (L + D_static) ⊗ P'P    (Q = I ⊗ Q_axis, boundary rows I ⊗ B),

and their right-hand sides are the incidence scatter -rho * E' b P of the
per-pair targets b, one product for all three axes.

That saddle is never assembled either.  With E'E = V diag(lam) V', the
modes eta = V' X of the (N_a, m) agent coefficients X decouple: mode k is
the single-agent problem with Hessian Q_axis + rho * lam_k * P'P on the
boundary rows B, its right-hand side is rotated by V (folded into the
incidence as (E V)') and its boundary values are V' of the agents'.  The
N_a mode blocks of a rho level are one stacked reduced (null-space) factor
of qpcore, precomputed for a staged schedule of rho values: the whole solve
performs exactly one factorization per level no matter how many iterations
run or how many pairwise constraints exist.  An iteration applies it
through one qpcore.apply_primal call, a mode's x, y and z right-hand sides
being its block's three rows; the boundary part that a level's iterations
all add is formed with the level's factor.  In reduced coordinates the
blocks stay near condition 7e3 at rho = 1e4 for any N_a, where the whole
saddle passed 1e12 at 12 agents.

The polar blocks take no angles: the angles of a pair offset delta enter
the d-step and the reconstruction only as delta / r (r its scaled norm), so
both come from geometry.radial_target.  Each iteration evaluates the
axis-major (3, n_pairs, n_p) offsets, the reconstruction and the residual
once; the reconstruction is the next iteration's target, since the polar
variables do not change in between.

An iteration writes in place: d, the reconstruction, the residual and the
multipliers are the state's own arrays, and the multiplier shift, the
targets, the offsets and the shifted offsets go to a workspace the
structure allocates once per solve.  Each in-place step keeps the
arithmetic of the expression it replaces, operation for operation, so the
iterates are bit for bit those of the allocating loop; this solve amplifies
rounding differences by about 1e13.

Static obstacles enter as stationary pseudo-agents wrapped in circumscribing
spheres: they contribute constraint rows against every real agent but no
decision variables.

The solver plans with agent radii enlarged by a multiple of the typical
terminal residual (inflate_radius), and that margin turns the residual into
a clearance certificate.  Take a pair with raw semi-axes (pa, pa, pb):
2a, 2b for two agents, a + R, b + R against a static sphere of radius R;
its inflated ones (pa_inf, pa_inf, pb_inf); and |.| the scaled norm at the
raw ones.  The clamp d >= 1 puts the reconstruction at inflated scaled
norm d >= 1, so |recon| >= kappa = min(pa_inf / pa, pb_inf / pb).  If every
entry of the residual delta - recon is at most e, then
|delta - recon| <= c e with c = sqrt(2 / pa^2 + 1 / pb^2), and the triangle
inequality gives

    |delta| >= kappa - c e >= 1    whenever    e <= e_p = (kappa - 1) / c,

raw clearance at every sample.  For spheres, e_p = 2 (a_inf - a) / sqrt(3),
0.0462 at the default inflation of 4 cm per agent.  The structure keeps e* = min_p e_p,
shrunk by a relative 1e-9 so that rounding cannot push a certified offset
inside the raw pair radius; a zero raw semi-axis gives e_p = 0.  At r = 0
the residual holds pb_inf d > e_p, so a coincident pair never certifies,
and neither does a NaN residual.  The solution reports whether its last
residual certifies and by what margin; JointParams.stop_on_certificate
ends the solve at the first iteration that does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qpcore
from .basis import AxisBoundary, BasisSet, Trajectory, check_boundary_basis, sample_trajectory, straight_line_coeffs
from .geometry import EllipsoidShape, check_count, check_flag, check_real, radial_target, residual_extremes, stalled


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
        check_boundary_basis(self.basis)
        if any(len(agent) != 3 for agent in self.boundaries):
            raise ValueError("every agent needs x, y and z boundaries")
        if not all(np.all(np.isfinite(bc.values())) for agent in self.boundaries for bc in agent):
            raise ValueError("boundary values must be finite")
        for sphere in self.static_obstacles:
            center = np.asarray(sphere.center, dtype=float)
            if center.shape != (3,) or not np.all(np.isfinite(center)):
                raise ValueError(f"static sphere centres must be finite (3,) points, got {sphere.center!r}")
            check_real(sphere, "non-negative and finite", "radius", prefix="static sphere ")


@dataclass
class JointParams:
    max_iter: int = 200
    tol_norm: float = 0.01
    rho_start: float = 1.0
    rho_final: float = 1e4
    rho_levels: int = 10
    stall_window: int = 5
    stall_improvement: float = 0.01
    inflation_factor: float = 4.0
    typical_residual: float = 0.01
    # stop at the first iteration whose residual certifies raw clearance
    # (largest entry <= e*, see the module docstring); converged still means
    # residual norm <= tol_norm
    stop_on_certificate: bool = False

    def __post_init__(self):
        check_real(self, "positive and finite", "rho_start", "rho_final")
        if self.rho_final < self.rho_start:
            raise ValueError(f"rho_final {self.rho_final} is below rho_start {self.rho_start}")
        check_count(self, 1, "rho_levels", "stall_window")
        check_count(self, 0, "max_iter")
        check_real(self, "non-negative and finite", "inflation_factor", "typical_residual")
        check_real(self, "not NaN", "tol_norm", "stall_improvement")
        check_flag(self, "stop_on_certificate")


@dataclass
class JointState:
    xi: np.ndarray  # (3, N_a * m)
    # an iteration rewrites d, lam, recon and residual in place
    d: np.ndarray  # (n_pairs, n_p)
    lam: np.ndarray  # (3, n_pairs, n_p)
    recon: np.ndarray  # (3, n_pairs, n_p) reconstruction d * delta / r at the offsets of xi
    residual: np.ndarray  # (3, n_pairs, n_p) residual of xi against recon
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
    # the last residual's largest entry is at most e*: every pair clears its
    # raw semi-axes at every sample
    certified: bool
    # least over pairs of c_p (e_p - residual_max), that is
    # kappa_p - c_p residual_max - 1 less the 1e-9 allowance of e_p: the raw
    # scaled clearance the last residual proves, >= 0 exactly when certified
    # (+inf without pairs, NaN for a NaN residual)
    certified_margin: float
    inflated_radius: tuple[float, float]
    n_factorizations: int
    state: JointState


def inflate_radius(radius: float, typical_residual: float, factor: float) -> float:
    """Planning radius absorbing the expected terminal constraint residual."""
    if not all(0 <= v < np.inf for v in (radius, typical_residual, factor)):
        raise ValueError("inflation inputs must be non-negative and finite")
    return radius + factor * typical_residual


def certificate_bounds(raw, inflated) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair residual bound e_p and scale c_p of the clearance certificate.

    raw and inflated are (pa, pb) pairs of per-pair semi-axes.  e_p carries
    the relative 1e-9 shrink, and c_p (e_p - e) is the raw scaled clearance
    that a residual of largest entry e proves, beyond 1.  A pair with a raw
    semi-axis of zero (or so small that c_p overflows) gets e_p = 0 and
    c_p = 1: only an exactly zero residual certifies it.
    """
    (pa, pb), (pa_inf, pb_inf) = raw, inflated
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.sqrt(2.0 / pa**2 + 1.0 / pb**2)
        bound = (np.minimum(pa_inf / pa, pb_inf / pb) - 1.0) / scale
    finite = np.isfinite(scale)
    return np.where(finite, bound * (1.0 - 1e-9), 0.0), np.where(finite, scale, 1.0)


class _JointStructure:
    def __init__(self, problem: MultiAgentProblem, params: JointParams):
        self.basis = basis = problem.basis
        m = basis.n_var
        n_a, n_s = problem.n_agents, len(problem.static_obstacles)
        self.m, self.n_a = m, n_a

        a, b = problem.agent_shape.a, problem.agent_shape.b
        a_inf = inflate_radius(a, params.typical_residual, params.inflation_factor)
        b_inf = inflate_radius(b, params.typical_residual, params.inflation_factor)
        self.inflated = (a_inf, b_inf)

        # pairs: agent-agent pairs once each, then every agent against each
        # static sphere; pair_j = -1 marks a static partner
        agent_i, agent_j = np.triu_indices(n_a, 1)
        self.pair_i = np.concatenate([agent_i, np.tile(np.arange(n_a), n_s)])
        self.pair_j = np.concatenate([agent_j, np.full(n_a * n_s, -1)])
        self.n_pairs = len(self.pair_i)
        self.static = self.pair_j < 0
        radii = np.array([sphere.radius for sphere in problem.static_obstacles], dtype=float)

        def pair_axis(semi):
            return np.concatenate([np.full(len(agent_i), 2.0 * semi), np.repeat(semi + radii, n_a)])

        self.pa, self.pb = pair_axis(a_inf)[:, None], pair_axis(b_inf)[:, None]
        # the clearance certificate: a residual of largest entry <= e*
        # proves raw clearance (module docstring)
        raw = pair_axis(a), pair_axis(b)
        self.cert_bound, self.cert_scale = certificate_bounds(raw, (self.pa[:, 0], self.pb[:, 0]))
        self.certificate = float(self.cert_bound.min()) if self.n_pairs else np.inf
        # (3, n_pairs, 1) centre of each pair's static partner, zero for agent pairs
        centers = np.array([sphere.center for sphere in problem.static_obstacles], dtype=float).reshape(n_s, 3)
        self.static_centers = np.zeros((3, self.n_pairs, 1))
        self.static_centers[:, self.static, 0] = np.repeat(centers, n_a, axis=0).T
        self.has_static = n_s > 0

        # signed pair-agent incidence: the pair rows are A_fo = E ⊗ P
        self.E = np.zeros((self.n_pairs, n_a))
        rows = np.arange(self.n_pairs)
        self.E[rows, self.pair_i] = 1.0
        self.E[rows[~self.static], self.pair_j[~self.static]] = -1.0

        # E'E = V diag(lam) V' makes the saddle block-diagonal in the modes
        # eta = V' X of the (N_a, m) agent coefficients X: mode k is the
        # single-agent problem Q_axis + rho * lam_k * P'P on the boundary
        # rows B, one block of the stacked factor
        lam, self.V = np.linalg.eigh(self.E.T @ self.E)
        # the rotated incidence: V' E' b P is the modes' pair scatter
        self.EVt = (self.E @ self.V).T
        # (N_a, 3, n_eq) boundary values of each mode, one row per axis
        ends = np.array([[bc[k].values() for bc in problem.boundaries] for k in range(3)])
        self.b_modes = np.swapaxes(self.V.T @ ends, 0, 1)

        if self.n_pairs:
            ratio = (params.rho_final / params.rho_start) ** (1.0 / max(params.rho_levels - 1, 1))
            self.rho_levels = [params.rho_start * ratio**k for k in range(params.rho_levels)]
        else:
            self.rho_levels = [params.rho_start]
        # one stacked factorization per rho level, shared by the x/y/z steps
        # on the basis's own Gram blocks and boundary rows
        PtP, Q_axis, B = basis.gram[0], basis.gram[2], basis.boundary_rows()
        self.factors = [qpcore.factorize(Q_axis + rho * lam[:, None, None] * PtP, B) for rho in self.rho_levels]
        self.n_factorizations = len(self.factors)
        # and its boundary part, the modes' boundary values through the level's maps
        self.boundaries = [qpcore.boundary_part(factor, self.b_modes) for factor in self.factors]

        # the iteration's workspace, (3, n_pairs, n_p) each: the targets
        # b_fo, then the offsets; and the multiplier shift lam / rho, then
        # the shifted offsets, then rho times the residual
        pairs = (3, self.n_pairs, basis.n_p)
        self.deltas, self.shifted = np.empty(pairs), np.empty(pairs)
        # the inverse semi-axes, as radial_target would form them on every
        # call, spread over the samples so that each product is one pass
        self.inverse = tuple(np.broadcast_to(1.0 / semi, pairs[1:]).copy() for semi in (self.pa, self.pb))

    def agent_positions(self, xi: np.ndarray) -> np.ndarray:
        """(3, N_a, n_p) position samples from the stacked coefficients."""
        return xi.reshape(3, self.n_a, self.m) @ self.basis.P.T

    def pair_deltas(self, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(3, n_pairs, n_p) offsets p_i - p_j (static partner uses its center).

        The incidence product is exact: its rows are +1, -1 and zeros.
        Without static partners the centres are all +0.0, whose subtraction
        changes no value or sign, so it is skipped.  Written into out when
        given.
        """
        deltas = np.matmul(self.E, self.agent_positions(xi), out=out)
        if self.has_static:
            deltas -= self.static_centers
        return deltas


def pairwise_residuals_arrays(struct: _JointStructure, state: JointState, deltas=None, out=None) -> np.ndarray:
    """(3, n_pairs, n_p) separation-equality residuals, offsets minus state.recon.

    deltas are the pair offsets of state.xi when the caller already has
    them; they are evaluated otherwise.  Written into out when given.
    """
    if deltas is None:
        deltas = struct.pair_deltas(state.xi)
    return np.subtract(deltas, state.recon, out=out)


def _init_state(problem, struct) -> JointState:
    # one least-squares fit for every (axis, agent) straight line, axis-major
    ends = np.array([[(bc[k].p0, bc[k].p1) for bc in problem.boundaries] for k in range(3)])
    xi = straight_line_coeffs(struct.basis, ends[..., 0].ravel(), ends[..., 1].ravel()).reshape(3, -1)
    deltas = struct.pair_deltas(xi, out=struct.deltas)
    d, recon = radial_target(deltas, struct.pa, struct.pb, deltas, upper=1.0)  # the unit-scale start d = 1
    return JointState(xi=xi, d=d, lam=np.zeros_like(deltas), recon=recon, residual=deltas - recon)


def _iterate(state: JointState, struct: _JointStructure) -> None:
    rho = struct.rho_levels[state.level]

    # incidence scatter A_fo' b = E' b P of the targets, all axes at once,
    # rotated into the modes, solved by each mode's block and rotated back
    shift = np.divide(state.lam, rho, out=struct.shifted)
    b_fo = np.subtract(state.recon, shift, out=struct.deltas)
    # an agent-only problem adds no centres: they are all +0.0, which would
    # only turn a -0.0 into 0.0, and a zero of either sign adds nothing to
    # the incidence products, the only reader of b_fo
    if struct.has_static:
        b_fo += struct.static_centers
    q_modes = -rho * (struct.EVt @ b_fo @ struct.basis.P)  # (3, N_a, m)
    qs = np.swapaxes(q_modes, 0, 1)
    eta = qpcore.apply_primal(struct.factors[state.level], qs, struct.boundaries[state.level])  # (N_a, 3, m)
    state.xi = (struct.V @ np.swapaxes(eta, 0, 1)).reshape(3, -1)

    # the d targets are shifted by the multipliers, so d keeps the closed form
    deltas = struct.pair_deltas(state.xi, out=struct.deltas)
    shifted = np.add(deltas, shift, out=shift)
    radial_target(deltas, struct.pa, struct.pb, shifted, out=(state.d, state.recon), inverse=struct.inverse)
    pairwise_residuals_arrays(struct, state, deltas, out=state.residual)
    state.lam += np.multiply(state.residual, rho, out=shifted)
    state.iteration += 1


def solve_joint(problem: MultiAgentProblem, params: JointParams | None = None) -> JointSolution:
    """Run the joint AM loop over the staged penalty schedule.

    Non-convergence is flagged, not raised.  The schedule advances one level
    whenever the windowed residual norm stalls.  The loop stops when the
    residual norm reaches tol_norm (converged) or, with
    params.stop_on_certificate, at the first iteration whose largest
    residual entry is at most the certificate bound e* (certified; see the
    module docstring).  Every solution reports whether its last residual
    certifies raw clearance, and the margin it proves.
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
        norm, max_abs = residual_extremes(state.residual)
        history.append({"norm": norm, "max_abs": max_abs, "rho": struct.rho_levels[state.level]})
        norms.append(norm)
        if norm <= params.tol_norm:
            converged = True
            break
        if params.stop_on_certificate and max_abs <= struct.certificate:
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

    trajectories = [
        sample_trajectory(struct.basis, state.xi[:, i * struct.m : (i + 1) * struct.m].T) for i in range(struct.n_a)
    ]

    gaps = np.linalg.norm(struct.pair_deltas(state.xi, out=struct.deltas)[:, ~struct.static], axis=0)
    if not history:
        norm, max_abs = residual_extremes(state.residual)
    return JointSolution(
        trajectories=trajectories,
        converged=converged,
        iterations=state.iteration,
        residual_norm=norm,
        residual_max=max_abs,
        residual_history=history,
        min_pair_distance=float(gaps.min()) if gaps.size else np.inf,
        certified=max_abs <= struct.certificate,
        certified_margin=float(np.min(struct.cert_scale * (struct.cert_bound - max_abs))) if struct.n_pairs else np.inf,
        inflated_radius=struct.inflated,
        n_factorizations=struct.n_factorizations,
        state=state,
    )
