import copy
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from trajopt import geometry, qpcore, solver_multiagent
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis
from trajopt.bench import gen_scenario, runner
from trajopt.geometry import D_CAP, EllipsoidShape, radial_target, stalled
from trajopt.solver_multiagent import (
    JointParams,
    MultiAgentProblem,
    StaticSphere,
    _init_state,
    _iterate,
    _JointStructure,
    certificate_bounds,
    inflate_radius,
    pairwise_residuals_arrays,
    solve_joint,
)

from angle_forms import angles3d

N_P = 60


def _axis_bounds(start, goal):
    return tuple(AxisBoundary(p0=float(s), p1=float(g)) for s, g in zip(start, goal))


def make_problem(starts, goals, radius=0.3, statics=(), n_p=N_P):
    basis = build_basis(0.0, 8.0, n_p, 10)
    boundaries = [_axis_bounds(s, g) for s, g in zip(starts, goals)]
    return MultiAgentProblem(
        basis=basis,
        boundaries=boundaries,
        agent_shape=EllipsoidShape(radius, radius),
        static_obstacles=list(statics),
    )


def _closed_form_d_3d(x_tilde, y_tilde, z_tilde, alpha, beta, a, b, lower, upper):
    """Clamped minimizer over d of the spheroid equality residual at fixed angles."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    num = a * sb * (ca * x_tilde + sa * y_tilde) + b * cb * z_tilde
    den = a**2 * sb**2 + b**2 * cb**2
    return np.clip(num / den, lower, upper)


class _Reference:
    """The multi-agent iteration as first written: the dense pair matrix
    A_fo, per-pair Python loops for the offsets and the static centres,
    the polar angles of every offset (angles3d), the d-step at those angles
    (_closed_form_d_3d) and the trigonometric reconstruction, and factors
    of the full saddle [[Q + rho * A_fo'A_fo, A_eq'], [A_eq, 0]] for the
    stacked agent coefficients, each one dense LU (test-local, so the
    solver's reduced factors are checked against an independent solve).
    conds holds each saddle's 2-norm condition number.

    The angles are those of the offsets of state.xi, as the iteration
    leaves them, so a JointState carries everything a step needs.  Only the
    unchanged constants (pair lists, radii, rho levels) come from
    _JointStructure; the initial state is _init_state's.
    """

    def __init__(self, problem, params):
        self.problem, self.params = problem, params
        self.struct = s = _JointStructure(problem, params)
        basis, m, n_p = problem.basis, s.m, problem.basis.n_p
        self.A_fo = np.zeros((s.n_pairs * n_p, s.n_a * m))
        for p in range(s.n_pairs):
            rows = slice(p * n_p, (p + 1) * n_p)
            i, j = s.pair_i[p], s.pair_j[p]
            self.A_fo[rows, i * m : (i + 1) * m] = basis.P
            if j >= 0:
                self.A_fo[rows, j * m : (j + 1) * m] = -basis.P
        self.static_centers = [
            np.asarray(sphere.center, dtype=float) for sphere in problem.static_obstacles for _ in range(s.n_a)
        ]
        Q = np.kron(np.eye(s.n_a), basis.Pddot.T @ basis.Pddot)
        A_eq = np.kron(np.eye(s.n_a), boundary_matrix(basis))
        self.b_eq = np.stack([np.concatenate([bc[k].values() for bc in problem.boundaries]) for k in range(3)])
        AtA = self.A_fo.T @ self.A_fo
        n_eq = A_eq.shape[0]
        saddles = [np.block([[Q + rho * AtA, A_eq.T], [A_eq, np.zeros((n_eq, n_eq))]]) for rho in s.rho_levels]
        self.n_v = Q.shape[0]
        self.factors = [scipy.linalg.lu_factor(K) for K in saddles]
        self.conds = [np.linalg.cond(K) for K in saddles]

    def agent_positions(self, xi):
        s = self.struct
        out = np.empty((s.n_a, s.basis.n_p, 3))
        for k in range(3):
            out[:, :, k] = xi[k].reshape(s.n_a, s.m) @ s.basis.P.T
        return out

    def pair_deltas(self, positions):
        s = self.struct
        out = np.empty((s.n_pairs, s.basis.n_p, 3))
        n_static = 0
        for p in range(s.n_pairs):
            i, j = s.pair_i[p], s.pair_j[p]
            if j >= 0:
                out[p] = positions[i] - positions[j]
            else:
                out[p] = positions[i] - self.static_centers[n_static][None, :]
                n_static += 1
        return out

    def angles(self, deltas):
        s = self.struct
        return angles3d((deltas[:, :, 0], deltas[:, :, 1], deltas[:, :, 2]), s.pa, s.pb)

    def reconstruction(self, d, alpha, beta):
        s = self.struct
        sb, cb = np.sin(beta), np.cos(beta)
        sa, ca = np.sin(alpha), np.cos(alpha)
        return np.stack([s.pa * d * sb * ca, s.pa * d * sb * sa, s.pb * d * cb], axis=-1)

    def step(self, state):
        self.xi_step(state)
        if self.struct.n_pairs:
            self.polar_step(state)
        state.iteration += 1

    def xi_step(self, state):
        s = self.struct
        rho = s.rho_levels[state.level]
        n_p = s.basis.n_p
        if s.n_pairs:
            recon = self.reconstruction(state.d, *self.angles(self.pair_deltas(self.agent_positions(state.xi))))
            qs = np.empty((3, s.n_a * s.m))
            statics = np.zeros((s.n_pairs, n_p, 3))
            n_static = 0
            for p in range(s.n_pairs):
                if s.pair_j[p] < 0:
                    statics[p] = self.static_centers[n_static][None, :]
                    n_static += 1
            for k in range(3):
                b_fo = recon[:, :, k] - state.lam[k] / rho + statics[:, :, k]
                qs[k] = -rho * (self.A_fo.T @ b_fo.ravel())
        else:
            qs = np.zeros((3, s.n_a * s.m))
        sol = scipy.linalg.lu_solve(self.factors[state.level], np.hstack([-qs, self.b_eq]).T)
        state.xi = sol[: self.n_v].T

    def polar_step(self, state):
        s = self.struct
        rho = s.rho_levels[state.level]
        deltas = self.pair_deltas(self.agent_positions(state.xi))
        alpha, beta = self.angles(deltas)
        shift = state.lam / rho
        state.d = _closed_form_d_3d(
            deltas[:, :, 0] + shift[0],
            deltas[:, :, 1] + shift[1],
            deltas[:, :, 2] + shift[2],
            alpha,
            beta,
            s.pa,
            s.pb,
            1.0,
            D_CAP,
        )
        recon = self.reconstruction(state.d, alpha, beta)
        state.recon = np.transpose(recon, (2, 0, 1))
        state.residual = np.transpose(deltas - recon, (2, 0, 1))
        state.lam = state.lam + rho * state.residual

    def solve(self):
        params, s = self.params, self.struct
        state = _init_state(self.problem, s)
        norms, last_change, converged = [], 0, False
        for _ in range(params.max_iter):
            self.step(state)
            norm = float(np.linalg.norm(state.residual))
            norms.append(norm)
            if norm <= params.tol_norm:
                converged = True
                break
            n_levels = len(s.rho_levels)
            scheduled = min(int(state.iteration * n_levels / max(params.max_iter, 1)), n_levels - 1)
            stall = stalled(norms, state.iteration - last_change, params.stall_window, params.stall_improvement, 0.0)
            target = max(scheduled, state.level + 1 if stall else state.level)
            if target > state.level and state.level < n_levels - 1:
                state.level = min(target, n_levels - 1)
                last_change = state.iteration
        return state, converged, norms, len(self.factors)


def _rel(actual, expected):
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def _assert_polar_step_matches(before, new, ref):
    """The polar step (angles, d-step, reconstruction, multipliers) of the
    reference from `before`, on the coefficients of `new`, so the xi-step's
    rounding does not enter.

    The residual is offsets minus reconstruction, both of the size of recon,
    and the reference's trigonometric reconstruction rounds at that size, so
    the residual (and rho times it, the multiplier update) is held to 1e-12
    of the reconstruction.  Near convergence that is loose relative to the
    small residual, so both are also held to 1e-10 relative (the reference
    rounds them to 7e-12 at rho = 1e4).
    """
    same = copy.deepcopy(before)
    same.xi = new.xi
    ref.polar_step(same)
    rho, scale = ref.struct.rho_levels[before.level], np.linalg.norm(same.recon)
    assert _rel(new.d, same.d) <= 1e-12
    assert _rel(new.recon, same.recon) <= 1e-12
    assert np.linalg.norm(new.residual - same.residual) <= 1e-12 * scale
    assert np.linalg.norm(new.lam - same.lam) <= 1e-12 * rho * scale
    assert _rel(new.residual, same.residual) <= 1e-10
    assert _rel(new.lam, same.lam) <= 1e-10


def _square_antipodal(n_agents, **params):
    scenario = gen_scenario("square-antipodal", {"n_agents": n_agents, **params}, seed=0)
    h = scenario.horizon
    return runner.multiagent_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))


# non-symmetric problems: no rounding-level tie for the solve to amplify
NON_SYMMETRIC = {
    "three agents, two static spheres": (
        [[-3.0, 0.2, 1.0], [3.0, -0.4, 1.2], [0.3, 3.0, 0.9]],
        [[3.0, -0.1, 1.1], [-3.0, 0.5, 0.8], [-0.2, -3.0, 1.3]],
        [StaticSphere(np.array([0.4, 1.2, 1.0]), 0.4), StaticSphere(np.array([-1.1, -0.7, 1.1]), 0.3)],
    ),
    "offset two-agent swap": ([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]], []),
    "one agent past a static sphere": (
        [[-3.0, 0.1, 1.0]],
        [[3.0, -0.2, 1.1]],
        [StaticSphere(np.array([0.0, 0.0, 1.0]), 0.5)],
    ),
}


class TestInflateRadius:
    def test_four_times_typical_residual(self):
        assert inflate_radius(0.3, 0.01, 4.0) == pytest.approx(0.34)

    def test_zero_residual_unchanged(self):
        assert inflate_radius(0.3, 0.0, 4.0) == pytest.approx(0.3)

    def test_zero_factor_unchanged(self):
        assert inflate_radius(0.3, 0.5, 0.0) == pytest.approx(0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            inflate_radius(-0.1, 0.0, 1.0)

    @pytest.mark.parametrize(
        "args", [(np.nan, 0.01, 4.0), (0.3, np.nan, 4.0), (0.3, 0.01, np.nan), (0.3, np.inf, 4.0), (np.inf, 0.0, 1.0)]
    )
    def test_non_finite_rejected(self, args):
        # NaN < 0 is False, so a sign test alone let NaN through
        with pytest.raises(ValueError, match="finite"):
            inflate_radius(*args)


class TestSingleAgent:
    def test_stationary_agent(self):
        prob = make_problem([[1.0, 2.0, 0.5]], [[1.0, 2.0, 0.5]])
        sol = solve_joint(prob, JointParams(max_iter=5))
        assert sol.converged
        np.testing.assert_allclose(sol.trajectories[0].pos, np.tile([1.0, 2.0, 0.5], (N_P, 1)), atol=1e-8)
        assert float(np.sum(sol.trajectories[0].acc ** 2)) < 1e-12

    def test_matches_min_acceleration_qp_oracle(self):
        start, goal = [0.0, 0.0, 1.0], [5.0, 2.0, 1.5]
        prob = make_problem([start], [goal])
        sol = solve_joint(prob, JointParams(max_iter=5))
        basis = prob.basis
        B = boundary_matrix(basis)
        factor = qpcore.factorize(basis.Pddot.T @ basis.Pddot, B)
        for k in range(3):
            bc = AxisBoundary(p0=start[k], p1=goal[k])
            xi, _ = qpcore.solve(factor, np.zeros(basis.n_var), bc.values())
            np.testing.assert_allclose(sol.trajectories[0].pos[:, k], basis.P @ xi, atol=1e-8)


class TestTwoAgentSwap:
    def test_antipodal_swap_clearance(self):
        radius = 0.3
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.0, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.0, 1.0]], radius=radius)
        sol = solve_joint(prob, JointParams(max_iter=200))
        # solved with the inflated radius; the true clearance is verified
        # geometrically against the raw diameter
        assert sol.min_pair_distance >= 2.0 * radius
        assert sol.inflated_radius[0] == pytest.approx(radius + 4.0 * 0.01)

    def test_boundary_conditions_met(self):
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        sol = solve_joint(prob, JointParams(max_iter=100))
        np.testing.assert_allclose(sol.trajectories[0].pos[0], [-2.0, 0.0, 1.0], atol=1e-7)
        np.testing.assert_allclose(sol.trajectories[0].pos[-1], [2.0, 0.0, 1.0], atol=1e-7)
        np.testing.assert_allclose(sol.trajectories[1].vel[0], 0.0, atol=1e-7)
        np.testing.assert_allclose(sol.trajectories[1].acc[-1], 0.0, atol=1e-7)


class TestStaticObstacles:
    def test_agent_avoids_static_sphere(self):
        sphere = StaticSphere(center=np.array([0.0, 0.0, 1.0]), radius=0.5)
        prob = make_problem([[-3.0, 0.0, 1.0]], [[3.0, 0.0, 1.0]], radius=0.2, statics=[sphere])
        sol = solve_joint(prob, JointParams(max_iter=200))
        dist = np.linalg.norm(sol.trajectories[0].pos - sphere.center, axis=1)
        assert dist.min() >= 0.2 + 0.5  # raw combined radius, inflation absorbs the residual


class TestInvariants:
    def test_factorization_count_equals_rho_levels(self):
        params = JointParams(max_iter=40, rho_levels=7)
        before = qpcore.factorization_count()
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.0, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.0, 1.0]])
        sol = solve_joint(prob, params)
        assert sol.n_factorizations == 7
        assert qpcore.factorization_count() == before + 7

    def test_d_at_least_one_after_every_iteration(self):
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.1, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.1, 1.0]])
        params = JointParams(max_iter=30)
        struct = _JointStructure(prob, params)
        state = _init_state(prob, struct)
        for _ in range(30):
            _iterate(state, struct)
            assert np.all(state.d >= 1.0)

    def test_axis_solves_decoupled(self):
        # axis updates share one factor but separate right-hand sides, and in
        # the eigenbasis of E'E each mode is its own small problem, so solving
        # axes and modes one by one, in reverse order, gives the same
        # coefficients
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.1, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.1, 1.0]])
        params = JointParams(max_iter=10)
        struct = _JointStructure(prob, params)
        state = _init_state(prob, struct)
        _iterate(state, struct)
        rho = struct.rho_levels[state.level]
        factor = struct.factors[state.level]

        # rebuild the RHS through the incidence product and rotate it and the
        # boundary values into the modes
        state2 = _init_state(prob, struct)
        q_agents = -rho * (struct.E.T @ (state2.recon - state2.lam / rho) @ struct.basis.P)  # (3, N_a, m)
        q_modes = struct.V.T @ q_agents
        b_modes = struct.V.T @ np.array([[bc[k].values() for bc in prob.boundaries] for k in range(3)])
        eta = np.empty_like(q_modes)
        for k in (2, 1, 0):
            for j in reversed(range(struct.n_a)):
                # every block solves this mode's right-hand side; its own block's is kept
                q, b = np.tile(q_modes[k, j], (struct.n_a, 1)), np.tile(b_modes[k, j], (struct.n_a, 1))
                xi_blocks, _ = qpcore.solve(factor, q, b)
                eta[k, j] = xi_blocks[j]
        xi_rev = (struct.V @ eta).reshape(3, -1)
        np.testing.assert_allclose(xi_rev, state.xi, atol=1e-12)

    def test_residual_trend_on_swap(self):
        # windowed norms are non-increasing after burn-in within each penalty
        # level; each rho switch causes a brief dual-ascent transient, so
        # windows touching a switch are treated as that level's burn-in
        prob = make_problem(
            [[-2.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, -2.0, 1.0]],
            [[2.0, 0.0, 1.0], [-2.0, 0.0, 1.0], [0.0, -2.0, 1.0], [0.0, 2.0, 1.0]],
        )
        sol = solve_joint(prob, JointParams(max_iter=150))
        assert sol.converged
        norms = np.array([h["norm"] for h in sol.residual_history])
        rhos = np.array([h["rho"] for h in sol.residual_history])
        w = 5
        switches = set(np.flatnonzero(np.diff(rhos) != 0.0) + 1)
        for k in range(20, len(norms) - 2 * w):
            span_switches = [s for s in switches if s <= k + 2 * w]
            if span_switches and k - max(span_switches) < w:
                continue  # still inside the post-switch transient
            first = norms[k : k + w].mean()
            second = norms[k + w : k + 2 * w].mean()
            assert second <= first * (1.0 + 1e-6) + 1e-12


class TestPairwiseResiduals:
    def test_reconstructed_state_reports_zero(self):
        prob = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.5, 1.2]], [[2.0, 0.0, 1.0], [-2.0, 0.5, 1.2]])
        params = JointParams()
        struct = _JointStructure(prob, params)
        state = _init_state(prob, struct)
        # overwrite d and recon with the unclamped scale and target, so the
        # reconstruction is exact
        deltas = struct.pair_deltas(state.xi)
        quad = np.sqrt(
            deltas[0] ** 2 / struct.pa**2 + deltas[1] ** 2 / struct.pa**2 + deltas[2] ** 2 / struct.pb**2
        )
        state.d, state.recon = radial_target(deltas, struct.pa, struct.pb, deltas, lower=0.0, upper=np.inf)
        np.testing.assert_allclose(state.d, quad, rtol=1e-14)
        res = pairwise_residuals_arrays(struct, state)
        assert np.max(np.abs(res)) < 1e-9

    def test_single_pair_matches_hand_formula(self):
        # after a step the residual is the offset minus the spheroid point at
        # the offset's angles and the step's d; the symmetric swap keeps the
        # offsets on the x axis up to rounding (beta = pi / 2), the shifted
        # goal does not
        for goal_y in (0.0, 0.3):
            prob = make_problem([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]], [[1.0, 0.0, 1.0], [-1.0, goal_y, 1.0]])
            struct = _JointStructure(prob, JointParams())
            state = _init_state(prob, struct)
            for _ in range(3):
                _iterate(state, struct)
            res = pairwise_residuals_arrays(struct, state)
            positions = struct.agent_positions(state.xi)
            delta = positions[:, 0] - positions[:, 1]
            a, b = struct.pa[0, 0], struct.pb[0, 0]
            alpha, beta = angles3d(delta, a, b)
            d = state.d[0]
            sb = np.sin(beta)
            expected = delta - [a * d * sb * np.cos(alpha), a * d * sb * np.sin(alpha), b * d * np.cos(beta)]
            np.testing.assert_allclose(res[:, 0], expected, rtol=0, atol=1e-12, err_msg=f"goal_y={goal_y}")
            np.testing.assert_array_equal(res, state.residual)

    def test_max_abs_below_norm(self):
        prob = make_problem([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]], [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
        params = JointParams()
        struct = _JointStructure(prob, params)
        state = _init_state(prob, struct)
        res = pairwise_residuals_arrays(struct, state)
        for fam in [*res, res]:
            assert np.max(np.abs(fam)) <= np.linalg.norm(fam) + 1e-15


class TestMatchesReference:
    def test_one_step_from_states_along_a_square_antipodal_run(self, monkeypatch):
        problem, params = _square_antipodal(8), JointParams()
        snapshots = []

        def recording(state, struct):
            snapshots.append(copy.deepcopy(state))
            _iterate(state, struct)

        monkeypatch.setattr(solver_multiagent, "_iterate", recording)
        solve_joint(problem, params)
        assert len(snapshots) > 100
        struct, ref = _JointStructure(problem, params), _Reference(problem, params)
        for k in (0, 25, 50, 100, len(snapshots) - 1):
            new, old = copy.deepcopy(snapshots[k]), copy.deepcopy(snapshots[k])
            _iterate(new, struct)
            ref.step(old)
            for name in ("d", "recon", "lam", "residual"):
                assert _rel(getattr(new, name), getattr(old, name)) <= 1e-10, (k, name)
            # The saddle's condition grows with rho, to 6e11 at the last level
            # this run reaches.  There a rounding-level (5e-16) change of the
            # right-hand side alone moves the reference's own xi by 1e-9 and
            # its positions by 4e-11 relative, along the agents' common
            # motion, which no pair row sees; so the xi bound scales with the
            # condition above 1e9 and the positions bound above 1e11, while
            # the pair offsets are held to 1e-12 at every level.
            cond = ref.conds[snapshots[k].level]
            assert _rel(new.xi, old.xi) <= 1e-10 * max(1.0, cond / 1e9), (k, cond)
            positions = np.moveaxis(ref.agent_positions(old.xi), -1, 0)
            assert _rel(struct.agent_positions(new.xi), positions) <= 1e-10 * max(1.0, cond / 1e11), (k, cond)
            assert _rel(struct.pair_deltas(new.xi), struct.pair_deltas(old.xi)) <= 1e-12, k
            assert (new.iteration, new.level) == (old.iteration, old.level)
            _assert_polar_step_matches(snapshots[k], new, ref)

    def test_one_step_from_coincident_agents(self):
        # both agents on one straight line: every pair offset is zero, where
        # the angles take their origin convention (alpha = beta = 0)
        problem, params = make_problem([[-2.0, 0.0, 1.0]] * 2, [[2.0, 0.5, 1.2]] * 2), JointParams()
        struct = _JointStructure(problem, params)
        state = _init_state(problem, struct)
        assert np.all(struct.pair_deltas(state.xi) == 0.0)
        np.testing.assert_array_equal(state.d, 1.0)
        np.testing.assert_array_equal(state.recon, np.broadcast_to([[[0.0]], [[0.0]], struct.pb], state.recon.shape))
        before = copy.deepcopy(state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _iterate(state, struct)
        for value in (state.xi, state.d, state.recon, state.residual, state.lam):
            assert np.all(np.isfinite(value))
        ref = _Reference(problem, params)
        old = copy.deepcopy(before)
        ref.step(old)
        assert _rel(state.xi, old.xi) <= 1e-10
        assert _rel(struct.agent_positions(state.xi), np.moveaxis(ref.agent_positions(old.xi), -1, 0)) <= 1e-10
        # the agents still share both end points, where either side's offsets
        # are rounding noise of arbitrary direction; so the full step is
        # compared between them, and the polar step on the same xi everywhere
        for name in ("d", "recon", "lam", "residual"):
            assert _rel(getattr(state, name)[..., 1:-1], getattr(old, name)[..., 1:-1]) <= 1e-10, name
        _assert_polar_step_matches(before, state, ref)

    @pytest.mark.parametrize("name", list(NON_SYMMETRIC))
    def test_full_solve(self, name):
        starts, goals, statics = NON_SYMMETRIC[name]
        problem, params = make_problem(starts, goals, statics=statics), JointParams()
        sol = solve_joint(problem, params)
        ref_state, ref_converged, ref_norms, ref_factorizations = _Reference(problem, params).solve()
        assert _rel(sol.state.xi, ref_state.xi) <= 1e-9
        assert (sol.iterations, sol.converged, sol.n_factorizations) == (
            ref_state.iteration,
            ref_converged,
            ref_factorizations,
        )
        np.testing.assert_allclose([h["norm"] for h in sol.residual_history], ref_norms, rtol=1e-9, atol=1e-12)


class TestStructure:
    def test_incidence_kron_is_the_dense_normal_matrix(self):
        starts, goals, statics = NON_SYMMETRIC["three agents, two static spheres"]
        problem, params = make_problem(starts, goals, statics=statics), JointParams()
        ref = _Reference(problem, params)
        struct = ref.struct
        AtA = ref.A_fo.T @ ref.A_fo
        kron = np.kron(struct.E.T @ struct.E, problem.basis.P.T @ problem.basis.P)
        np.testing.assert_allclose(kron, AtA, rtol=0, atol=1e-12 * np.abs(AtA).max())

    def test_incidence_gram_is_laplacian_plus_static_degree(self):
        starts, goals, statics = NON_SYMMETRIC["three agents, two static spheres"]
        struct = _JointStructure(make_problem(starts, goals, statics=statics), JointParams())
        laplacian = 3.0 * np.eye(3) - np.ones((3, 3))  # complete graph on 3 agents
        np.testing.assert_array_equal(struct.E.T @ struct.E, laplacian + 2.0 * np.eye(3))
        assert struct.n_pairs == 3 + 2 * 3
        np.testing.assert_array_equal(struct.pair_i, [0, 0, 1, 0, 1, 2, 0, 1, 2])
        np.testing.assert_array_equal(struct.pair_j, [1, 2, 2, -1, -1, -1, -1, -1, -1])
        np.testing.assert_allclose(struct.static_centers[:, 3:6, 0], np.tile(statics[0].center, (3, 1)).T)
        np.testing.assert_allclose(struct.static_centers[:, 6:, 0], np.tile(statics[1].center, (3, 1)).T)
        assert np.all(struct.static_centers[:, :3] == 0.0)

    def test_no_attribute_has_a_row_per_pair_sample(self):
        problem = _square_antipodal(8)
        struct = _JointStructure(problem, JointParams())
        rows = struct.n_pairs * problem.basis.n_p
        for name, value in vars(struct).items():
            if isinstance(value, np.ndarray):
                assert value.shape[0] != rows, name

    def test_single_agent_has_integer_empty_pair_arrays(self):
        problem = make_problem([[0.0, 0.0, 1.0]], [[4.0, 1.0, 1.5]])
        struct = _JointStructure(problem, JointParams())
        assert struct.n_pairs == 0
        for index in (struct.pair_i, struct.pair_j):
            assert index.shape == (0,) and index.dtype.kind == "i"
        assert struct.E.shape == (0, 1) and struct.n_factorizations == 1
        sol = solve_joint(problem, JointParams(max_iter=5))
        assert sol.converged and sol.iterations == 1
        assert sol.min_pair_distance == np.inf and sol.residual_norm == 0.0

    def test_agents_and_statics_solve_with_clearance(self):
        starts, goals, statics = NON_SYMMETRIC["three agents, two static spheres"]
        radius = 0.3
        sol = solve_joint(make_problem(starts, goals, radius=radius, statics=statics), JointParams())
        assert sol.converged
        assert sol.min_pair_distance >= 2.0 * radius
        for traj in sol.trajectories:
            for sphere in statics:
                assert np.linalg.norm(traj.pos - sphere.center, axis=1).min() >= radius + sphere.radius


class TestLargeSwarms:
    @pytest.mark.parametrize("n_agents,side", [(12, 6.0), (16, 6.0), (24, 6.0), (32, 8.0)])
    def test_square_antipodal_solves_with_clearance(self, n_agents, side):
        # on the default 6 m square, 32 agents start 0.75 m apart, inside two
        # agent radii (0.8 m), so their square is widened to 8 m
        problem = _square_antipodal(n_agents, side=side)
        before = qpcore.factorization_count()
        sol = solve_joint(problem)
        assert sol.n_factorizations == qpcore.factorization_count() - before == JointParams().rho_levels
        assert sol.min_pair_distance >= 2.0 * problem.agent_shape.a

    def test_complete_pair_graph_has_two_mode_groups(self):
        # E'E = (N_a + n_s) I - 11': the mean trajectory and the deviations
        # from it, each mode one block of the factor
        struct = _JointStructure(_square_antipodal(12), JointParams())
        np.testing.assert_allclose(np.linalg.eigvalsh(struct.E.T @ struct.E), [0.0] + [12.0] * 11, atol=1e-12)
        np.testing.assert_allclose(np.abs(struct.V[:, 0]), 1.0 / np.sqrt(12), rtol=1e-12)
        for factor in struct.factors:
            assert factor.q_map.shape == (12, struct.m, struct.m)


def _raw_pair_axes(problem):
    """Per-pair raw semi-axes (pa, pb) by hand, in the structure's pair order."""
    a, b = problem.agent_shape.a, problem.agent_shape.b
    n_a = problem.n_agents
    pa = [2.0 * a] * (n_a * (n_a - 1) // 2) + [a + s.radius for s in problem.static_obstacles for _ in range(n_a)]
    pb = [2.0 * b] * (n_a * (n_a - 1) // 2) + [b + s.radius for s in problem.static_obstacles for _ in range(n_a)]
    return np.array(pa), np.array(pb)


def _spheroid_problem(a, b, statics=()):
    starts, goals = [[-3.0, 0.2, 1.0], [3.0, -0.4, 1.2]], [[3.0, -0.1, 1.1], [-3.0, 0.5, 0.8]]
    return MultiAgentProblem(
        basis=build_basis(0.0, 8.0, N_P, 10),
        boundaries=[_axis_bounds(s, g) for s, g in zip(starts, goals)],
        agent_shape=EllipsoidShape(a, b),
        static_obstacles=list(statics),
    )


class TestCertificate:
    def test_sphere_bound_is_two_margins_over_root_three(self):
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        struct = _JointStructure(problem, JointParams())
        margin = struct.inflated[0] - 0.3  # 4 x 0.01
        assert struct.certificate == pytest.approx(2.0 * margin / np.sqrt(3.0) * (1.0 - 1e-9), rel=1e-13)
        assert struct.certificate < 2.0 * margin / np.sqrt(3.0)
        assert struct.certificate == pytest.approx(0.0462, abs=5e-5)

    @pytest.mark.parametrize(
        "a,b,statics",
        [
            (0.4, 0.4, ()),
            (0.3, 0.5, ()),
            (0.4, 0.4, (StaticSphere(np.array([0.0, 0.0, 1.0]), 1.0),)),
            (0.3, 0.5, (StaticSphere(np.array([0.0, 0.0, 1.0]), 0.0),)),
        ],
    )
    def test_residual_at_the_bound_keeps_raw_clearance(self, a, b, statics):
        # recon on the inflated spheroid (scaled norm 1, the least the clamp
        # d >= 1 allows), and the residual whose entries, each at most e*,
        # pull the offset closest to the pair's centre: every pair keeps raw
        # scaled norm >= 1
        problem = _spheroid_problem(a, b, statics)
        struct = _JointStructure(problem, JointParams())
        raw_pa, raw_pb = _raw_pair_axes(problem)
        e = struct.certificate
        rng = np.random.default_rng(3)
        diagonals = [[1.0, 1.0, -1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 1.0]]
        units = np.concatenate([rng.normal(size=(3, 400)), diagonals], axis=1)
        units /= np.linalg.norm(units, axis=0)
        axes = np.array([struct.pa[:, 0], struct.pa[:, 0], struct.pb[:, 0]])  # (3, n_pairs)
        recon = axes[:, :, None] * units[:, None, :]
        residual = -np.sign(recon) * np.minimum(np.abs(recon), e)
        assert np.abs(residual).max() == e
        deltas = recon + residual
        raw = np.sqrt((deltas[0] ** 2 + deltas[1] ** 2) / raw_pa[:, None] ** 2 + deltas[2] ** 2 / raw_pb[:, None] ** 2)
        assert raw.min() >= 1.0
        if a == b and not statics:
            # spheres: the diagonal is the tight direction, |delta| >= 2a
            assert np.linalg.norm(deltas, axis=0).min() >= 2.0 * a
            along = axes[:, :1, None] * np.full((3, 1, 1), 1.0 / np.sqrt(3.0))
            beyond = np.sign(along) * (np.abs(along) - 1.001 * e)
            assert np.linalg.norm(beyond) < 2.0 * a

    def test_bound_per_pair_matches_the_triangle_inequality(self):
        # agent pairs have raw semi-axes (2a, 2b); a static partner of radius
        # R has (a + R, b + R), and its smaller relative margin sets e*
        spheres = (StaticSphere(np.array([0.0, 0.0, 1.0]), 1.0), StaticSphere(np.array([0.0, 2.0, 1.0]), 0.0))
        struct = _JointStructure(_spheroid_problem(0.3, 0.5, spheres), JointParams())
        shrink = 1.0 - 1e-9
        # (a, b) = (0.3, 0.5), inflated by 0.04: the agent pair's raw
        # (0.6, 1.0) plans at (0.68, 1.08), so kappa = 1.08 on the z axis;
        # R = 1 gives raw (1.3, 1.5) at (1.34, 1.54), kappa = 1.54 / 1.5;
        # R = 0 gives raw (0.3, 0.5) at (0.34, 0.54), kappa = 1.08 again
        expected = [
            0.08 / np.sqrt(2.0 / 0.6**2 + 1.0 / 1.0**2),
            (1.54 / 1.5 - 1.0) / np.sqrt(2.0 / 1.3**2 + 1.0 / 1.5**2),
            0.08 / np.sqrt(2.0 / 0.3**2 + 1.0 / 0.5**2),
        ]
        np.testing.assert_allclose(struct.cert_bound, np.repeat(expected, [1, 2, 2]) * shrink, rtol=1e-13)
        assert struct.certificate == struct.cert_bound.min() == pytest.approx(expected[2] * shrink, rel=1e-13)

    def test_zero_raw_semi_axis_gives_zero_bound(self):
        raw = np.array([0.0, 0.8, 1e-200]), np.array([0.8, 0.0, 0.8])
        bound, scale = certificate_bounds(raw, (np.full(3, 0.88), np.full(3, 0.88)))
        np.testing.assert_array_equal(bound, 0.0)
        np.testing.assert_array_equal(scale, 1.0)

    def test_zero_margin_never_stops_early(self):
        # without inflation the raw and planning semi-axes agree and e* = 0:
        # the certified stop never fires before the norm test
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        params = JointParams(inflation_factor=0.0)
        assert _JointStructure(problem, params).certificate == 0.0
        plain = solve_joint(problem, params)
        stopping = solve_joint(problem, JointParams(inflation_factor=0.0, stop_on_certificate=True))
        assert stopping.iterations == plain.iterations
        np.testing.assert_array_equal(stopping.state.xi, plain.state.xi)

    def test_nan_residual_never_certifies(self, monkeypatch):
        monkeypatch.setattr(solver_multiagent, "residual_extremes", lambda res: (np.nan, np.nan))
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        sol = solve_joint(problem, JointParams(max_iter=5, stop_on_certificate=True))
        assert (sol.iterations, sol.converged, sol.certified) == (5, False, False)
        assert np.isnan(sol.certified_margin)

    def test_coincident_pair_never_certifies(self):
        # at r = 0 the reconstruction is (0, 0, pb_inf d): the residual holds
        # pb_inf d >= pb_inf, and every e_p lies below pb_inf - pb
        problem = make_problem([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], [[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
        struct = _JointStructure(problem, JointParams())
        assert np.all(struct.cert_bound < struct.pb[:, 0] - 0.6)
        sol = solve_joint(problem, JointParams(max_iter=0, stop_on_certificate=True))
        assert sol.residual_max == struct.pb[0, 0]
        assert not sol.certified and sol.certified_margin < 0.0

    def test_stops_at_the_first_certified_iteration(self):
        problem = _square_antipodal(4)
        plain = solve_joint(problem)
        sol = solve_joint(problem, JointParams(stop_on_certificate=True))
        e = _JointStructure(problem, JointParams()).certificate
        maxima = [entry["max_abs"] for entry in sol.residual_history]
        assert sol.certified and not sol.converged and sol.iterations < plain.iterations
        assert maxima[-1] <= e < min(maxima[:-1])
        # the stop changes nothing before it
        assert sol.residual_history == plain.residual_history[: sol.iterations]
        assert sol.certified_margin >= 0.0
        assert sol.min_pair_distance >= 2.0 * problem.agent_shape.a
        assert sol.n_factorizations == JointParams().rho_levels

    def test_default_solve_never_stops_on_the_certificate(self):
        # criterion 9 and the pins count iterations to residual_norm <= tol_norm
        sol = solve_joint(_square_antipodal(4))
        e = _JointStructure(_square_antipodal(4), JointParams()).certificate
        first = next(k for k, entry in enumerate(sol.residual_history) if entry["max_abs"] <= e)
        assert first + 1 < sol.iterations == 103
        assert sol.converged and sol.certified and sol.certified_margin > 0.0

    def test_unconverged_solution_reports_an_uncertified_margin(self):
        sol = solve_joint(_square_antipodal(4), JointParams(max_iter=10))
        assert not sol.certified and sol.certified_margin < 0.0

    def test_no_pairs_is_certified(self):
        sol = solve_joint(make_problem([[0.0, 0.0, 1.0]], [[4.0, 1.0, 1.5]]), JointParams(stop_on_certificate=True))
        assert sol.certified and sol.certified_margin == np.inf

    @pytest.mark.parametrize("n_agents,side", [(24, 6.0), (32, 8.0)])
    def test_large_swarms_certify_through_run_scenario(self, monkeypatch, n_agents, side):
        # the benchmark's path: run_scenario stops multiagent at the certificate
        solutions = []

        def capture(*args, **kwargs):
            solutions.append(solve_joint(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(solver_multiagent, "solve_joint", capture)
        scenario = gen_scenario("square-antipodal", {"n_agents": n_agents, "side": side}, seed=0)
        max_iter = JointParams().max_iter
        record = runner.run_scenario(scenario, "multiagent", seed=0, iters=max_iter)
        (sol,) = solutions
        assert sol.certified and sol.iterations < max_iter
        assert sol.min_pair_distance >= 2.0 * scenario.robot.shape[0]
        assert record.metrics.success and record.metrics.iters == sol.iterations
        assert record.metrics.residual_final == sol.residual_norm


class TestOnePassPerIteration:
    def test_one_residual_and_one_reconstruction_per_iteration(self, monkeypatch):
        calls = {"residual": 0, "recon": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            solver_multiagent,
            "pairwise_residuals_arrays",
            counting("residual", solver_multiagent.pairwise_residuals_arrays),
        )
        monkeypatch.setattr(solver_multiagent, "radial_target", counting("recon", solver_multiagent.radial_target))
        sol = solve_joint(make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]]))
        # the initial state's reconstruction is the only one outside the loop
        assert calls == {"residual": sol.iterations, "recon": sol.iterations + 1}

    def test_one_factor_apply_per_iteration(self, monkeypatch):
        # every mode's block is applied by the one apply_primal call, with
        # the level's boundary part formed with its factor: an iteration
        # factorizes nothing and forms no boundary part
        problem = _square_antipodal(8)
        struct = _JointStructure(problem, JointParams())
        state = _init_state(problem, struct)
        calls = []

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return wrapper

        for name in ("apply_primal", "boundary_part", "solve_batch", "solve", "factorize"):
            monkeypatch.setattr(qpcore, name, counting(name, getattr(qpcore, name)))
        for level in (0, len(struct.rho_levels) - 1):
            state.level = level
            _iterate(state, struct)
        assert calls == ["apply_primal", "apply_primal"]

    def test_iteration_takes_no_angles(self, monkeypatch):
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        struct = _JointStructure(problem, JointParams())
        state = _init_state(problem, struct)
        calls = []

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return wrapper

        for name in ("sin", "cos", "tan", "arctan2", "arccos", "arcsin", "hypot"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        for module in (solver_multiagent, geometry):
            monkeypatch.setattr(module, "angles3d", counting("angles3d", angles3d), raising=False)
        for _ in range(3):
            _iterate(state, struct)
        assert calls == []

    def test_stored_residual_and_reconstruction_match_the_state(self):
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        sol = solve_joint(problem, JointParams(max_iter=20))
        state = sol.state
        struct = _JointStructure(problem, JointParams())
        deltas = struct.pair_deltas(state.xi)
        np.testing.assert_array_equal(state.residual, pairwise_residuals_arrays(struct, state))
        np.testing.assert_array_equal(state.residual, deltas - state.recon)
        # the reconstruction is the spheroid point of scale d along the offset
        r = np.sqrt(deltas[0] ** 2 / struct.pa**2 + deltas[1] ** 2 / struct.pa**2 + deltas[2] ** 2 / struct.pb**2)
        np.testing.assert_allclose(state.recon, deltas * state.d / r, rtol=1e-14)
        assert sol.residual_norm == np.linalg.norm(state.residual)
        assert sol.residual_history[-1]["norm"] == sol.residual_norm

    def test_no_iteration_reports_the_initial_residual(self):
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        sol = solve_joint(problem, JointParams(max_iter=0))
        struct = _JointStructure(problem, JointParams())
        res = pairwise_residuals_arrays(struct, _init_state(problem, struct))
        assert (sol.iterations, sol.converged, sol.residual_history) == (0, False, [])
        assert sol.residual_norm == pytest.approx(float(np.linalg.norm(res)), rel=1e-14)
        assert sol.residual_max == pytest.approx(float(np.max(np.abs(res))), rel=1e-14)

    def test_min_pair_distance_matches_the_pair_loop(self):
        problem = _square_antipodal(4)
        sol = solve_joint(problem)
        positions = _Reference(problem, JointParams()).agent_positions(sol.state.xi)
        expected = np.inf
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                expected = min(expected, float(np.linalg.norm(positions[i] - positions[j], axis=1).min()))
        assert sol.min_pair_distance == expected


class TestInPlaceIteration:
    NAMES = ("d", "recon", "residual", "lam")

    @pytest.mark.parametrize("name", ["offset two-agent swap", "three agents, two static spheres"])
    def test_iterations_write_the_state_arrays_in_place(self, name):
        # no iteration hands the state a new array: a per-iteration
        # temporary taking the place of one of these would fail here
        starts, goals, statics = NON_SYMMETRIC[name]
        problem = make_problem(starts, goals, statics=statics)
        struct = _JointStructure(problem, JointParams())
        state = _init_state(problem, struct)
        arrays = {name: getattr(state, name) for name in self.NAMES}
        for _ in range(3):
            before = {name: value.copy() for name, value in arrays.items()}
            _iterate(state, struct)
            for name, value in arrays.items():
                assert getattr(state, name) is value, name
                assert not np.array_equal(value, before[name]), name

    def test_returned_state_shares_no_memory_with_the_workspace(self, monkeypatch):
        structs = []
        build = _JointStructure.__init__

        def recording(self, problem, params):
            structs.append(self)
            build(self, problem, params)

        monkeypatch.setattr(_JointStructure, "__init__", recording)
        sol = solve_joint(_square_antipodal(4), JointParams(max_iter=20))
        (struct,) = structs
        workspace = (struct.deltas, struct.shifted, *struct.inverse)
        for name in ("xi", *self.NAMES):
            for array in workspace:
                assert not np.shares_memory(getattr(sol.state, name), array), name

    def test_iterations_allocate_less_than_one_pair_array(self):
        # 10 agents: the pair arrays are (3, 45, 100), 108 kB each; the
        # allocating iteration held several of them at once
        problem = _square_antipodal(10)
        struct = _JointStructure(problem, JointParams())
        state = _init_state(problem, struct)
        _iterate(state, struct)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                _iterate(state, struct)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.iteration == 21
        assert peak - start < state.lam.nbytes

    def test_negative_zero_targets_reach_no_output(self):
        # without static spheres b_fo skips adding the all-zero centres,
        # which turned a -0.0 of recon - lam / rho into 0.0; adding them on a
        # copy of the structure gives the same iterate, signs of zero included
        problem = _square_antipodal(4)
        skip = _JointStructure(problem, JointParams())
        add = copy.copy(skip)
        add.has_static = True
        state = _init_state(problem, skip)
        for _ in range(5):
            _iterate(state, skip)
        state.lam[:, ::2] = 0.0
        state.recon[:, ::2] = -0.0
        assert np.signbit(state.recon - state.lam / skip.rho_levels[state.level]).any()
        got, expected = copy.deepcopy(state), copy.deepcopy(state)
        _iterate(got, skip)
        _iterate(expected, add)
        for name in ("xi", *self.NAMES):
            bits = [getattr(s, name).view(np.int64) for s in (got, expected)]
            np.testing.assert_array_equal(*bits, err_msg=name)


def _shape_problem(shape):
    return MultiAgentProblem(
        basis=build_basis(0.0, 8.0, N_P, 10),
        boundaries=[_axis_bounds([0.0, 0.0, 1.0], [4.0, 0.0, 1.0])],
        agent_shape=shape,
    )


class TestProblemValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field_name", ["p0", "v0", "a1"])
    def test_non_finite_boundary_rejected(self, field_name, bad):
        boundary = dict(p0=0.0, p1=4.0)
        boundary[field_name] = bad
        with pytest.raises(ValueError, match="boundary"):
            MultiAgentProblem(
                basis=build_basis(0.0, 8.0, N_P, 10),
                boundaries=[(AxisBoundary(**boundary), AxisBoundary(p0=0.0), AxisBoundary(p0=1.0, p1=1.0))],
                agent_shape=EllipsoidShape(0.3, 0.3),
            )

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="at least one agent"):
            MultiAgentProblem(basis=build_basis(0.0, 8.0, N_P, 10), boundaries=[], agent_shape=EllipsoidShape(0.3, 0.3))

    def test_agent_without_three_axes_rejected(self):
        with pytest.raises(ValueError, match="x, y and z"):
            MultiAgentProblem(
                basis=build_basis(0.0, 8.0, N_P, 10),
                boundaries=[_axis_bounds([0.0, 0.0], [4.0, 0.0])],
                agent_shape=EllipsoidShape(0.3, 0.3),
            )

    @pytest.mark.parametrize("a,b", [(np.nan, 0.3), (0.3, np.nan), (np.inf, 0.3), (0.3, np.inf)])
    def test_agent_shape_not_positive_and_finite_rejected(self, a, b):
        with pytest.raises(ValueError, match="semi-axes"):
            _shape_problem(EllipsoidShape(a, b))

    @pytest.mark.parametrize(
        "center,radius",
        [
            ([0.0, np.nan, 1.0], 0.5),
            ([0.0, 0.0, np.inf], 0.5),
            ([0.0, 0.0], 0.5),
            ([[0.0, 0.0, 1.0]], 0.5),
            ([0.0, 0.0, 1.0], -0.1),
            ([0.0, 0.0, 1.0], np.nan),
            ([0.0, 0.0, 1.0], np.inf),
            ([0.0, 0.0, 1.0], "1"),
            ([0.0, 0.0, 1.0], None),
        ],
    )
    def test_bad_static_sphere_rejected(self, center, radius):
        with pytest.raises(ValueError, match="static sphere"):
            make_problem([[-3.0, 0.0, 1.0]], [[3.0, 0.0, 1.0]], statics=[StaticSphere(np.array(center), radius)])

    def test_basis_below_the_boundary_rows_rejected(self):
        # accepted, it raised FactorizationError when the solve built its factors
        prob = make_problem([[-3.0, 0.0, 1.0]], [[3.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="degree-4 basis has 5 coefficients per axis"):
            MultiAgentProblem(**{**vars(prob), "basis": build_basis(0.0, 8.0, N_P, 4)})

    def test_zero_radius_static_sphere_accepted(self):
        sphere = StaticSphere(np.array([0.0, 0.0, 1.0]), 0.0)
        assert make_problem([[-3.0, 0.3, 1.0]], [[3.0, 0.3, 1.0]], statics=[sphere]).n_agents == 1


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho_start=0.0),
            dict(rho_start=-1.0),
            dict(rho_start=np.nan),
            dict(rho_start=np.inf),
            dict(rho_final=0.0),
            dict(rho_final=np.nan),
            dict(rho_final=np.inf),
            dict(rho_start=10.0, rho_final=1.0),
            dict(rho_levels=0),
            dict(max_iter=-1),
            dict(stall_window=0),
            dict(inflation_factor=np.nan),
            dict(inflation_factor=np.inf),
            dict(inflation_factor=-1.0),
            dict(typical_residual=np.inf),
            dict(typical_residual=np.nan),
            dict(typical_residual=-0.01),
            dict(tol_norm=np.nan),  # accepted, a solve then never converged
            dict(stall_improvement=np.nan),
            dict(stop_on_certificate="no"),  # truthy, it turned the stop on
            # each of these raised TypeError
            *(
                dict.fromkeys([name], value)
                for name in ("rho_start", "rho_final", "inflation_factor", "typical_residual", "tol_norm", "stall_improvement")
                for value in ("1", None)
            ),
        ],
    )
    def test_rejected_before_any_factorization(self, kwargs):
        before = qpcore.factorization_count()
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            JointParams(**kwargs)
        assert qpcore.factorization_count() == before

    def test_single_level_and_equal_rho_accepted(self):
        params = JointParams(rho_start=5.0, rho_final=5.0, rho_levels=1, max_iter=0)
        problem = make_problem([[-2.0, 0.0, 1.0], [2.0, 0.3, 1.0]], [[2.0, 0.0, 1.0], [-2.0, 0.3, 1.0]])
        sol = solve_joint(problem, params)
        assert sol.n_factorizations == 1
