import copy
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from trajopt import geometry, qpcore, solver_batch
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis, sample_trajectory, straight_line_coeffs
from trajopt.bench import gen_scenario, receding_horizon_run, runner
from trajopt.geometry import D_CAP, Obstacles, radial_clamp, scaled_sq_norm, stalled
from trajopt.solver_batch import (
    BatchParams,
    BatchProblem,
    FootprintSpec,
    _circles,
    _member_costs,
    _Structure,
    _split,
    batch_iteration,
    batch_xi_step,
    check_raw_feasibility,
    heading_step,
    init_state,
    polar_step,
    sample_initializations,
    solve_batch_opt,
)

N_P = 50


# one obstacle's (n_p, 2) centres and its semi-axes, as the tests build it
Track = namedtuple("Track", "centers a b")


def _static_obstacle(center, a, b):
    return Track(np.tile(np.asarray(center, dtype=float), (N_P, 1)), a, b)


def _stack(tracks):
    """The Obstacles of a list of tracks, None for none."""
    if not tracks:
        return None
    return Obstacles(np.stack([t.centers.T for t in tracks], axis=1), [t.a for t in tracks], [t.b for t in tracks])


def make_problem(obstacles=(), n_batch=8, v_max=3.0, a_max=3.0, offsets=(0.3, -0.3)):
    basis = build_basis(0.0, 10.0, N_P, 10)
    line = np.column_stack([np.linspace(0.0, 10.0, N_P), np.zeros(N_P)])
    return BatchProblem(
        basis=basis,
        boundary=(AxisBoundary(p0=0.0, p1=10.0), AxisBoundary(p0=0.0, p1=0.0)),
        psi_boundary=(0.0, 0.0),
        desired=line,
        obstacles=_stack(obstacles),
        footprint=FootprintSpec(offsets=offsets),
        v_max=v_max,
        a_max=a_max,
        n_batch=n_batch,
    )


class _Reference:
    """The batch solver as first written: the dense stacked constraint matrix
    F, targets g(alpha, d, psi) through arctan2/cos/sin, separate angle and
    scale steps, and factors cached on rho alone.  Its collision angles and
    scales are those of each row's own value, the circles placed by the
    copies (P xi_c, P xi_s) as the rows F xi read them.

    Only the unchanged constants (cost, boundary rows) come from _Structure.
    """

    def __init__(self, problem):
        self.problem = problem
        self.struct = _Structure(problem)
        basis, m, n_p = problem.basis, problem.basis.n_var, problem.basis.n_p
        self.m = m
        P, Pdot, Pddot = basis.P, basis.Pdot, basis.Pddot
        zeros = np.zeros((n_p, m))
        half_rows = [np.hstack([Pdot, zeros]), np.hstack([Pddot, zeros])]
        half_rows += [np.hstack([P, r_c * P]) for r_c in problem.footprint.offsets for _ in range(problem.n_o)]
        half_rows.append(np.hstack([zeros, P]))
        self.F = np.kron(np.eye(2), np.vstack(half_rows))
        self.FtF = self.F.T @ self.F
        obstacles = problem.obstacles
        self.obs_x, self.obs_y = obstacles.centres[:, None, None]
        self.a = obstacles.a[None, None, :, None]
        self.b = obstacles.b[None, None, :, None]
        self.r = np.asarray(problem.footprint.offsets, dtype=float)[None, :, None, None]

    def polar(self, xi):
        """Angles and scales of every collision, velocity and acceleration offset."""
        basis, prob = self.problem.basis, self.problem
        xi_x, xi_c, xi_y, xi_s = _split(xi, self.m)
        x, y = (xi_x @ basis.P.T)[:, None, None, :], (xi_y @ basis.P.T)[:, None, None, :]
        dx = x + self.r * (xi_c @ basis.P.T)[:, None, None, :] - self.obs_x
        dy = y + self.r * (xi_s @ basis.P.T)[:, None, None, :] - self.obs_y
        out = dict(
            alpha_coll=np.arctan2(dy / self.b, dx / self.a),
            d_coll=np.clip(np.hypot(dx / self.a, dy / self.b), 1.0, D_CAP),
        )
        for name, limit, mat in (("v", prob.v_max, basis.Pdot), ("a", prob.a_max, basis.Pddot)):
            vx, vy = xi_x @ mat.T, xi_y @ mat.T
            out["alpha_" + name] = np.arctan2(vy, vx)
            out["d_" + name] = np.clip(np.hypot(vx, vy) / limit, 0.0, 1.0)
        return out

    def g(self, polar, psi):
        """Stacked targets in the row order of F, (N_b, rows)."""
        prob, n_b = self.problem, psi.shape[0]
        parts = []
        for trig, obs, semi in ((np.cos, self.obs_x, self.a), (np.sin, self.obs_y, self.b)):
            coll = obs + semi * polar["d_coll"] * trig(polar["alpha_coll"])
            parts += [
                prob.v_max * polar["d_v"] * trig(polar["alpha_v"]),
                prob.a_max * polar["d_a"] * trig(polar["alpha_a"]),
                coll.reshape(n_b, -1),
                trig(psi),
            ]
        return np.hstack(parts)

    def solve(self, samples, params):
        """solve_batch_opt from explicit samples, as first written."""
        prob, struct, P = self.problem, self.struct, self.problem.basis.P
        s = init_state(prob, samples, params)  # the unchanged start: xi, heading, zero multipliers
        st = SimpleNamespace(xi=s.xi, xi_psi=s.xi_psi, psi=s.psi, lam=s.lam, lam_psi=s.lam_psi, rho=s.rho)
        # the reference keeps its own heading penalty, grown beside rho; the state has one field
        st.rho_psi, st.factor_rho, st.n_factorizations, st.iteration = s.rho, None, 0, 0
        polar = self.polar(st.xi)
        n_b = st.xi.shape[0]
        maxabs_hist, last_change, res = [], 0, None
        for _ in range(params.max_iter):
            if st.factor_rho != st.rho:
                f_xi = qpcore.factorize(struct.Q + st.rho * self.FtF, struct.A)
                f_psi = qpcore.factorize(struct.Q_psi_smooth + st.rho_psi * P.T @ P, struct.A_psi)
                st.factor_rho, st.n_factorizations = st.rho, st.n_factorizations + 2
            q_lin = struct.q[None, :] - st.lam - st.rho * (self.g(polar, st.psi) @ self.F)
            st.xi, _ = qpcore.solve_batch(f_xi, qpcore.BatchRHS(qs=q_lin, bs=np.tile(struct.b, (n_b, 1))))
            _, xi_c, _, xi_s = _split(st.xi, self.m)
            raw = np.arctan2(xi_s @ P.T, xi_c @ P.T)
            targets = raw + 2.0 * np.pi * np.round((st.psi - raw) / (2.0 * np.pi))
            q_psi = -st.lam_psi - st.rho_psi * (targets @ P)
            st.xi_psi, _ = qpcore.solve_batch(f_psi, qpcore.BatchRHS(qs=q_psi, bs=np.tile(struct.b_psi, (n_b, 1))))
            st.psi = st.xi_psi @ P.T
            polar = self.polar(st.xi)
            res = st.xi @ self.F.T - self.g(polar, st.psi)
            st.lam = st.lam - st.rho * (res @ self.F)
            st.lam_psi = st.lam_psi - st.rho_psi * ((st.psi - targets) @ P)
            st.iteration += 1
            maxabs_hist.append(float(np.max(np.abs(res), axis=1).min()))
            if stalled(maxabs_hist, st.iteration - last_change, params.stall_window, params.stall_improvement, max(params.tol, 0.0)):
                st.rho = min(st.rho * params.rho_growth, params.rho_cap)
                st.rho_psi = min(st.rho_psi * params.rho_growth, params.rho_cap)
                last_change = st.iteration
        st.residual_max = np.max(np.abs(res), axis=1)
        residual_norm = np.linalg.norm(res, axis=1)
        st.feasible = (st.residual_max <= params.tol) & check_raw_feasibility(
            st, prob, struct, params.d_margin, params.kin_margin
        )
        # the sample-space cost, an oracle apart from the solver's coefficient-space one
        xi_x, _, xi_y, _ = _split(st.xi, self.m)
        smooth = sum(np.sum((c @ prob.basis.Pddot.T) ** 2, axis=1) for c in (xi_x, xi_y, st.xi_psi))
        track = sum(np.sum((c @ P.T - prob.desired[:, k]) ** 2, axis=1) for k, c in enumerate((xi_x, xi_y)))
        aug_costs = prob.w_smooth * smooth + prob.w_track * track + st.rho * residual_norm
        st.best_index = int(np.argmin(np.where(st.feasible, aug_costs, np.inf))) if st.feasible.any() else None
        return st


# an asymmetric footprint: the offsets do not sum to zero, so the copy
# columns couple to the position columns in F'F
OFFSETS = (0.45, 0.1, -0.2)


def _moving_elliptical_obstacles():
    """Three a != b obstacles: one crossing the path, one passing through
    (0.1, 0) at the middle timestep, where a member standing at the origin
    puts its 0.1 circle within rounding of the centre, and one static."""
    t = np.linspace(0.0, 10.0, N_P)
    crossing = np.column_stack([3.0 + 0.3 * t, -2.0 + 0.4 * t])
    through = np.column_stack([np.full(N_P, 0.1), 0.8 * (t - t[N_P // 2])])
    return [
        Track(crossing, 0.6, 1.0),
        Track(through, 0.4, 0.7),
        _static_obstacle([7.5, 0.3], 0.9, 0.5),
    ]


def _default_samples(problem, seed):
    """The samples solve_batch_opt draws by default."""
    bx, by = problem.boundary
    mean = straight_line_coeffs(problem.basis, [bx.p0, by.p0], [bx.p1, by.p1]).ravel()
    scale = max(np.hypot(bx.p1 - bx.p0, by.p1 - by.p0) / 10.0, 0.5)
    return sample_initializations(mean, np.eye(mean.size) * scale**2, problem.n_batch, seed)


def _assert_close(got, ref, rel=1e-9):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestSampleInitializations:
    def test_zero_covariance_returns_mean(self):
        mean = np.arange(6.0)
        out = sample_initializations(mean, np.zeros((6, 6)), 5, seed=0)
        for row in out:
            np.testing.assert_allclose(row, mean, atol=1e-12)

    def test_seed_determinism(self):
        mean = np.zeros(4)
        cov = np.eye(4)
        a = sample_initializations(mean, cov, 10, seed=42)
        b = sample_initializations(mean, cov, 10, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_statistical_mean(self):
        # seeded statistical oracle: sample mean within 4 sigma / sqrt(N)
        sigma, n = 0.7, 1000
        mean = np.array([1.0, -2.0, 0.5])
        out = sample_initializations(mean, sigma**2 * np.eye(3), n, seed=3)
        bound = 4.0 * sigma / np.sqrt(n)
        assert np.all(np.abs(out.mean(axis=0) - mean) < bound)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            sample_initializations(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 3, seed=0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sample_initializations(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 3, seed=0)


def _sample_state(problem, seed=0, spread=0.5):
    m = problem.basis.n_var
    rng = np.random.default_rng(seed)
    from trajopt.basis import straight_line_coeffs

    mean = straight_line_coeffs(problem.basis, [0.0, 0.0], [10.0, 0.0]).ravel()
    samples = mean[None, :] + spread * rng.normal(size=(problem.n_batch, 2 * m))
    return init_state(problem, samples)


class TestBatchXiStep:
    def test_identical_members_identical_updates(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.2], 0.5, 0.5)], n_batch=4)
        m = prob.basis.n_var
        from trajopt.basis import straight_line_coeffs

        mean = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 0.0]).ravel()
        state = init_state(prob, np.tile(mean, (4, 1)))
        struct = _Structure(prob)
        batch_xi_step(state, prob, struct)
        for i in range(1, 4):
            np.testing.assert_array_equal(state.xi[i], state.xi[0])

    def test_batch_matches_per_member_loop(self):
        # per-member solves with the first-written dense F, trig targets and
        # F'F; the saddle matrix (condition about 1.4e6) turns their 1e-14
        # rounding differences into about 1e-11 relative
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.2], 0.5, 0.5)], n_batch=6)
        state = _sample_state(prob, seed=1)
        struct = _Structure(prob)
        ref = _Reference(prob)
        g = ref.g(ref.polar(state.xi), state.psi)
        q_lin = struct.q[None, :] - state.lam - state.rho * (g @ ref.F)
        factor = qpcore.factorize(struct.Q + state.rho * ref.FtF, struct.A)
        expected = np.stack([qpcore.solve(factor, q_lin[i], struct.b)[0] for i in range(6)])
        batch_xi_step(state, prob, struct)
        _assert_close(state.xi, expected)

    def test_small_rho_recovers_pure_qp_optimum(self):
        # with no obstacles and a small penalty the x/y blocks approach the
        # plain tracking/smoothness optimum (rho -> 0 exactly would zero out
        # the copy blocks' curvature, so probe the limit from above)
        prob = make_problem(obstacles=[], n_batch=2)
        state = _sample_state(prob, seed=2, spread=0.0)
        state.rho = 1e-4
        struct = _Structure(prob)
        batch_xi_step(state, prob, struct)
        m = prob.basis.n_var
        xi_x, _, xi_y, _ = _split(state.xi, m)

        basis = prob.basis
        Q_axis = basis.Pddot.T @ basis.Pddot + basis.P.T @ basis.P
        B = boundary_matrix(basis)
        factor = qpcore.factorize(Q_axis, B)
        oracle_x, _ = qpcore.solve(factor, -basis.P.T @ prob.desired[:, 0], prob.boundary[0].values())
        oracle_y, _ = qpcore.solve(factor, -basis.P.T @ prob.desired[:, 1], prob.boundary[1].values())
        assert np.max(np.abs(basis.P @ (xi_x[0] - oracle_x))) < 1e-3
        assert np.max(np.abs(basis.P @ (xi_y[0] - oracle_y))) < 1e-3


class TestHeadingStep:
    def test_constant_targets_give_constant_heading(self):
        psi_bar = 0.35
        prob = make_problem(obstacles=[], n_batch=3)
        prob.psi_boundary = (psi_bar, psi_bar)
        state = _sample_state(prob, seed=3, spread=0.0)
        m = prob.basis.n_var
        # force the copies to encode the constant angle
        coeffs_c = np.linalg.lstsq(prob.basis.P, np.full(N_P, np.cos(psi_bar)), rcond=None)[0]
        coeffs_s = np.linalg.lstsq(prob.basis.P, np.full(N_P, np.sin(psi_bar)), rcond=None)[0]
        state.xi[:, m : 2 * m] = coeffs_c
        state.xi[:, 3 * m :] = coeffs_s
        state.psi = np.full((3, N_P), psi_bar)
        struct = _Structure(prob)
        heading_step(state, prob, struct, _copies(prob, state.xi))
        np.testing.assert_allclose(state.psi, psi_bar, atol=1e-8)
        psi_acc = state.xi_psi @ prob.basis.Pddot.T
        assert np.max(np.abs(psi_acc)) < 1e-6

    def test_ramp_targets_fitted_exactly(self):
        # linear ramps have zero angular acceleration, so the smoothness
        # term does not bias the least-squares fit
        prob = make_problem(obstacles=[], n_batch=2)
        ramp = np.linspace(-0.4, 0.4, N_P)
        prob.psi_boundary = (float(ramp[0]), float(ramp[-1]))
        state = _sample_state(prob, seed=4, spread=0.0)
        m = prob.basis.n_var
        coeffs_c = np.linalg.lstsq(prob.basis.P, np.cos(ramp), rcond=None)[0]
        coeffs_s = np.linalg.lstsq(prob.basis.P, np.sin(ramp), rcond=None)[0]
        state.xi[:, m : 2 * m] = coeffs_c
        state.xi[:, 3 * m :] = coeffs_s
        state.psi = np.tile(ramp, (2, 1))
        struct = _Structure(prob)
        heading_step(state, prob, struct, _copies(prob, state.xi))
        np.testing.assert_allclose(state.psi[0], ramp, atol=1e-5)

    def test_batch_matches_per_member_loop(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.5, 0.5)], n_batch=5)
        state = _sample_state(prob, seed=5)
        struct = _Structure(prob)
        batch_xi_step(state, prob, struct)

        m = prob.basis.n_var
        _, xi_c, _, xi_s = _split(state.xi, m)
        raw = np.arctan2(xi_s @ prob.basis.P.T, xi_c @ prob.basis.P.T)
        targets = raw + 2.0 * np.pi * np.round((state.psi - raw) / (2.0 * np.pi))
        Q_psi = prob.basis.Pddot.T @ prob.basis.Pddot + state.rho * prob.basis.P.T @ prob.basis.P
        factor = qpcore.factorize(Q_psi, struct.A_psi)
        expected = np.stack(
            [
                qpcore.solve(factor, -state.lam_psi[i] - state.rho * prob.basis.P.T @ targets[i], struct.b_psi)[0]
                for i in range(5)
            ]
        )
        heading_step(state, prob, struct, _copies(prob, state.xi))
        assert np.max(np.abs(state.xi_psi - expected)) <= 1e-10

    def test_boundary_held(self):
        prob = make_problem(obstacles=[], n_batch=3)
        state = _sample_state(prob, seed=6)
        struct = _Structure(prob)
        batch_iteration(state, prob, struct)
        psi = state.xi_psi @ prob.basis.P.T
        np.testing.assert_allclose(psi[:, 0], prob.psi_boundary[0], atol=1e-8)
        np.testing.assert_allclose(psi[:, -1], prob.psi_boundary[1], atol=1e-8)


def _assert_pass_matches_reference(prob, state):
    """polar_step at the state's iterate against the reference's dense residual F xi - g.

    The pass returns residual @ F and sets the per-member max and norm of
    the residual and g @ F.  Returns the reference's angles and scales, so a
    case can show which branch of the projection its input takes.
    """
    ref = _Reference(prob)
    polar = ref.polar(state.xi)
    g = ref.g(polar, state.psi)
    res = state.xi @ ref.F.T - g
    residual_products = polar_step(state, prob, _Structure(prob), _copies(prob, state.xi))
    scale = np.max(np.abs(g @ ref.F))
    np.testing.assert_allclose(residual_products, res @ ref.F, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(state.target_products, g @ ref.F, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(state.residual_max, np.abs(res).max(axis=1), rtol=0, atol=1e-13)
    np.testing.assert_allclose(state.residual_norm, np.linalg.norm(res, axis=1), rtol=0, atol=1e-13)
    return polar


def _diagonal_state(prob, seed, goal):
    """A member moving at constant velocity along the line from the origin to goal."""
    state = _sample_state(prob, seed=seed, spread=0.0)
    m = prob.basis.n_var
    line = straight_line_coeffs(prob.basis, [0.0, 0.0], goal)
    state.xi[:, :m] = line[0]
    state.xi[:, 2 * m : 3 * m] = line[1]
    return state


class TestAlphaStep:
    """Directions of the polar targets (the former angle step), as inputs of the residual pass."""

    def test_circle_offset_along_x_gives_zero_angle(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.5, 0.5)], n_batch=1, offsets=(0.3,))
        state = _sample_state(prob, seed=7, spread=0.0)
        # heading 0: the copies place the circle at x + 0.3 P xi_c, within
        # rounding of x + 0.3; the timesteps where the circle center is
        # right of the obstacle on the x axis take angle 0
        polar = _assert_pass_matches_reference(prob, state)
        pos_x = state.xi[:, : prob.basis.n_var] @ prob.basis.P.T
        right = pos_x[0] + 0.3 * _copies(prob, state.xi)[0][0] > 5.0
        assert right.any()
        np.testing.assert_allclose(polar["alpha_coll"][0, 0, 0, right], 0.0, atol=1e-6)

    def test_velocity_angle_45_degrees(self):
        prob = make_problem(obstacles=[], n_batch=1)
        state = _diagonal_state(prob, 8, [10.0, 10.0])  # velocity (1, 1) everywhere
        polar = _assert_pass_matches_reference(prob, state)
        np.testing.assert_allclose(polar["alpha_v"], np.pi / 4, atol=1e-9)

    def test_alpha_update_reduces_collision_residual_term(self):
        # the input is an iterate whose targets are stale: the pass projects
        # afresh, so its residual is below the one on the previous targets
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.3], 0.6, 0.6)], n_batch=4)
        state = _sample_state(prob, seed=9)
        struct = _Structure(prob)
        ref = _Reference(prob)
        stale = ref.g(ref.polar(state.xi), state.psi)
        batch_xi_step(state, prob, struct)
        heading_step(state, prob, struct, _copies(prob, state.xi))
        before = np.linalg.norm(state.xi @ ref.F.T - stale, axis=1)
        _assert_pass_matches_reference(prob, state)
        assert np.all(state.residual_norm <= before)


class TestDStep:
    """Scales of the polar targets (the former scale step), as inputs of the residual pass."""

    def test_velocity_half_of_limit(self):
        prob = make_problem(obstacles=[], n_batch=1, v_max=2.0)
        state = _diagonal_state(prob, 10, [10.0, 0.0])  # speed 1.0 = v_max/2
        polar = _assert_pass_matches_reference(prob, state)
        np.testing.assert_allclose(polar["d_v"], 0.5, atol=1e-9)

    def test_velocity_over_limit_clamped(self):
        prob = make_problem(obstacles=[], n_batch=1, v_max=0.5)
        state = _diagonal_state(prob, 11, [10.0, 0.0])  # speed 1.0 = 2 v_max
        polar = _assert_pass_matches_reference(prob, state)
        np.testing.assert_array_equal(polar["d_v"], 1.0)
        # the velocity rows miss their targets by speed - v_max = 0.5
        assert state.residual_max[0] >= 0.5 - 1e-12

    def test_collision_scale_matches_grid_search(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.3], 0.7, 1.1)], n_batch=2)
        state = _sample_state(prob, seed=12)
        struct = _Structure(prob)
        batch_iteration(state, prob, struct)
        polar = _assert_pass_matches_reference(prob, state)

        # the reference's closed-form scale minimizes the residual along its angle
        dx, dy = _footprint_deltas(struct, prob, state.xi, _copies(prob, state.xi))
        a, b = 0.7, 1.1
        alpha, d = polar["alpha_coll"][0, 0, 0], polar["d_coll"][0, 0, 0]
        grid = np.linspace(1.0, 20.0, 1_900_001)
        for k in (0, N_P // 2, N_P - 1):
            cost = (dx[0, 0, 0, k] - a * grid * np.cos(alpha[k])) ** 2 + (dy[0, 0, 0, k] - b * grid * np.sin(alpha[k])) ** 2
            d_grid = grid[np.argmin(cost)]
            assert abs(d[k] - d_grid) < 1e-4  # grid resolution limited

    def test_d_bounds_hold_after_every_iteration(self):
        # every iteration ends on the pass at its own iterate, and that pass
        # matches the reference's targets, whose scales are clipped to their
        # bounds
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)], n_batch=4)
        state = _sample_state(prob, seed=13)
        struct = _Structure(prob)
        for _ in range(10):
            batch_iteration(state, prob, struct)
            stored = (state.target_products, state.residual_max, state.residual_norm)
            _assert_pass_matches_reference(prob, state)
            for old, new in zip(stored, (state.target_products, state.residual_max, state.residual_norm)):
                np.testing.assert_array_equal(old, new)


class TestPolarStep:
    def test_circle_at_obstacle_centre_and_zero_velocity(self):
        # a member standing still at the origin: its only circle sits on the
        # obstacle centre at every timestep and its velocity is exactly zero;
        # the targets take the origin convention, (a, 0) and (0, 0)
        prob = make_problem(obstacles=[_static_obstacle([0.0, 0.0], 0.6, 0.9)], n_batch=1, offsets=(0.0,))
        state = init_state(prob, np.zeros((1, 2 * prob.basis.n_var)))
        polar = _assert_pass_matches_reference(prob, state)
        for name in ("alpha_coll", "alpha_v", "d_v", "alpha_a", "d_a"):
            np.testing.assert_array_equal(polar[name], 0.0)
        np.testing.assert_array_equal(polar["d_coll"], 1.0)
        # the collision rows miss their target (0.6, 0) by its full length
        assert state.residual_max[0] >= 0.6

    def test_targets_match_trig_reference(self):
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=OFFSETS)
        _assert_pass_matches_reference(prob, _sample_state(prob, seed=21))


def _trig(state):
    return np.cos(state.psi), np.sin(state.psi)


def _copies(prob, xi):
    """The heading copies (P xi_c, P xi_s), which place the circles of the collision rows."""
    _, xi_c, _, xi_s = _split(xi, prob.basis.n_var)
    return xi_c @ prob.basis.P.T, xi_s @ prob.basis.P.T


def _footprint_deltas(struct, prob, xi, heading):
    """Circle-centre offsets to every obstacle per axis, (N_b, n_c, n_o, n_p).

    heading places the circles: the copies for the collision rows, (cos psi,
    sin psi) for the true circles.
    """
    circles = _circles(struct, prob.basis, xi, heading).reshape(xi.shape[0], struct.r.size, 2, -1)
    return [circles[:, :, k, None, :] - struct.obstacles.centres[k] for k in range(2)]


def _dense_pass(state, prob, struct, coupled=False):
    """polar_step with every clamp over every entry, and the collision sum
    over obstacles taken in obstacle order, one term at a time.

    numpy's sum over an axis picks its order from the memory layout, and
    sums pairwise when that axis is innermost.  coupled gives the pass as
    first written in residual form: the collision clamp at the true circles
    (cos psi, sin psi), and every obstacle's term plus the copy coupling
    r_c (P xi_c - cos psi).  Returns residual @ F, g @ F and the per-member
    residual max and norm.
    """
    basis, n_b = prob.basis, state.xi.shape[0]
    xi_x, _, xi_y, _ = _split(state.xi, struct.m)
    trig, placed = _trig(state), _copies(prob, state.xi)
    coll = radial_clamp(_footprint_deltas(struct, prob, state.xi, trig if coupled else placed),
                        struct.obstacles.a[:, None], struct.obstacles.b[:, None])
    vel = radial_clamp((xi_x @ basis.Pdot.T, xi_y @ basis.Pdot.T), prob.v_max, prob.v_max, 0.0, 1.0)
    acc = radial_clamp((xi_x @ basis.Pddot.T, xi_y @ basis.Pddot.T), prob.a_max, prob.a_max, 0.0, 1.0)
    res_max, sq, products = np.zeros(n_b), np.zeros(n_b), []
    for k in range(2):
        copy = placed[k] - trig[k]
        if coupled:
            coll[k] += struct.r[None, :, None, None] * copy[:, None, None, :]
        for res in (vel[k], acc[k], coll[k], copy):
            flat = res.reshape(n_b, -1)
            res_max = np.maximum(res_max, np.abs(flat).max(axis=1, initial=0.0))
            sq += np.einsum("ij,ij->i", flat, flat)
        per_circle = np.zeros((n_b, struct.r.size, basis.n_p))
        for o in range(prob.n_o):
            per_circle = per_circle + coll[k][:, :, o]
        products.append(per_circle.sum(axis=1) @ basis.P + vel[k] @ basis.Pdot + acc[k] @ basis.Pddot)
        products.append((np.tensordot(struct.r, per_circle, axes=(0, 1)) + copy) @ basis.P)
    residual_products = np.hstack(products)
    return residual_products, state.xi @ struct.FtF - residual_products, res_max, np.sqrt(sq)


def _assert_pass_matches_dense(prob, state, struct=None, coupled=False):
    """polar_step on the active obstacle set against the dense pass: the
    sums, and so residual @ F and g @ F, and the residual max bit for bit;
    the norm, whose squares are summed in another order, to 1e-15."""
    struct = struct or _Structure(prob)
    residual_products, target_products, res_max, res_norm = _dense_pass(state, prob, struct, coupled)
    np.testing.assert_array_equal(polar_step(state, prob, struct, _copies(prob, state.xi)), residual_products)
    np.testing.assert_array_equal(state.target_products, target_products)
    np.testing.assert_array_equal(state.residual_max, res_max)
    np.testing.assert_allclose(state.residual_norm, res_norm, rtol=1e-15, atol=0)


def _collision_q(prob, state, heading):
    """Squared scaled norm of every (member, circle, obstacle, time) offset, the circles placed by heading."""
    struct = _Structure(prob)
    deltas = _footprint_deltas(struct, prob, state.xi, heading)
    return scaled_sq_norm(deltas, struct.obstacles.a[:, None], struct.obstacles.b[:, None])


class TestRawFeasibilityMatchesDense:
    @pytest.mark.parametrize("d_margin", [0.0, 0.01, 0.5, 0.999])
    def test_least_q_from_the_broad_phase(self, d_margin):
        # the members graze, cross and miss the obstacles; every entry the
        # broad phase skips has q >= 1, so the verdicts are the dense ones
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=12, offsets=OFFSETS)
        state = _sample_state(prob, seed=33, spread=0.8)
        m = prob.basis.n_var
        state.xi[:4, 2 * m : 3 * m] += 6.0  # four members pass well clear
        struct = _Structure(prob)
        least = np.sqrt(_collision_q(prob, state, _trig(state)).min(axis=(1, 2, 3)))
        got = check_raw_feasibility(state, prob, struct, d_margin, np.inf)  # no kinematic verdict
        np.testing.assert_array_equal(got, least >= 1.0 - d_margin)
        assert (least < 0.5).any() and (least >= 1.0).any()


class TestActivePassMatchesDense:
    def test_cell_where_every_obstacle_is_active(self):
        # three overlapping obstacles on the path: where both circles pass
        # through their common part, every obstacle adds an active term
        centres = [(5.0, 0.0), (5.1, 0.05), (4.9, -0.05)]
        prob = make_problem(obstacles=[_static_obstacle(c, 0.8 + 0.1 * k, 0.9) for k, c in enumerate(centres)],
                            n_batch=3)
        state = _diagonal_state(prob, 30, [10.0, 0.0])
        state.xi[:, prob.basis.n_var : 2 * prob.basis.n_var] *= 1.1  # copies off the heading: the rows' circles are not the true ones
        assert (_collision_q(prob, state, _copies(prob, state.xi)) < 1.0).all(axis=2).any()
        _assert_pass_matches_dense(prob, state)

    def test_two_circles_with_signed_offsets(self):
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=(0.3, -0.3))
        _assert_pass_matches_dense(prob, _sample_state(prob, seed=31))

    def test_circle_on_an_obstacle_centre(self):
        # a member standing at the origin; the obstacle passing through
        # (0.1, 0) at the middle timestep is moved there onto the member's
        # 0.1 circle, as the copies place it (P xi_c rounds off 1 there)
        tracks = _moving_elliptical_obstacles()
        prob = make_problem(obstacles=tracks, n_batch=1, offsets=OFFSETS)
        xi = init_state(prob, np.zeros((1, 2 * prob.basis.n_var))).xi
        circles = _circles(_Structure(prob), prob.basis, xi, _copies(prob, xi))
        tracks[1].centers[N_P // 2] = circles[1, :, N_P // 2]
        prob = make_problem(obstacles=tracks, n_batch=1, offsets=OFFSETS)
        state = init_state(prob, np.zeros((1, 2 * prob.basis.n_var)))
        assert (_collision_q(prob, state, _copies(prob, state.xi)) == 0.0).any()
        _assert_pass_matches_dense(prob, state)

    def test_obstacle_beyond_the_scale_cap(self):
        # scaled distance above D_CAP: the clamp leaves the zero band from above
        far = _static_obstacle([5.0, 3.0], 1e-6, 2e-6)
        prob = make_problem(obstacles=[far, _static_obstacle([5.0, 0.2], 0.7, 0.6)], n_batch=4)
        state = _sample_state(prob, seed=32)
        assert (_collision_q(prob, state, _copies(prob, state.xi))[:, :, 0] > D_CAP**2).all()
        _assert_pass_matches_dense(prob, state)

    def test_no_obstacles(self):
        prob = make_problem(obstacles=[], n_batch=4)
        _assert_pass_matches_dense(prob, _sample_state(prob, seed=33))

    @pytest.mark.parametrize("offsets", [(0.0,), (0.0, 0.0)])
    def test_centred_footprint_matches_the_coupled_pass(self, offsets):
        # with every offset 0, r_c P xi_c and r_c cos psi are both zeros and
        # so is the coupling: placing the circles by the copies changes nothing
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=offsets)
        struct = _Structure(prob)
        state = init_state(prob, _default_samples(prob, seed=35), struct=struct)
        _assert_pass_matches_dense(prob, state, struct, coupled=True)
        for _ in range(10):
            batch_iteration(state, prob, struct)
            _assert_pass_matches_dense(prob, state, struct, coupled=True)

    def test_centred_dynamic_flow_matches_the_coupled_pass(self):
        scenario = gen_scenario("dynamic-flow", seed=0)
        h = scenario.horizon
        prob = runner.batch_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))
        assert not np.any(prob.footprint.offsets)
        struct = _Structure(prob)
        state = init_state(prob, _default_samples(prob, seed=0), struct=struct)
        for _ in range(5):
            batch_iteration(state, prob, struct)
        _assert_pass_matches_dense(prob, state, struct, coupled=True)

    def test_every_iterate_of_a_solve(self):
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=OFFSETS)
        struct = _Structure(prob)
        state = init_state(prob, _default_samples(prob, seed=34), struct=struct)
        _assert_pass_matches_dense(prob, state, struct)
        for _ in range(10):
            batch_iteration(state, prob, struct)
            _assert_pass_matches_dense(prob, state, struct)

    def test_every_iterate_with_a_binding_acceleration_limit(self):
        # the acceleration rows bind in the first iterates and not in the
        # last, the speed rows in none: the pass skips the families
        # norm_clamp finds inactive and adds the active ones as the dense
        # pass does
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=OFFSETS, a_max=1.2)
        struct = _Structure(prob)
        state = init_state(prob, _default_samples(prob, seed=34), struct=struct)
        binding = []
        for _ in range(10):
            batch_iteration(state, prob, struct)
            xi_x, _, xi_y, _ = _split(state.xi, struct.m)
            binding.append(np.hypot(xi_x @ prob.basis.Pddot.T, xi_y @ prob.basis.Pddot.T).max() > prob.a_max)
            _assert_pass_matches_dense(prob, state, struct)
        assert binding[0] and not binding[-1]


class TestOnePassPerIteration:
    @staticmethod
    def _calls_per_iteration(monkeypatch, prob):
        """Calls per iteration of the trig functions, radial_clamp and norm_clamp,
        from the difference of a 12- and a 2-iteration solve."""
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("arctan2", "cos", "sin"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        # the clamps of the shared collision pass and of the velocity and
        # acceleration rows, which norm_clamp takes on their active samples
        monkeypatch.setattr(geometry, "radial_clamp", counted("radial_clamp", geometry.radial_clamp))
        monkeypatch.setattr(solver_batch, "norm_clamp", counted("norm_clamp", geometry.norm_clamp))
        per_solve = []
        for iters in (12, 2):
            counts.clear()
            ranked = solve_batch_opt(prob, BatchParams(max_iter=iters), seed=0)
            assert ranked.iterations == iters
            per_solve.append(dict(counts))
        # the solves share their start and their ranking
        return {name: (per_solve[0][name] - per_solve[1].get(name, 0)) / 10 for name in per_solve[0]}

    def test_one_trig_and_one_radial_clamp_per_iteration_within_limits(self, monkeypatch):
        # every speed and acceleration sample within its limit: norm_clamp
        # forms the squared norms and returns None, and only the collision
        # pass clamps; each iteration makes one residual pass (cos, sin) and
        # takes the heading targets' arctan2
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=OFFSETS)
        per_iteration = self._calls_per_iteration(monkeypatch, prob)
        assert per_iteration == {"arctan2": 1, "cos": 1, "sin": 1, "radial_clamp": 1, "norm_clamp": 2}

    def test_one_trig_and_three_radial_clamps_per_iteration(self, monkeypatch):
        # limits that bind in every iteration: a radial clamp per family,
        # two of them through norm_clamp
        prob = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=6, offsets=OFFSETS, v_max=1.2, a_max=0.2)
        per_iteration = self._calls_per_iteration(monkeypatch, prob)
        assert per_iteration == {"arctan2": 1, "cos": 1, "sin": 1, "radial_clamp": 3, "norm_clamp": 2}


class TestSolveBatchOpt:
    def test_obstacle_free_all_feasible_and_near_optimal(self):
        prob = make_problem(obstacles=[], n_batch=12)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=60), seed=0)
        assert ranked.feasible.all()
        basis = prob.basis
        Q_axis = basis.Pddot.T @ basis.Pddot + basis.P.T @ basis.P
        factor = qpcore.factorize(Q_axis, boundary_matrix(basis))
        oracle_x, _ = qpcore.solve(factor, -basis.P.T @ prob.desired[:, 0], prob.boundary[0].values())
        oracle_y, _ = qpcore.solve(factor, -basis.P.T @ prob.desired[:, 1], prob.boundary[1].values())
        ax = basis.Pddot @ oracle_x
        ay = basis.Pddot @ oracle_y
        px = basis.P @ oracle_x
        py = basis.P @ oracle_y
        oracle_cost = float(np.sum(ax**2 + ay**2) + np.sum((px - prob.desired[:, 0]) ** 2 + (py - prob.desired[:, 1]) ** 2))
        best_cost = float(ranked.costs[ranked.best_index])
        assert best_cost <= oracle_cost + 1e-6

    def test_single_member_matches_manual_update_sequence(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.1], 0.5, 0.5)], n_batch=1)
        from trajopt.basis import straight_line_coeffs

        mean = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 0.0]).ravel()
        samples = mean[None, :]
        params = BatchParams(max_iter=7)
        ranked = solve_batch_opt(prob, params, samples=samples)

        struct = _Structure(prob)
        state = init_state(prob, samples.copy(), params)
        for _ in range(7):
            batch_iteration(state, prob, struct)
        np.testing.assert_allclose(ranked.state.xi, state.xi, atol=1e-12)

    def test_all_infeasible_batch_reports_no_best(self):
        # a wall of obstacles with no gap and too few iterations to escape
        centres = np.column_stack([np.full(11, 5.0), np.linspace(-6, 6, 11)])
        obstacles = [_static_obstacle(c, 0.9, 0.9) for c in centres]
        prob = make_problem(obstacles=obstacles, n_batch=4)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=2), seed=1)
        assert ranked.best_index is None
        assert not ranked.feasible.any()
        # independent of the solver's own flags: every member's centre passes
        # inside some wall obstacle (nearest approaches 0.04-0.61 on seeds 1-5)
        for traj in ranked.trajectories:
            assert np.linalg.norm(traj.pos[:, None, :] - centres[None], axis=-1).min() < 0.9

    def test_one_factorization_per_rho_value(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)], n_batch=6)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=40), seed=2)
        distinct_rho = len({h["rho"] for h in ranked.best_history})
        assert ranked.n_factorizations == 2 * distinct_rho  # one xi factor + one psi factor per value

    def test_elliptical_obstacle_far_from_the_path_converges(self):
        # (a, b) = (0.5, 2.0) at (5, -6): every sample of the straight line
        # y = 0 has scaled distance >= 3, so the collision rows are slack and
        # the straight line is the answer.  The angles must be those of the
        # scaled offset (dx / a, dy / b); with the unscaled arctan2(dy, dx)
        # the collision targets never match the positions.
        prob = make_problem(obstacles=[_static_obstacle([5.0, -6.0], 0.5, 2.0)], n_batch=1, offsets=(0.0,))
        from trajopt.basis import straight_line_coeffs

        samples = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 0.0]).ravel()[None, :]
        ranked = solve_batch_opt(prob, BatchParams(max_iter=100), samples=samples)
        assert ranked.residual_max[0] < 1e-9
        assert ranked.feasible[0] and ranked.best_index == 0

    def test_one_collision_workspace_rebuilt_only_when_the_count_changes(self):
        struct = _Structure(make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)], offsets=OFFSETS))
        rows = struct.obstacle_rows(8)
        assert rows.n == 8 * len(OFFSETS) and struct.obstacle_rows(8) is rows
        other = struct.obstacle_rows(3)
        assert other.n == 3 * len(OFFSETS) and struct.obstacle_rows(3) is other
        assert struct.obstacle_rows(8) is not rows  # one workspace, not one per count


    def test_member_trajectories_are_sampled_members(self):
        # one stacked product per basis matrix samples every member as
        # sample_trajectory samples it alone
        problem = _flow_problem(0, 100)
        ranked = solve_batch_opt(problem, BatchParams(max_iter=5), seed=0)
        xi_x, _, xi_y, _ = _split(ranked.state.xi, problem.basis.n_var)
        assert len(ranked.trajectories) == 100
        for i, traj in enumerate(ranked.trajectories):
            alone = sample_trajectory(problem.basis, np.column_stack([xi_x[i], xi_y[i]]), psi=ranked.state.psi[i])
            assert traj.t is problem.basis.grid.timestamps
            np.testing.assert_array_equal(traj.psi, ranked.state.psi[i])
            for got, expected in ((traj.pos, alone.pos), (traj.vel, alone.vel), (traj.acc, alone.acc)):
                assert got.shape == expected.shape
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_cold_solve_builds_one_structure(self, monkeypatch):
        built = []
        init = _Structure.__init__

        def counting(self, problem):
            built.append(problem)
            init(self, problem)

        monkeypatch.setattr(_Structure, "__init__", counting)
        solve_batch_opt(make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)]), BatchParams(max_iter=2))
        assert len(built) == 1


def _flow_problem(seed, n_batch):
    scenario = gen_scenario("dynamic-flow", seed=seed)
    h = scenario.horizon
    return runner.batch_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, degree=10), n_batch=n_batch)


class TestStopOnCertificate:
    """BatchParams.stop_on_certificate ends a solve at a stationary, raw-feasible best candidate."""

    def test_stopped_solve_is_the_truncated_solve(self):
        prob = _flow_problem(3, 30)
        stopped = solve_batch_opt(prob, BatchParams(max_iter=40, stop_on_certificate=True), seed=3)
        k = stopped.iterations
        assert 0 < k < 40
        truncated = solve_batch_opt(prob, BatchParams(max_iter=k), seed=3)
        assert stopped.best_index is not None and stopped.best_index == truncated.best_index
        assert stopped.feasible[stopped.best_index]
        for name in ("costs", "aug_costs", "feasible", "residual_max", "residual_norm"):
            np.testing.assert_array_equal(getattr(stopped, name), getattr(truncated, name), err_msg=name)
        for name in ("xi", "xi_psi", "lam", "lam_psi", "psi"):
            np.testing.assert_array_equal(getattr(stopped.state, name), getattr(truncated.state, name), err_msg=name)
        assert stopped.state.rho == truncated.state.rho
        assert stopped.best_history == truncated.best_history

    def test_no_feasible_member_runs_every_iteration(self):
        # seed 4 has no feasible member at 40 iterations (nor at 100 with 100 members)
        prob = _flow_problem(4, 20)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=40, stop_on_certificate=True), seed=4)
        assert ranked.iterations == 40
        assert ranked.best_index is None and not ranked.feasible.any()

    def test_warm_solve_counts_its_window_from_its_first_iteration(self):
        # the cold solve stops at a stationary best candidate; the warm one
        # takes stall_window + 1 records of its own before it may stop again
        prob = _flow_problem(2, 20)
        params = BatchParams(max_iter=40, stop_on_certificate=True)
        cold = solve_batch_opt(prob, params, seed=2)
        assert cold.iterations < params.max_iter
        state = copy.deepcopy(cold.state)
        warm = solve_batch_opt(prob, params, state=cold.state)
        assert warm.iterations == params.stall_window + 1
        truncated = solve_batch_opt(prob, BatchParams(max_iter=warm.iterations), state=state)
        assert warm.best_index == truncated.best_index is not None
        np.testing.assert_array_equal(warm.state.xi, truncated.state.xi)

    def test_record_is_the_least_candidate_key(self, monkeypatch):
        # a stopping solve keys each iteration on _member_costs of the
        # candidates alone; its ranking costs every member
        prob = _flow_problem(2, 20)
        params = BatchParams(max_iter=30)
        state = solve_batch_opt(prob, params, seed=2).state
        keys = []
        member_costs = solver_batch._member_costs

        def recording(struct, xi, xi_psi):
            keys.append(member_costs(struct, xi, xi_psi))
            return keys[-1]

        monkeypatch.setattr(solver_batch, "_member_costs", recording)
        warm = solve_batch_opt(prob, BatchParams(max_iter=1, stop_on_certificate=True), state=state)
        candidates = warm.state.residual_max <= params.tol
        assert 0 < candidates.sum() < candidates.size
        assert len(keys) == 2 and keys[0].shape == (candidates.sum(),)  # the candidates' key, then the ranking
        np.testing.assert_allclose(keys[0], keys[1][candidates], rtol=1e-12)
        np.testing.assert_array_equal(keys[1], warm.costs)

    def test_member_costs_are_the_sampled_cost(self):
        prob = BatchProblem(**{**vars(_flow_problem(2, 20)), "w_smooth": 0.7, "w_track": 1.3})
        state = solve_batch_opt(prob, BatchParams(max_iter=5), seed=2).state
        basis = prob.basis
        xi_x, _, xi_y, _ = _split(state.xi, basis.n_var)
        smooth = sum(np.sum((c @ basis.Pddot.T) ** 2, axis=1) for c in (xi_x, xi_y, state.xi_psi))
        track = sum(np.sum((c @ basis.P.T - prob.desired[:, k]) ** 2, axis=1) for k, c in enumerate((xi_x, xi_y)))
        costs = _member_costs(_Structure(prob), state.xi, state.xi_psi)
        np.testing.assert_allclose(costs, 0.7 * smooth + 1.3 * track, rtol=1e-12)

    def test_stopped_solve_checks_the_whole_batch_once_per_stationary_iteration(self, monkeypatch):
        # seed 1's best candidate is stationary at iterations 35 and 36 but
        # not feasible; the solve stops at 37
        prob = _flow_problem(1, 30)
        params = BatchParams(max_iter=40, stop_on_certificate=True)
        calls = []
        check = solver_batch.check_raw_feasibility

        def counting(state, *args, **kwargs):
            ok = check(state, *args, **kwargs)
            calls.append((state.iteration, ok.size))
            return ok

        with monkeypatch.context() as patched:
            patched.setattr(solver_batch, "check_raw_feasibility", counting)
            stopped = solve_batch_opt(prob, params, seed=1)
        assert stopped.iterations < params.max_iter
        # the iterations whose least candidate key is stationary over the window
        records = []
        for h in range(1, stopped.iterations + 1):
            state = solve_batch_opt(prob, BatchParams(max_iter=h), seed=1)
            candidates = state.residual_max <= params.tol
            records.append(float(np.min(state.aug_costs[candidates], initial=np.inf)))
        stationary = [
            k + 1
            for k in range(params.stall_window, len(records))
            if np.isfinite(records[k - params.stall_window : k + 1]).all()
            and abs(records[k] - records[k - params.stall_window])
            <= params.stall_improvement * abs(records[k - params.stall_window])
        ]
        assert len(stationary) > 1 and stationary[-1] == stopped.iterations
        assert calls == [(k, prob.n_batch) for k in stationary]


class TestBadSamplesRejected:
    """Samples and sampling moments that no pass can use are rejected before the first one."""

    def _solve(self, **kwargs):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)], n_batch=4)
        return solve_batch_opt(prob, BatchParams(max_iter=2), **kwargs)

    def _line_samples(self, n=4):
        line = straight_line_coeffs(make_problem().basis, [0.0, 0.0], [10.0, 0.0]).ravel()
        return np.tile(line, (n, 1))

    def test_nan_sample(self):
        samples = self._line_samples()
        samples[1, 3] = np.nan
        with pytest.raises(ValueError, match="samples must be finite"):
            self._solve(samples=samples)

    def test_nan_mean(self):
        mean = self._line_samples(1)[0]
        mean[2] = np.nan
        with pytest.raises(ValueError, match="mean and covariance must be finite"):
            self._solve(mean=mean)

    def test_infinite_sample(self):
        samples = self._line_samples()
        samples[2, 5] = np.inf
        with pytest.raises(ValueError, match="samples must be finite"):
            self._solve(samples=samples)

    def test_no_members(self):
        with pytest.raises(ValueError, match="N_b >= 1"):
            self._solve(samples=self._line_samples(0))

    @pytest.mark.parametrize("n", [3, 5])
    def test_member_count_other_than_n_batch(self, n):
        # the problem has n_batch = 4; other counts used to run that many members
        with pytest.raises(ValueError, match=f"{n} samples given, expected n_batch = 4"):
            self._solve(samples=self._line_samples(n))


class TestMatchesReference:
    """50 iterations of solve_batch_opt against the first-written solver."""

    def _assert_matches(self, problem, samples):
        params = BatchParams(max_iter=50)
        got = solve_batch_opt(problem, params, samples=samples)
        ref = _Reference(problem).solve(samples, params)
        _assert_close(got.state.xi, ref.xi)
        _assert_close(got.state.lam, ref.lam)
        _assert_close(got.residual_max, ref.residual_max)
        np.testing.assert_array_equal(got.feasible, ref.feasible)
        assert (got.best_index, got.n_factorizations) == (ref.best_index, ref.n_factorizations)

    def test_dynamic_flow_seed_0(self):
        scenario = gen_scenario("dynamic-flow", seed=0)
        h = scenario.horizon
        problem = runner.batch_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))
        self._assert_matches(problem, _default_samples(problem, 0))

    def test_multi_circle_elliptical_scene(self):
        # the first member stands still at the origin: zero velocity, and a
        # circle within rounding of an obstacle centre at the middle timestep
        problem = make_problem(obstacles=_moving_elliptical_obstacles(), n_batch=8, offsets=OFFSETS)
        samples = _default_samples(problem, 3)
        samples[0] = 0.0
        self._assert_matches(problem, samples)


class TestClosedFormFtF:
    @pytest.mark.parametrize("offsets,n_obstacles", [(OFFSETS, 3), ((0.0,), 2), ((0.3, -0.3), 0)])
    def test_matches_dense_product(self, offsets, n_obstacles):
        obstacles = [_static_obstacle([5.0, float(i)], 0.5, 0.7) for i in range(n_obstacles)]
        prob = make_problem(obstacles=obstacles, n_batch=1, offsets=offsets)
        ref = _Reference(prob)
        _assert_close(_Structure(prob).FtF, ref.FtF, rel=1e-13)


class TestProblemValidation:
    """Bad problem data is rejected when the problem is built."""

    @pytest.mark.parametrize(
        "change",
        [
            dict(v_max=float("nan")),
            dict(a_max=float("inf")),
            dict(desired_nan=True),
            dict(boundary=(AxisBoundary(p0=0.0, p1=float("nan")), AxisBoundary(p0=0.0, p1=0.0))),
            dict(boundary=(AxisBoundary(p0=0.0, p1=10.0), AxisBoundary(p0=0.0, v0=float("inf"), p1=0.0))),
            dict(psi_boundary=(0.0, float("nan"))),
            dict(centers=np.zeros((N_P, 3))),
            dict(centers=np.zeros((N_P - 1, 2))),
            dict(centers=np.full((N_P, 2), float("nan"))),
            # accepted, these failed at the first product, failed mid-solve, and solved
            dict(w_smooth="1"),
            dict(w_track=float("nan")),
            dict(w_smooth=-1.0),
            dict(w_smooth=0.0, w_track=0.0),
        ],
        ids=[
            "v_max-nan", "a_max-inf", "desired-nan", "goal-nan", "v0-inf", "psi-nan", "centres-3d", "centres-short",
            "centres-nan", "w_smooth-string", "w_track-nan", "w_smooth-negative", "weights-zero",
        ],
    )
    def test_rejected(self, change):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 1.0], 0.5, 0.5)])
        kwargs = dict(vars(prob))
        desired = prob.desired.copy()
        if change.pop("desired_nan", False):
            desired[7, 1] = np.nan
        kwargs["desired"] = desired
        centers = change.pop("centers", None)
        kwargs.update(change)
        # the obstacle checks run when the Obstacles are built, the fit to the problem when it is
        with pytest.raises(ValueError):
            if centers is not None:
                kwargs["obstacles"] = Obstacles(centers.T[:, None], [0.5], [0.5])
            BatchProblem(**kwargs)

    @pytest.mark.parametrize("centres", [np.ones((3, 1, N_P)), np.ones((2, 1, N_P - 1))], ids=["3d", "other-grid"])
    def test_obstacles_of_another_problem_rejected(self, centres):
        with pytest.raises(ValueError, match="obstacles are"):
            BatchProblem(**{**vars(make_problem()), "obstacles": Obstacles(centres, [0.5], [0.5])})

    def test_basis_below_the_boundary_rows_rejected(self):
        # accepted, it raised FactorizationError after the first residual pass
        with pytest.raises(ValueError, match="degree-4 basis has 5 coefficients per axis"):
            BatchProblem(**{**vars(make_problem()), "basis": build_basis(0.0, 10.0, N_P, 4)})

    @pytest.mark.parametrize("offsets", [(0.3, float("nan")), (float("inf"),), ()])  # and an empty footprint
    def test_non_finite_footprint_offsets_rejected(self, offsets):
        with pytest.raises(ValueError):
            make_problem(offsets=offsets)

    @pytest.mark.parametrize("a,b", [(float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5), (0.5, float("inf"))])
    def test_non_finite_semi_axes_rejected(self, a, b):
        # accepted, they made every member's residual_max non-finite
        with pytest.raises(ValueError, match="semi-axes"):
            make_problem(obstacles=[_static_obstacle([5.0, 1.0], a, b)])


class TestParamsValidation:
    """Bad schedule values are rejected when the params are built, not partway through a solve."""

    @pytest.mark.parametrize(
        "change",
        [
            dict(rho_start=0.0),  # was a FactorizationError at the first xi-step
            dict(rho_start=float("nan")),  # was "Q must be symmetric" mid-solve
            dict(rho_growth=float("nan")),  # likewise, once rho first grew
            dict(stall_window=0),  # warned "Mean of empty slice" and never grew rho
            dict(rho_cap=-1.0),
            dict(stop_on_certificate="no"),  # truthy, it turned the stop on
            dict(stop_on_certificate=1),
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_rejected(self, change):
        with pytest.raises(ValueError, match=next(iter(change))):
            BatchParams(**change)

    def test_defaults_and_boundary_values_accepted(self):
        BatchParams()
        BatchParams(rho_start=2.0, rho_cap=2.0, rho_growth=1.0, max_iter=0, stall_window=1, tol=0.0)
        BatchParams(d_margin=0.0, kin_margin=0.0)
        BatchParams(d_margin=0.999, kin_margin=10.0)
        BatchParams(stop_on_certificate=np.True_)

    @pytest.mark.parametrize(
        "name,value",
        [
            # NaN margins marked no member feasible, silently
            ("d_margin", float("nan")),
            ("d_margin", float("inf")),
            ("d_margin", -0.1),
            ("d_margin", 1.0),
            ("kin_margin", float("nan")),
            ("kin_margin", float("inf")),
            ("kin_margin", -1e-3),
            # each raised TypeError
            ("d_margin", "1"),
            ("d_margin", None),
            ("kin_margin", "1"),
            ("kin_margin", None),
        ],
    )
    def test_margins_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            BatchParams(**{name: value})


def _assert_rejected_untouched(state, prob, match):
    """A warm solve of prob raises before its first iteration and leaves the state as it was."""
    caches = (state.xi_factors, state.psi_factors)
    factors = [(cache.factor, cache.count) for cache in caches]
    before = copy.deepcopy(state)
    with pytest.raises(ValueError, match=match):
        solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
    assert (state.xi_factors, state.psi_factors) == caches
    assert all(cache.factor is factor and cache.count == count for cache, (factor, count) in zip(caches, factors))
    for name, value in vars(before).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(state, name), value, err_msg=name)
        elif name not in ("xi_factors", "psi_factors"):
            np.testing.assert_equal(getattr(state, name), value, err_msg=name)  # NaN rho included


class TestWarmState:
    def _solved_state(self, prob, iters=3):
        return solve_batch_opt(prob, BatchParams(max_iter=iters), seed=0).state

    def _assert_warm_solve_refactors(self, state, prob, n_refactored):
        """A warm solve of prob runs its iterations on n_refactored new factors, as from fresh caches."""
        fresh = copy.deepcopy(state)
        fresh.xi_factors, fresh.psi_factors = qpcore.FactorCache(), qpcore.FactorCache()
        n_before = state.xi_factors.count + state.psi_factors.count
        warm = solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
        expected = solve_batch_opt(prob, BatchParams(max_iter=3), state=fresh)
        assert (warm.iterations, warm.n_factorizations) == (3, n_before + n_refactored)
        assert np.all(np.isfinite(warm.residual_norm))
        np.testing.assert_array_equal(warm.state.xi, expected.state.xi)
        np.testing.assert_array_equal(warm.residual_max, expected.residual_max)

    # the first pass of a warm solve is taken on the new problem, so a warm
    # state carries over to another layout of the same coefficient width

    def test_obstacle_count_change_runs_and_refactors(self):
        # F'F scales with the obstacle count; the heading saddle does not
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.5, 0.5)]))
        prob = make_problem(obstacles=[_static_obstacle([5.0, y], 0.5, 0.5) for y in (-2.0, 0.0, 2.0)])
        self._assert_warm_solve_refactors(state, prob, 1)

    def test_circle_count_change_runs_and_refactors(self):
        obstacle = [_static_obstacle([5.0, 0.0], 0.5, 0.5)]
        state = self._solved_state(make_problem(obstacles=obstacle, offsets=(0.3, -0.3)))
        self._assert_warm_solve_refactors(state, make_problem(obstacles=obstacle, offsets=(0.3, 0.0, -0.3)), 1)

    def test_grid_change_runs_and_refactors(self):
        # the same degree on 60 samples: every coefficient block fits, and
        # both saddles sum over the samples
        def problem(n_p):
            basis = build_basis(0.0, 10.0, n_p, 10)
            line = np.column_stack([np.linspace(0.0, 10.0, n_p), np.zeros(n_p)])
            obstacle = Obstacles(np.tile([[[5.0]], [[0.0]]], (1, 1, n_p)), [0.5], [0.5])
            return BatchProblem(**{**vars(make_problem()), "basis": basis, "desired": line, "obstacles": obstacle})

        state = self._solved_state(problem(60))
        self._assert_warm_solve_refactors(state, problem(50), 2)

    @pytest.mark.parametrize("max_iter", [0, 3])
    def test_last_pass_is_not_read(self, max_iter):
        # the heading samples and the last residual pass are retaken on the
        # new problem, so no value of theirs reaches the outputs
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)]))
        prob = make_problem(obstacles=[_static_obstacle([6.0, -0.5], 0.5, 0.5)])
        other = copy.deepcopy(state)
        rng = np.random.default_rng(4)
        for name in ("psi", "target_products", "residual_max", "residual_norm"):
            setattr(other, name, rng.normal(size=np.shape(getattr(state, name))))
        warm = solve_batch_opt(prob, BatchParams(max_iter=max_iter), state=other)
        expected = solve_batch_opt(prob, BatchParams(max_iter=max_iter), state=state)
        for name in ("costs", "aug_costs", "residual_max", "residual_norm", "feasible"):
            np.testing.assert_array_equal(getattr(warm, name), getattr(expected, name), err_msg=name)
        for name in ("xi", "xi_psi", "psi", "target_products", "lam", "lam_psi"):
            np.testing.assert_array_equal(getattr(warm.state, name), getattr(expected.state, name), err_msg=name)
        assert (warm.best_history, warm.iterations) == (expected.best_history, max_iter)

    def test_zero_iteration_warm_solve_reports_the_new_problem(self):
        # the last pass was the old problem's: with the obstacle moved onto
        # the members' path, the report must show the new collision rows
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 3.0], 0.5, 0.5)], n_batch=6))
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.5, 0.5)], n_batch=6)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=0), state=state)
        ref = _Reference(prob)
        xi, psi = ranked.state.xi, ranked.state.psi
        res = xi @ ref.F.T - ref.g(ref.polar(xi), psi)
        np.testing.assert_array_equal(psi, ranked.state.xi_psi @ prob.basis.P.T)
        np.testing.assert_allclose(ranked.residual_max, np.abs(res).max(axis=1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(ranked.residual_norm, np.linalg.norm(res, axis=1), rtol=0, atol=1e-12)
        assert ranked.residual_max.min() > 0.1

    def test_iterations_count_the_call(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)])
        state = self._solved_state(prob)
        state.iteration = 20
        ranked = solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
        assert (ranked.iterations, ranked.state.iteration) == (3, 23)

    @pytest.mark.parametrize("name", ["xi", "xi_psi", "lam", "lam_psi"])
    def test_non_finite_array_rejected_before_iterating(self, name):
        # a NaN multiplier used to turn its member NaN partway through the solve
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)])
        state = self._solved_state(prob)
        value = np.array(getattr(state, name))
        value.flat[3] = np.nan
        setattr(state, name, value)
        _assert_rejected_untouched(state, prob, f"warm state {name} is not finite")

    @pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0, "1", None])
    def test_bad_penalty_rejected_before_iterating(self, rho):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)])
        state = self._solved_state(prob)
        state.rho = rho
        _assert_rejected_untouched(state, prob, "warm state rho")

    def test_non_finite_residual_report_accepted(self):
        # the last pass's residual max and norm are overwritten, never read
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)])
        state = self._solved_state(prob)
        clean = copy.deepcopy(state)
        state.residual_max = np.full_like(state.residual_max, np.nan)
        state.residual_norm = np.full_like(state.residual_norm, np.inf)
        warm = solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
        expected = solve_batch_opt(prob, BatchParams(max_iter=3), state=clean)
        np.testing.assert_array_equal(warm.state.xi, expected.state.xi)
        np.testing.assert_array_equal(warm.residual_norm, expected.residual_norm)

    @pytest.mark.parametrize("n_batch", [6, 50])
    def test_member_count_mismatch_rejected(self, n_batch):
        # a warm state of 8 members used to run 8 members on any n_batch
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)]))
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)], n_batch=n_batch)
        _assert_rejected_untouched(state, prob, rf"warm state xi has shape \(8, 44\), expected \({n_batch}, 44\)")

    def test_basis_mismatch_rejected(self):
        state = self._solved_state(make_problem())
        basis = build_basis(0.0, 10.0, N_P, 8)
        prob = make_problem()
        prob = BatchProblem(**{**vars(prob), "basis": basis})
        with pytest.raises(ValueError, match="warm state xi"):
            solve_batch_opt(prob, BatchParams(max_iter=3), state=state)

    def test_changed_saddle_matrix_is_refactored(self):
        # same shapes, different footprint offsets: F'F changes, so the
        # cached xi factor must not be reused; the heading saddle is the
        # same, so its factor is
        obstacle = [_static_obstacle([5.0, 0.5], 0.5, 0.5)]
        state = self._solved_state(make_problem(obstacles=obstacle, offsets=(0.3,)))
        fresh = copy.deepcopy(state)
        fresh.xi_factors, fresh.psi_factors = qpcore.FactorCache(), qpcore.FactorCache()
        prob = make_problem(obstacles=obstacle, offsets=(0.6,))
        n_before, psi_factor = state.xi_factors.count + state.psi_factors.count, state.psi_factors.factor
        warm = solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
        expected = solve_batch_opt(prob, BatchParams(max_iter=3), state=fresh)
        assert warm.n_factorizations == n_before + 1
        assert warm.state.psi_factors.factor is psi_factor
        np.testing.assert_array_equal(warm.state.xi, expected.state.xi)

    def test_keyed_matrices_are_read_only(self):
        # the factor caches take an identical array as unchanged, so an
        # in-place edit must fail rather than leave a stale factor
        struct = solver_batch._Structure(make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)]))
        for keyed in (struct.Q, struct.FtF, struct.A, struct.b, struct.Q_psi_smooth, struct.PtP, struct.A_psi, struct.b_psi):
            with pytest.raises(ValueError, match="read-only"):
                keyed[(0,) * keyed.ndim] = 1.0

    def test_same_structure_reuses_the_factor(self):
        # moved obstacle, new boundary and desired path: the saddle matrices
        # are unchanged, so the warm solve factorizes nothing
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)]))
        prob = make_problem(obstacles=[_static_obstacle([6.0, -0.5], 0.5, 0.5)])
        prob = BatchProblem(**{**vars(prob), "boundary": (AxisBoundary(p0=1.0, p1=10.0), AxisBoundary(p0=0.2, p1=0.0))})
        n_before = state.xi_factors.count + state.psi_factors.count
        warm = solve_batch_opt(prob, BatchParams(max_iter=3), state=state)
        assert warm.n_factorizations == n_before

    def test_moved_obstacle_warm_solve_pinned(self):
        # the problem above: the obstacle moves from (5, 0.5) to (6, -0.5),
        # and the warm solve's first pass is taken against it at (6, -0.5)
        state = self._solved_state(make_problem(obstacles=[_static_obstacle([5.0, 0.5], 0.5, 0.5)]))
        prob = make_problem(obstacles=[_static_obstacle([6.0, -0.5], 0.5, 0.5)])
        prob = BatchProblem(**{**vars(prob), "boundary": (AxisBoundary(p0=1.0, p1=10.0), AxisBoundary(p0=0.2, p1=0.0))})
        xi = solve_batch_opt(prob, BatchParams(max_iter=3), state=state).state.xi
        norms = [22.881839512792073, 22.82657960043405, 22.731744225776787, 22.518260382186188,
                 22.797401308010897, 22.752350813112113, 22.664495897913238, 23.01606077730867]
        np.testing.assert_allclose(np.linalg.norm(xi, axis=1), norms, rtol=0, atol=1e-9)
        m = prob.basis.n_var
        entries = [[3.268565212588337, 0.9890314985831685, -0.9747585630757233, 0.0738965514213067],
                   [3.2120903951621926, 1.032553578675511, -1.358452720908128, 0.2618465403625013]]
        np.testing.assert_allclose(xi[[0, 5]][:, [3, m + 4, 2 * m + 5, 3 * m + 6]], entries, rtol=0, atol=1e-9)

    def test_receding_horizon_batch_factorizes_once(self):
        # every control loop builds a problem with the same saddle matrices;
        # with fewer iterations per loop than a stall window pair, rho never
        # grows and only the first loop factorizes
        scenario = gen_scenario("dynamic-flow", seed=0)
        n_before = qpcore.factorization_count()
        result = receding_horizon_run(scenario, solver="batch", step_budget=4, n_steps=3)
        assert len(result.records) == 3
        assert qpcore.factorization_count() - n_before == 2
