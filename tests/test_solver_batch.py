import numpy as np
import pytest

from trajopt import qpcore
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis
from trajopt.geometry import EllipsoidShape, ObstacleTrack
from trajopt.solver_batch import (
    BatchParams,
    BatchProblem,
    FootprintSpec,
    _Structure,
    _split,
    alpha_step,
    batch_iteration,
    batch_xi_step,
    d_step,
    heading_step,
    init_state,
    sample_initializations,
    solve_batch_opt,
)

N_P = 50


def _static_obstacle(center, a, b):
    return ObstacleTrack(centers=np.tile(np.asarray(center, dtype=float), (N_P, 1)), shape=EllipsoidShape(a, b))


def make_problem(obstacles=(), n_batch=8, v_max=3.0, a_max=3.0, offsets=(0.3, -0.3)):
    basis = build_basis(0.0, 10.0, N_P, 10)
    line = np.column_stack([np.linspace(0.0, 10.0, N_P), np.zeros(N_P)])
    return BatchProblem(
        basis=basis,
        boundary=(AxisBoundary(p0=0.0, p1=10.0), AxisBoundary(p0=0.0, p1=0.0)),
        psi_boundary=(0.0, 0.0),
        desired=line,
        obstacles=list(obstacles),
        footprint=FootprintSpec(offsets=offsets),
        v_max=v_max,
        a_max=a_max,
        n_batch=n_batch,
    )


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
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.2], 0.5, 0.5)], n_batch=6)
        state = _sample_state(prob, seed=1)
        struct = _Structure(prob)
        from trajopt.solver_batch import _build_g

        g = _build_g(prob, struct, state)
        q_lin = struct.q[None, :] - state.lam - state.rho * (g @ struct.F)
        factor = qpcore.factorize(struct.Q + state.rho * struct.FtF, struct.A)
        expected = np.stack([qpcore.solve(factor, q_lin[i], struct.b)[0] for i in range(6)])
        batch_xi_step(state, prob, struct)
        assert np.max(np.abs(state.xi - expected)) <= 1e-10

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
        heading_step(state, prob, struct)
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
        heading_step(state, prob, struct)
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
        Q_psi = prob.basis.Pddot.T @ prob.basis.Pddot + state.rho_psi * prob.basis.P.T @ prob.basis.P
        factor = qpcore.factorize(Q_psi, struct.A_psi)
        expected = np.stack(
            [
                qpcore.solve(factor, -state.lam_psi[i] - state.rho_psi * prob.basis.P.T @ targets[i], struct.b_psi)[0]
                for i in range(5)
            ]
        )
        heading_step(state, prob, struct)
        assert np.max(np.abs(state.xi_psi - expected)) <= 1e-10

    def test_boundary_held(self):
        prob = make_problem(obstacles=[], n_batch=3)
        state = _sample_state(prob, seed=6)
        struct = _Structure(prob)
        batch_iteration(state, prob, struct)
        psi = state.xi_psi @ prob.basis.P.T
        np.testing.assert_allclose(psi[:, 0], prob.psi_boundary[0], atol=1e-8)
        np.testing.assert_allclose(psi[:, -1], prob.psi_boundary[1], atol=1e-8)


class TestAlphaStep:
    def test_circle_offset_along_x_gives_zero_angle(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.5, 0.5)], n_batch=1, offsets=(0.3,))
        state = _sample_state(prob, seed=7, spread=0.0)
        struct = _Structure(prob)
        # heading 0: the circle sits at x + 0.3; pick the timestep where the
        # circle center is right of the obstacle on the x axis
        alpha_step(state, prob, struct)
        pos_x = state.xi[:, : prob.basis.n_var] @ prob.basis.P.T
        circle_x = pos_x[0] + 0.3 * np.cos(state.psi[0])
        right = circle_x > 5.0
        assert np.allclose(np.abs(state.alpha_coll[0, 0, 0, right]), 0.0, atol=1e-6) or np.allclose(
            state.alpha_coll[0, 0, 0, right], 0.0, atol=1e-6
        )

    def test_velocity_angle_45_degrees(self):
        prob = make_problem(obstacles=[], n_batch=1)
        state = _sample_state(prob, seed=8, spread=0.0)
        m = prob.basis.n_var
        # coefficients of a diagonal line: velocity (1, 1) everywhere
        from trajopt.basis import straight_line_coeffs

        diag = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 10.0])
        state.xi[:, :m] = diag[0]
        state.xi[:, 2 * m : 3 * m] = diag[1]
        struct = _Structure(prob)
        alpha_step(state, prob, struct)
        np.testing.assert_allclose(state.alpha_v[0], np.pi / 4, atol=1e-9)

    def test_alpha_update_reduces_collision_residual_term(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.3], 0.6, 0.6)], n_batch=4)
        state = _sample_state(prob, seed=9)
        struct = _Structure(prob)
        batch_xi_step(state, prob, struct)
        heading_step(state, prob, struct)

        from trajopt.solver_batch import _footprint_deltas

        m = prob.basis.n_var
        xi_x, _, xi_y, _ = _split(state.xi, m)
        dx, dy = _footprint_deltas(prob, struct, xi_x @ prob.basis.P.T, xi_y @ prob.basis.P.T, state.psi)
        a = struct.obs_a[None, None, :, None]
        b = struct.obs_b[None, None, :, None]

        def sq_residual(alpha):
            return (dx - a * state.d_coll * np.cos(alpha)) ** 2 + (dy - b * state.d_coll * np.sin(alpha)) ** 2

        before = sq_residual(state.alpha_coll)
        alpha_step(state, prob, struct)
        after = sq_residual(state.alpha_coll)
        assert after.sum() <= before.sum() + 1e-12


class TestDStep:
    def test_velocity_half_of_limit(self):
        prob = make_problem(obstacles=[], n_batch=1, v_max=2.0)
        state = _sample_state(prob, seed=10, spread=0.0)
        m = prob.basis.n_var
        from trajopt.basis import straight_line_coeffs

        diag = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 0.0])  # speed 1.0 = v_max/2
        state.xi[:, :m] = diag[0]
        state.xi[:, 2 * m : 3 * m] = diag[1]
        struct = _Structure(prob)
        alpha_step(state, prob, struct)
        d_step(state, prob, struct)
        np.testing.assert_allclose(state.d_v[0], 0.5, atol=1e-9)

    def test_velocity_over_limit_clamped(self):
        prob = make_problem(obstacles=[], n_batch=1, v_max=0.5)
        state = _sample_state(prob, seed=11, spread=0.0)
        m = prob.basis.n_var
        from trajopt.basis import straight_line_coeffs

        diag = straight_line_coeffs(prob.basis, [0.0, 0.0], [10.0, 0.0])  # speed 1.0 = 2 v_max
        state.xi[:, :m] = diag[0]
        state.xi[:, 2 * m : 3 * m] = diag[1]
        struct = _Structure(prob)
        alpha_step(state, prob, struct)
        d_step(state, prob, struct)
        np.testing.assert_allclose(state.d_v[0], 1.0, atol=1e-12)

    def test_collision_scale_matches_grid_search(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.3], 0.7, 1.1)], n_batch=2)
        state = _sample_state(prob, seed=12)
        struct = _Structure(prob)
        batch_iteration(state, prob, struct)

        from trajopt.solver_batch import _footprint_deltas

        m = prob.basis.n_var
        xi_x, _, xi_y, _ = _split(state.xi, m)
        dx, dy = _footprint_deltas(prob, struct, xi_x @ prob.basis.P.T, xi_y @ prob.basis.P.T, state.psi)
        a, b = 0.7, 1.1
        grid = np.linspace(1.0, 20.0, 1_900_001)
        for t in (0, N_P // 2, N_P - 1):
            alpha = state.alpha_coll[0, 0, 0, t]
            cost = (dx[0, 0, 0, t] - a * grid * np.cos(alpha)) ** 2 + (dy[0, 0, 0, t] - b * grid * np.sin(alpha)) ** 2
            d_grid = grid[np.argmin(cost)]
            assert abs(state.d_coll[0, 0, 0, t] - d_grid) < 1e-4  # grid resolution limited

    def test_d_bounds_hold_after_every_iteration(self):
        prob = make_problem(obstacles=[_static_obstacle([5.0, 0.0], 0.8, 0.8)], n_batch=4)
        state = _sample_state(prob, seed=13)
        struct = _Structure(prob)
        for _ in range(10):
            batch_iteration(state, prob, struct)
            assert np.all(state.d_coll >= 1.0)
            assert np.all((state.d_v >= 0.0) & (state.d_v <= 1.0))
            assert np.all((state.d_a >= 0.0) & (state.d_a <= 1.0))


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
        obstacles = [_static_obstacle([5.0, y], 0.9, 0.9) for y in np.linspace(-6, 6, 11)]
        prob = make_problem(obstacles=obstacles, n_batch=4)
        ranked = solve_batch_opt(prob, BatchParams(max_iter=2), seed=1)
        if ranked.best_index is None:
            assert not ranked.feasible.any()
        else:  # if something slipped through it must really be feasible
            assert ranked.feasible[ranked.best_index]

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
