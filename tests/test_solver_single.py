import numpy as np
import pytest

from trajopt import qpcore
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis
from trajopt.geometry import EllipsoidShape, ObstacleTrack, angles3d
from trajopt.solver_single import (
    SingleParams,
    SingleProblem,
    _alpha_copy_step,
    _alpha_extract,
    _beta_copy_step,
    _cost_blocks,
    _d_step,
    _position_step,
    am_iteration,
    augmented_lagrangian,
    equality_residuals,
    init_state,
    residual_report,
    solve_single,
)


def _line(start, goal, n_p):
    frac = np.linspace(0.0, 1.0, n_p)[:, None]
    return np.asarray(start)[None, :] + frac * (np.asarray(goal) - np.asarray(start))[None, :]


def _static_obstacle(center, shape, n_p):
    return ObstacleTrack(centers=np.tile(np.asarray(center, dtype=float), (n_p, 1)), shape=shape)


def make_problem_2d(n_p=60, obstacles=(), w_track=1.0):
    basis = build_basis(0.0, 6.0, n_p, 8)
    return SingleProblem(
        basis=basis,
        boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)),
        desired=_line([0.0, 0.0], [8.0, 0.0], n_p),
        obstacles=list(obstacles),
        w_track=w_track,
    )


def make_problem_3d(n_p=50, obstacles=()):
    basis = build_basis(0.0, 6.0, n_p, 8)
    return SingleProblem(
        basis=basis,
        boundary=(
            AxisBoundary(p0=0.0, p1=6.0),
            AxisBoundary(p0=0.0, p1=1.0),
            AxisBoundary(p0=1.0, p1=1.0),
        ),
        desired=_line([0.0, 0.0, 1.0], [6.0, 1.0, 1.0], n_p),
        obstacles=list(obstacles),
    )


def boundary_qp_oracle(problem):
    """Direct solve of the boundary-constrained smoothness/tracking QP."""
    Q, q = _cost_blocks(problem)
    A = boundary_matrix(problem.basis)
    factor = qpcore.factorize(Q, A)
    xis = []
    for k, bc in enumerate(problem.boundary):
        xi, _ = qpcore.solve(factor, q[k], bc.values())
        xis.append(xi)
    return np.stack(xis)


class TestDStep:
    # robot parked at the origin; each obstacle centre puts the offset on a
    # hand-checked point of an a != b ellipse (2-D) or spheroid (3-D)
    CASES = {
        2: ((2.0, 1.0), [[4.0, 0.0], [0.0, 0.5], [0.0, -3.0], [3.0, 2.0]], [2.0, 1.0, 3.0, 2.5]),
        3: ((0.7, 2.0), [[1.4, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -6.0], [1.05, 0.0, 4.0]], [2.0, 1.0, 3.0, 2.5]),
    }

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hand_values_on_elliptical_obstacles(self, dim):
        (a, b), offsets, expected = self.CASES[dim]
        obstacles = [_static_obstacle(-np.asarray(o), EllipsoidShape(a, b), 50) for o in offsets]
        prob = make_problem_2d(n_p=50, obstacles=obstacles) if dim == 2 else make_problem_3d(obstacles=obstacles)
        state = init_state(prob)
        state.xi = np.zeros_like(state.xi)
        _d_step(state, prob)
        np.testing.assert_allclose(state.d, np.repeat(np.asarray(expected)[:, None], 50, axis=1), rtol=1e-12)


class TestInitState:
    def test_multipliers_start_at_zero(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        state = init_state(prob)
        assert np.all(state.lam_pos == 0.0)
        assert np.all(state.lam_cos_a == 0.0)
        assert np.all(state.lam_sin_a == 0.0)
        assert np.all(state.d == 1.0)

    def test_zero_obstacles_gives_empty_polar_arrays(self):
        prob = make_problem_2d()
        state = init_state(prob)
        assert state.d.shape == (0, 60)
        assert state.alpha.shape == (0, 60)

    def test_same_seed_identical_states(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        s1, s2 = init_state(prob, seed=7), init_state(prob, seed=7)
        np.testing.assert_array_equal(s1.xi, s2.xi)
        np.testing.assert_array_equal(s1.alpha, s2.alpha)
        np.testing.assert_array_equal(s1.d, s2.d)


class TestAmIteration:
    def test_no_obstacles_reaches_qp_optimum_in_one_iteration(self):
        prob = make_problem_2d()
        state = init_state(prob)
        am_iteration(state, prob)
        expected = boundary_qp_oracle(prob)
        np.testing.assert_allclose(state.xi, expected, atol=1e-9)
        am_iteration(state, prob)  # fixed point afterwards
        np.testing.assert_allclose(state.xi, expected, atol=1e-9)

    def test_consistent_state_is_a_residual_fixed_point(self):
        # cost-optimal trajectory, far non-binding obstacle, polar variables
        # reconstructed exactly from the geometry, zero multipliers
        obstacle = _static_obstacle([4.0, 30.0, 1.0], EllipsoidShape(0.5, 0.5), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        state.xi = boundary_qp_oracle(prob)
        positions = prob.basis.P @ state.xi.T
        deltas = positions[None, :, :] - obstacle.centers[None, :, :]
        alpha, beta = angles3d(np.moveaxis(deltas[0], -1, 0), obstacle.shape.a, obstacle.shape.b)
        state.alpha, state.beta = alpha[None, :], beta[None, :]
        state.cos_a, state.sin_a = np.cos(state.alpha), np.sin(state.alpha)
        state.cos_b, state.sin_b = np.cos(state.beta), np.sin(state.beta)
        _d_step(state, prob)

        res0 = residual_report(state, prob)
        for fam in res0.values():
            assert fam["max_abs"] < 1e-9
        am_iteration(state, prob)
        res1 = residual_report(state, prob)
        for fam in res1.values():
            assert fam["max_abs"] < 1e-8

    def test_residual_trend_on_cluttered_problem(self):
        rng = np.random.default_rng(0)
        obstacles = [
            _static_obstacle([rng.uniform(1.5, 6.5), rng.uniform(-0.6, 0.6)], EllipsoidShape(0.4, 0.4), 60)
            for _ in range(10)
        ]
        prob = make_problem_2d(obstacles=obstacles)
        sol = solve_single(prob, SingleParams(max_iter=200, tol=0.0))
        norms = np.array([h["norm"] for h in sol.residual_history])
        w = 5
        windows = np.array([norms[k : k + w].mean() for k in range(20, len(norms) - w)])
        assert np.all(np.diff(windows) <= windows[:-1] * 1e-6 + 1e-12)

    def test_minimization_blocks_do_not_increase_augmented_lagrangian(self):
        # the d step (analytic assignment) and the multiplier step (dual
        # ascent) are not descent steps; the minimization blocks are
        obstacles = [_static_obstacle([4.0, 0.1], EllipsoidShape(0.8, 0.8), 60)]
        prob = make_problem_2d(obstacles=obstacles)
        state = init_state(prob)
        # first sweep makes the iterate boundary-feasible; the constrained
        # position block is a descent step only within the feasible set
        am_iteration(state, prob)
        for sweep in range(12):
            state.cos_a = np.cos(state.alpha)
            state.sin_a = np.sin(state.alpha)
            before = augmented_lagrangian(state, prob)
            _position_step(state, prob)
            after_pos = augmented_lagrangian(state, prob)
            assert after_pos <= before + 1e-9 * max(1.0, abs(before))
            _alpha_copy_step(state, prob)
            after_copies = augmented_lagrangian(state, prob)
            assert after_copies <= after_pos + 1e-9 * max(1.0, abs(after_pos))
            am_iteration(state, prob)  # finish the sweep (angles, d, multipliers)

    def test_beta_copy_block_is_descent_in_3d(self):
        obstacle = _static_obstacle([3.0, 0.4, 1.1], EllipsoidShape(0.8, 0.6), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        am_iteration(state, prob)
        for sweep in range(10):
            state.cos_a, state.sin_a = np.cos(state.alpha), np.sin(state.alpha)
            state.cos_b, state.sin_b = np.cos(state.beta), np.sin(state.beta)
            _position_step(state, prob)
            _alpha_copy_step(state, prob)
            _alpha_extract(state, prob)
            before_beta = augmented_lagrangian(state, prob)
            _beta_copy_step(state, prob)
            after_beta = augmented_lagrangian(state, prob)
            assert after_beta <= before_beta + 1e-9 * max(1.0, abs(before_beta))
            am_iteration(state, prob)


class TestSolveSingle:
    def test_stationary_problem(self):
        n_p = 40
        basis = build_basis(0.0, 4.0, n_p, 8)
        prob = SingleProblem(
            basis=basis,
            boundary=(AxisBoundary(p0=1.0, p1=1.0), AxisBoundary(p0=2.0, p1=2.0)),
            desired=_line([1.0, 2.0], [1.0, 2.0], n_p),
            w_track=0.0,
        )
        sol = solve_single(prob, SingleParams(max_iter=5))
        assert sol.smoothness_cost < 1e-12
        np.testing.assert_allclose(sol.trajectory.pos, _line([1.0, 2.0], [1.0, 2.0], n_p), atol=1e-8)

    def test_straight_feasible_path_tracks_exactly(self):
        # the desired line must itself satisfy the boundary conditions, so
        # pin its constant velocity at both ends
        n_p = 60
        basis = build_basis(0.0, 6.0, n_p, 8)
        v = 8.0 / 6.0
        prob = SingleProblem(
            basis=basis,
            boundary=(AxisBoundary(p0=0.0, v0=v, p1=8.0, v1=v), AxisBoundary(p0=0.0, p1=0.0)),
            desired=_line([0.0, 0.0], [8.0, 0.0], n_p),
        )
        sol = solve_single(prob, SingleParams(max_iter=10))
        assert sol.tracking_cost <= 1e-10

    def test_blocking_obstacle_produces_collision_free_path(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert sol.converged
        delta = sol.trajectory.pos - obstacle.centers
        scaled = np.hypot(delta[:, 0] / 1.0, delta[:, 1] / 1.0)
        assert scaled.min() >= 1.0 - 1e-2  # raw constraint with margin tolerance on d

    def test_boundary_conditions_hold_every_iteration(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(0.7, 0.7), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        state = init_state(prob)
        for _ in range(30):
            am_iteration(state, prob)
            pos = prob.basis.P @ state.xi.T
            vel = prob.basis.Pdot @ state.xi.T
            assert abs(pos[0, 0] - 0.0) < 1e-8 and abs(pos[-1, 0] - 8.0) < 1e-8
            assert abs(pos[0, 1]) < 1e-8 and abs(pos[-1, 1]) < 1e-8
            assert np.max(np.abs(vel[0])) < 1e-8 and np.max(np.abs(vel[-1])) < 1e-8

    def test_final_d_at_least_one_when_converged(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert sol.converged
        assert np.all(sol.state.d >= 1.0)

    def test_non_convergence_flagged_not_raised(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=3))
        assert not sol.converged
        assert sol.iterations == 3

    def test_penalty_cap_never_breaks_factorization(self):
        # goal buried inside the obstacle: the residual can never reach zero,
        # so the schedule climbs to the cap; the KKT guard must not trip
        obstacle = _static_obstacle([8.0, 0.0], EllipsoidShape(1.5, 1.5), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert not sol.converged
        assert sol.state.rho_o <= SingleParams().rho_cap + 1e-9


class TestInvariants:
    def test_kkt_dimensions_independent_of_obstacle_count(self):
        shapes = []
        for n_o in (5, 10, 20):
            rng = np.random.default_rng(n_o)
            obstacles = [
                _static_obstacle([rng.uniform(2, 6), rng.uniform(-1, 1)], EllipsoidShape(0.3, 0.3), 60)
                for _ in range(n_o)
            ]
            prob = make_problem_2d(obstacles=obstacles)
            state = init_state(prob)
            am_iteration(state, prob)
            shapes.append(state._factor.size)
        assert len(set(shapes)) == 1

    def test_factor_rebuilt_only_on_rho_change(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=150, tol=0.0))
        distinct_rhos = len({h["rho_o"] for h in sol.residual_history})
        assert sol.n_factorizations == distinct_rhos

    def test_axis_updates_decoupled(self):
        # solving axes through the shared batch equals one-at-a-time solves
        obstacle = _static_obstacle([4.0, 0.0, 1.0], EllipsoidShape(0.8, 0.8), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        am_iteration(state, prob)
        batch_xi = state.xi.copy()

        Q, q = _cost_blocks(prob)
        # reconstruct the per-axis linear terms exactly as the position step
        from trajopt.solver_single import _position_targets

        state2 = init_state(prob)
        state2.cos_a = np.cos(state2.alpha)
        state2.sin_a = np.sin(state2.alpha)
        state2.cos_b = np.cos(state2.beta)
        state2.sin_b = np.sin(state2.beta)
        targets = _position_targets(prob, state2)
        A = boundary_matrix(prob.basis)
        D = Q + state2.rho_o * prob.n_o * (prob.basis.P.T @ prob.basis.P)
        factor = qpcore.factorize(D, A)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            xi_seq = np.empty_like(batch_xi)
            for k in order:
                q_lin = q[k] + state2.lam_pos[k].sum(axis=0) @ prob.basis.P - state2.rho_o * targets[k].sum(axis=0) @ prob.basis.P
                xi_seq[k], _ = qpcore.solve(factor, q_lin, prob.boundary[k].values())
            np.testing.assert_allclose(xi_seq, batch_xi, atol=1e-12)


class TestResidualReport:
    def test_exact_state_reports_zero(self):
        prob = make_problem_2d()
        state = init_state(prob)
        report = residual_report(state, prob)
        assert report == {}

    def test_matches_brute_force_formula(self):
        obstacle = _static_obstacle([4.0, 0.3], EllipsoidShape(0.6, 0.9), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        state = init_state(prob)
        rng = np.random.default_rng(5)
        state.xi = rng.normal(size=state.xi.shape)
        state.d = 1.0 + rng.uniform(size=state.d.shape)
        state.alpha = rng.uniform(-np.pi, np.pi, size=state.alpha.shape)
        state.cos_a = rng.normal(size=state.cos_a.shape)
        state.sin_a = rng.normal(size=state.sin_a.shape)

        res = equality_residuals(state, prob)
        pos = prob.basis.P @ state.xi.T
        dx = pos[:, 0] - obstacle.centers[:, 0]
        dy = pos[:, 1] - obstacle.centers[:, 1]
        np.testing.assert_allclose(res["coll_x"][0], dx - 0.6 * state.d[0] * state.cos_a[0], atol=1e-12)
        np.testing.assert_allclose(res["coll_y"][0], dy - 0.9 * state.d[0] * state.sin_a[0], atol=1e-12)
        np.testing.assert_allclose(res["copy_cos_a"][0], state.cos_a[0] - np.cos(state.alpha[0]), atol=1e-12)

        report = residual_report(state, prob)
        for name, fam in report.items():
            assert fam["norm"] == pytest.approx(float(np.linalg.norm(res[name])))
            assert fam["max_abs"] <= fam["norm"] + 1e-15
