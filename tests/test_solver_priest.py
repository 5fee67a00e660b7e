from collections import namedtuple

import numpy as np
import pytest

from trajopt import qpcore, solver_priest
from trajopt.basis import AxisBoundary, build_basis, straight_line_coeffs
from trajopt.bench import gen_scenario
from trajopt.bench.runner import _barn_c1, default_sampling_distribution, priest_setup_from_scenario, run_scenario
from trajopt.geometry import D_CAP, ObstacleRows, Obstacles, radial_clamp
from trajopt.solver_priest import (
    CemParams,
    PriestParams,
    ProjectionSetup,
    SamplingDistribution,
    barn_cost,
    cem_optimize,
    flatness_car,
    pos_vel_acc,
    priest_optimize,
    project,
    residual_scores,
    update_distribution,
)
from trajopt.solver_priest import _cem_penalty, _residuals

N_P = 40


# one obstacle's (n_p, dim) centres and its semi-axes, as the tests build it
Track = namedtuple("Track", "centers a b")


def _static_obstacle(center, a, b):
    return Track(np.tile(np.asarray(center, dtype=float), (N_P, 1)), a, b)


def _stack(tracks):
    """The Obstacles of a list of tracks, None for none."""
    if not tracks:
        return None
    return Obstacles(np.stack([t.centers.T for t in tracks], axis=1), [t.a for t in tracks], [t.b for t in tracks])


def make_setup_2d(obstacles=(), v_max=3.0, a_max=3.0, bounds=True, rho=1.0):
    # start velocity matches the straight-line sample so the line itself is
    # boundary-feasible
    basis = build_basis(0.0, 8.0, N_P, 8)
    return ProjectionSetup(
        basis=basis,
        boundary=(AxisBoundary(p0=0.0, v0=1.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)),
        obstacles=_stack(obstacles),
        v_max=v_max,
        a_max=a_max,
        s_min=np.array([-2.0, -5.0]) if bounds else None,
        s_max=np.array([10.0, 5.0]) if bounds else None,
        rho=rho,
    )


def make_setup_3d(obstacles=()):
    basis = build_basis(0.0, 8.0, N_P, 8)
    return ProjectionSetup(
        basis=basis,
        boundary=(
            AxisBoundary(p0=0.0, v0=1.0, p1=8.0),
            AxisBoundary(p0=0.0, p1=0.0),
            AxisBoundary(p0=1.0, p1=1.0),
        ),
        obstacles=_stack(obstacles),
        v_max=4.0,
        a_max=4.0,
        s_min=np.array([-2.0, -5.0, -3.0]),
        s_max=np.array([10.0, 5.0, 5.0]),
    )


def _line_sample(setup):
    start = np.array([bc.p0 for bc in setup.boundary])
    goal = np.array([bc.p1 for bc in setup.boundary])
    return straight_line_coeffs(setup.basis, start, goal).ravel()


def _reference_projection(setup, samples, n_inner):
    """The projection as first written: polar targets through arctan2/cos/sin
    and products with the dense stacked constraint matrix F.

    Returns (projected coefficients, residual scores)."""
    basis, dim, m, n_p = setup.basis, setup.dim, setup.m, setup.basis.n_p
    obstacles = setup.obstacles
    blocks = [np.tile(basis.P, (obstacles.n_o, 1))] if obstacles.n_o else []
    if setup.v_max is not None:
        blocks.append(basis.Pdot)
    if setup.a_max is not None:
        blocks.append(basis.Pddot)
    axis_block = np.vstack(blocks) if blocks else np.zeros((0, m))
    F_tilde = np.kron(np.eye(dim), axis_block)
    if setup.s_min is not None:
        G = np.kron(np.eye(dim), np.vstack([-basis.P, basis.P]))
        tau = np.concatenate([np.r_[np.full(n_p, -setup.s_min[k]), np.full(n_p, setup.s_max[k])] for k in range(dim)])
    else:
        G, tau = np.zeros((0, dim * m)), np.zeros(0)
    F = np.vstack([F_tilde, G])
    factor = qpcore.factorize(np.eye(dim * m) + setup.rho * F.T @ F, setup.A)

    def per_axis(xis, mat):
        return np.stack([xis[:, k * m : (k + 1) * m] @ mat.T for k in range(dim)], axis=1)

    def polar_targets(xis):
        n = xis.shape[0]
        pos, vel, acc = (per_axis(xis, mat) for mat in (basis.P, basis.Pdot, basis.Pddot))
        parts = [[] for _ in range(dim)]
        if obstacles.n_o:
            obs = obstacles.centres.transpose(1, 0, 2)[None]  # (1, n_o, dim, n_p)
            a = obstacles.a[None, :, None]
            b = obstacles.b[None, :, None]
            delta = pos[:, None] - obs
            dx, dy = delta[:, :, 0], delta[:, :, 1]
            if dim == 3:
                dz = delta[:, :, 2]
                alpha = np.arctan2(dy, dx)
                beta = np.arctan2(np.hypot(dx / a, dy / a), dz / b)
                d = np.clip(np.sqrt(dx**2 / a**2 + dy**2 / a**2 + dz**2 / b**2), 1.0, D_CAP)
                parts[0].append((obs[:, :, 0] + a * d * np.cos(alpha) * np.sin(beta)).reshape(n, -1))
                parts[1].append((obs[:, :, 1] + a * d * np.sin(alpha) * np.sin(beta)).reshape(n, -1))
                parts[2].append((obs[:, :, 2] + b * d * np.cos(beta)).reshape(n, -1))
            else:
                alpha = np.arctan2(dy / b, dx / a)
                d = np.clip(np.hypot(dx / a, dy / b), 1.0, D_CAP)
                parts[0].append((obs[:, :, 0] + a * d * np.cos(alpha)).reshape(n, -1))
                parts[1].append((obs[:, :, 1] + b * d * np.sin(alpha)).reshape(n, -1))
        for limit, v in ((setup.v_max, vel), (setup.a_max, acc)):
            if limit is None:
                continue
            alpha = np.arctan2(v[:, 1], v[:, 0])
            if dim == 3:
                beta = np.arctan2(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
                d = np.clip(np.sqrt((v**2).sum(axis=1)) / limit, 0.0, 1.0)
                parts[0].append(limit * d * np.cos(alpha) * np.sin(beta))
                parts[1].append(limit * d * np.sin(alpha) * np.sin(beta))
                parts[2].append(limit * d * np.cos(beta))
            else:
                d = np.clip(np.hypot(v[:, 0], v[:, 1]) / limit, 0.0, 1.0)
                parts[0].append(limit * d * np.cos(alpha))
                parts[1].append(limit * d * np.sin(alpha))
        if F_tilde.shape[0] == 0:
            return np.zeros((n, 0))
        return np.hstack([np.hstack(p) for p in parts])

    def scores(xis):
        res = [xis @ F_tilde.T - polar_targets(xis), np.maximum(0.0, xis @ G.T - tau[None, :])]
        return np.linalg.norm(np.hstack(res), axis=1)

    samples = np.atleast_2d(samples)
    xi_bar = samples.copy()
    lam = np.zeros_like(samples)
    bs = np.tile(setup.b_eq, (samples.shape[0], 1))
    for _ in range(n_inner):
        slack = np.maximum(0.0, tau[None, :] - xi_bar @ G.T)
        e = np.hstack([polar_targets(xi_bar), tau[None, :] - slack])
        residual = xi_bar @ F.T - e
        lam = lam - setup.rho * (residual @ F)
        q_lin = -(samples + lam + setup.rho * (e @ F))
        xi_bar, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=bs))
    return xi_bar, scores(xi_bar)


def _noisy_line_samples(setup, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return _line_sample(setup)[None, :] + rng.normal(scale=scale, size=(n, setup.A.shape[1]))


def _acc_cost(pva):
    return np.sum(pos_vel_acc(pva)[2] ** 2, axis=(1, 2))


class TestProject:
    def test_feasible_sample_is_fixed_point(self):
        obstacle = _static_obstacle([4.0, 3.5], 0.5, 0.5)  # off the path
        setup = make_setup_2d(obstacles=[obstacle])
        xi = _line_sample(setup)
        projected, scores, _ = project(setup, xi[None, :], n_inner=20)
        assert scores[0] < 1e-9
        np.testing.assert_allclose(projected[0], xi, atol=1e-9)

    def test_empty_constraint_set_is_equality_projection(self):
        setup = make_setup_2d(obstacles=[], v_max=None, a_max=None, bounds=False)
        rng = np.random.default_rng(0)
        xi = rng.normal(size=setup.A.shape[1])
        projected, _, _ = project(setup, xi[None, :], n_inner=3)
        # oracle: min ||z - xi||^2 s.t. A z = b  via the KKT system
        factor = qpcore.factorize(np.eye(xi.size), setup.A)
        expected, _ = qpcore.solve(factor, -xi, setup.b_eq)
        np.testing.assert_allclose(projected[0], expected, atol=1e-9)

    def test_infeasible_sample_residual_trend(self):
        obstacle = _static_obstacle([4.0, 0.0], 1.2, 1.2)  # blocks the line
        setup = make_setup_2d(obstacles=[obstacle])
        xi = _line_sample(setup)
        history = []
        project(setup, xi[None, :], n_inner=50, residual_history=history)
        scores = np.array([h[0] for h in history])
        w = 5
        windows = np.array([scores[k : k + w].mean() for k in range(len(scores) - w)])
        assert np.all(np.diff(windows) <= windows[:-1] * 1e-6 + 1e-12)

    def test_boundary_equalities_hold_for_every_output(self):
        obstacle = _static_obstacle([4.0, 0.2], 0.8, 0.8)
        setup = make_setup_2d(obstacles=[obstacle])
        rng = np.random.default_rng(1)
        samples = _line_sample(setup)[None, :] + rng.normal(scale=1.0, size=(12, setup.A.shape[1]))
        projected, _, _ = project(setup, samples, n_inner=15)
        for xi in projected:
            np.testing.assert_allclose(setup.A @ xi, setup.b_eq, atol=1e-8)

    def test_batch_matches_per_sample_projection(self):
        obstacle = _static_obstacle([4.0, 0.2], 0.8, 0.8)
        setup = make_setup_2d(obstacles=[obstacle])
        rng = np.random.default_rng(2)
        samples = _line_sample(setup)[None, :] + rng.normal(scale=1.0, size=(6, setup.A.shape[1]))
        batch, _, _ = project(setup, samples, n_inner=10)
        for i in range(6):
            single, _, _ = project(setup, samples[i][None, :], n_inner=10)
            assert np.max(np.abs(batch[i] - single[0])) <= 1e-10

    def test_setup_factorizes_once(self):
        obstacle = _static_obstacle([4.0, 0.2], 0.8, 0.8)
        before = qpcore.factorization_count()
        setup = make_setup_2d(obstacles=[obstacle])
        assert qpcore.factorization_count() == before + 1
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(5, setup.A.shape[1]))
        project(setup, samples, n_inner=5)
        project(setup, samples, n_inner=5)
        assert qpcore.factorization_count() == before + 1
        assert setup.n_factorizations == 1

    def test_3d_projection_escapes_obstacle(self):
        # the sample runs through the obstacle center, the deepest possible
        # penetration; escaping it needs a long inner loop
        obstacle = _static_obstacle([4.0, 0.0, 1.0], 1.0, 0.8)
        setup = make_setup_3d(obstacles=[obstacle])
        xi = _line_sample(setup)
        _, scores, pva = project(setup, xi[None, :], n_inner=150)
        assert scores[0] < 1e-3
        pos = pos_vel_acc(pva[0])[0]
        delta = pos - obstacle.centers
        scaled = np.sqrt(delta[:, 0] ** 2 / 1.0 + delta[:, 1] ** 2 / 1.0 + delta[:, 2] ** 2 / 0.8**2)
        assert scaled.min() >= 1.0 - 5e-3


class TestResidualScore:
    def test_feasible_trajectory_scores_zero(self):
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 3.0], 0.5, 0.5)])
        assert residual_scores(setup, _line_sample(setup)[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_bound_violation_formula(self):
        # constant y = s_max_y + 0.5 violates only the upper y bound
        basis = build_basis(0.0, 8.0, N_P, 8)
        setup = ProjectionSetup(
            basis=basis,
            boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=5.5, p1=5.5)),
            v_max=None,
            a_max=None,
            s_min=np.array([-2.0, -5.0]),
            s_max=np.array([10.0, 5.0]),
        )
        coeffs = straight_line_coeffs(basis, [0.0, 5.5], [8.0, 5.5]).ravel()
        r = residual_scores(setup, coeffs[None])[0]
        assert r == pytest.approx(0.5 * np.sqrt(N_P), rel=1e-9)

    def test_doubled_violation_scores_strictly_larger(self):
        basis = build_basis(0.0, 8.0, N_P, 8)

        def make(offset):
            setup = ProjectionSetup(
                basis=basis,
                boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=5.0 + offset, p1=5.0 + offset)),
                v_max=None,
                a_max=None,
                s_min=np.array([-2.0, -5.0]),
                s_max=np.array([10.0, 5.0]),
            )
            coeffs = straight_line_coeffs(basis, [0.0, 5.0 + offset], [8.0, 5.0 + offset]).ravel()
            return residual_scores(setup, coeffs[None])[0]

        assert make(1.0) > make(0.5)


class TestPriestOptimize:
    def test_paper_default_configuration_accepted(self):
        params = PriestParams()
        assert params.n_outer == 13
        assert params.n_batch == 110
        assert params.n_constraint_elite == 80
        assert params.n_elite == 20

    def test_invalid_elite_ordering_rejected(self):
        with pytest.raises(ValueError):
            PriestParams(n_batch=10, n_constraint_elite=20, n_elite=5)

    def test_obstacle_free_reaches_near_optimal_cost(self):
        setup = make_setup_2d(obstacles=[])
        mu = _line_sample(setup)

        def c1(pva):
            # squared deviation from the straight line: the sampling mean is
            # the unconstrained optimum with value 0
            line = np.column_stack([np.linspace(0.0, 8.0, N_P), np.zeros(N_P)])
            return np.sum((pos_vel_acc(pva)[0] - line) ** 2, axis=(1, 2))

        dist = SamplingDistribution(mu=mu, sigma_mat=0.01 * np.eye(mu.size))
        res = priest_optimize(setup, c1, dist, PriestParams(n_outer=20, seed=0))
        assert res.best.residual == pytest.approx(0.0, abs=1e-9)
        assert res.best.aug_cost <= 1e-4

    def test_deterministic_under_seed(self):
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], 1.0, 1.0)])
        mu = _line_sample(setup)
        dist = SamplingDistribution(mu=mu, sigma_mat=0.2 * np.eye(mu.size))
        p = PriestParams(n_outer=3, n_batch=20, n_constraint_elite=15, n_elite=5, seed=11)
        r1 = priest_optimize(setup, _acc_cost, dist, p)
        r2 = priest_optimize(setup, _acc_cost, dist, p)
        np.testing.assert_array_equal(r1.best.projected, r2.best.projected)
        np.testing.assert_array_equal(r1.mu, r2.mu)


class TestDistributionUpdate:
    def test_equal_costs_reduce_to_plain_elite_mean(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=5)
        sigma_mat = np.eye(5)
        elites = rng.normal(size=(8, 5))
        costs = np.full(8, 3.7)
        new_mu, _ = update_distribution(mu, sigma_mat, elites, costs, sigma=0.6, gamma=-1.0)
        np.testing.assert_allclose(new_mu, 0.4 * mu + 0.6 * elites.mean(axis=0), atol=1e-12)

    def test_cost_shift_invariance(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=4)
        sigma_mat = np.eye(4)
        elites = rng.normal(size=(6, 4))
        costs = rng.uniform(1.0, 5.0, size=6)
        m1, s1 = update_distribution(mu, sigma_mat, elites, costs, sigma=0.7, gamma=-1.0)
        m2, s2 = update_distribution(mu, sigma_mat, elites, costs + 123.4, sigma=0.7, gamma=-1.0)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_lower_cost_gets_larger_weight(self):
        mu = np.zeros(1)
        sigma_mat = np.eye(1)
        elites = np.array([[0.0], [10.0]])
        costs = np.array([0.0, 5.0])
        new_mu, _ = update_distribution(mu, sigma_mat, elites, costs, sigma=1.0, gamma=-1.0)
        assert new_mu[0] < 5.0  # pulled toward the cheap sample

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_only_finite_costs_are_weighed(self, bad):
        rng = np.random.default_rng(6)
        mu, sigma_mat, elites = rng.normal(size=3), np.eye(3), rng.normal(size=(5, 3))
        costs = np.array([1.0, bad, 2.5, bad, 0.5])
        got = update_distribution(mu, sigma_mat, elites, costs, sigma=0.7, gamma=-1.0)
        finite = np.isfinite(costs)
        expected = update_distribution(mu, sigma_mat, elites[finite], costs[finite], sigma=0.7, gamma=-1.0)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_no_finite_cost_keeps_the_distribution(self, bad):
        mu, sigma_mat = np.arange(3.0), 2.0 * np.eye(3)
        new_mu, new_sigma = update_distribution(mu, sigma_mat, np.ones((4, 3)), np.full(4, bad), sigma=0.7, gamma=-1.0)
        np.testing.assert_array_equal(new_mu, mu)
        np.testing.assert_array_equal(new_sigma, sigma_mat)


class TestCem:
    def test_full_elite_set_is_plain_mean(self):
        setup = make_setup_2d(obstacles=[])
        mu = _line_sample(setup)
        dist = SamplingDistribution(mu=mu, sigma_mat=0.3 * np.eye(mu.size))
        rng = np.random.default_rng(6)
        samples = rng.multivariate_normal(dist.mu, dist.sigma_mat, size=16, method="svd")
        params = CemParams(n_batch=16, n_elite=16, iterations=1, seed=6)
        res = cem_optimize(setup, lambda pva: np.zeros(len(pva)), dist, params)
        # same rng sequence reproduces the samples the optimizer drew
        np.testing.assert_allclose(res.mu, samples.mean(axis=0), atol=1e-12)

    def test_zero_covariance_is_stationary(self):
        setup = make_setup_2d(obstacles=[])
        mu = _line_sample(setup)
        dist = SamplingDistribution(mu=mu, sigma_mat=np.zeros((mu.size, mu.size)))
        res = cem_optimize(setup, _acc_cost, dist, CemParams(n_batch=8, n_elite=4, iterations=3, seed=7))
        np.testing.assert_allclose(res.mu, mu, atol=1e-12)
        np.testing.assert_allclose(res.sigma_mat, 0.0, atol=1e-12)

    def test_convex_quadratic_converges_to_optimum(self):
        # seeded analytic-optimum oracle: tracking a shifted trajectory has
        # its unique minimum at the shifted coefficients
        basis = build_basis(0.0, 8.0, N_P, 1)
        setup = ProjectionSetup(
            basis=basis,
            boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)),
            v_max=None,
            a_max=None,
            start_orders=(0,),
            end_orders=(0,),
        )
        mu0 = _line_sample(setup)
        target = mu0 + 0.8
        m = basis.n_var
        target_pos = np.column_stack([basis.P @ target[:m], basis.P @ target[m:]])

        def c1_track(pva):
            return np.sum((pos_vel_acc(pva)[0] - target_pos) ** 2, axis=(1, 2))

        initial_distance = float(np.linalg.norm(mu0 - target))
        dist = SamplingDistribution(mu=mu0, sigma_mat=0.5 * np.eye(mu0.size))
        res = cem_optimize(setup, c1_track, dist, CemParams(n_batch=300, n_elite=30, iterations=30, seed=0))
        assert np.linalg.norm(res.mu - target) <= 0.05 * initial_distance


class TestFlatnessAndBarnCost:
    def test_flatness_examples(self):
        v, k = flatness_car(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert v[0] == pytest.approx(1.0) and k[0] == pytest.approx(0.0)
        v, _ = flatness_car(np.array([[0.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert v[0] == pytest.approx(2.0)

    def test_flatness_circular_motion(self):
        R, omega = 3.0, 0.7
        t = np.linspace(0.0, 5.0, 50)
        vel = np.column_stack([-R * omega * np.sin(omega * t), R * omega * np.cos(omega * t)])
        acc = np.column_stack([-R * omega**2 * np.cos(omega * t), -R * omega**2 * np.sin(omega * t)])
        _, kappa = flatness_car(vel, acc)
        np.testing.assert_allclose(kappa, 1.0 / R, atol=1e-6)

    def test_flatness_zero_speed_marker(self):
        _, kappa = flatness_car(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert np.isnan(kappa[0])

    def test_barn_cost_zero_on_straight_constant_speed(self):
        t = np.linspace(0.0, 5.0, 60)
        pos = np.column_stack([2.0 * t, np.zeros_like(t)])
        vel = np.column_stack([np.full_like(t, 2.0), np.zeros_like(t)])
        acc = np.zeros((60, 2))
        assert barn_cost(pos, vel, acc, [0.0, 0.0], [10.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_barn_cost_offset_line_accumulates_squared_distance(self):
        n = 25
        h = 0.8
        t = np.linspace(0.0, 5.0, n)
        pos = np.column_stack([2.0 * t, np.full(n, h)])
        vel = np.column_stack([np.full(n, 2.0), np.zeros(n)])
        acc = np.zeros((n, 2))
        expected = n * h**2
        assert barn_cost(pos, vel, acc, [0.0, 0.0], [10.0, 0.0]) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("same_ends", [False, True], ids=["line", "start-is-goal"])
    def test_batched_cost_bit_equal_to_per_sample_formula(self, same_ends):
        scenario, setup, dist = _scenario_setup("barn-like", None, seed=1)
        start = np.asarray(scenario.boundary.start, dtype=float)
        goal = start if same_ends else np.asarray(scenario.boundary.goal, dtype=float)
        raw = np.random.default_rng(2).multivariate_normal(dist.mu, dist.sigma_mat, size=12, method="svd")
        pva = setup.pva_samples(np.vstack([raw, project(setup, raw, n_inner=5)[0]]))
        pva[0, :, 1, 3:9] = 0.0  # at rest: NaN curvature, skipped
        pva[1, :, 1, 10] = 1e-7  # below the speed threshold
        _, kappa = flatness_car(*pos_vel_acc(pva)[1:])
        assert np.isnan(kappa[0, 3:9]).all() and np.isnan(kappa[1, 10])
        costs = barn_cost(*pos_vel_acc(pva), start, goal)
        assert costs.shape == (24,)
        expected = [_barn_cost_reference(*pos_vel_acc(p), start, goal) for p in pva]
        assert np.array_equal(costs, expected)


def _barn_cost_reference(pos, vel, acc, line_start, line_end):
    """barn_cost as first written, on one (n_p, dim) trajectory."""
    smooth = float(np.sum(acc[:, 0] ** 2 + acc[:, 1] ** 2))
    speed = np.hypot(vel[:, 0], vel[:, 1])
    kappa = np.full_like(speed, np.nan)
    ok = speed > 1e-6
    kappa[ok] = (acc[ok, 1] * vel[ok, 0] - acc[ok, 0] * vel[ok, 1]) / speed[ok] ** 3
    c_kappa = float(np.nansum(kappa**2))
    start, end = np.asarray(line_start)[:2], np.asarray(line_end)[:2]
    axis = end - start
    length = np.linalg.norm(axis)
    rel = pos[:, :2] - start
    if length < 1e-12:
        dist2 = (rel**2).sum(axis=1)
    else:
        along = rel @ (axis / length)
        dist2 = (rel**2).sum(axis=1) - along**2
    return smooth + c_kappa + float(np.sum(np.maximum(dist2, 0.0)))


def _reference_samples(setup, samples, n_inner=30):
    xi, scores = _reference_projection(setup, samples, n_inner)
    return xi, scores, setup.pva_samples(xi)


def _scenario_setup(kind, params, seed):
    scenario = gen_scenario(kind, params, seed=seed)
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, 10)
    return scenario, priest_setup_from_scenario(scenario, basis), default_sampling_distribution(scenario, basis)


def _assert_matches_reference(setup, samples, n_inner):
    projected, scores, _ = project(setup, samples, n_inner=n_inner)
    ref_xi, ref_scores = _reference_projection(setup, samples, n_inner)
    for got, xi, got_score, score in zip(projected, ref_xi, scores, ref_scores):
        assert np.max(np.abs(got - xi)) <= 1e-9 * np.max(np.abs(xi))
        assert abs(got_score - score) <= 1e-12


class TestProjectMatchesReference:
    @pytest.mark.parametrize("kind,params", [("barn-like", None), ("random-static", {"dim": 3})])
    def test_scenario_samples(self, kind, params):
        _, setup, dist = _scenario_setup(kind, params, seed=5)
        samples = np.random.default_rng(0).multivariate_normal(dist.mu, dist.sigma_mat, size=24, method="svd")
        _assert_matches_reference(setup, samples, n_inner=30)

    @pytest.mark.parametrize("make,dim", [(make_setup_2d, 2), (make_setup_3d, 3)])
    def test_sample_at_obstacle_centre(self, make, dim):
        # zero coefficients put every position at the origin and every
        # velocity at zero, the degenerate directions of the polar targets;
        # the first obstacle sits on the origin mid-horizon, away from the
        # pinned start
        centers = np.full((N_P, dim), 20.0)
        centers[10:20] = 0.0
        track = Track(centers, 1.0, 0.8)
        setup = make(obstacles=[track, _static_obstacle(np.full(dim, 3.0), 0.6, 0.9)])
        samples = np.vstack([np.zeros(setup.A.shape[1]), _noisy_line_samples(setup, 5, seed=1)])
        _assert_matches_reference(setup, samples, n_inner=20)

    def test_priest_optimize_one_outer_iteration(self, monkeypatch):
        scenario, setup, dist = _scenario_setup("barn-like", None, seed=2)
        params = PriestParams(n_outer=1, seed=3)
        got = priest_optimize(setup, _barn_c1(scenario), dist, params)
        monkeypatch.setattr(solver_priest, "project", _reference_samples)
        ref = priest_optimize(setup, _barn_c1(scenario), dist, params)
        assert np.max(np.abs(got.best.projected - ref.best.projected)) <= 1e-9 * np.max(np.abs(ref.best.projected))
        np.testing.assert_allclose(got.best.trajectory.pos, ref.best.trajectory.pos, rtol=0, atol=1e-9)


def _assert_sums_bit_equal(setup, xis):
    """Check the active-set pass against the collision rows as first written
    on the kernel, radial_clamp over every (sample, obstacle, time) offset.

    Returns the most active obstacles at one (sample, time) cell."""
    pos, obstacles = setup.pva_samples(xis)[:, :, 0], setup.obstacles
    offsets = [pos[:, k, None, :] - obstacles.centres[k] for k in range(setup.dim)]  # (N, n_o, n_p) each
    dense = radial_clamp(offsets, obstacles.a[:, None], obstacles.b[:, None])
    sums, sq, _ = ObstacleRows(setup.obstacles, xis.shape[0]).residuals(pos)
    assert np.array_equal(sums, np.stack([r.sum(axis=1) for r in dense]))
    expected = sum(np.einsum("nij,nij->n", r, r) for r in dense)
    np.testing.assert_allclose(sq, expected, rtol=1e-13, atol=0)
    return int(np.count_nonzero(np.any(np.stack(dense) != 0.0, axis=0), axis=1).max())


class TestActiveObstacleRows:
    @pytest.mark.parametrize("kind,params", [("barn-like", None), ("random-static", {"dim": 3})])
    def test_sums_bit_equal_to_dense_clamp(self, kind, params):
        _, setup, dist = _scenario_setup(kind, params, seed=5)
        raw = np.random.default_rng(0).multivariate_normal(dist.mu, dist.sigma_mat, size=24, method="svd")
        # raw draws cut deep into the obstacles, projected ones graze them
        projected, _, _ = project(setup, raw, n_inner=5)
        for xis in (raw, projected):
            assert _assert_sums_bit_equal(setup, xis) >= 1

    @pytest.mark.parametrize("make,dim", [(make_setup_2d, 2), (make_setup_3d, 3)])
    def test_sums_bit_equal_where_obstacles_overlap(self, make, dim):
        # the scenarios above never put two active obstacles on one cell;
        # here three overlap, so the order of the sum over obstacles shows
        centre = np.r_[4.0, np.zeros(dim - 2), 0.0 if dim == 2 else 1.0]
        obstacles = [_static_obstacle(centre + 0.1 * k, 0.9 + 0.2 * k, 0.7 + 0.3 * k) for k in range(3)]
        setup = make(obstacles=obstacles)
        assert _assert_sums_bit_equal(setup, _noisy_line_samples(setup, 8, seed=6, scale=0.3)) == 3

    def test_nan_position_stays_active(self):
        # a NaN offset fails both 1 <= q and q <= D_CAP**2; written as
        # (q < 1) | (q > D_CAP**2) the mask would drop it and score 0
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], 1.0, 1.0)], v_max=None, a_max=None, bounds=False)
        xis = np.stack([_line_sample(setup)] * 2)
        xis[1, 3] = np.nan
        pva = setup.pva_samples(xis)
        assert np.isnan(pva[1, 0, 0]).any() and not np.isnan(pva[0]).any()
        obstacle, _, sq = _residuals(setup, pva, ObstacleRows(setup.obstacles, 2))
        assert np.isnan(obstacle[:, 1][np.isnan(pva[1, :, 0])]).all()
        assert not np.isnan(obstacle[:, 0]).any()
        scores = residual_scores(setup, xis)
        assert np.isnan(sq[1]) and np.isnan(scores[1])
        assert np.isfinite(scores[0])


class TestFamiliesOnTheirActiveSet:
    """The box, velocity and acceleration residuals against the dense expressions they replace."""

    @pytest.mark.parametrize("make", [make_setup_2d, make_setup_3d])
    def test_equal_to_dense_clamp_and_box(self, make):
        setup = make()
        dim, n_p = setup.dim, setup.basis.n_p
        rng = np.random.default_rng(dim)
        pva = rng.normal(scale=3.0, size=(5, dim, 3, n_p))
        pos = pva[:, :, 0]
        pos[0, :, :2] = setup.s_min[:, None]  # on the bounds
        pos[0, :, 2:4] = setup.s_max[:, None]
        pos[1] += 8.0  # beyond the upper bounds
        for order, limit in ((1, setup.v_max), (2, setup.a_max)):
            kin = pva[:, :, order]
            kin[2, :, :6] = 0.0  # zero velocity (the clamp's origin convention) up to t = 3
            kin[2, 0, 3] = limit  # exactly at the limit: q = 1
            kin[2, -1, 4] = -limit
            kin[2, 0, 5] = np.nextafter(limit, np.inf)  # one float beyond
            kin[2, :2, 6] = [0.6 * limit, 0.8 * limit]
        pva[3, 0, :, 7] = np.nan
        with np.errstate(invalid="ignore"):
            _, families, _ = _residuals(setup, pva, ObstacleRows(setup.obstacles, 5))
        box = np.maximum(0.0, pos - setup.s_max[:, None]) - np.maximum(0.0, setup.s_min[:, None] - pos)
        dense = [box] + [
            np.stack(radial_clamp(pva[:, :, order].transpose(1, 0, 2), limit, limit, lower=0.0, upper=1.0), axis=1)
            for order, limit in ((1, setup.v_max), (2, setup.a_max))
        ]
        assert len(families) == 3
        for (got, _), expected in zip(families, dense):
            np.testing.assert_array_equal(got, expected)
        assert all(np.isnan(got[3, 0, 7]) for got, _ in families)
        assert all(got[:, :, 10:].any() for got, _ in families)  # some rows active in every family


class TestOnePassPerIterate:
    @pytest.mark.parametrize("n_inner", [1, 7])
    def test_obstacle_and_sample_passes(self, monkeypatch, n_inner):
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.2], 0.8, 0.8)])
        samples = _noisy_line_samples(setup, 6, seed=4)
        calls = {"rows": 0, "pva": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ObstacleRows, "residuals", counting("rows", ObstacleRows.residuals))
        monkeypatch.setattr(ProjectionSetup, "pva_samples", counting("pva", ProjectionSetup.pva_samples))
        outs = {}
        for with_history in (False, True):
            calls.update(rows=0, pva=0)
            history = [] if with_history else None
            outs[with_history] = project(setup, samples, n_inner=n_inner, residual_history=history)
            assert calls == {"rows": n_inner + 1, "pva": n_inner + 1}
        assert len(history) == n_inner
        np.testing.assert_array_equal(history[-1], outs[True][1])
        for plain, logged in zip(outs[False], outs[True]):
            assert np.array_equal(plain, logged)


class TestBatchedCost:
    """c1 scores a stack of samples: one call per outer iteration, one cost per row."""

    def _run(self, solver, c1):
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], 1.0, 1.0)])
        mu = _line_sample(setup)
        dist = SamplingDistribution(mu=mu, sigma_mat=0.2 * np.eye(mu.size))
        if solver == "priest":
            params = PriestParams(n_outer=3, n_batch=20, n_constraint_elite=15, n_elite=5, n_inner=5, seed=1)
            return priest_optimize(setup, c1, dist, params)
        return cem_optimize(setup, c1, dist, CemParams(n_batch=20, n_elite=5, iterations=3, seed=1))

    def test_priest_scores_the_constraint_elites_once_per_outer_iteration(self):
        shapes = []

        def c1(pva):
            shapes.append(pva.shape)
            return _acc_cost(pva)

        self._run("priest", c1)
        assert shapes == [(15, 2, 3, N_P)] * 3

    def test_cem_forms_its_samples_once_per_iteration(self, monkeypatch):
        shapes, calls = [], []
        pva_samples = ProjectionSetup.pva_samples

        def counting(setup, xis):
            calls.append(np.atleast_2d(xis).shape[0])
            return pva_samples(setup, xis)

        def c1(pva):
            shapes.append(pva.shape)
            return _acc_cost(pva)

        monkeypatch.setattr(ProjectionSetup, "pva_samples", counting)
        self._run("cem", c1)
        assert shapes == [(20, 2, 3, N_P)] * 3
        assert calls == [20, 20, 20, 1]  # the last forms the returned best

    @pytest.mark.parametrize("solver", ["priest", "cem"])
    @pytest.mark.parametrize(
        "c1",
        [lambda pva: 0.0, lambda pva: np.zeros((len(pva), 1)), lambda pva: np.zeros(len(pva) - 1)],
        ids=["scalar", "column", "short"],
    )
    def test_cost_of_wrong_shape_rejected(self, solver, c1):
        with pytest.raises(ValueError, match=r"c1 must return .* shape \(\d+,\), got"):
            self._run(solver, c1)

    @pytest.mark.parametrize("solver", ["priest", "cem"])
    def test_nan_costs_rank_last(self, solver):
        def with_every_other(fill):
            def c1(pva):
                costs = _acc_cost(pva)
                costs[1::2] = fill
                return costs

            return c1

        # at least 7 finite costs for the 5 elites: NaN ranks as +inf would
        nan, inf = self._run(solver, with_every_other(np.nan)), self._run(solver, with_every_other(np.inf))
        assert np.isfinite(nan.mu).all() and np.isfinite(nan.sigma_mat).all()
        np.testing.assert_array_equal(nan.mu, inf.mu)
        np.testing.assert_array_equal(nan.sigma_mat, inf.sigma_mat)


class TestCostNeverFinite:
    """A cost callback that is non-finite for every sample is reported through the
    result, not raised: priest's update used to make its mean NaN (a LinAlgError at
    the next draw), and CEM had no best sample to return."""

    @pytest.mark.parametrize("fill", [np.inf, np.nan], ids=["inf", "nan"])
    def test_priest(self, fill):
        scenario, setup, dist = _scenario_setup("barn-like", None, seed=0)
        params = PriestParams(n_outer=2, n_batch=20, n_constraint_elite=15, n_elite=5, n_inner=5, seed=0)
        result = priest_optimize(setup, lambda pva: np.full(len(pva), fill), dist, params)
        np.testing.assert_array_equal(result.mu, dist.mu)
        np.testing.assert_array_equal(result.sigma_mat, dist.sigma_mat)
        assert np.array_equal(result.best.aug_cost, fill, equal_nan=True)
        assert np.isfinite(result.best.projected).all() and np.isfinite(result.best.trajectory.pos).all()
        assert len(result.history) == 2

    @pytest.mark.parametrize("fill", [np.inf, np.nan], ids=["inf", "nan"])
    def test_cem_keeps_the_first_iterations_best(self, fill):
        scenario, setup, dist = _scenario_setup("barn-like", None, seed=0)
        params = CemParams(n_batch=20, n_elite=5, iterations=3, seed=0)
        result = cem_optimize(setup, lambda pva: np.full(len(pva), fill), dist, params)
        first = np.random.default_rng(0).multivariate_normal(dist.mu, dist.sigma_mat, size=20, method="svd")[0]
        np.testing.assert_array_equal(result.best_xi, first)  # a stable sort of equal costs keeps sample 0
        assert np.array_equal(result.best_cost, fill, equal_nan=True)
        assert np.isfinite(result.best_trajectory.pos).all() and np.isfinite(result.mu).all()
        assert len(result.history) == 3

    def test_cem_takes_a_number_over_a_nan_best(self):
        # every cost NaN at the first iteration, finite afterwards
        scenario, setup, dist = _scenario_setup("barn-like", None, seed=0)
        calls = []

        def c1(pva):
            calls.append(1)
            return np.full(len(pva), np.nan) if len(calls) == 1 else _acc_cost(pva)

        result = cem_optimize(setup, c1, dist, CemParams(n_batch=20, n_elite=5, iterations=2, seed=0))
        assert np.isfinite(result.best_cost)
        assert result.best_cost == result.history[1]["best_cost"]


class TestSetupValidation:
    def _obstacle(self, centers):
        return Obstacles(np.asarray(centers, dtype=float).T[:, None], [0.5], [0.5])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v_max": 0.0},
            {"v_max": -1.0},
            {"a_max": 0.0},
            {"a_max": float("nan")},
            {"rho": 0.0},
            {"rho": -2.0},
            {"s_min": np.array([-2.0, 5.0]), "s_max": np.array([10.0, 5.0])},
            {"s_min": np.array([-2.0, 6.0]), "s_max": np.array([10.0, 5.0])},
            {"s_min": np.array([-2.0]), "s_max": np.array([10.0])},
            {"s_min": np.array([-2.0, -5.0, 0.0]), "s_max": np.array([10.0, 5.0, 1.0])},
            {"s_min": np.array([-np.inf, -5.0]), "s_max": np.array([10.0, 5.0])},
            {"s_min": np.array([-2.0, -5.0]), "s_max": np.array([10.0, np.nan])},
            {"s_min": np.array([-2.0, -5.0]), "s_max": None},
        ],
    )
    def test_bad_limits_rejected(self, kwargs):
        basis = build_basis(0.0, 8.0, N_P, 8)
        base = dict(
            basis=basis,
            boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)),
            v_max=3.0,
            a_max=3.0,
            s_min=np.array([-2.0, -5.0]),
            s_max=np.array([10.0, 5.0]),
        )
        with pytest.raises(ValueError):
            ProjectionSetup(**{**base, **kwargs})

    @pytest.mark.parametrize(
        "centers",
        [
            np.full((N_P, 2), np.nan),
            np.where(np.arange(N_P)[:, None] == 7, np.inf, np.ones((N_P, 2))),
            np.ones((N_P, 3)),
            np.ones((N_P - 1, 2)),
            np.ones(2),
        ],
    )
    def test_bad_obstacle_centres_rejected(self, centers):
        # the obstacle checks run when the Obstacles are built, the fit to the setup when it is
        basis = build_basis(0.0, 8.0, N_P, 8)
        with pytest.raises(ValueError):
            ProjectionSetup(basis, (AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)), self._obstacle(centers))

    @pytest.mark.parametrize("centres", [np.ones((3, 1, N_P)), np.ones((2, 1, N_P + 1))], ids=["3d", "other-grid"])
    def test_obstacles_of_another_problem_rejected(self, centres):
        boundary = (AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0))
        with pytest.raises(ValueError, match="obstacles are"):
            ProjectionSetup(build_basis(0.0, 8.0, N_P, 8), boundary, Obstacles(centres, [0.5], [0.5]))

    @pytest.mark.parametrize("a,b", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (0.5, np.inf)])
    def test_non_finite_semi_axes_rejected(self, a, b):
        # accepted, they made project return NaN residuals
        with pytest.raises(ValueError, match="semi-axes"):
            make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], a, b)])

    @pytest.mark.parametrize("n_axes", [1, 4])
    def test_axis_count_other_than_two_or_three_rejected(self, n_axes):
        # accepted without obstacles, although every constraint row is written for 2-D and 3-D
        boundary = (AxisBoundary(p0=0.0, p1=8.0),) * n_axes
        with pytest.raises(ValueError, match="need 2 or 3 axis boundaries"):
            ProjectionSetup(build_basis(0.0, 8.0, N_P, 8), boundary, v_max=3.0)

    def test_non_finite_boundary_values_rejected(self):
        basis = build_basis(0.0, 8.0, N_P, 8)
        with pytest.raises(ValueError):
            ProjectionSetup(basis=basis, boundary=(AxisBoundary(p0=0.0, p1=np.nan), AxisBoundary(p0=0.0, v0=np.inf)))

    def test_bad_samples_rejected_by_project(self):
        setup = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], 1.0, 1.0)])
        xi = _line_sample(setup)
        # rejected up front by name, not by a shape or finiteness error from
        # inside the inner loop
        for bad in (np.r_[xi, 0.0], xi[:-1], np.where(np.arange(xi.size) == 3, np.nan, xi), np.full_like(xi, np.inf)):
            with pytest.raises(ValueError, match="samples must"):
                project(setup, bad[None, :], n_inner=2)
        with pytest.raises(ValueError, match="samples must"):
            project(setup, np.stack([xi, xi])[None], n_inner=2)


class TestSamplerValidation:
    """Bad priest and CEM inputs are rejected when they are built."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_outer=0),  # run_scenario then failed on a missing best sample
            dict(n_inner=0),
            dict(n_elite=0),
            dict(gamma=np.nan),  # an SVD failed to converge at outer iteration 2
            dict(residual_weight=np.nan),
        ],
    )
    def test_bad_priest_params_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PriestParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(iterations=0), dict(n_elite=0), dict(penalty_weight=np.nan)])
    def test_bad_cem_params_rejected(self, kwargs):
        # iterations=0 and a NaN penalty_weight (every cost NaN, so no best
        # sample) failed in a reshape, n_elite=0 took the mean of an empty slice
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CemParams(**kwargs)

    @pytest.mark.parametrize(
        "mu,sigma_mat,match",
        [
            (np.array([0.0, np.nan, 1.0]), np.eye(3), "finite"),
            (np.zeros(4), np.eye(3), "does not match"),
            (np.zeros(3), -np.eye(3), "semi-definite"),
        ],
        ids=["nan-mean", "size-mismatch", "negative-definite"],
    )
    def test_bad_distribution_rejected(self, mu, sigma_mat, match):
        with pytest.raises(ValueError, match=match):
            SamplingDistribution(mu=mu, sigma_mat=sigma_mat)

    @pytest.mark.parametrize("solver,name", [("priest", "n_outer"), ("cem", "iterations")])
    def test_zero_iteration_run_rejected(self, solver, name):
        with pytest.raises(ValueError, match=name):
            run_scenario(gen_scenario("barn-like", seed=0), solver, 0, 0)


class TestCemPenalty:
    def test_values_pinned(self):
        # values of the original dense formulation on a fixed input; every
        # family (obstacles, speed, acceleration, workspace box) contributes
        s2 = make_setup_2d(obstacles=[_static_obstacle([4.0, 0.0], 1.2, 0.9), _static_obstacle([6.0, 1.0], 0.7, 1.1)])
        x2 = _line_sample(s2)[None, :] + np.random.default_rng(8).normal(scale=1.5, size=(4, s2.A.shape[1]))
        np.testing.assert_allclose(
            _cem_penalty(s2, s2.pva_samples(x2), ObstacleRows(s2.obstacles, 4)),
            [9.138142420076484, 97.93144900718406, 1.0253246112348724, 136.17507851754567],
            rtol=1e-12,
        )
        s3 = make_setup_3d(obstacles=[_static_obstacle([4.0, 0.0, 1.0], 1.0, 0.8)])
        x3 = _line_sample(s3)[None, :] + np.random.default_rng(9).normal(scale=1.5, size=(3, s3.A.shape[1]))
        np.testing.assert_allclose(
            _cem_penalty(s3, s3.pva_samples(x3), ObstacleRows(s3.obstacles, 3)),
            [103.08846544930357, 34.16351275469579, 3.070211144049175],
            rtol=1e-12,
        )
