import copy
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from trajopt import qpcore, solver_single
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis
from trajopt.bench import gen_scenario, receding_horizon_run, runner
from trajopt.geometry import D_CAP, EllipsoidShape, Obstacles, angle2d, radial_target, residual_extremes
from trajopt.solver_single import (
    SingleParams,
    SingleProblem,
    _polar_step,
    _position_step,
    _SingleStructure,
    _untie,
    am_iteration,
    equality_residuals,
    init_state,
    shift_state,
    solve_single,
)

from angle_forms import angles3d, los_scale


def _line(start, goal, n_p):
    frac = np.linspace(0.0, 1.0, n_p)[:, None]
    return np.asarray(start)[None, :] + frac * (np.asarray(goal) - np.asarray(start))[None, :]


# one obstacle's (n_p, dim) centres and its semi-axes, as the tests build it
Track = namedtuple("Track", "centers shape")


def _static_obstacle(center, shape, n_p):
    return Track(centers=np.tile(np.asarray(center, dtype=float), (n_p, 1)), shape=shape)


def _stack(tracks):
    """The Obstacles of a list of tracks, None for none."""
    if not tracks:
        return None
    centres = np.stack([t.centers.T for t in tracks], axis=1)
    return Obstacles(centres, [t.shape.a for t in tracks], [t.shape.b for t in tracks])


def make_problem_2d(n_p=60, obstacles=(), w_track=1.0, tf=6.0):
    basis = build_basis(0.0, tf, n_p, 8)
    return SingleProblem(
        basis=basis,
        boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0)),
        desired=_line([0.0, 0.0], [8.0, 0.0], n_p),
        obstacles=_stack(obstacles),
        w_track=w_track,
    )


def make_problem_3d(n_p=50, obstacles=(), degree=8):
    basis = build_basis(0.0, 6.0, n_p, degree)
    return SingleProblem(
        basis=basis,
        boundary=(
            AxisBoundary(p0=0.0, p1=6.0),
            AxisBoundary(p0=0.0, p1=1.0),
            AxisBoundary(p0=1.0, p1=1.0),
        ),
        desired=_line([0.0, 0.0, 1.0], [6.0, 1.0, 1.0], n_p),
        obstacles=_stack(obstacles),
    )


def _cost_blocks(problem):
    """The quadratic cost Q (shared by all axes) and the per-axis linear terms q of the position step."""
    struct = _SingleStructure(problem)
    return struct.Q, struct.q


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


def _polar_direction(delta, a, b):
    """The polar point at unit scale, (dim, n_o, n_p), at the angles of the offsets, as the angle form writes it.

    (a cos(alpha), b sin(alpha)) at alpha = angle2d(dx / a, dy / b) in 2-D,
    the spheroid point at angles3d's (alpha, beta) in 3-D; a zero offset
    takes the radial form's origin convention, b along the last axis.
    """
    if len(delta) == 2:
        alpha = angle2d(delta[0] / a, delta[1] / b)
        v = np.array([a * np.cos(alpha), b * np.sin(alpha)])
    else:
        alpha, beta = angles3d(delta, a, b)
        v = np.array([a * np.cos(alpha) * np.sin(beta), a * np.sin(alpha) * np.sin(beta), b * np.cos(beta)])
    centre = np.all(delta == 0.0, axis=0)
    v[:, centre] = 0.0
    v[-1][centre] = np.broadcast_to(b, centre.shape)[centre]
    return v


class _Reference:
    """The radial sweep written from the angle form.

    Every step rebuilds the cost blocks, boundary rows and offsets, takes
    the factor from the state's cache on those rebuilt matrices, solves the
    position step on the targets centres + recon - lam / rho through
    qpcore.solve_batch, and takes the polar step at the angles of each
    offset: d = clip(shifted . v / v . v, 1, D_CAP) for the unit-scale polar
    point v, recon = d v.  It sweeps a copy of a SingleState.
    """

    def __init__(self, problem):
        self.problem = problem

    def sweep(self, state):
        problem = self.problem
        basis, obstacles = problem.basis, problem.obstacles
        Q, q = _cost_blocks(problem)
        bs = np.stack([bc.values() for bc in problem.boundary])
        factor = state.factors.get(Q, basis.P.T @ basis.P, boundary_matrix(basis), state.rho * problem.n_o)
        q_lin = q
        if problem.n_o:
            targets = obstacles.centres + state.recon - state.lam / state.rho
            q_lin = q - state.rho * targets.sum(axis=1) @ basis.P
        state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=bs))
        state.iteration += 1
        if not problem.n_o:
            return
        delta = (basis.P @ state.xi.T).T[:, None, :] - obstacles.centres
        shifted = delta + state.lam / state.rho
        v = _polar_direction(delta, obstacles.a[:, None], obstacles.b[:, None])
        state.d = np.clip(np.sum(shifted * v, axis=0) / np.sum(v * v, axis=0), 1.0, D_CAP)
        state.recon = state.d * v
        state.residuals = delta - state.recon
        state.lam = state.lam + state.rho * state.residuals


def _assert_states_close(got, ref, atol=1e-12):
    """A SingleState against the reference's, array by array."""
    for name in ("xi", "d", "recon", "lam", "residuals"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=0, atol=atol, err_msg=name)


_COLL = ("coll_x", "coll_y", "coll_z")


def _per_family(state):
    """A copy of a SingleState with one array per residual family: recon,
    lam and the residuals as dicts of the rows coll_x, coll_y[, coll_z],
    the residuals {} without obstacles."""
    names = _COLL[: state.xi.shape[0]]
    return SimpleNamespace(
        xi=state.xi.copy(),
        d=state.d.copy(),
        rho=state.rho,
        iteration=state.iteration,
        factors=copy.deepcopy(state.factors),
        recon=dict(zip(names, state.recon.copy())),
        lam=dict(zip(names, state.lam.copy())),
        residuals=dict(zip(names, state.residuals.copy())) if state.d.shape[0] else {},
    )


class _PerFamilySweep:
    """The sweep written one residual family, polar row x, y[, z], at a time.

    Each family's target sum, residual and multiplier ascent is its own
    allocating expression, and the residuals are reported per family, in
    the order the residual norm concatenates them.  The position step
    solves the axes as one block of right-hand sides through
    qpcore.solve_batch, and the polar step, which couples the rows through
    the scaled norm, is one allocating radial_target call.  Each entry's
    arithmetic is the in-place sweep's, so the two must agree bit for bit.
    """

    def __init__(self, problem):
        self.struct = _SingleStructure(problem)
        self.names = _COLL[: problem.dim]

    def sweep(self, fam):
        struct, rho = self.struct, fam.rho
        factor = fam.factors.get_from_pencil(struct.Q, struct.PtP, struct.A, rho * struct.n_o)
        q_lin = struct.q
        if struct.n_o:
            rows = []
            for k, name in enumerate(self.names):
                pull = (fam.recon[name].sum(axis=0) + struct.centres[k].sum(axis=0)) * rho
                rows.append(fam.lam[name].sum(axis=0) - pull)
            q_lin = np.array(rows) @ struct.P + struct.q
        fam.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=struct.bs))
        fam.iteration += 1
        if not struct.n_o:
            return
        offsets = struct.offsets(fam.xi)
        shifted = np.array([fam.lam[name] / rho + delta for name, delta in zip(self.names, offsets)])
        fam.d, recon = radial_target(offsets, struct.a, struct.b, shifted)
        for name, delta, point in zip(self.names, offsets, recon):
            fam.recon[name] = point
            fam.residuals[name] = delta - point
            fam.lam[name] = fam.lam[name] + fam.residuals[name] * rho


def _concatenated_extremes(res):
    """Norm and max of the per-family residuals, concatenated in report order."""
    if not res:
        return 0.0, 0.0
    stacked = np.concatenate([r.ravel() for r in res.values()])
    return float(np.linalg.norm(stacked)), float(np.max(np.abs(stacked)))


def augmented_lagrangian(state, problem):
    """Objective plus multiplier and quadratic penalty terms (fixed multipliers).

    The position step minimizes it over xi.  The polar and multiplier steps
    are excluded from that property: the polar step is the closed-form
    scale at the angles of the new offsets, not a minimizer over every
    polar point, and the multiplier step is dual ascent.
    """
    basis = problem.basis
    acc = basis.Pddot @ state.xi.T
    pos = basis.P @ state.xi.T
    value = problem.w_smooth * float(np.sum(acc**2)) + problem.w_track * float(np.sum((pos - problem.desired) ** 2))
    if not problem.n_o:
        return value
    coll = equality_residuals(state, problem)
    return value + float(np.sum(state.lam * coll)) + 0.5 * state.rho * float(np.sum(coll**2))


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
        struct = _SingleStructure(prob)
        # the sweep's d step on the structure's offsets and semi-axes
        d = los_scale(struct.offsets(np.zeros_like(init_state(prob).xi)), struct.a, struct.b)
        np.testing.assert_allclose(d, np.repeat(np.asarray(expected)[:, None], 50, axis=1), rtol=1e-12)


class TestInitState:
    def test_multipliers_start_at_zero(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        state = init_state(prob)
        assert np.all(state.lam == 0.0)
        assert np.all(state.d == 1.0)
        # recon is the offsets of the straight line scaled onto the unit level set
        deltas = _SingleStructure(prob).offsets(state.xi)
        np.testing.assert_allclose(state.recon, deltas / los_scale(deltas, 0.5, 0.5, lower=0.0), rtol=1e-15)

    def test_zero_obstacles_gives_empty_polar_arrays(self):
        prob = make_problem_2d()
        state = init_state(prob)
        assert state.d.shape == (0, 60)
        assert state.recon.shape == state.lam.shape == state.residuals.shape == (2, 0, 60)

    def test_same_seed_identical_states(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        s1, s2 = init_state(prob), init_state(prob)
        np.testing.assert_array_equal(s1.xi, s2.xi)
        np.testing.assert_array_equal(s1.recon, s2.recon)
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
        # cost-optimal trajectory, far non-binding obstacle, polar points
        # at the offsets themselves (d = r), zero multipliers
        obstacle = _static_obstacle([4.0, 30.0, 1.0], EllipsoidShape(0.5, 0.7), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        state.xi = boundary_qp_oracle(prob)
        deltas = _SingleStructure(prob).offsets(state.xi)
        state.recon = deltas.copy()
        state.d = los_scale(deltas, 0.5, 0.7)

        assert np.max(np.abs(equality_residuals(state, prob))) == 0.0
        am_iteration(state, prob)
        assert np.max(np.abs(state.residuals)) < 1e-9
        np.testing.assert_allclose(state.xi, boundary_qp_oracle(prob), rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.d, los_scale(deltas, 0.5, 0.7), rtol=1e-12)

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
        # the position step minimizes the augmented Lagrangian over xi; the
        # polar step (the closed-form scale at the new offsets' angles) and
        # the multiplier step (dual ascent) are not descent steps
        obstacles = [_static_obstacle([4.0, 0.1], EllipsoidShape(0.8, 0.8), 60)]
        self._check_position_descent(make_problem_2d(obstacles=obstacles), 12)

    def test_position_block_is_descent_in_3d(self):
        obstacle = _static_obstacle([3.0, 0.4, 1.1], EllipsoidShape(0.8, 0.6), 50)
        self._check_position_descent(make_problem_3d(obstacles=[obstacle]), 10)

    @staticmethod
    def _check_position_descent(prob, sweeps):
        state = init_state(prob)
        # first sweep makes the iterate boundary-feasible; the constrained
        # position block is a descent step only within the feasible set
        am_iteration(state, prob)
        struct = _SingleStructure(prob)
        for _ in range(sweeps):
            before = augmented_lagrangian(state, prob)
            _position_step(state, struct)
            after = augmented_lagrangian(state, prob)
            assert after <= before + 1e-9 * max(1.0, abs(before))
            _polar_step(state, struct, struct.offsets(state.xi))  # finish the sweep


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
        # the obstacle is centred on the straight line, so the start state's
        # tie rule picks the side; the path is checked between the samples too
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert sol.converged
        pos = _fine_positions(prob, sol.state.xi)
        scaled = np.hypot(pos[:, 0] - 4.0, pos[:, 1])
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

    def test_zero_sweeps_report_the_start(self):
        # max_iter = 0 runs no sweep: the report is the residual of the start state
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)])
        sol = solve_single(prob, SingleParams(max_iter=0))
        start = init_state(prob)
        assert (sol.iterations, sol.converged, sol.residual_history, sol.n_factorizations) == (0, False, [], 0)
        assert (sol.residual_norm, sol.residual_max) == residual_extremes(equality_residuals(start, prob))
        assert sol.residual_max > 0.0
        np.testing.assert_array_equal(sol.trajectory.pos, prob.basis.P @ start.xi.T)

    def test_penalty_cap_never_breaks_factorization(self):
        # goal buried inside the obstacle: the residual can never reach zero,
        # so the schedule climbs to the cap; the KKT guard must not trip
        obstacle = _static_obstacle([8.0, 0.0], EllipsoidShape(1.5, 1.5), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert not sol.converged
        assert sol.state.rho <= SingleParams().rho_cap + 1e-9


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
            shapes.append(state.factors.factor.size)
        assert len(set(shapes)) == 1

    def test_factor_rebuilt_only_on_rho_change(self):
        obstacle = _static_obstacle([4.0, 0.0], EllipsoidShape(1.0, 1.0), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        sol = solve_single(prob, SingleParams(max_iter=150, tol=0.0))
        distinct_rhos = len({h["rho"] for h in sol.residual_history})
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
        # does, on the start state's targets centres + recon - lam / rho
        state2 = init_state(prob)
        struct = _SingleStructure(prob)
        targets = struct.centres + state2.recon - state2.lam / state2.rho
        A = boundary_matrix(prob.basis)
        D = Q + state2.rho * prob.n_o * (prob.basis.P.T @ prob.basis.P)
        factor = qpcore.factorize(D, A)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            xi_seq = np.empty_like(batch_xi)
            for k in order:
                q_lin = q[k] - state2.rho * targets[k].sum(axis=0) @ prob.basis.P
                xi_seq[k], _ = qpcore.solve(factor, q_lin, prob.boundary[k].values())
            np.testing.assert_allclose(xi_seq, batch_xi, atol=1e-12)


class TestResidualReport:
    """equality_residuals, the report of the polar equalities."""

    def test_exact_state_reports_zero(self):
        prob = make_problem_2d()
        state = init_state(prob)
        assert equality_residuals(state, prob).shape == (2, 0, 60)
        assert residual_extremes(equality_residuals(state, prob)) == (0.0, 0.0)

    def test_matches_brute_force_formula(self):
        obstacle = _static_obstacle([4.0, 0.3], EllipsoidShape(0.6, 0.9), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        state = init_state(prob)
        rng = np.random.default_rng(5)
        state.xi = rng.normal(size=state.xi.shape)
        state.recon = rng.normal(size=state.recon.shape)

        coll_x, coll_y = equality_residuals(state, prob)[:, 0]
        pos = prob.basis.P @ state.xi.T
        np.testing.assert_allclose(coll_x, pos[:, 0] - 4.0 - state.recon[0, 0], atol=1e-12)
        np.testing.assert_allclose(coll_y, pos[:, 1] - 0.3 - state.recon[1, 0], atol=1e-12)

    def test_3d_rows_are_x_y_z(self):
        obstacle = _static_obstacle([3.0, 0.4, 1.1], EllipsoidShape(0.6, 0.9), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        state.recon = np.random.default_rng(6).normal(size=state.recon.shape)
        res = equality_residuals(state, prob)
        deltas = np.moveaxis(prob.basis.P @ state.xi.T - obstacle.centers, -1, 0)[:, None, :]
        np.testing.assert_array_equal(res, deltas - state.recon)


def _moving_obstacle(start, velocity, shape, n_p, tf=6.0):
    t = np.linspace(0.0, tf, n_p)[:, None]
    return Track(centers=np.asarray(start, dtype=float) + t * np.asarray(velocity, dtype=float), shape=shape)


def _mixed_problem(dim, shift=0.0):
    """a != b obstacles near the path: two static, one crossing it."""
    if dim == 2:
        obstacles = [
            _static_obstacle([3.0 + shift, 0.2], EllipsoidShape(0.9, 0.5), 60),
            _static_obstacle([5.5, -0.3 + shift], EllipsoidShape(0.4, 0.8), 60),
            _moving_obstacle([4.0 + shift, -2.0], [0.0, 0.6], EllipsoidShape(0.6, 0.3), 60),
        ]
        return make_problem_2d(obstacles=obstacles)
    obstacles = [
        _static_obstacle([2.5 + shift, 0.4, 1.1], EllipsoidShape(0.8, 0.5), 50),
        _static_obstacle([4.0, 0.6 + shift, 0.8], EllipsoidShape(0.4, 0.9), 50),
        _moving_obstacle([3.5 + shift, -1.5, 1.0], [0.0, 0.5, 0.05], EllipsoidShape(0.5, 0.7), 50),
    ]
    return make_problem_3d(obstacles=obstacles)


class TestMatchesReference:
    """Every sweep matches _Reference, the sweep written from the angle form."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cold_sweeps_match(self, dim):
        prob = _mixed_problem(dim)
        state = init_state(prob)
        ref_state = copy.deepcopy(state)
        ref = _Reference(prob)
        for sweep in range(30):
            if sweep in (10, 20):  # a penalty step makes both refactor
                for s in (state, ref_state):
                    s.rho = 1.4 * s.rho
            am_iteration(state, prob)
            ref.sweep(ref_state)
            _assert_states_close(state, ref_state)
        assert state.factors.count == ref_state.factors.count == 3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_warm_state_on_moved_obstacles_matches(self, dim):
        # the receding-horizon case: same saddle, obstacles and boundary moved
        state = solve_single(_mixed_problem(dim), SingleParams(max_iter=40)).state
        prob = _mixed_problem(dim, shift=0.3)
        ref_state = copy.deepcopy(state)
        ref = _Reference(prob)
        struct = solver_single._SingleStructure(prob)
        for _ in range(15):
            am_iteration(state, prob, struct)
            ref.sweep(ref_state)
            _assert_states_close(state, ref_state)
        assert state.factors.count == ref_state.factors.count

    def test_solve_matches_reference_sweeps(self):
        # a cold solve is the reference sweep under the same schedule
        prob = _mixed_problem(3)
        sol = solve_single(prob, SingleParams(max_iter=60, tol=0.0))
        ref_state = init_state(prob)
        ref = _Reference(prob)
        for h in sol.residual_history:
            ref_state.rho = h["rho"]
            ref.sweep(ref_state)
        _assert_states_close(sol.state, ref_state)
        assert sol.n_factorizations == ref_state.factors.count


def _centred_problem(dim):
    """One obstacle moving along the straight line the initial state starts
    on, so that every first offset is zero: the tie rule gives each its
    part across the line."""
    base = make_problem_2d(n_p=50) if dim == 2 else make_problem_3d()
    path = base.basis.P @ init_state(base).xi.T
    obstacle = Track(centers=path, shape=EllipsoidShape(0.8, 0.6))
    return SingleProblem(**{**vars(base), "obstacles": _stack([obstacle])})


class TestMatchesPerFamilySweep:
    """Every in-place sweep is _PerFamilySweep's, bit for bit: the whole
    state, the residual report and its norm and max."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("case", ["cold", "warm", "no-obstacles", "centred"])
    def test_state_after_every_sweep(self, case, dim):
        state = None
        if case == "no-obstacles":
            prob = make_problem_2d() if dim == 2 else make_problem_3d()
        elif case == "centred":
            prob = _centred_problem(dim)
        else:
            prob = _mixed_problem(dim, shift=0.3 if case == "warm" else 0.0)
        if case == "warm":
            # the receding-horizon case: a solved state on moved obstacles
            state = solve_single(_mixed_problem(dim), SingleParams(max_iter=40)).state
        state = state or init_state(prob)
        fam = _per_family(state)
        ref = _PerFamilySweep(prob)
        struct = _SingleStructure(prob)
        for sweep in range(25):
            if sweep in (10, 20):  # a penalty step makes both refactor
                state.rho = fam.rho = 1.4 * state.rho
            am_iteration(state, prob, struct)
            ref.sweep(fam)
            got = _per_family(state)
            for name in ("xi", "d"):
                assert np.array_equal(getattr(got, name), getattr(fam, name)), name
            for name in ("recon", "lam", "residuals"):
                got_rows, ref_rows = getattr(got, name), getattr(fam, name)
                assert got_rows.keys() == ref_rows.keys(), name
                for row in ref_rows:
                    assert np.array_equal(got_rows[row], ref_rows[row]), (name, row)
            assert residual_extremes(state.residuals) == _concatenated_extremes(fam.residuals)
        assert (state.iteration, state.factors.count) == (fam.iteration, fam.factors.count)


class TestOnePassPerSweep:
    def test_one_structure_trig_offsets_and_residual_per_sweep(self, monkeypatch):
        # one structure per solve; one offset evaluation and one polar step
        # (radial_target, the residuals and the multiplier ascent) per sweep;
        # no trig and no hypot anywhere: the polar points take no angle
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        structure = solver_single._SingleStructure
        monkeypatch.setattr(structure, "__init__", counted("structure", structure.__init__))
        monkeypatch.setattr(structure, "offsets", counted("offsets", structure.offsets))
        for name in ("_polar_step", "radial_target", "equality_residuals"):
            monkeypatch.setattr(solver_single, name, counted(name, getattr(solver_single, name)))
        for name in ("arctan2", "cos", "sin", "hypot"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        sol = solve_single(_mixed_problem(3), SingleParams(max_iter=12, tol=0.0))
        assert sol.iterations == 12
        # the initial state's straight line takes one more offset evaluation
        # and radial_target call; the certificate reads the last sweep's offsets
        assert counts == {"structure": 1, "offsets": 13, "radial_target": 13, "_polar_step": 12}


class TestInPlaceSweep:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweeps_write_the_state_arrays_in_place(self, dim):
        # no step hands the state a new array: a per-sweep temporary
        # taking the place of one of these would fail here
        prob = _mixed_problem(dim)
        struct = _SingleStructure(prob)
        state = init_state(prob, struct=struct)
        names = ("d", "recon", "lam", "residuals")
        arrays = {name: getattr(state, name) for name in names}
        before = {name: value.copy() for name, value in arrays.items()}
        for _ in range(3):
            am_iteration(state, prob, struct)
        for name, value in arrays.items():
            assert getattr(state, name) is value, name
            assert not np.array_equal(value, before[name]), name


class TestOriginConvention:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_offset_takes_the_point_on_the_b_axis(self, dim):
        # at r = 0 the polar point is radial_target's (0, b d) in 2-D and
        # (0, 0, b d) in 3-D, d the last axis's shifted target over b,
        # clamped; elsewhere it is the offset scaled to d
        obstacles = [_static_obstacle([3.0, 0.4, 1.1][:dim], EllipsoidShape(0.8, 0.6), 50)]
        prob = make_problem_2d(n_p=50, obstacles=obstacles) if dim == 2 else make_problem_3d(obstacles=obstacles)
        struct = _SingleStructure(prob)
        state = init_state(prob, struct=struct)
        deltas = np.random.default_rng(dim).normal(size=(dim, 1, 50))
        deltas[:, 0, :3] = 0.0
        deltas[:, 0, 3] = -0.0
        state.lam[:] = 0.0
        state.lam[-1, 0, 1] = 1.5 * state.rho  # a shift of 1.5 along the last axis: d = 1.5 / 0.6
        state.lam[0, 0, 2] = 0.9 * state.rho  # a shift across it moves nothing
        _polar_step(state, struct, deltas)
        expected_d = [1.0, 2.5, 1.0, 1.0]
        np.testing.assert_allclose(state.d[0, :4], expected_d, rtol=1e-15)
        point = np.zeros((dim, 4))
        point[-1] = 0.6 * state.d[0, :4]
        np.testing.assert_array_equal(state.recon[:, 0, :4], point)
        r = los_scale(deltas[:, 0, 4:], 0.8, 0.6, lower=0.0)
        np.testing.assert_allclose(state.recon[:, 0, 4:], deltas[:, 0, 4:] * state.d[0, 4:] / r, rtol=1e-13)


class TestTieRule:
    """An offset with no part across the start-goal line takes a fixed one in the start state."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_offsets_on_the_line_take_the_left_normal(self, dim):
        # a line off the axes; offsets along it (a -0.0 one among them) take
        # a part of 1e-3 b along the line's left normal in the x-y plane,
        # and so does one whose own part is shorter; a longer one is kept
        start = np.array([1.0, -2.0, 0.5][:dim])
        goal = np.array([7.0, 2.5, 3.0][:dim])
        u = (goal - start) / np.linalg.norm(goal - start)
        left = np.array([-u[1], u[0], 0.0][:dim]) / np.hypot(u[0], u[1])
        b = np.array([[0.5], [2.0]])
        deltas = np.stack([u[:, None] * np.linspace(-3.0, 3.0, 7)] * 2, axis=1)  # (dim, 2, 7)
        deltas[:, 0, 3] = -0.0
        deltas[:, 1, 5] += 0.004 * left  # longer than the push of 2e-3: kept
        deltas[:, 1, 6] += 0.001 * left  # shorter: taken to the push
        untied = _untie(deltas, b, start, goal)
        expected = deltas.copy()
        for o, k in [(0, k) for k in range(7)] + [(1, k) for k in (0, 1, 2, 3, 4, 6)]:
            expected[:, o, k] = u * (deltas[:, o, k] @ u) + 1e-3 * b[o, 0] * left
        np.testing.assert_allclose(untied, expected, rtol=0, atol=1e-15)
        assert untied[:, 0, 3] @ left == pytest.approx(0.5e-3, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertical_or_empty_line_takes_the_x_axis(self, dim):
        # start = goal in 2-D and 3-D, and a vertical line in 3-D: the part
        # across the line is pushed along x
        start = np.zeros(dim)
        goals = [start] + ([np.array([0.0, 0.0, 2.0])] if dim == 3 else [])
        deltas = np.zeros((dim, 1, 4))
        deltas[-1, 0, 1] = -1.0 if dim == 3 else 0.0
        for goal in goals:
            untied = _untie(deltas, np.array([[0.5]]), start, goal)
            expected = deltas.copy()
            expected[0] += 0.5e-3
            if dim == 3 and goal is start:
                expected[:, 0, 1] = deltas[:, 0, 1]  # (0, 0, -1) is all across an empty line: kept
            np.testing.assert_array_equal(untied, expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_tie_leaves_the_offsets(self, dim):
        deltas = np.random.default_rng(dim).normal(size=(dim, 3, 20))
        start, goal = np.zeros(dim), np.ones(dim)
        assert _untie(deltas, np.full((3, 1), 0.5), start, goal) is deltas

    @pytest.mark.parametrize("dim", [2, 3])
    def test_centred_obstacle_is_passed_between_the_samples_too(self, dim):
        # an obstacle centred on a start-goal line that is not axis-aligned:
        # without the rule every polar point stays on the line, the samples
        # clear and the path between them crosses the obstacle
        n_p = 60 if dim == 2 else 50
        start, goal = np.array([0.0, 0.0, 1.0][:dim]), np.array([6.0, 3.0, 2.5][:dim])
        centre = 0.5 * (start + goal)
        prob = SingleProblem(
            basis=build_basis(0.0, 6.0, n_p, 8),
            boundary=tuple(AxisBoundary(p0=s0, p1=g0) for s0, g0 in zip(start, goal)),
            desired=_line(start, goal, n_p),
            obstacles=_stack([_static_obstacle(centre, EllipsoidShape(0.8, 0.6), n_p)]),
        )
        sol = solve_single(prob, SingleParams(max_iter=400))
        assert sol.converged
        scaled = los_scale((_fine_positions(prob, sol.state.xi) - centre).T, 0.8, 0.6, lower=0.0)
        assert scaled.min() >= 1.0 - 1e-2


def _fine_positions(prob, xi):
    """The positions of xi on a grid ten times finer than the problem's samples, (10 (n_p - 1) + 1, dim)."""
    grid = prob.basis.grid
    fine = build_basis(grid.t0, grid.tf, 10 * (grid.n_p - 1) + 1, prob.basis.degree)
    return fine.P @ xi.T


class TestWarmState:
    def _solved_state(self, prob, iters=3):
        return solve_single(prob, SingleParams(max_iter=iters)).state

    def _assert_rejected_untouched(self, prob, state, match):
        before = (state.iteration, state.factors.count, state.factors.factor, state.xi.copy(), qpcore.factorization_count())
        with pytest.raises(ValueError, match=match):
            solve_single(prob, SingleParams(max_iter=3), state=state)
        assert (state.iteration, state.factors.count) == before[:2] and state.factors.factor is before[2]
        np.testing.assert_array_equal(state.xi, before[3])
        assert qpcore.factorization_count() == before[4]

    def test_dimension_mismatch_rejected(self):
        obstacle = [_static_obstacle([4.0, 0.5, 1.0], EllipsoidShape(0.5, 0.5), 50)]
        state = self._solved_state(make_problem_2d(n_p=50, obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 50)]))
        self._assert_rejected_untouched(make_problem_3d(obstacles=obstacle), state, "warm state xi")

    def test_coefficient_width_mismatch_rejected(self):
        state = self._solved_state(make_problem_3d(degree=8))
        self._assert_rejected_untouched(make_problem_3d(degree=10), state, "warm state xi")

    @pytest.mark.parametrize("name", ["d", "recon", "lam", "residuals"])
    def test_polar_shape_mismatch_rejected(self, name):
        obstacles = [_static_obstacle([3.0, 0.4, 1.0], EllipsoidShape(0.5, 0.5), 50)]
        state = self._solved_state(make_problem_3d(obstacles=obstacles))
        value = getattr(state, name)
        setattr(state, name, np.concatenate([value, value], axis=-2))  # one obstacle more
        self._assert_rejected_untouched(make_problem_3d(obstacles=obstacles), state, f"warm state {name}")

    def test_obstacle_count_mismatch_rejected(self):
        state = self._solved_state(make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)]))
        more = [_static_obstacle([x, 0.5], EllipsoidShape(0.5, 0.5), 60) for x in (2.0, 4.0, 6.0)]
        self._assert_rejected_untouched(make_problem_2d(obstacles=more), state, "warm state d")

    # polar rows of the wrong count: a z row (the one the beta angle spans)
    # on a planar problem, or none on a spatial one
    def test_beta_set_on_planar_problem_rejected(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        state = self._solved_state(prob)
        state.recon = np.concatenate([state.recon, state.recon[:1]])
        self._assert_rejected_untouched(prob, state, r"warm state recon has shape \(3, 1, 60\), expected \(2, 1, 60\)")

    def test_beta_unset_on_spatial_problem_rejected(self):
        prob = make_problem_3d(obstacles=[_static_obstacle([3.0, 0.4, 1.0], EllipsoidShape(0.5, 0.5), 50)])
        state = self._solved_state(prob)
        state.lam = state.lam[:2]
        self._assert_rejected_untouched(prob, state, r"warm state lam has shape \(2, 1, 50\), expected \(3, 1, 50\)")

    def _obstacle_problem_3d(self):
        return make_problem_3d(obstacles=[_static_obstacle([3.0, 0.4, 1.0], EllipsoidShape(0.5, 0.5), 50)])

    @pytest.mark.parametrize("name", ["xi", "d", "recon", "lam"])
    def test_non_finite_array_rejected(self, name):
        # a NaN multiplier used to be swept in and come back as NaN
        # coefficients, reported unconverged
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        value = getattr(state, name).copy()
        value.flat[7] = np.nan
        setattr(state, name, value)
        self._assert_rejected_untouched(prob, state, f"warm state {name} is not finite")

    @pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0, "1", None])
    def test_bad_penalty_rejected(self, rho):
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        state.rho = rho
        self._assert_rejected_untouched(prob, state, "warm state rho")

    def test_non_finite_residual_block_accepted(self):
        # the residual block is only written by a sweep, never read
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        clean = copy.deepcopy(state)
        state.residuals[...] = np.nan
        warm = solve_single(prob, SingleParams(max_iter=3), state=state)
        expected = solve_single(prob, SingleParams(max_iter=3), state=clean)
        np.testing.assert_array_equal(warm.state.xi, expected.state.xi)
        np.testing.assert_array_equal(warm.state.residuals, expected.state.residuals)

    @pytest.mark.parametrize("kind,params", [("barn-like", None), ("random-static", {"dim": 3}), ("dynamic-flow", None)])
    def test_swept_arrays_are_not_read(self, kind, params):
        # a sweep writes xi (the position step), d and the residual block
        # before it reads them, so their warm values reach no output
        scenario = gen_scenario(kind, params, seed=0)
        basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
        state = self._solved_state(runner.single_problem_from_scenario(scenario, basis), iters=5)
        prob = runner.single_problem_from_scenario(scenario, basis, t_now=0.5)
        other = copy.deepcopy(state)
        rng = np.random.default_rng(2)
        for name in ("xi", "d", "residuals"):
            setattr(other, name, rng.normal(size=getattr(state, name).shape))
        warm = solve_single(prob, SingleParams(max_iter=3), state=other)
        expected = solve_single(prob, SingleParams(max_iter=3), state=state)
        assert (warm.iterations, warm.converged, warm.residual_history) == (
            expected.iterations, expected.converged, expected.residual_history)
        np.testing.assert_array_equal(warm.trajectory.pos, expected.trajectory.pos)
        for name in ("xi", "d", "recon", "lam", "residuals"):
            np.testing.assert_array_equal(getattr(warm.state, name), getattr(expected.state, name), err_msg=name)

    def test_iterations_count_the_call(self):
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        state.iteration = 20
        sol = solve_single(prob, SingleParams(max_iter=3, tol=0.0), state=state)
        assert (sol.iterations, sol.state.iteration, len(sol.residual_history)) == (3, 23, 3)

    @pytest.mark.parametrize("name", ["d", "recon", "lam", "residuals"])
    def test_read_only_array_rejected(self, name):
        # a sweep writes these in place; a read-only one used to fail
        # partway through the first sweep, or not at all
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        getattr(state, name).setflags(write=False)
        self._assert_rejected_untouched(prob, state, f"warm state {name} is read-only")

    def test_array_of_another_dtype_rejected(self):
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        state.recon = state.recon.astype(np.float32)
        self._assert_rejected_untouched(prob, state, "warm state recon must be a float64 array")

    def test_arrays_sharing_memory_rejected(self):
        prob = self._obstacle_problem_3d()
        state = self._solved_state(prob)
        state.lam = state.recon
        self._assert_rejected_untouched(prob, state, "warm state recon and lam share memory")

    @pytest.mark.parametrize("change", ["horizon", "w_smooth"])
    def test_changed_saddle_matrix_is_refactored(self, change):
        # same shapes, another saddle: a 10 s horizon against 8 s, or
        # another smoothness weight; the cached factor must not be reused
        obstacles = [_static_obstacle([4.0, 0.3], EllipsoidShape(0.8, 0.6), 60)]
        state = self._solved_state(make_problem_2d(obstacles=obstacles, tf=10.0))
        if change == "horizon":
            prob = make_problem_2d(obstacles=obstacles, tf=8.0)
        else:
            prob = SingleProblem(**{**vars(make_problem_2d(obstacles=obstacles, tf=10.0)), "w_smooth": 10.0})
        fresh = copy.deepcopy(state)
        fresh.factors = qpcore.FactorCache()
        n_before = state.factors.count
        warm = solve_single(prob, SingleParams(max_iter=3), state=state)
        expected = solve_single(prob, SingleParams(max_iter=3), state=fresh)
        assert warm.n_factorizations == n_before + 1 and expected.n_factorizations == 1
        np.testing.assert_array_equal(warm.state.xi, expected.state.xi)

    def test_keyed_matrices_are_read_only(self):
        # the factor cache takes an identical array as unchanged, so an
        # in-place edit must fail rather than leave a stale factor
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        struct = solver_single._SingleStructure(prob)
        for keyed in (struct.Q, struct.PtP, struct.A):
            with pytest.raises(ValueError, match="read-only"):
                keyed[0, 0] = 1.0

    def test_same_saddle_reuses_the_factor(self):
        # moved obstacle, new boundary and desired path: the saddle is
        # unchanged, so the warm solve factorizes nothing
        state = self._solved_state(make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)]))
        prob = make_problem_2d(obstacles=[_static_obstacle([5.0, -0.5], EllipsoidShape(0.5, 0.5), 60)])
        prob = SingleProblem(**{**vars(prob), "boundary": (AxisBoundary(p0=0.5, p1=8.0), AxisBoundary(p0=0.2, p1=0.0))})
        n_before, factor = state.factors.count, state.factors.factor
        warm = solve_single(prob, SingleParams(max_iter=3), state=state)
        assert warm.n_factorizations == n_before and warm.state.factors.factor is factor

    def test_receding_horizon_factorizes_once_per_rho(self, monkeypatch):
        # each control loop builds a problem with the same saddle, so the
        # warm factor is rebuilt only when rho changes
        runs = []
        original = solver_single.solve_single

        def recording(*args, **kwargs):
            sol = original(*args, **kwargs)
            runs.append(sol)
            return sol

        monkeypatch.setattr(solver_single, "solve_single", recording)
        result = receding_horizon_run(gen_scenario("barn-like", seed=0), solver="single", n_steps=4)
        assert len(result.records) == len(runs) >= 2
        rhos = [h["rho"] for sol in runs for h in sol.residual_history]
        changes = sum(1 for before, after in zip(rhos, rhos[1:]) if before != after)
        assert runs[-1].n_factorizations == 1 + changes


class TestClearanceTest:
    """_SingleStructure.clear takes the squared scaled norm q >= 1 for the los_scale form's sqrt(q) >= 1, with the same verdict."""

    @staticmethod
    def _verdicts(dim, a, b, offset):
        obstacles = [_static_obstacle(np.zeros(dim), EllipsoidShape(a, b), 60 if dim == 2 else 50)]
        prob = make_problem_2d(obstacles=obstacles) if dim == 2 else make_problem_3d(obstacles=obstacles)
        struct = _SingleStructure(prob)
        deltas = np.full((dim, 1, prob.basis.n_p), 10.0)  # every other sample far outside
        deltas[:, 0, 7] = offset
        raw_a, raw_b = prob.obstacles.a[:, None], prob.obstacles.b[:, None]
        form = bool(los_scale(deltas, raw_a, raw_b, lower=0.0, upper=np.inf).min() >= 1.0)
        return struct.clear(deltas), form

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "axis,expected",
        [("on-a", True), ("inside-a", False), ("on-b", True), ("inside-b", False), ("nan", False), ("zero", False)],
    )
    def test_verdict_at_the_boundary(self, dim, axis, expected):
        # semi-axes that are powers of two: q is exactly 1 on the boundary,
        # and one ulp inside it stays below 1 after the root
        a, b = 0.5, 0.25
        offset = np.zeros(dim)
        if axis.endswith("-a"):
            offset[0] = a if axis == "on-a" else np.nextafter(a, 0.0)
        elif axis.endswith("-b"):
            offset[-1] = b if axis == "on-b" else np.nextafter(b, 0.0)
        elif axis == "nan":
            offset[0] = np.nan
        assert self._verdicts(dim, a, b, offset) == (expected, expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_verdict_near_the_boundary_of_other_semi_axes(self, dim):
        a, b = 0.7, 0.3
        for scale in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 - 1e-15, 1.0 + 1e-15):
            for direction in (np.eye(dim)[0] * a, np.eye(dim)[-1] * b, np.array([a, b, b][:dim]) / np.sqrt(dim)):
                got, form = self._verdicts(dim, a, b, scale * direction)
                assert got == form, (scale, direction)


class TestPencilFactors:
    """The position step forms every penalty's factor from the state's pencil, never through qpcore.factorize."""

    @pytest.fixture
    def no_factorize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the single solver called qpcore.factorize")

        monkeypatch.setattr(qpcore, "factorize", refuse)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_solve_forms_one_factor_per_penalty(self, no_factorize, dim):
        sol = solve_single(_mixed_problem(dim), SingleParams(max_iter=120, tol=0.0))
        rhos = {h["rho"] for h in sol.residual_history}
        assert len(rhos) > 1 and sol.n_factorizations == len(rhos)

    def test_receding_horizon_run_forms_one_factor_per_penalty(self, monkeypatch, no_factorize):
        runs = []
        original = solver_single.solve_single

        def recording(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver_single, "solve_single", recording)
        result = receding_horizon_run(gen_scenario("barn-like", seed=0), solver="single", n_steps=4)
        assert len(result.records) == len(runs) >= 2
        rhos = {h["rho"] for sol in runs for h in sol.residual_history}
        assert len(rhos) > 1 and runs[-1].n_factorizations == len(rhos)


class TestShiftState:
    _SHIFTED = ("d", "recon", "lam")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_time_indexed_arrays_move_and_repeat_their_last_sample(self, dim):
        make = make_problem_2d if dim == 2 else make_problem_3d
        shape = EllipsoidShape(0.5, 0.7)
        prob = make(obstacles=[_static_obstacle(np.full(dim, 3.0), shape, 60 if dim == 2 else 50)])
        state = solve_single(prob, SingleParams(max_iter=5)).state
        before = copy.deepcopy(state)
        arrays = {name: getattr(state, name) for name in vars(state)}
        shift_state(state, 4)
        for name in self._SHIFTED:
            got, old = getattr(state, name), getattr(before, name)
            assert got is arrays[name]  # in place
            np.testing.assert_array_equal(got[..., :-4], old[..., 4:], err_msg=name)
            np.testing.assert_array_equal(got[..., -4:], np.repeat(old[..., -1:], 4, axis=-1), err_msg=name)
        for name in ("xi", "residuals"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name), err_msg=name)

    @pytest.mark.parametrize("n", [0, -1, 60, 61])
    def test_shift_outside_the_horizon_rejected(self, n):
        state = init_state(make_problem_2d(obstacles=[_static_obstacle([3.0, 0.0], EllipsoidShape(0.5, 0.5), 60)]))
        with pytest.raises(ValueError, match=r"shift must lie in \[1, 60\)"):
            shift_state(state, n)

    def test_receding_horizon_hands_on_the_shifted_state(self, monkeypatch):
        # the d a step starts from is the last step's d moved by the n_exec
        # executed samples, its last column repeated
        handed, returned = [], []
        original = solver_single.solve_single

        def recording(problem, params=None, state=None):
            handed.append(None if state is None else state.d.copy())
            sol = original(problem, params, state=state)
            returned.append(sol.state.d.copy())
            return sol

        monkeypatch.setattr(solver_single, "solve_single", recording)
        scenario = gen_scenario("barn-like", seed=0)
        result = receding_horizon_run(scenario, solver="single", n_steps=4)
        assert len(result.records) == len(handed) == 4 and handed[0] is None
        n_exec = round(runner.EXEC_FRACTION * scenario.horizon.n_p)
        for last, warm in zip(returned, handed[1:]):
            np.testing.assert_array_equal(warm[:, :-n_exec], last[:, n_exec:])
            np.testing.assert_array_equal(warm[:, -n_exec:], np.repeat(last[:, -1:], n_exec, axis=1))


class TestProblemValidation:
    """Bad problem data is rejected when the problem is built."""

    @pytest.mark.parametrize(
        "change",
        [
            dict(desired_nan=True),
            dict(boundary=(AxisBoundary(p0=0.0, p1=float("nan")), AxisBoundary(p0=0.0, p1=0.0))),
            dict(boundary=(AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, a0=float("inf"), p1=0.0))),
            dict(boundary=(AxisBoundary(p0=0.0, p1=8.0),)),
            dict(centers=np.full((60, 2), float("nan"))),
            dict(centers=np.zeros((60, 3))),
            dict(centers=np.zeros((50, 2))),
            dict(semi_axes=(float("nan"), 0.5)),
            dict(semi_axes=(0.5, float("inf"))),
            dict(w_smooth=float("nan")),
            dict(w_track=float("inf")),
            dict(w_smooth=-1.0),
        ],
        ids=[
            "desired-nan", "goal-nan", "a0-inf", "one-axis", "centres-nan", "centres-3d", "centres-other-grid",
            "semi-axis-nan", "semi-axis-inf", "w_smooth-nan", "w_track-inf", "w_smooth-negative",
        ],
    )
    def test_rejected(self, change):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        kwargs = dict(vars(prob))
        desired = prob.desired.copy()
        if change.pop("desired_nan", False):
            desired[7, 1] = np.nan
        kwargs["desired"] = desired
        centers = change.pop("centers", np.tile([4.0, 0.5], (60, 1)))
        semi_axes = change.pop("semi_axes", (0.5, 0.5))
        kwargs.update(change)
        # the obstacle checks run when the Obstacles are built, the fit to the problem when it is
        with pytest.raises(ValueError):
            kwargs["obstacles"] = Obstacles(centers.T[:, None], [semi_axes[0]], [semi_axes[1]])
            SingleProblem(**kwargs)


    @pytest.mark.parametrize("centres", [np.ones((3, 1, 60)), np.ones((2, 1, 50))], ids=["3d", "other-grid"])
    def test_obstacles_of_another_problem_rejected(self, centres):
        prob = make_problem_2d()
        with pytest.raises(ValueError, match="obstacles are"):
            SingleProblem(**{**vars(prob), "obstacles": Obstacles(centres, [0.5], [0.5])})


    @pytest.mark.parametrize(
        "raw_axes", [([0.5, 0.5], [0.5]), ([float("nan")], [0.5]), ([0.5], [0.0])], ids=["two-a", "a-nan", "b-zero"]
    )
    def test_bad_raw_semi_axes_rejected(self, raw_axes):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        with pytest.raises(ValueError, match="semi-axes"):
            SingleProblem(**{**vars(prob), "raw_axes": raw_axes})

    def test_raw_semi_axes_are_copied_read_only(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        raw = [0.45], [0.4]
        prob = SingleProblem(**{**vars(prob), "raw_axes": raw})
        raw[0][0] = 9.0
        assert [axis.tolist() for axis in prob.raw_axes] == [[0.45], [0.4]]
        assert not any(axis.flags.writeable for axis in prob.raw_axes)

    def test_basis_below_the_boundary_rows_rejected(self):
        # a degree-4 basis has 5 coefficients per axis for 6 boundary rows:
        # it was accepted, and the first sweep raised FactorizationError
        prob = make_problem_2d()
        with pytest.raises(ValueError, match="degree-4 basis has 5 coefficients per axis"):
            SingleProblem(**{**vars(prob), "basis": build_basis(0.0, 6.0, 60, 4)})
        # degree 5 pins the six rows exactly: the straight line is the only path
        sol = solve_single(SingleProblem(**{**vars(prob), "basis": build_basis(0.0, 6.0, 60, 5)}), SingleParams(max_iter=3))
        np.testing.assert_allclose(sol.trajectory.pos[:, 1], 0.0, atol=1e-12)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "change",
        [
            dict(rho_start=0.0),
            dict(rho_start=-1.0),
            dict(rho_start=float("nan")),
            dict(rho_cap=float("inf")),
            dict(rho_cap=0.5),
            dict(rho_growth=float("nan")),
            dict(rho_growth=float("inf")),
            dict(rho_growth=0.9),
            dict(max_iter=-1),
            dict(stall_window=0),
            dict(tol=float("nan")),
            dict(stall_improvement=float("nan")),
            dict(extra_sweeps=-1),
            dict(extra_sweeps=2.0),
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_rejected(self, change):
        with pytest.raises(ValueError):
            SingleParams(**change)

    def test_defaults_and_boundary_values_accepted(self):
        SingleParams()
        SingleParams(rho_start=2.0, rho_cap=2.0, rho_growth=1.0, max_iter=0, stall_window=1, tol=0.0)


class TestSetUpKeptWithTheState:
    """A warm solve keeps its state's set-up while the problem's basis and semi-axis arrays are the last
    problem's very objects and its weights are equal, sets up anew otherwise, and sweeps either way as a
    solve set up anew does, bit for bit."""

    # (name, the next problem from the last one, whether the set-up is kept)
    CHANGES = [
        ("moved-start", lambda p: replace(p, boundary=(AxisBoundary(p0=0.4, v0=0.3, p1=p.boundary[0].p1), *p.boundary[1:])), True),
        ("moved-tracks", lambda p: replace(p, obstacles=Obstacles(p.obstacles.centres + 0.3, p.obstacles.a, p.obstacles.b)), True),
        ("another-basis", lambda p: replace(p, basis=build_basis(p.basis.grid.t0, p.basis.grid.tf, p.basis.n_p, 10)), False),
        ("another-weight", lambda p: replace(p, w_smooth=2.0), False),
        ("other-semi-axes", lambda p: replace(p, obstacles=p.obstacles.with_axes(p.obstacles.a.copy(), p.obstacles.b)), False),
        ("other-raw-semi-axes", lambda p: replace(p, raw_axes=(p.raw_axes[0], p.raw_axes[1] * 0.5)), False),
    ]

    @pytest.mark.parametrize("change,kept", [(change, kept) for _, change, kept in CHANGES], ids=[c[0] for c in CHANGES])
    def test_warm_solve_matches_a_solve_set_up_anew(self, monkeypatch, change, kept):
        scenario = gen_scenario("dynamic-flow", seed=3)
        h = scenario.horizon
        problem = runner.single_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))
        state = solve_single(problem, SingleParams(max_iter=20)).state
        structure, state.structure = state.structure, None
        warm, fresh = copy.deepcopy(state), copy.deepcopy(state)
        warm.structure = structure
        builds = []
        structure_init = _SingleStructure.__init__

        def counting(self, problem):
            builds.append(problem)
            structure_init(self, problem)

        monkeypatch.setattr(_SingleStructure, "__init__", counting)
        other = change(problem)
        params = SingleParams(max_iter=15, extra_sweeps=40)
        got = solve_single(other, params, state=warm)
        assert len(builds) == (0 if kept else 1)
        assert (warm.structure is structure) == kept
        expected = solve_single(other, params, state=fresh)
        assert got.residual_history == expected.residual_history
        assert (got.iterations, got.certified, got.n_factorizations) == (expected.iterations, expected.certified, expected.n_factorizations)
        for name in ("pos", "vel", "acc"):
            np.testing.assert_array_equal(getattr(got.trajectory, name), getattr(expected.trajectory, name))
        np.testing.assert_array_equal(got.raw_sq_distances, expected.raw_sq_distances)
        for name in ("Q", "q", "bs", "centres", "centre_sums", "inverse", "raw_inverse"):
            np.testing.assert_array_equal(getattr(warm.structure, name), getattr(fresh.structure, name))
