import copy
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from trajopt import qpcore, solver_single
from trajopt.basis import AxisBoundary, boundary_matrix, build_basis
from trajopt.bench import gen_scenario, receding_horizon_run
from trajopt.geometry import EllipsoidShape, Obstacles, angles3d, los_scale, unit_pair
from trajopt.solver_single import (
    SingleParams,
    SingleProblem,
    _angle_step,
    _copy_step,
    _cost_blocks,
    _position_step,
    _residual_extremes,
    _row_coefs,
    _SingleStructure,
    am_iteration,
    equality_residuals,
    init_state,
    solve_single,
)


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


class _Reference:
    """The single-solver sweep as first written: the angles themselves kept
    (here, beside the state), recovered from the copies by arctan2 and
    expanded by cos/sin in the sweep start, the copy steps and the
    residuals; the cost blocks, boundary rows and stacked obstacle tracks
    rebuilt in every step, the positions P @ xi.T evaluated four times, and
    the factor taken from the state's cache on those rebuilt matrices.  Its
    state holds one array per angle family, as _per_family makes it from a
    SingleState, and it writes the unit pairs as cos/sin of its angles.
    """

    def __init__(self, problem, state):
        self.problem = problem
        self.alpha = np.arctan2(state.unit_a[1], state.unit_a[0])
        self.beta = None if state.unit_b is None else np.arctan2(state.unit_b[1], state.unit_b[0])

    def tracks(self):
        """The obstacle centres, (n_o, n_p, dim)."""
        return self.problem.obstacles.centres.transpose(1, 2, 0)

    def deltas(self, positions):
        return positions[None, :, :] - self.tracks()

    def semi_axes(self):
        return self.problem.obstacles.a[:, None], self.problem.obstacles.b[:, None]

    def position_step(self, state):
        problem = self.problem
        basis = problem.basis
        Q, q = _cost_blocks(problem)
        A = boundary_matrix(basis)
        bs = np.stack([bc.values() for bc in problem.boundary])
        factor = state.factors.get(Q, basis.P.T @ basis.P, A, state.rho * problem.n_o)
        if problem.n_o:
            a, b = self.semi_axes()
            tracks = self.tracks()
            if problem.dim == 3:
                targets = np.stack([
                    tracks[:, :, 0] + a * state.d * state.cos_a * state.sin_b,
                    tracks[:, :, 1] + a * state.d * state.sin_a * state.sin_b,
                    tracks[:, :, 2] + b * state.d * state.cos_b,
                ])
            else:
                targets = np.stack([tracks[:, :, 0] + a * state.d * state.cos_a, tracks[:, :, 1] + b * state.d * state.sin_a])
            lam_sum = state.lam_pos.sum(axis=1)
            q_lin = q + lam_sum @ basis.P - state.rho * targets.sum(axis=1) @ basis.P
        else:
            q_lin = q
        state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=bs))

    def alpha_copy_step(self, state):
        problem = self.problem
        deltas = self.deltas(problem.basis.P @ state.xi.T)
        a, b = self.semi_axes()
        rho = state.rho
        dx, dy = deltas[:, :, 0], deltas[:, :, 1]
        if problem.dim == 3:
            coef = a * state.d * state.sin_b
            den = rho + rho * coef**2
            state.cos_a = (rho * np.cos(self.alpha) - state.lam_cos_a + coef * (state.lam_pos[0] + rho * dx)) / den
            state.sin_a = (rho * np.sin(self.alpha) - state.lam_sin_a + coef * (state.lam_pos[1] + rho * dy)) / den
        else:
            coef_x, coef_y = a * state.d, b * state.d
            state.cos_a = (rho * np.cos(self.alpha) - state.lam_cos_a + coef_x * (state.lam_pos[0] + rho * dx)) / (
                rho + rho * coef_x**2
            )
            state.sin_a = (rho * np.sin(self.alpha) - state.lam_sin_a + coef_y * (state.lam_pos[1] + rho * dy)) / (
                rho + rho * coef_y**2
            )

    def beta_copy_step(self, state):
        deltas = self.deltas(self.problem.basis.P @ state.xi.T)
        a, b = self.semi_axes()
        rho = state.rho
        dx, dy, dz = deltas[:, :, 0], deltas[:, :, 1], deltas[:, :, 2]
        coef_cb = b * state.d
        state.cos_b = (rho * np.cos(self.beta) - state.lam_cos_b + coef_cb * (state.lam_pos[2] + rho * dz)) / (
            rho + rho * coef_cb**2
        )
        coef_sb = a * state.d
        num = (
            rho * np.sin(self.beta)
            - state.lam_sin_b
            + coef_sb * (state.cos_a * (state.lam_pos[0] + rho * dx) + state.sin_a * (state.lam_pos[1] + rho * dy))
        )
        state.sin_b = num / (rho + rho * coef_sb**2 * (state.cos_a**2 + state.sin_a**2))

    def residuals(self, state):
        problem = self.problem
        deltas = self.deltas(problem.basis.P @ state.xi.T)
        a, b = self.semi_axes()
        res = {}
        if problem.dim == 3:
            res["coll_x"] = deltas[:, :, 0] - a * state.d * state.cos_a * state.sin_b
            res["coll_y"] = deltas[:, :, 1] - a * state.d * state.sin_a * state.sin_b
            res["coll_z"] = deltas[:, :, 2] - b * state.d * state.cos_b
            res["copy_cos_b"] = state.cos_b - np.cos(self.beta)
            res["copy_sin_b"] = state.sin_b - np.sin(self.beta)
        else:
            res["coll_x"] = deltas[:, :, 0] - a * state.d * state.cos_a
            res["coll_y"] = deltas[:, :, 1] - b * state.d * state.sin_a
        res["copy_cos_a"] = state.cos_a - np.cos(self.alpha)
        res["copy_sin_a"] = state.sin_a - np.sin(self.alpha)
        return res

    def sweep(self, state):
        """One parent sweep on a problem with obstacles; mutates the state."""
        problem = self.problem
        state.cos_a, state.sin_a = np.cos(self.alpha), np.sin(self.alpha)
        if problem.dim == 3:
            state.cos_b, state.sin_b = np.cos(self.beta), np.sin(self.beta)
        self.position_step(state)
        self.alpha_copy_step(state)
        self.alpha = np.arctan2(state.sin_a, state.cos_a)
        state.unit_a = np.stack([np.cos(self.alpha), np.sin(self.alpha)])
        if problem.dim == 3:
            self.beta_copy_step(state)
            self.beta = np.arctan2(state.sin_b, state.cos_b)
            state.unit_b = np.stack([np.cos(self.beta), np.sin(self.beta)])
        deltas = self.deltas(problem.basis.P @ state.xi.T)
        state.d = los_scale(np.moveaxis(deltas, -1, 0), *self.semi_axes())
        res = state.residuals = self.residuals(state)
        for k, name in enumerate(("coll_x", "coll_y", "coll_z")[: problem.dim]):
            state.lam_pos[k] += state.rho * res[name]
        state.lam_cos_a += state.rho * res["copy_cos_a"]
        state.lam_sin_a += state.rho * res["copy_sin_a"]
        if problem.dim == 3:
            state.lam_cos_b += state.rho * res["copy_cos_b"]
            state.lam_sin_b += state.rho * res["copy_sin_b"]
        state.iteration += 1


_FAMILIES = ("cos_a", "sin_a", "cos_b", "sin_b")


def _family_residuals(block, dim):
    """A residual block as the per-family report: coll_x, coll_y[, coll_z],
    then copy_cos_b, copy_sin_b (3-D), copy_cos_a, copy_sin_a; {} without obstacles."""
    beta = ["copy_cos_b", "copy_sin_b"] if dim == 3 else []
    names = ["coll_x", "coll_y", "coll_z"][:dim] + beta + ["copy_cos_a", "copy_sin_a"]
    return {name: row.copy() for name, row in zip(names, block)} if block.shape[1] else {}


def _per_family(state):
    """A copy of a SingleState with one array per angle family: unit_a,
    unit_b, cos_a ... sin_b and lam_cos_a ... lam_sin_b, the beta ones None
    in 2-D, and the residuals as a per-family dict."""
    dim, k = state.xi.shape[0], len(state.unit)
    fam = SimpleNamespace(
        xi=state.xi.copy(),
        d=state.d.copy(),
        lam_pos=state.lam_pos.copy(),
        rho=state.rho,
        iteration=state.iteration,
        factors=copy.deepcopy(state.factors),
        residuals=_family_residuals(state.residuals, dim),
        unit_a=state.unit[:2].copy(),
        unit_b=state.unit[2:].copy() if k == 4 else None,
    )
    for i, name in enumerate(_FAMILIES):
        setattr(fam, name, state.copies[i].copy() if i < k else None)
        setattr(fam, f"lam_{name}", state.lam_copies[i].copy() if i < k else None)
    return fam


class _PerFamilySweep:
    """The stacked sweep as written one angle family and axis at a time.

    It sweeps a per-family state (see _per_family): the copies restart at
    the unit pairs, the alpha copy step loops over its two rows, the beta
    copy step is written out, each angle takes its own unit_pair pass and
    the residuals are reported per family, in the order the residual norm
    concatenates them.  Each entry's arithmetic is the stacked sweep's, so
    the two must agree bit for bit.
    """

    def __init__(self, problem):
        self.struct = struct = _SingleStructure(problem)
        self.lateral = (struct.a, struct.a if problem.dim == 3 else struct.b)

    def planar(self, state):
        return state.d if state.sin_b is None else state.d * state.sin_b

    def reconstruction(self, state):
        (ax, ay), planar = self.lateral, self.planar(state)
        rows = [ax * planar * state.cos_a, ay * planar * state.sin_a]
        if self.struct.dim == 3:
            rows.append(self.struct.b * state.d * state.cos_b)
        return np.array(rows)

    def residuals(self, state, offsets):
        res = dict(zip(("coll_x", "coll_y", "coll_z"), offsets - self.reconstruction(state)))
        if self.struct.dim == 3:
            res["copy_cos_b"] = state.cos_b - state.unit_b[0]
            res["copy_sin_b"] = state.sin_b - state.unit_b[1]
        res["copy_cos_a"] = state.cos_a - state.unit_a[0]
        res["copy_sin_a"] = state.sin_a - state.unit_a[1]
        return res

    def sweep(self, state):
        struct, rho = self.struct, state.rho
        factor = state.factors.get(struct.Q, struct.PtP, struct.A, rho * struct.n_o)
        q_lin = struct.q
        if struct.n_o:
            state.cos_a, state.sin_a = state.unit_a
            if struct.dim == 3:
                state.cos_b, state.sin_b = state.unit_b
            targets = struct.centres + self.reconstruction(state)
            q_lin = struct.q + state.lam_pos.sum(axis=1) @ struct.P - rho * targets.sum(axis=1) @ struct.P
        state.xi, _ = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=q_lin, bs=struct.bs))
        state.residuals = {}
        state.iteration += 1
        if not struct.n_o:
            return
        offsets = struct.offsets(state.xi)
        planar, copies = self.planar(state), []
        lams = (state.lam_cos_a, state.lam_sin_a)
        for semi, unit, lam, lam_pos, delta in zip(self.lateral, state.unit_a, lams, state.lam_pos, offsets):
            coef = semi * planar
            copies.append((rho * unit - lam + coef * (lam_pos + rho * delta)) / (rho + rho * coef**2))
        state.cos_a, state.sin_a = copies
        if struct.dim == 3:
            dx, dy, dz = offsets
            coef_cb = struct.b * state.d
            num = rho * state.unit_b[0] - state.lam_cos_b + coef_cb * (state.lam_pos[2] + rho * dz)
            state.cos_b = num / (rho + rho * coef_cb**2)
            coef_sb = struct.a * state.d
            pulled = state.cos_a * (state.lam_pos[0] + rho * dx) + state.sin_a * (state.lam_pos[1] + rho * dy)
            num = rho * state.unit_b[1] - state.lam_sin_b + coef_sb * pulled
            state.sin_b = num / (rho + rho * coef_sb**2 * (state.cos_a**2 + state.sin_a**2))
            state.unit_b = unit_pair(state.cos_b, state.sin_b)
        state.unit_a = unit_pair(state.cos_a, state.sin_a)
        state.d = los_scale(offsets, struct.a, struct.b)
        res = state.residuals = self.residuals(state, offsets)
        for k, name in enumerate(("coll_x", "coll_y", "coll_z")[: struct.dim]):
            state.lam_pos[k] += rho * res[name]
        for name in _FAMILIES[: 2 * struct.dim - 2]:
            lam = getattr(state, f"lam_{name}")
            lam += rho * res[f"copy_{name}"]


def _concatenated_extremes(res):
    """Norm and max of the per-family residuals, concatenated in report order."""
    if not res:
        return 0.0, 0.0
    stacked = np.concatenate([r.ravel() for r in res.values()])
    return float(np.linalg.norm(stacked)), float(np.max(np.abs(stacked)))


def augmented_lagrangian(state, problem):
    """Objective plus multiplier and quadratic penalty terms (fixed multipliers).

    The minimization blocks must not increase it.  The d and multiplier
    steps are excluded from that property: d follows the analytic
    line-of-sight rule and the multiplier step is dual ascent.
    """
    basis = problem.basis
    acc = basis.Pddot @ state.xi.T
    pos = basis.P @ state.xi.T
    value = problem.w_smooth * float(np.sum(acc**2)) + problem.w_track * float(np.sum((pos - problem.desired) ** 2))
    if not problem.n_o:
        return value
    coll = equality_residuals(state, problem)[: problem.dim]
    value += float(np.sum(state.lam_pos * coll)) + 0.5 * state.rho * float(np.sum(coll**2))
    copy_res = state.copies - state.unit
    return value + 0.5 * state.rho * float(np.sum((copy_res + state.lam_copies / state.rho) ** 2))


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
        assert np.all(state.lam_pos == 0.0)
        assert np.all(state.lam_copies == 0.0)
        assert np.all(state.d == 1.0)

    def test_zero_obstacles_gives_empty_polar_arrays(self):
        prob = make_problem_2d()
        state = init_state(prob)
        assert state.d.shape == (0, 60)
        assert state.unit.shape == state.copies.shape == (2, 0, 60)
        assert state.residuals.shape == (4, 0, 60)

    def test_same_seed_identical_states(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        s1, s2 = init_state(prob), init_state(prob)
        np.testing.assert_array_equal(s1.xi, s2.xi)
        np.testing.assert_array_equal(s1.unit, s2.unit)
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
        state.unit = np.stack([np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)])[:, None, :]
        state.copies = state.unit.copy()
        state.d = los_scale(np.moveaxis(deltas, -1, 0), obstacle.shape.a, obstacle.shape.b)

        assert np.max(np.abs(equality_residuals(state, prob))) < 1e-9
        am_iteration(state, prob)
        assert np.max(np.abs(equality_residuals(state, prob))) < 1e-8

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
        struct = _SingleStructure(prob)
        for sweep in range(12):
            state.copies[:] = state.unit  # the copies' anchor, where the sweep reads the polar rows
            coefs = _row_coefs(struct, state.d, state.unit)
            before = augmented_lagrangian(state, prob)
            _position_step(state, struct, coefs)
            after_pos = augmented_lagrangian(state, prob)
            assert after_pos <= before + 1e-9 * max(1.0, abs(before))
            _copy_step(state, struct, struct.offsets(state.xi), coefs)  # the alpha pair only in 2-D
            after_copies = augmented_lagrangian(state, prob)
            assert after_copies <= after_pos + 1e-9 * max(1.0, abs(after_pos))
            am_iteration(state, prob)  # finish the sweep (angles, d, multipliers)

    def test_beta_copy_block_is_descent_in_3d(self):
        obstacle = _static_obstacle([3.0, 0.4, 1.1], EllipsoidShape(0.8, 0.6), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        am_iteration(state, prob)
        struct = _SingleStructure(prob)
        for sweep in range(10):
            coefs = _row_coefs(struct, state.d, state.unit)
            _position_step(state, struct, coefs)
            _copy_step(state, struct, struct.offsets(state.xi), coefs)
            # the beta copies, taken at the new alpha copies, against the
            # beta pair left at its anchor, with the alpha unit pair moved on
            beta = state.copies[2:].copy()
            state.copies[2:] = state.unit[2:]
            state.unit[:2] = state.copies[:2] / np.hypot(*state.copies[:2])
            before_beta = augmented_lagrangian(state, prob)
            state.copies[2:] = beta
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
        # (the initial copies are the unit pairs the sweep restarts them at)
        state2 = init_state(prob)
        struct = _SingleStructure(prob)
        targets = struct.centres + _row_coefs(struct, state2.d, state2.unit) * state2.unit[:3]
        A = boundary_matrix(prob.basis)
        D = Q + state2.rho * prob.n_o * (prob.basis.P.T @ prob.basis.P)
        factor = qpcore.factorize(D, A)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            xi_seq = np.empty_like(batch_xi)
            for k in order:
                q_lin = q[k] + state2.lam_pos[k].sum(axis=0) @ prob.basis.P - state2.rho * targets[k].sum(axis=0) @ prob.basis.P
                xi_seq[k], _ = qpcore.solve(factor, q_lin, prob.boundary[k].values())
            np.testing.assert_allclose(xi_seq, batch_xi, atol=1e-12)


class TestResidualReport:
    """equality_residuals, the report of every relaxed equality family."""

    def test_exact_state_reports_zero(self):
        prob = make_problem_2d()
        state = init_state(prob)
        assert equality_residuals(state, prob).shape == (4, 0, 60)
        assert _residual_extremes(equality_residuals(state, prob)) == (0.0, 0.0)

    def test_matches_brute_force_formula(self):
        obstacle = _static_obstacle([4.0, 0.3], EllipsoidShape(0.6, 0.9), 60)
        prob = make_problem_2d(obstacles=[obstacle])
        state = init_state(prob)
        rng = np.random.default_rng(5)
        state.xi = rng.normal(size=state.xi.shape)
        state.d = 1.0 + rng.uniform(size=state.d.shape)
        alpha = rng.uniform(-np.pi, np.pi, size=state.d.shape)
        state.unit = np.stack([np.cos(alpha), np.sin(alpha)])
        state.copies = rng.normal(size=state.unit.shape)
        cos_a, sin_a = state.copies[:, 0]

        coll_x, coll_y, copy_cos_a, copy_sin_a = equality_residuals(state, prob)[:, 0]
        pos = prob.basis.P @ state.xi.T
        dx = pos[:, 0] - obstacle.centers[:, 0]
        dy = pos[:, 1] - obstacle.centers[:, 1]
        np.testing.assert_allclose(coll_x, dx - 0.6 * state.d[0] * cos_a, atol=1e-12)
        np.testing.assert_allclose(coll_y, dy - 0.9 * state.d[0] * sin_a, atol=1e-12)
        np.testing.assert_allclose(copy_cos_a, cos_a - np.cos(alpha[0]), atol=1e-12)
        np.testing.assert_allclose(copy_sin_a, sin_a - np.sin(alpha[0]), atol=1e-12)

    def test_3d_rows_put_the_beta_pair_first(self):
        # polar rows x, y, z, then the beta copy pair before the alpha pair
        obstacle = _static_obstacle([3.0, 0.4, 1.1], EllipsoidShape(0.6, 0.9), 50)
        prob = make_problem_3d(obstacles=[obstacle])
        state = init_state(prob)
        rng = np.random.default_rng(6)
        state.d = 1.0 + rng.uniform(size=state.d.shape)
        state.copies = rng.normal(size=state.copies.shape)
        cos_a, sin_a, cos_b, sin_b = state.copies
        res = equality_residuals(state, prob)
        deltas = np.moveaxis(prob.basis.P @ state.xi.T - obstacle.centers, -1, 0)[:, None, :]
        polar = [0.6 * state.d * sin_b * cos_a, 0.6 * state.d * sin_b * sin_a, 0.9 * state.d * cos_b]
        np.testing.assert_allclose(res[:3], deltas - np.array(polar), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(res[3:5], state.copies[2:] - state.unit[2:])
        np.testing.assert_array_equal(res[5:], state.copies[:2] - state.unit[:2])


FAMILY_FIELDS = (
    "xi", "d", "unit_a", "unit_b", "cos_a", "sin_a", "cos_b", "sin_b",
    "lam_pos", "lam_cos_a", "lam_sin_a", "lam_cos_b", "lam_sin_b",
)


def _assert_states_match(got, ref, exact=False):
    """A SingleState against a per-family state, to 1e-12 or bit for bit."""
    fam = _per_family(got)

    def check(g, r, name):
        if exact:
            assert np.array_equal(g, r), name
        else:
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)

    for name in FAMILY_FIELDS:
        g, r = getattr(fam, name), getattr(ref, name)
        if r is None:
            assert g is None, name
        else:
            check(g, r, name)
    assert fam.residuals.keys() == ref.residuals.keys()
    for name, r in ref.residuals.items():
        check(fam.residuals[name], r, name)


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
    """Every sweep matches the parent formulation of _Reference."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cold_sweeps_match(self, dim):
        prob = _mixed_problem(dim)
        state = init_state(prob)
        ref_state = _per_family(state)
        ref = _Reference(prob, ref_state)
        for sweep in range(30):
            if sweep in (10, 20):  # a penalty step makes both refactor
                for s in (state, ref_state):
                    s.rho = 1.4 * s.rho
            am_iteration(state, prob)
            ref.sweep(ref_state)
            _assert_states_match(state, ref_state)
        assert state.factors.count == ref_state.factors.count == 3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_warm_state_on_moved_obstacles_matches(self, dim):
        # the receding-horizon case: same saddle, obstacles and boundary moved
        state = solve_single(_mixed_problem(dim), SingleParams(max_iter=40)).state
        prob = _mixed_problem(dim, shift=0.3)
        ref_state = _per_family(state)
        ref = _Reference(prob, ref_state)
        struct = solver_single._SingleStructure(prob)
        for _ in range(15):
            am_iteration(state, prob, struct)
            ref.sweep(ref_state)
            _assert_states_match(state, ref_state)
        assert state.factors.count == ref_state.factors.count

    def test_solve_matches_reference_sweeps(self):
        # a cold solve is the reference sweep under the same schedule
        prob = _mixed_problem(3)
        sol = solve_single(prob, SingleParams(max_iter=60, tol=0.0))
        ref_state = _per_family(init_state(prob))
        ref = _Reference(prob, ref_state)
        for h in sol.residual_history:
            ref_state.rho = h["rho"]
            ref.sweep(ref_state)
        _assert_states_match(sol.state, ref_state)
        assert sol.n_factorizations == ref_state.factors.count


def _centred_problem(dim):
    """One obstacle moving along the straight line the initial state starts
    on, so that every first offset is zero: the angles take their origin
    convention and d its lower clamp."""
    base = make_problem_2d(n_p=50) if dim == 2 else make_problem_3d()
    path = base.basis.P @ init_state(base).xi.T
    obstacle = Track(centers=path, shape=EllipsoidShape(0.8, 0.6))
    return SingleProblem(**{**vars(base), "obstacles": _stack([obstacle])})


class TestMatchesPerFamilySweep:
    """Every stacked sweep is _PerFamilySweep's, bit for bit: the whole
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
            _assert_states_match(state, fam, exact=True)
            assert _residual_extremes(state.residuals) == _concatenated_extremes(fam.residuals)
        assert (state.iteration, state.factors.count) == (fam.iteration, fam.factors.count)


class TestOnePassPerSweep:
    def test_one_structure_trig_offsets_and_residual_per_sweep(self, monkeypatch):
        # one structure per solve, one offset evaluation, residual pass and
        # unit_pair projection (over every angle's pair at once) per sweep
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        structure = solver_single._SingleStructure
        monkeypatch.setattr(structure, "__init__", counted("structure", structure.__init__))
        monkeypatch.setattr(structure, "offsets", counted("offsets", structure.offsets))
        monkeypatch.setattr(solver_single, "equality_residuals", counted("residuals", solver_single.equality_residuals))
        monkeypatch.setattr(solver_single, "unit_pair", counted("unit_pair", solver_single.unit_pair))
        for name in ("arctan2", "cos", "sin"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        sol = solve_single(_mixed_problem(3), SingleParams(max_iter=12, tol=0.0))
        assert sol.iterations == 12
        # the initial state's straight line takes one more offset evaluation,
        # and its angles (alpha through angle2d, beta) the only arctan2, cos
        # and sin: the sweeps project the copy pairs onto the unit circle
        assert counts == {
            "structure": 1, "offsets": 13, "residuals": 12, "unit_pair": 12, "arctan2": 2, "cos": 2, "sin": 2
        }


class TestAngleStep:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_copy_pair_at_origin_projects_to_unit_x(self, dim):
        # (cos, sin) of arctan2(0, 0) = 0; elsewhere the pair is scaled to unit length
        obstacles = [_static_obstacle([3.0, 0.4, 1.1][:dim], EllipsoidShape(0.8, 0.6), 50)]
        prob = make_problem_2d(n_p=50, obstacles=obstacles) if dim == 2 else make_problem_3d(obstacles=obstacles)
        state = init_state(prob)
        pair = np.zeros((2, 1, 50))
        pair[:, 0, 1:] = np.random.default_rng(dim).normal(size=(2, 49))
        # the beta copy pair, in 3-D, is the alpha pair swapped
        pairs = [pair, pair[::-1]][: dim - 1]
        state.copies = np.concatenate(pairs)
        _angle_step(state)
        assert state.unit.shape == state.copies.shape
        for unit, (c, s) in zip(solver_single._pairs(state.unit), pairs):
            angle = np.arctan2(s, c)
            np.testing.assert_array_equal(unit[:, 0, 0], [1.0, 0.0])
            np.testing.assert_allclose(unit, np.stack([np.cos(angle), np.sin(angle)]), rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("name", ["d", "unit", "copies", "lam_pos", "lam_copies", "residuals"])
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

    # a stack of the wrong height: a beta pair on a planar problem, or none on a spatial one
    def test_beta_set_on_planar_problem_rejected(self):
        prob = make_problem_2d(obstacles=[_static_obstacle([4.0, 0.5], EllipsoidShape(0.5, 0.5), 60)])
        state = self._solved_state(prob)
        state.unit = np.concatenate([state.unit, state.unit])
        self._assert_rejected_untouched(prob, state, r"warm state unit has shape \(4, 1, 60\), expected \(2, 1, 60\)")

    def test_beta_unset_on_spatial_problem_rejected(self):
        prob = make_problem_3d(obstacles=[_static_obstacle([3.0, 0.4, 1.0], EllipsoidShape(0.5, 0.5), 50)])
        state = self._solved_state(prob)
        state.copies = state.copies[:2]
        self._assert_rejected_untouched(prob, state, r"warm state copies has shape \(2, 1, 50\), expected \(4, 1, 50\)")

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
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_rejected(self, change):
        with pytest.raises(ValueError):
            SingleParams(**change)

    def test_defaults_and_boundary_values_accepted(self):
        SingleParams()
        SingleParams(rho_start=2.0, rho_cap=2.0, rho_growth=1.0, max_iter=0, stall_window=1, tol=0.0)
