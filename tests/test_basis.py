import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from trajopt.basis import (
    AxisBoundary,
    boundary_matrix,
    build_basis,
    sample_trajectory,
    straight_line_coeffs,
)


class TestBuildBasis:
    def test_degree_zero_is_constant(self):
        b = build_basis(0.0, 2.0, 3, 0)
        np.testing.assert_array_equal(b.P, np.ones((3, 1)))
        np.testing.assert_array_equal(b.Pdot, np.zeros((3, 1)))
        np.testing.assert_array_equal(b.Pddot, np.zeros((3, 1)))

    def test_degree_one_hat_values(self):
        # Bernstein degree 1: (1 - tau, tau); slope -1/T and 1/T
        b = build_basis(0.0, 1.0, 2, 1)
        np.testing.assert_allclose(b.P, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(b.Pdot, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_grid_invariants(self):
        b = build_basis(-1.0, 4.0, 37, 4)
        ts = b.grid.timestamps
        assert ts[0] == -1.0 and ts[-1] == 4.0
        assert np.all(np.diff(ts) > 0)
        assert len(ts) == 37

    def test_partition_of_unity(self):
        b = build_basis(0.0, 5.0, 20, 7)
        np.testing.assert_allclose(b.P.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "t0,tf,n_p,degree",
        [
            (1.0, 1.0, 10, 3),
            (2.0, 1.0, 10, 3),
            (0.0, 1.0, 1, 3),
            (0.0, 1.0, 10, -1),
            # tf <= t0 is False for NaN: a NaN basis reached LAPACK
            (0.0, np.nan, 10, 3),
            (0.0, np.inf, 10, 3),
            (np.nan, 1.0, 10, 3),
            (-np.inf, 1.0, 10, 3),
            (0.0, 1.0, 10.0, 3),
            (0.0, 1.0, "10", 3),
        ],
    )
    def test_invalid_inputs(self, t0, tf, n_p, degree):
        with pytest.raises(ValueError):
            build_basis(t0, tf, n_p, degree)

    def test_first_derivative_matches_finite_differences(self):
        # oracle: central differences of P @ c on a fine grid
        b = build_basis(0.0, 10.0, 2001, 5)
        rng = np.random.default_rng(0)
        c = rng.normal(size=6)
        x = b.P @ c
        v = b.Pdot @ c
        h = b.grid.dt
        fd = (x[2:] - x[:-2]) / (2.0 * h)
        assert np.max(np.abs(fd - v[1:-1])) < 1e-4

    def test_second_derivative_matches_finite_differences(self):
        b = build_basis(0.0, 10.0, 2001, 6)
        rng = np.random.default_rng(1)
        c = rng.normal(size=7)
        x = b.P @ c
        a = b.Pddot @ c
        h = b.grid.dt
        fd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h**2
        assert np.max(np.abs(fd - a[1:-1])) < 1e-4

    def test_exact_derivative_per_column(self):
        b = build_basis(0.0, 3.0, 1501, 8)
        h = b.grid.dt
        for j in range(b.n_var):
            col = b.P[:, j]
            fd = (col[2:] - col[:-2]) / (2.0 * h)
            assert np.max(np.abs(fd - b.Pdot[1:-1, j])) < 1e-4


class TestEvalTrajectory:
    """sample_trajectory: grid samples of per-axis coefficients."""

    def test_zero_coefficients(self):
        b = build_basis(0.0, 1.0, 9, 3)
        out = sample_trajectory(b, np.zeros((4, 2)))
        np.testing.assert_array_equal(out.pos, np.zeros((9, 2)))
        np.testing.assert_array_equal(out.vel, np.zeros((9, 2)))
        np.testing.assert_array_equal(out.t, b.grid.timestamps)
        assert out.psi is None

    def test_agrees_with_direct_polynomial_evaluation(self):
        # oracle: convert Bernstein coefficients to the power basis and
        # evaluate with numpy's polynomial module
        from math import comb

        degree, n_p = 6, 41
        b = build_basis(0.0, 2.0, n_p, degree)
        rng = np.random.default_rng(2)
        c = rng.normal(size=degree + 1)
        # B(j,n) = sum_k C(n,j) C(n-j,k) (-1)^k tau^(j+k)
        power = np.zeros(degree + 1)
        for j in range(degree + 1):
            for k in range(degree - j + 1):
                power[j + k] += c[j] * comb(degree, j) * comb(degree - j, k) * (-1.0) ** k
        tau = (b.grid.timestamps - 0.0) / 2.0
        expected = npoly.polyval(tau, power)
        out = sample_trajectory(b, np.column_stack([c, np.zeros(degree + 1)]))
        np.testing.assert_allclose(out.pos[:, 0], expected, atol=1e-12)
        np.testing.assert_array_equal(out.pos[:, 1], 0.0)

    def test_linearity(self):
        b = build_basis(0.0, 1.0, 25, 5)
        rng = np.random.default_rng(3)
        c1, c2 = rng.normal(size=6), rng.normal(size=6)
        a1, a2 = 1.7, -0.3
        combo = sample_trajectory(b, (a1 * c1 + a2 * c2)[:, None])
        e1 = sample_trajectory(b, c1[:, None])
        e2 = sample_trajectory(b, c2[:, None])
        np.testing.assert_allclose(combo.pos, a1 * e1.pos + a2 * e2.pos, atol=1e-12)
        np.testing.assert_allclose(combo.vel, a1 * e1.vel + a2 * e2.vel, atol=1e-12)
        np.testing.assert_allclose(combo.acc, a1 * e1.acc + a2 * e2.acc, atol=1e-12)

    def test_dimension_mismatch(self):
        b = build_basis(0.0, 1.0, 9, 3)
        with pytest.raises(ValueError):
            sample_trajectory(b, np.zeros((5, 2)))


class TestBoundaryHelpers:
    def test_boundary_rows_pin_endpoint_values(self):
        b = build_basis(0.0, 4.0, 30, 6)
        A = boundary_matrix(b)
        rng = np.random.default_rng(4)
        c = rng.normal(size=7)
        vals = A @ c
        np.testing.assert_allclose(
            vals,
            [
                (b.P @ c)[0],
                (b.Pdot @ c)[0],
                (b.Pddot @ c)[0],
                (b.P @ c)[-1],
                (b.Pdot @ c)[-1],
                (b.Pddot @ c)[-1],
            ],
        )

    def test_straight_line_coeffs_reproduce_line(self):
        b = build_basis(0.0, 4.0, 30, 6)
        coeffs = straight_line_coeffs(b, np.array([1.0, -2.0]), np.array([3.0, 5.0]))
        line_x = b.P @ coeffs[0]
        np.testing.assert_allclose(line_x, np.linspace(1.0, 3.0, 30), atol=1e-9)
        line_y = b.P @ coeffs[1]
        np.testing.assert_allclose(line_y, np.linspace(-2.0, 5.0, 30), atol=1e-9)

    def test_axis_boundary_values_order(self):
        bc = AxisBoundary(p0=1.0, v0=2.0, a0=3.0, p1=4.0, v1=5.0, a1=6.0)
        np.testing.assert_array_equal(bc.values(), [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(bc.values(start_orders=(0, 1, 2), end_orders=(0,)), [1, 2, 3, 4])


class TestOwnedBlocks:
    """A basis owns its Gram blocks and boundary rows, read-only and formed
    once; the four solver structures read those arrays, not copies."""

    @pytest.mark.parametrize("t0,tf,n_p,degree", [(0.0, 10.0, 100, 10), (0.0, 5.0, 37, 10), (-1.0, 4.0, 30, 6)])
    def test_gram_blocks_are_read_only_fresh_products(self, t0, tf, n_p, degree):
        b = build_basis(t0, tf, n_p, degree)
        for block, mat in zip(b.gram, (b.P, b.Pdot, b.Pddot)):
            np.testing.assert_array_equal(block, mat.T @ mat)
            assert not block.flags["WRITEABLE"]
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("orders", [((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0,)), ((0,), (0,))])
    def test_boundary_rows_are_formed_once(self, orders):
        b = build_basis(0.0, 10.0, 100, 10)
        rows = b.boundary_rows(*orders)
        np.testing.assert_array_equal(rows, boundary_matrix(b, *orders))
        assert not rows.flags["WRITEABLE"]
        assert b.boundary_rows(*orders) is rows
        assert b.boundary_rows(*(list(o) for o in orders)) is rows
        if orders == ((0, 1, 2), (0, 1, 2)):
            assert b.boundary_rows() is rows

    def test_structures_hold_the_basis_arrays(self, monkeypatch):
        from trajopt import qpcore, solver_batch, solver_multiagent, solver_priest, solver_single
        from trajopt.bench import gen_scenario, runner

        scenario = gen_scenario("dynamic-flow", seed=0)
        h = scenario.horizon
        b = build_basis(h.t0, h.tf, h.n_p, 10)
        PtP, PdtPd, PddtPdd = b.gram

        single = solver_single._SingleStructure(runner.single_problem_from_scenario(scenario, b))
        assert single.PtP is PtP and single.A is b.boundary_rows()
        batch = solver_batch._Structure(runner.batch_problem_from_scenario(scenario, b, n_batch=3))
        assert batch.PtP is PtP and batch.Q_psi_smooth is PddtPdd and batch.A_psi is b.boundary_rows((0,), (0,))

        # priest and multiagent factor at set-up: their equality rows are the basis's own
        factored = []
        factorize = qpcore.factorize

        def recording(Q, A):
            factored.append(A)
            return factorize(Q, A)

        monkeypatch.setattr(qpcore, "factorize", recording)
        setup = runner.priest_setup_from_scenario(scenario, b)
        assert factored[-1] is b.boundary_rows((0, 1, 2), (0,))
        np.testing.assert_array_equal(setup.FtF, (setup.n_o * PtP + PdtPd + PddtPdd) + 2.0 * PtP)
        swarm = gen_scenario("square-antipodal", {"n_agents": 3}, seed=0)
        problem = runner.multiagent_problem_from_scenario(swarm, build_basis(0.0, 10.0, 100, 10))
        structure = solver_multiagent._JointStructure(problem, solver_multiagent.JointParams())
        assert factored[-1] is problem.basis.boundary_rows()
        assert len(factored) == 1 + len(structure.factors)
