import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import qpcore
from trajopt.qpcore import BatchRHS, FactorizationError, factorization_count, factorize, solve, solve_batch


def _random_instance(rng, n_v, n_eq):
    M = rng.normal(size=(n_v, n_v))
    Q = M @ M.T + np.eye(n_v)  # PD
    A = rng.normal(size=(n_eq, n_v))
    q = rng.normal(size=n_v)
    b = rng.normal(size=n_eq)
    return Q, q, A, b


def _dense_oracle(Q, q, A, b):
    n_v, n_eq = Q.shape[0], A.shape[0]
    K = np.block([[Q, A.T], [A, np.zeros((n_eq, n_eq))]])
    sol = np.linalg.solve(K, np.concatenate([-q, b]))
    return sol[:n_v], sol[n_v:]


class TestFactorize:
    def test_one_variable_accepted(self):
        f = factorize(np.eye(1), np.array([[1.0]]))
        assert f.n_v == 1 and f.n_eq == 1

    def test_duplicate_rows_rejected(self):
        with pytest.raises(FactorizationError, match="rank"):
            factorize(np.eye(1) * 0.0 + np.eye(1), np.array([[1.0], [1.0]]))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            factorize(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 0.0]]))

    def test_more_rows_than_variables_rejected(self):
        with pytest.raises(FactorizationError):
            factorize(np.eye(1), np.array([[1.0], [2.0]]))

    def test_singular_saddle_rejected(self):
        # Q singular on the null space of A
        Q = np.diag([1.0, 0.0])
        A = np.array([[1.0, 0.0]])
        with pytest.raises(FactorizationError, match="cond"):
            factorize(Q, A)

    def test_random_pd_instance_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        Q, q, A, b = _random_instance(rng, 8, 3)
        f = factorize(Q, A)
        xi, nu = solve(f, q, b)
        xe, ne = _dense_oracle(Q, q, A, b)
        np.testing.assert_allclose(xi, xe, atol=1e-10)
        np.testing.assert_allclose(nu, ne, atol=1e-10)


def _saddle(Q, A):
    n_eq = A.shape[0]
    return np.block([[Q, A.T], [A, np.zeros((n_eq, n_eq))]])


class TestConditionEstimate:
    """The guard's condition number, from the eigenvalues of the symmetric
    saddle, is the 2-norm one that np.linalg.cond takes from an SVD."""

    @pytest.mark.parametrize("n_v,n_eq", [(8, 3), (30, 6), (130, 6)])
    def test_random_saddle(self, n_v, n_eq):
        Q, _, A, _ = _random_instance(np.random.default_rng(n_v), n_v, n_eq)
        f = factorize(Q, A)
        assert f.cond_estimate == pytest.approx(np.linalg.cond(_saddle(Q, A)), rel=1e-6)

    @pytest.mark.parametrize("n_v", [8, 30, 130])
    def test_nearly_singular_saddle(self, n_v):
        rng = np.random.default_rng(n_v)
        U, _ = np.linalg.qr(rng.normal(size=(n_v, n_v)))
        Q = U @ np.diag(np.logspace(0.0, -9.0, n_v)) @ U.T
        Q = 0.5 * (Q + Q.T)
        A = rng.normal(size=(2, n_v))
        f = factorize(Q, A)
        assert f.cond_estimate > 1e7
        assert f.cond_estimate == pytest.approx(np.linalg.cond(_saddle(Q, A)), rel=1e-6)

    def test_multiagent_saddles(self):
        # square-antipodal, 4 agents: every level of the rho schedule, up to 1.6e11
        from trajopt.basis import build_basis
        from trajopt.bench import gen_scenario, runner
        from trajopt.solver_multiagent import JointParams, _JointStructure

        scenario = gen_scenario("square-antipodal", {"n_agents": 4}, seed=0)
        h = scenario.horizon
        problem = runner.multiagent_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))
        struct = _JointStructure(problem, JointParams())
        AtA = np.kron(struct.E.T @ struct.E, problem.basis.P.T @ problem.basis.P)
        for rho, factor in zip(struct.rho_levels, struct.factors):
            expected = np.linalg.cond(_saddle(struct.Q + rho * AtA, struct.A_eq))
            assert factor.cond_estimate == pytest.approx(expected, rel=1e-6), rho
        assert struct.factors[-1].cond_estimate > 1e11


class TestSolve:
    def test_one_variable_by_hand(self):
        f = factorize(np.eye(1), np.array([[1.0]]))
        xi, nu = solve(f, np.zeros(1), np.array([5.0]))
        np.testing.assert_allclose(xi, [5.0])
        np.testing.assert_allclose(nu, [-5.0])

    def test_two_variable_symmetry(self):
        f = factorize(np.eye(2), np.array([[1.0, 1.0]]))
        xi, nu = solve(f, np.zeros(2), np.array([2.0]))
        np.testing.assert_allclose(xi, [1.0, 1.0])
        np.testing.assert_allclose(nu, [-1.0])

    def test_random_instance_matches_dense(self):
        rng = np.random.default_rng(1)
        Q, q, A, b = _random_instance(rng, 12, 4)
        f = factorize(Q, A)
        xi, nu = solve(f, q, b)
        xe, _ = _dense_oracle(Q, q, A, b)
        np.testing.assert_allclose(xi, xe, atol=1e-10)

    def test_dimension_mismatch(self):
        f = factorize(np.eye(2), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            solve(f, np.zeros(3), np.zeros(1))
        with pytest.raises(ValueError):
            solve(f, np.zeros(2), np.zeros(2))

    def test_cache_reuse_no_refactorization(self):
        rng = np.random.default_rng(2)
        Q, q, A, b = _random_instance(rng, 6, 2)
        f = factorize(Q, A)
        before = factorization_count()
        for _ in range(5):
            solve(f, rng.normal(size=6), rng.normal(size=2))
        assert factorization_count() == before

    @settings(max_examples=60, deadline=None)
    @given(n_v=st.integers(2, 12), n_eq=st.integers(1, 5), seed=st.integers(0, 10_000))
    def test_kkt_residual_bound_property(self, n_v, n_eq, seed):
        n_eq = min(n_eq, n_v - 1)
        rng = np.random.default_rng(seed)
        Q, q, A, b = _random_instance(rng, n_v, n_eq)
        f = factorize(Q, A)
        xi, nu = solve(f, q, b)
        assert np.linalg.norm(Q @ xi + A.T @ nu + q) <= 1e-8 * (1.0 + np.linalg.norm(q))
        assert np.linalg.norm(A @ xi - b) <= 1e-8 * (1.0 + np.linalg.norm(b))


class TestSolveBatch:
    def test_identical_rhs_identical_solutions(self):
        rng = np.random.default_rng(3)
        Q, q, A, b = _random_instance(rng, 5, 2)
        f = factorize(Q, A)
        rhs = BatchRHS(qs=np.tile(q, (7, 1)), bs=np.tile(b, (7, 1)))
        xis, nus = solve_batch(f, rhs)
        for i in range(1, 7):
            np.testing.assert_array_equal(xis[i], xis[0])
            np.testing.assert_array_equal(nus[i], nus[0])

    def test_single_column_equals_solve(self):
        rng = np.random.default_rng(4)
        Q, q, A, b = _random_instance(rng, 6, 2)
        f = factorize(Q, A)
        xis, nus = solve_batch(f, BatchRHS(qs=q[None, :], bs=b[None, :]))
        xi, nu = solve(f, q, b)
        np.testing.assert_allclose(xis[0], xi, atol=1e-14)
        np.testing.assert_allclose(nus[0], nu, atol=1e-14)

    def test_200_random_rhs_match_sequential_loop(self):
        rng = np.random.default_rng(5)
        Q, _, A, _ = _random_instance(rng, 10, 3)
        f = factorize(Q, A)
        qs = rng.normal(size=(200, 10))
        bs = rng.normal(size=(200, 3))
        xis, nus = solve_batch(f, BatchRHS(qs=qs, bs=bs))
        for i in range(200):
            xi, nu = solve(f, qs[i], bs[i])
            assert np.max(np.abs(xis[i] - xi)) <= 1e-10
            assert np.max(np.abs(nus[i] - nu)) <= 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchRHS(qs=np.zeros((0, 3)), bs=np.zeros((0, 1)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        Q, q, A, b = _random_instance(rng, 5, 2)
        f = factorize(Q, A)
        with pytest.raises(ValueError):
            solve_batch(f, BatchRHS(qs=np.zeros((3, 4)), bs=np.zeros((3, 2))))
