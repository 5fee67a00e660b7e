import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import qpcore
from trajopt.qpcore import (
    BatchRHS,
    FactorCache,
    FactorizationError,
    Pencil,
    apply_primal,
    boundary_part,
    factorization_count,
    factorize,
    solve,
    solve_batch,
)


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

    @pytest.mark.parametrize(
        "Q,A,match",
        [
            (np.zeros((2, 3)), np.zeros((1, 3)), "square"),
            (np.zeros((2, 3, 2)), np.zeros((1, 2)), "square"),
            (np.zeros(3), np.zeros((1, 3)), "square"),
            (np.eye(3), np.zeros((1, 2)), "A has 2 columns, expected 3"),
            (np.stack([np.eye(3)] * 2), np.zeros((1, 4)), "A has 4 columns, expected 3"),
        ],
        ids=["non-square", "stack-non-square", "vector", "A-width", "stack-A-width"],
    )
    def test_malformed_shapes_rejected(self, Q, A, match):
        with pytest.raises(ValueError, match=match):
            factorize(Q, A)

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


def _reduced(Q, A):
    """N'QN for an orthonormal basis N of null(A), the matrix factorize factors."""
    N = scipy.linalg.null_space(A)
    return N.T @ Q @ N


class TestConditionEstimate:
    """The guard's condition number, from the eigenvalues of the symmetric
    reduced Hessian N'QN, is the 2-norm one that np.linalg.cond takes from
    an SVD; it does not depend on which orthonormal basis of null(A) is used."""

    @pytest.mark.parametrize("n_v,n_eq", [(8, 3), (30, 6), (130, 6)])
    def test_random_saddle(self, n_v, n_eq):
        Q, _, A, _ = _random_instance(np.random.default_rng(n_v), n_v, n_eq)
        f = factorize(Q, A)
        assert f.cond_estimate == pytest.approx(np.linalg.cond(_reduced(Q, A)), rel=1e-6)

    @pytest.mark.parametrize("n_v", [8, 30, 130])
    def test_nearly_singular_saddle(self, n_v):
        rng = np.random.default_rng(n_v)
        U, _ = np.linalg.qr(rng.normal(size=(n_v, n_v)))
        Q = U @ np.diag(np.logspace(0.0, -9.0, n_v)) @ U.T
        Q = 0.5 * (Q + Q.T)
        A = rng.normal(size=(2, n_v))
        f = factorize(Q, A)
        assert f.cond_estimate > 1e7
        assert f.cond_estimate == pytest.approx(np.linalg.cond(_reduced(Q, A)), rel=1e-6)

    def test_multiagent_saddles(self):
        # square-antipodal, 4 agents: every level of the rho schedule and
        # every mode of E'E, Q_axis + rho * lam_k * P'P on the boundary rows;
        # the full saddle reached 1.6e11 at the top level, its reduced blocks
        # stay below 1e4
        from trajopt.basis import boundary_matrix, build_basis
        from trajopt.bench import gen_scenario, runner
        from trajopt.solver_multiagent import JointParams, _JointStructure

        scenario = gen_scenario("square-antipodal", {"n_agents": 4}, seed=0)
        h = scenario.horizon
        basis = build_basis(h.t0, h.tf, h.n_p, 10)
        struct = _JointStructure(runner.multiagent_problem_from_scenario(scenario, basis), JointParams())
        lam = np.linalg.eigvalsh(struct.E.T @ struct.E)
        B = boundary_matrix(basis)
        for rho, factor in zip(struct.rho_levels, struct.factors):
            assert factor.cond_estimate.shape == (struct.n_a,)
            for k in range(struct.n_a):
                block = basis.Pddot.T @ basis.Pddot + rho * lam[k] * basis.P.T @ basis.P
                expected = np.linalg.cond(_reduced(block, B))
                assert factor.cond_estimate[k] == pytest.approx(expected, rel=1e-6), (rho, k)
        assert 1e3 < np.max(struct.factors[-1].cond_estimate) < 1e4


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

    @pytest.mark.parametrize(
        "qs,bs,match",
        [
            (np.zeros(3), np.zeros(1), "2-D arrays"),
            (np.zeros((2, 3)), np.zeros((2, 2, 1)), "2-D arrays"),
            (np.zeros((2, 3)), np.zeros((3, 1)), "same batch size"),
            (np.zeros((2, 4, 3)), np.zeros((3, 4, 1)), "same batch size"),
        ],
        ids=["1-D", "ndim-mismatch", "batch-mismatch", "stack-mismatch"],
    )
    def test_malformed_right_hand_sides_rejected(self, qs, bs, match):
        with pytest.raises(ValueError, match=match):
            BatchRHS(qs=qs, bs=bs)

    def test_dimension_mismatch(self):
        f = factorize(np.eye(5), np.eye(2, 5))
        for qs, bs in ((np.zeros((3, 4)), np.zeros((3, 2))), (np.zeros((3, 5)), np.zeros((3, 1))),
                       (np.zeros((2, 3, 5)), np.zeros((2, 3, 2)))):
            with pytest.raises(ValueError):
                solve_batch(f, BatchRHS(qs=qs, bs=bs))


class TestSolvePrimal:
    """The primal-only solve, boundary_part then apply_primal, on one BatchRHS."""

    @pytest.mark.parametrize("blocks", [(), (3,)])
    def test_equals_solve_batch_xis_bit_for_bit(self, blocks):
        # the solvers' apply drops the duals and nothing else
        rng = np.random.default_rng(11)
        Q = _graded_hessians(rng, 3, 10, 3.0)
        A = rng.normal(size=(4, 10))
        f = factorize(Q if blocks else Q[0], A)
        rhs = BatchRHS(qs=rng.normal(size=(*blocks, 6, 10)), bs=rng.normal(size=(*blocks, 6, 4)))
        xis = apply_primal(f, rhs.qs, boundary_part(f, rhs.bs))
        assert xis.shape == (*blocks, 6, 10)
        np.testing.assert_array_equal(xis, solve_batch(f, rhs)[0])
        np.testing.assert_array_equal(xis, rhs.qs @ f.q_map + rhs.bs @ f.b_map)

    def test_dimension_mismatch(self):
        f = factorize(np.eye(5), np.eye(2, 5))
        for qs, bs in ((np.zeros((3, 4)), np.zeros((3, 2))), (np.zeros((3, 5)), np.zeros((3, 1))),
                       (np.zeros((2, 3, 5)), np.zeros((2, 3, 2)))):
            rhs = BatchRHS(qs=qs, bs=bs)
            with pytest.raises(ValueError):
                apply_primal(f, rhs.qs, boundary_part(f, rhs.bs))


class TestApplyPrimal:
    """apply_primal with a boundary part formed once is solve_batch's xis, bit for bit."""

    # (blocks, n_v, n_eq, N_b) as each solver applies its factor, m = 11
    # coefficients per axis: single (dim, m), batch (N_b, 4m) and its
    # heading (N_b, m), priest (N, dim * m), and a 10-agent multi-agent level
    # (N_a, 3, m), whose right-hand sides are a swapped view
    SHAPES = {
        "single": ((), 11, 6, 3),
        "batch": ((), 44, 12, 100),
        "heading": ((), 11, 2, 100),
        "priest": ((), 33, 12, 110),
        "multiagent": ((10,), 11, 6, 3),
    }

    @pytest.mark.parametrize("solver", list(SHAPES))
    def test_folded_apply_is_solve_batch(self, solver):
        blocks, n_v, n_eq, n_b = self.SHAPES[solver]
        rng = np.random.default_rng(sum(map(ord, solver)))
        Q = _graded_hessians(rng, blocks[0] if blocks else 1, n_v, 3.0)
        f = factorize(Q if blocks else Q[0], rng.normal(size=(n_eq, n_v)))
        bs = rng.normal(size=(*blocks, n_b, n_eq))
        boundary = boundary_part(f, bs)
        for _ in range(3):  # the sweeps of a solve, on one boundary part
            if blocks:
                qs = np.swapaxes(rng.normal(size=(n_b, *blocks, n_v)), 0, 1)
            else:
                qs = rng.normal(size=(n_b, n_v))
            xis = apply_primal(f, qs, boundary)
            assert xis.shape == (*blocks, n_b, n_v)
            np.testing.assert_array_equal(xis, solve_batch(f, BatchRHS(qs=qs, bs=bs))[0])
            np.testing.assert_array_equal(xis, qs @ f.q_map + bs @ f.b_map)

    def test_shared_boundary_row_is_the_tiled_part(self):
        # the solvers' own factors: batch's xi and heading saddles at several
        # penalties, and priest's per-axis block with each axis's values; a
        # boundary row shared by N_b right-hand sides adds what the part of
        # the tiled values adds, bit for bit
        from trajopt import solver_batch
        from trajopt.basis import build_basis
        from trajopt.bench import gen_scenario, runner

        scenario = gen_scenario("dynamic-flow", seed=0)
        h = scenario.horizon
        basis = build_basis(h.t0, h.tf, h.n_p, 10)
        struct = solver_batch._Structure(runner.batch_problem_from_scenario(scenario, basis))
        cases = []
        for rho in (1.0, 10.0, 100.0, 1000.0):
            cases.append((factorize(struct.Q + rho * struct.FtF, struct.A), struct.b))
            cases.append((factorize(struct.Q_psi_smooth + rho * struct.PtP, struct.A_psi), struct.b_psi))
        setup = runner.priest_setup_from_scenario(gen_scenario("barn-like", seed=0), basis)
        cases += [(setup.factor, row) for row in setup.b_eq.reshape(setup.dim, -1)]
        rng = np.random.default_rng(12)
        for f, row in cases:
            for n_b in (1, 7, 50, 100, 110):
                qs = rng.normal(size=(n_b, f.n_v))
                shared = apply_primal(f, qs, boundary_part(f, row))
                np.testing.assert_array_equal(shared, apply_primal(f, qs, boundary_part(f, np.tile(row, (n_b, 1)))))

    def test_shape_mismatch(self):
        f = factorize(np.eye(5), np.eye(2, 5))
        with pytest.raises(ValueError, match="bs have length 3"):
            boundary_part(f, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="stacked as"):
            boundary_part(f, np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match="boundary part's"):
            apply_primal(f, np.zeros((3, 5)), boundary_part(f, np.zeros((4, 2))))
        with pytest.raises(ValueError, match="boundary part's"):  # qs of the wrong width
            apply_primal(f, np.zeros((3, 4)), boundary_part(f, np.zeros((3, 2))))

    def test_cache_refreshes_the_boundary_part_with_its_factor(self):
        Q, M, A = TestFactorCache._matrices()
        bs = np.random.default_rng(5).normal(size=(3, 2))
        cache = FactorCache()
        first = cache.get(Q, M, A, 2.0)
        part = cache.boundary(bs)
        np.testing.assert_array_equal(part, boundary_part(first, bs))
        # the same factor and array: formed once
        assert cache.boundary(bs) is part
        assert cache.get(Q, M, A, 2.0) is first and cache.boundary(bs) is part
        # another array, then a rho move's new factor
        np.testing.assert_array_equal(cache.boundary(bs.copy()), part)
        other = bs + 1.0
        np.testing.assert_array_equal(cache.boundary(other), boundary_part(first, other))
        second = cache.get(Q, M, A, 3.0)
        fresh = cache.boundary(other)
        np.testing.assert_array_equal(fresh, boundary_part(second, other))
        assert not np.array_equal(fresh, boundary_part(first, other))


def _graded_hessians(rng, k, n_v, decades):
    """k symmetric PD matrices with eigenvalues spread over the given decades."""
    out = []
    for _ in range(k):
        U, _ = np.linalg.qr(rng.normal(size=(n_v, n_v)))
        Q = U @ np.diag(np.logspace(0.0, -decades, n_v)) @ U.T
        out.append(0.5 * (Q + Q.T))
    return np.stack(out)


class TestFactorCache:
    @staticmethod
    def _matrices(seed=0):
        rng = np.random.default_rng(seed)
        Q, _, A, _ = _random_instance(rng, 6, 2)
        F = rng.normal(size=(4, 6))
        return Q, F.T @ F, A

    def test_repeated_gets_reuse_the_factor(self):
        Q, M, A = self._matrices()
        cache = FactorCache()
        before = factorization_count()
        first = cache.get(Q, M, A, 2.0)
        assert all(cache.get(Q, M, A, 2.0) is first for _ in range(3))
        assert factorization_count() == before + 1

    def test_rho_change_refactors(self):
        Q, M, A = self._matrices()
        cache = FactorCache()
        first = cache.get(Q, M, A, 2.0)
        second = cache.get(Q, M, A, 3.0)
        assert second is not first
        np.testing.assert_array_equal(second.q_map, factorize(Q + 3.0 * M, A).q_map)

    @pytest.mark.parametrize("changed", [0, 1, 2], ids=["Q", "M", "A"])
    def test_value_change_refactors(self, changed):
        arrays = self._matrices()
        cache = FactorCache()
        first = cache.get(*arrays, 2.0)
        edited = [a.copy() for a in arrays]
        edited[changed][0, 0] += 0.5
        if changed < 2:  # keep Q and M symmetric
            edited[changed][1, 1] += 0.5
        second = cache.get(*edited, 2.0)
        assert second is not first
        np.testing.assert_array_equal(second.q_map, factorize(edited[0] + 2.0 * edited[1], edited[2]).q_map)

    def test_equal_new_arrays_reuse_the_factor(self):
        # a warm start builds its matrices afresh, with the same values
        arrays = self._matrices()
        cache = FactorCache()
        first = cache.get(*arrays, 2.0)
        assert cache.get(*[a.copy() for a in arrays], 2.0) is first

    def test_count(self):
        Q, M, A = self._matrices()
        cache = FactorCache()
        assert cache.count == 0 and cache.factor is None
        for rho in (1.0, 1.0, 2.0, 2.0, 1.0):
            cache.get(Q, M, A, rho)
        assert cache.count == 3
        cache.get(Q.copy(), M, A, 1.0)
        assert cache.count == 3
        cache.get(*self._matrices(seed=1), 1.0)
        assert cache.count == 4


def _single_saddle(kind, params=None, degree=10, **weights):
    """Q, P'P and A of the single solver's position step, on the problem of a scenario at seed 0."""
    from trajopt.basis import build_basis
    from trajopt.bench import gen_scenario, runner
    from trajopt.solver_single import SingleProblem, _SingleStructure

    scenario = gen_scenario(kind, params, seed=0)
    h = scenario.horizon
    problem = runner.single_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, degree))
    if weights:
        problem = SingleProblem(**{**vars(problem), **weights})
    struct = _SingleStructure(problem)
    return struct.Q, struct.PtP, struct.A


# (scenario kind, its params, basis degree, problem weights)
SINGLE_SADDLES = {
    "2-D": ("corridor", None, 10, {}),
    "3-D": ("random-static", {"dim": 3}, 10, {}),
    "2-D-tracking-only": ("corridor", None, 10, {"w_smooth": 0.0}),
    "3-D-tracking-only": ("random-static", {"dim": 3}, 10, {"w_smooth": 0.0}),
    # six coefficients on six boundary rows: null(A) is empty
    "degree-5": ("corridor", None, 5, {}),
}


class TestPencil:
    """Pencil(Q, M, A).factor(sigma) is factorize(Q + sigma * M, A) to rounding, guard and count included."""

    @pytest.mark.parametrize("case", SINGLE_SADDLES)
    def test_factor_matches_factorize(self, case):
        kind, params, degree, weights = SINGLE_SADDLES[case]
        Q, M, A = _single_saddle(kind, params, degree, **weights)
        pencil = Pencil(Q, M, A)
        # sigma = 0 is the penalty of a problem with no obstacles
        sigmas = [0.0, *10.0 ** np.random.default_rng(degree).uniform(-2.0, 4.0, size=10)]
        for sigma in sigmas:
            got, expected = pencil.factor(sigma), factorize(Q + sigma * M, A)
            for name in ("q_map", "b_map", "dual_map"):
                value, reference = getattr(got, name), getattr(expected, name)
                assert np.abs(value - reference).max() <= 1e-10 * np.abs(reference).max(), (sigma, name)
            reduced = np.linalg.cond(_reduced(Q + sigma * M, A)) if Q.shape[0] > A.shape[0] else 1.0
            assert got.cond_estimate == pytest.approx(reduced, rel=1e-6), sigma

    def test_rank_deficient_rows_raise_factorizes_error(self):
        Q, M, A = _single_saddle("corridor")
        A = np.vstack([A, A[:1]])
        with pytest.raises(FactorizationError) as expected:
            factorize(Q + M, A)
        with pytest.raises(FactorizationError, match=f"^{re.escape(str(expected.value))}$"):
            Pencil(Q, M, A)

    def test_penalty_past_the_guard_raises(self):
        Q, _, A = TestFactorCache._matrices()
        f = np.random.default_rng(4).normal(size=Q.shape[0])
        M = np.outer(f, f)  # rank one: the reduced Hessian's condition grows with sigma
        pencil = Pencil(Q, M, A)
        assert pencil.factor(1e6).cond_estimate == pytest.approx(factorize(Q + 1e6 * M, A).cond_estimate, rel=1e-6)
        before = factorization_count()
        for sigma in (1e14, 1e18):
            with pytest.raises(FactorizationError, match="near-singular"):
                factorize(Q + sigma * M, A)
            with pytest.raises(FactorizationError, match="near-singular"):
                pencil.factor(sigma)
        assert factorization_count() == before

    def test_singular_pencil_rejected(self):
        # Q and M both singular along the same direction of null(A)
        Q, M, A = np.diag([1.0, 0.0, 1.0]), np.diag([1.0, 0.0, 0.0]), np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(FactorizationError, match="not positive definite"):
            Pencil(Q, M, A)

    @pytest.mark.parametrize(
        "Q,M,match",
        [(np.stack([np.eye(3)] * 2), np.eye(3), "one"), (np.eye(3), np.eye(2), "one"), (np.eye(3), np.triu(np.ones((3, 3))), "symmetric")],
        ids=["stacked-Q", "M-shape", "asymmetric-M"],
    )
    def test_malformed_blocks_rejected(self, Q, M, match):
        with pytest.raises(ValueError, match=match):
            Pencil(Q, M, np.eye(1, 3))

    def test_each_factor_formed_counts_once(self):
        Q, M, A = _single_saddle("corridor")
        before = factorization_count()
        pencil = Pencil(Q, M, A)
        assert factorization_count() == before
        for sigma in (1.0, 2.0, 2.0):
            pencil.factor(sigma)
        assert factorization_count() == before + 3

    def test_cache_keeps_the_pencil_while_the_matrices_stay(self):
        Q, M, A = TestFactorCache._matrices()
        cache = FactorCache()
        first = cache.get_from_pencil(Q, M, A, 2.0)
        pencil = cache.pencil
        assert cache.get_from_pencil(Q.copy(), M.copy(), A, 2.0) is first
        second = cache.get_from_pencil(Q, M, A, 3.0)
        assert cache.pencil is pencil and cache.count == 2
        np.testing.assert_array_equal(second.q_map, pencil.factor(3.0).q_map)
        # other matrices: a new pencil, or none once get has factorized them
        cache.get_from_pencil(*TestFactorCache._matrices(seed=1), 3.0)
        assert cache.pencil is not pencil and cache.count == 3
        cache.get(Q, M, A, 3.0)
        assert cache.pencil is None and cache.count == 4
        cache.get_from_pencil(Q, M, A, 4.0)
        np.testing.assert_array_equal(cache.factor.q_map, Pencil(Q, M, A).factor(4.0).q_map)

    def test_failed_factor_leaves_the_cache_as_it_was(self):
        Q, _, A = TestFactorCache._matrices()
        f = np.random.default_rng(4).normal(size=Q.shape[0])
        M = np.outer(f, f)
        cache = FactorCache()
        first = cache.get_from_pencil(Q, M, A, 1.0)
        with pytest.raises(FactorizationError):
            cache.get_from_pencil(Q, M, A, 1e14)
        assert cache.get_from_pencil(Q, M, A, 1.0) is first and cache.count == 1


class TestStackedFactor:
    def test_matches_per_block_factors(self):
        rng = np.random.default_rng(7)
        Qs = _graded_hessians(rng, 3, 11, 4.0)
        A = rng.normal(size=(6, 11))
        before = factorization_count()
        stacked = factorize(Qs, A)
        assert factorization_count() == before + 1
        assert (stacked.n_v, stacked.n_eq, stacked.cond_estimate.shape) == (11, 6, (3,))
        for i, Q in enumerate(Qs):
            single = factorize(Q, A)
            assert stacked.cond_estimate[i] == pytest.approx(single.cond_estimate, rel=1e-12)
            for name in ("q_map", "b_map", "dual_map"):
                expected = getattr(single, name)
                np.testing.assert_allclose(
                    getattr(stacked, name)[i], expected, rtol=0, atol=1e-12 * np.abs(expected).max(), err_msg=name
                )

    def test_solves_apply_each_block_to_its_own_right_hand_sides(self):
        rng = np.random.default_rng(8)
        Qs = _graded_hessians(rng, 2, 9, 2.0)
        A = rng.normal(size=(4, 9))
        stacked = factorize(Qs, A)
        qs, bs = rng.normal(size=(2, 5, 9)), rng.normal(size=(2, 5, 4))
        xis, nus = solve_batch(stacked, BatchRHS(qs=qs, bs=bs))
        xi0, nu0 = solve(stacked, qs[:, 0], bs[:, 0])
        for i in range(2):
            xe, ne = solve_batch(factorize(Qs[i], A), BatchRHS(qs=qs[i], bs=bs[i]))
            np.testing.assert_allclose(xis[i], xe, rtol=0, atol=1e-12)
            np.testing.assert_allclose(nus[i], ne, rtol=0, atol=1e-12)
            np.testing.assert_allclose(xi0[i], xis[i, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(nu0[i], nus[i, 0], rtol=0, atol=1e-12)

    def test_one_singular_block_rejects_the_stack(self):
        A = np.array([[1.0, 0.0]])
        with pytest.raises(FactorizationError, match="cond"):
            factorize(np.stack([np.eye(2), np.diag([1.0, 0.0])]), A)

    def test_right_hand_sides_must_match_the_stack(self):
        f = factorize(np.stack([np.eye(3)] * 2), np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="stacked"):
            solve_batch(f, BatchRHS(qs=np.zeros((4, 3)), bs=np.zeros((4, 1))))
        with pytest.raises(ValueError):
            solve(f, np.zeros(3), np.zeros(1))


class TestKKTResidualScalesWithCondition:
    """solve and solve_batch satisfy both KKT rows to rounding amplified by
    the reduced Hessian's condition number times A's, relative to the sizes
    of the terms in the rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_v=st.integers(2, 12),
        n_eq=st.integers(1, 6),
        n_blocks=st.integers(0, 3),
        decades=st.floats(0.0, 8.0),
        seed=st.integers(0, 10_000),
    )
    def test_kkt_rows(self, n_v, n_eq, n_blocks, decades, seed):
        n_eq = min(n_eq, n_v - 1)
        rng = np.random.default_rng(seed)
        Qs = _graded_hessians(rng, max(n_blocks, 1), n_v, decades)
        A = rng.normal(size=(n_eq, n_v))
        f = factorize(Qs if n_blocks else Qs[0], A)
        conds = np.atleast_1d(f.cond_estimate) * np.linalg.cond(A)
        qs, bs = rng.normal(size=(len(Qs), 4, n_v)), rng.normal(size=(len(Qs), 4, n_eq))
        if n_blocks:
            xis, nus = solve_batch(f, BatchRHS(qs=qs, bs=bs))
            xi0, nu0 = solve(f, qs[:, 0], bs[:, 0])
        else:
            xis, nus = (x[None] for x in solve_batch(f, BatchRHS(qs=qs[0], bs=bs[0])))
            xi0, nu0 = (x[None] for x in solve(f, qs[0, 0], bs[0, 0]))
        norm_a = np.linalg.norm(A, 2)
        for i, Q in enumerate(Qs):
            norm_q = np.linalg.norm(Q, 2)
            rows = [(xis[i, j], nus[i, j], qs[i, j], bs[i, j]) for j in range(4)]
            rows.append((xi0[i], nu0[i], qs[i, 0], bs[i, 0]))
            for xi, nu, q, b in rows:
                size = (norm_q + norm_a) * np.linalg.norm(xi) + norm_a * np.linalg.norm(nu)
                size += np.linalg.norm(q) + np.linalg.norm(b)
                tol = 64 * np.finfo(float).eps * conds[i] * size
                assert np.linalg.norm(Q @ xi + A.T @ nu + q) <= tol
                assert np.linalg.norm(A @ xi - b) <= tol
