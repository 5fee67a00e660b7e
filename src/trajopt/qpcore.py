"""Equality-constrained QP solving through a cached saddle-point factorization.

The problem  min 0.5 xi' Q xi + q' xi  s.t.  A xi = b  is solved through the
linear system

    [[Q, A'], [A, 0]] @ [xi; nu] = [-q; b]

The saddle matrix depends only on (Q, A), so it is factorized once (LU with
partial pivoting) and reused for every right-hand side.  solve_batch applies
the factor to all stacked right-hand sides in one call, which is the
one-shot structure every solver in this package leans on.

KKTFactor is immutable after construction; solve/solve_batch are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

_factorization_count = 0


def factorization_count() -> int:
    """Total number of factorizations performed in this process.

    Tests snapshot this before/after a solve to assert factor caching.
    """
    return _factorization_count


class FactorizationError(ValueError):
    """Saddle matrix is rank-deficient or too ill-conditioned to trust."""


@dataclass(frozen=True)
class BatchRHS:
    """Stacked right-hand sides: qs is (N_b, n_v), bs is (N_b, n_eq)."""

    qs: np.ndarray
    bs: np.ndarray

    def __post_init__(self):
        if self.qs.ndim != 2 or self.bs.ndim != 2:
            raise ValueError("batch right-hand sides must be 2-D arrays")
        if self.qs.shape[0] != self.bs.shape[0]:
            raise ValueError("qs and bs must have the same batch size")
        if self.qs.shape[0] < 1:
            raise ValueError("empty batch")

    @property
    def size(self) -> int:
        return self.qs.shape[0]


@dataclass(frozen=True)
class KKTFactor:
    """LU factorization of [[Q, A'], [A, 0]] plus dimension metadata."""

    n_v: int
    n_eq: int
    cond_estimate: float
    _lu: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return self.n_v + self.n_eq


def factorize(Q: np.ndarray, A: np.ndarray, *, cond_limit: float = 1e12) -> KKTFactor:
    """Factorize the saddle matrix once for repeated solves.

    Raises FactorizationError when A is row rank-deficient or the saddle
    matrix condition estimate exceeds cond_limit (penalty schedules can
    degrade conditioning; fail loudly rather than return garbage).
    """
    global _factorization_count
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n_v = Q.shape[0]
    if Q.shape != (n_v, n_v):
        raise ValueError(f"Q must be square, got {Q.shape}")
    if not np.allclose(Q, Q.T, rtol=1e-10, atol=1e-12):
        raise ValueError("Q must be symmetric")
    n_eq = A.shape[0]
    if A.shape[1] != n_v:
        raise ValueError(f"A has {A.shape[1]} columns, expected {n_v}")
    if n_eq > 0 and np.linalg.matrix_rank(A) < n_eq:
        # covers n_eq > n_v as well: more rows than columns can never be full row rank
        raise FactorizationError(f"equality matrix A is rank-deficient (rank < {n_eq})")

    K = np.zeros((n_v + n_eq, n_v + n_eq))
    K[:n_v, :n_v] = Q
    if n_eq > 0:
        K[:n_v, n_v:] = A.T
        K[n_v:, :n_v] = A

    # K is symmetric, so its 2-norm condition number is max|eig| / min|eig|
    eig = np.abs(np.linalg.eigvalsh(K))
    cond = float(eig.max() / eig.min()) if eig.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise FactorizationError(f"saddle matrix is near-singular (cond estimate {cond:.3e})")

    lu = lu_factor(K)
    _factorization_count += 1
    return KKTFactor(n_v=n_v, n_eq=n_eq, cond_estimate=cond, _lu=lu)


def solve(factor: KKTFactor, q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve one instance; returns (primal xi, dual nu)."""
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    if q.shape != (factor.n_v,):
        raise ValueError(f"q has shape {q.shape}, expected ({factor.n_v},)")
    if b.shape != (factor.n_eq,):
        raise ValueError(f"b has shape {b.shape}, expected ({factor.n_eq},)")
    rhs = np.concatenate([-q, b])
    sol = lu_solve(factor._lu, rhs)
    return sol[: factor.n_v], sol[factor.n_v :]


def solve_batch(factor: KKTFactor, rhs: BatchRHS) -> tuple[np.ndarray, np.ndarray]:
    """Solve all batch instances in one shot.

    The stacked right-hand-side block is applied to the cached factor as a
    single matrix solve; column i matches solve(factor, qs[i], bs[i]).
    Returns (xis, nus) with shapes (N_b, n_v) and (N_b, n_eq).
    """
    if rhs.qs.shape[1] != factor.n_v:
        raise ValueError(f"qs have length {rhs.qs.shape[1]}, expected {factor.n_v}")
    if rhs.bs.shape[1] != factor.n_eq:
        raise ValueError(f"bs have length {rhs.bs.shape[1]}, expected {factor.n_eq}")
    block = np.hstack([-rhs.qs, rhs.bs]).T  # (n_v + n_eq, N_b)
    sol = lu_solve(factor._lu, block)
    return sol[: factor.n_v].T, sol[factor.n_v :].T

