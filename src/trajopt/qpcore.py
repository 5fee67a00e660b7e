"""Equality-constrained QP solving through a cached null-space factorization.

The problem  min 0.5 xi' Q xi + q' xi  s.t.  A xi = b  has the saddle system

    [[Q, A'], [A, 0]] @ [xi; nu] = [-q; b]

whose matrix depends only on (Q, A).  factorize solves it in reduced
coordinates.  One QR of A' = [Y N] [R; 0] gives the rank check, an
orthonormal basis N of null(A) and the particular map Pb = Y R^-T, with
A Pb = I.  Writing xi = Pb b + N z leaves the reduced Hessian N'QN, the only
matrix that is factored (a symmetric eigendecomposition, which also gives
the condition number the guard reads).  The primal and dual blocks of the
saddle inverse are then formed once,

    xi = M q + C b,    nu = -C' q - Pb'Q C b,

with M = -N (N'QN)^-1 N' and C = (I + M Q) Pb, so every solve is a few
GEMMs on the stacked right-hand sides.  The solvers read xi alone, and
their boundary values b stay fixed while a factor serves, so apply_primal
is the one apply: in row form xi = q @ q_map + (b @ b_map), with the
boundary part b @ b_map formed once per factor by boundary_part and only
added on each solve.  Right-hand sides that share their boundary values
share one row of it, which the add broadcasts over them; solve_batch forms
the part per call and adds nu.  Solving in null(A) keeps the factored
matrix at the scale of Q: a penalty term rho * F'F grows the reduced
Hessian's condition number, not the one of the whole saddle, where it is
set against the unit rows of A.

A stack of Hessians Q (k, n, n) that share A is factored in one call; each
block has its own guard, and solve_batch applies block i to the i-th stack
of right-hand sides.

The solvers' saddles are Q + rho * M on fixed rows A, with a penalty rho
that grows during a solve.  FactorCache holds the one rule for when a
factor still applies: it is rebuilt only when rho, or the value of Q, M or
A, differs from the last factored one, and it forms the boundary part
again only for a new factor or another boundary array.  The single and
batch solvers keep their caches in their states, so a warm start on equal
matrices reuses the factor and one on other matrices refactors.

KKTFactor is immutable after construction; solve, solve_batch,
boundary_part and apply_primal are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_factorization_count = 0
# the largest reduced-Hessian condition number factorize accepts
_COND_LIMIT = 1e12


def factorization_count() -> int:
    """Total number of factorizations performed in this process.

    Tests snapshot this before/after a solve to assert factor caching.
    """
    return _factorization_count


class FactorizationError(ValueError):
    """Equality rows are rank-deficient or the reduced Hessian is too ill-conditioned to trust."""


@dataclass(frozen=True)
class BatchRHS:
    """Stacked right-hand sides: qs is (N_b, n_v), bs is (N_b, n_eq).

    For a stacked factor of k blocks they are (k, N_b, n_v) and (k, N_b, n_eq).
    """

    qs: np.ndarray
    bs: np.ndarray

    def __post_init__(self):
        if self.qs.ndim < 2 or self.qs.ndim != self.bs.ndim:
            raise ValueError("batch right-hand sides must be 2-D arrays, or 3-D for a stacked factor")
        if self.qs.shape[:-1] != self.bs.shape[:-1]:
            raise ValueError("qs and bs must have the same batch size")
        if self.qs.shape[-2] < 1:
            raise ValueError("empty batch")


@dataclass(frozen=True)
class KKTFactor:
    """Blocks of the saddle inverse for one (Q, A), or a stack of Q sharing A.

    In row form, with q and b rows of the right-hand sides:
        xi = q @ q_map + b @ b_map,    nu = -q @ b_map.T + b @ dual_map
    q_map (n_v, n_v) is M, b_map (n_eq, n_v) is C' and dual_map (n_eq, n_eq)
    is -Pb'Q C; a stacked factor has a leading block axis on each.
    cond_estimate is the reduced Hessian's 2-norm condition number, one per
    block for a stack.
    """

    n_v: int
    n_eq: int
    cond_estimate: float | np.ndarray
    q_map: np.ndarray = field(repr=False)
    b_map: np.ndarray = field(repr=False)
    dual_map: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.n_v + self.n_eq


def factorize(Q: np.ndarray, A: np.ndarray) -> KKTFactor:
    """Factorize the saddle matrix once for repeated solves.

    Q is (n_v, n_v), or (k, n_v, n_v) for k Hessians sharing A.  Raises
    FactorizationError when A is row rank-deficient or the condition number
    of a reduced Hessian N'QN exceeds 1e12 (penalty schedules can
    degrade conditioning; fail loudly rather than return garbage).
    """
    global _factorization_count
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n_v = Q.shape[-1]
    if Q.ndim not in (2, 3) or Q.shape[-2] != n_v:
        raise ValueError(f"Q must be square or a stack of square matrices, got {Q.shape}")
    QT = np.swapaxes(Q, -1, -2)
    if not np.all(np.abs(Q - QT) <= 1e-12 + 1e-10 * np.abs(QT)):
        raise ValueError("Q must be symmetric")
    n_eq = A.shape[0]
    if A.shape[1] != n_v:
        raise ValueError(f"A has {A.shape[1]} columns, expected {n_v}")

    # A' = [Y N] [R; 0]: R's diagonal gives the rank, N spans null(A)
    basis, R = np.linalg.qr(A.T, mode="complete")
    pivots = np.abs(np.diagonal(R))
    # covers n_eq > n_v as well: more rows than columns can never be full row rank
    if n_eq > n_v or (n_eq and pivots.min() <= pivots.max() * max(A.shape) * np.finfo(float).eps):
        raise FactorizationError(f"equality matrix A is rank-deficient (rank < {n_eq})")
    R = R[:n_eq]
    Y, N = basis[:, :n_eq], basis[:, n_eq:]
    Pb = np.linalg.solve(R, Y.T).T  # Y R^-T, the particular solution map

    # the reduced Hessian is symmetric: its eigenvalues give the guard and its inverse
    eig, U = np.linalg.eigh(N.T @ Q @ N)
    cond = np.ones(eig.shape[:-1])  # A square and invertible: nothing left to factor
    if eig.shape[-1]:
        magnitude = np.abs(eig)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = magnitude.max(axis=-1) / magnitude.min(axis=-1)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > _COND_LIMIT:
        raise FactorizationError(f"reduced Hessian N'QN is near-singular (cond estimate {worst:.3e})")

    G = N @ U
    q_map = -(G / eig[..., None, :]) @ np.swapaxes(G, -1, -2)
    C = Pb + q_map @ (Q @ Pb)
    dual_map = -(Pb.T @ Q) @ C
    _factorization_count += 1
    return KKTFactor(
        n_v=n_v,
        n_eq=n_eq,
        cond_estimate=cond if Q.ndim == 3 else float(cond),
        q_map=q_map,
        b_map=np.swapaxes(C, -1, -2),
        dual_map=dual_map,
    )


class FactorCache:
    """The factor of Q + rho * M on rows A, rebuilt only when one of them changes.

    get refactors when rho differs from the last call's, or when Q, M or A
    differs in value from the array last passed; an argument that is that
    very array is not compared again, so the arrays must not be edited in
    place between calls.  count is the number of factorizations made.
    """

    def __init__(self):
        self.factor: KKTFactor | None = None
        self.count = 0
        self._key: tuple | None = None  # (Q, M, A, rho) of the last call
        self._boundary: tuple | None = None  # (factor, bs, boundary part) of the last boundary call

    def get(self, Q: np.ndarray, M: np.ndarray, A: np.ndarray, rho: float) -> KKTFactor:
        arrays = (Q, M, A)
        if self._key is None or rho != self._key[3] or not all(
            new is old or np.array_equal(new, old) for new, old in zip(arrays, self._key)
        ):
            self.factor = factorize(Q + rho * M, A)
            self.count += 1
        self._key = (*arrays, rho)
        return self.factor

    def boundary(self, bs: np.ndarray) -> np.ndarray:
        """boundary_part(self.factor, bs), formed again only after get refactors or for another bs array.

        bs is compared by identity alone, as forming the part costs about
        what comparing its values would, so it must not be edited in place
        between calls.
        """
        last = self._boundary
        if last is None or last[0] is not self.factor or last[1] is not bs:
            last = self._boundary = (self.factor, bs, boundary_part(self.factor, bs))
        return last[2]


def solve(factor: KKTFactor, q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve one instance (one per block of a stacked factor); returns (primal xi, dual nu)."""
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    blocks = factor.q_map.shape[:-2]
    if q.shape != (*blocks, factor.n_v):
        raise ValueError(f"q has shape {q.shape}, expected {(*blocks, factor.n_v)}")
    if b.shape != (*blocks, factor.n_eq):
        raise ValueError(f"b has shape {b.shape}, expected {(*blocks, factor.n_eq)}")
    xis, nus = solve_batch(factor, BatchRHS(qs=q[..., None, :], bs=b[..., None, :]))
    return xis[..., 0, :], nus[..., 0, :]


def boundary_part(factor: KKTFactor, bs: np.ndarray) -> np.ndarray:
    """bs @ b_map: what the boundary values bs (N_b, n_eq) add to each primal solve, (N_b, n_v).

    A stacked factor takes (k, N_b, n_eq) and gives (k, N_b, n_v).  One row
    bs (n_eq,) gives the one row (n_v,) that every right-hand side sharing
    those values adds.  A caller whose boundary values stay fixed while a
    factor serves forms this once per factor and hands it to apply_primal.
    """
    if bs.shape[-1] != factor.n_eq:
        raise ValueError(f"bs have length {bs.shape[-1]}, expected {factor.n_eq}")
    if bs.shape[:-2] != factor.b_map.shape[:-2]:
        raise ValueError(f"right-hand sides stacked as {bs.shape[:-2]}, factor as {factor.b_map.shape[:-2]}")
    return bs @ factor.b_map


def apply_primal(factor: KKTFactor, qs: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """The one apply of a cached factor: xis = qs @ q_map + boundary, no duals.

    boundary is boundary_part(factor, bs), of qs's shape or of its trailing
    axes: a row shared by every right-hand side, which the add broadcasts.
    One GEMM and one add per call.  Returns qs's shape, (N_b, n_v) or with
    the block axis first for a stacked factor.
    """
    if qs.shape[qs.ndim - boundary.ndim :] != boundary.shape:
        raise ValueError(f"qs have shape {qs.shape}, which the boundary part's shape {boundary.shape} does not broadcast to")
    return qs @ factor.q_map + boundary


def solve_batch(factor: KKTFactor, rhs: BatchRHS) -> tuple[np.ndarray, np.ndarray]:
    """Solve all batch instances in one shot: apply_primal and the duals.

    The stacked right-hand sides go through the cached maps as GEMMs; row i
    matches solve(factor, qs[i], bs[i]).  Returns (xis, nus) with shapes
    (N_b, n_v) and (N_b, n_eq), with the block axis first for a stacked
    factor.
    """
    xis = apply_primal(factor, rhs.qs, boundary_part(factor, rhs.bs))
    nus = rhs.bs @ factor.dual_map - rhs.qs @ np.swapaxes(factor.b_map, -1, -2)
    return xis, nus
