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
that grows during a solve.  A Pencil of (Q, M, A) takes the QR of A', the
reduced blocks N'QN and N'MN and one symmetric eigendecomposition that
diagonalizes both, once; the factor of every penalty is then a rescaled
diagonal and a few small products, with factorize's guard on the exact
reduced Hessian.  FactorCache holds the one rule for when a factor still
applies: it is formed again only when rho, or the value of Q, M or A,
differs from the last call's, and the boundary part only for a new factor
or another boundary array.  The single and batch solvers keep their
caches in their states; a single warm start on equal matrices reuses the
factor and one on other matrices forms a new one, and every batch solve
starts with empty caches.  The single solver forms
its factors from a pencil the cache keeps while Q, M and A stay equal
(get_from_pencil), so a receding-horizon episode takes one
eigendecomposition and rescales it for each penalty.  The batch solver's
saddles stay on factorize (get), and the multi-agent solver factorizes its
penalty levels directly: a pencil's factor differs from factorize's by
rounding, and both iterations amplify rounding into their outputs.

KKTFactor and Pencil are not changed after construction; solve,
solve_batch, boundary_part, apply_primal and Pencil.factor are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_factorization_count = 0
# the largest reduced-Hessian condition number factorize accepts
_COND_LIMIT = 1e12


def factorization_count() -> int:
    """Total number of KKT factors formed in this process, by factorize or Pencil.factor.

    Building a Pencil forms none.  Tests snapshot this before/after a solve
    to assert factor caching.
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


def _saddle_blocks(Q, A) -> tuple[np.ndarray, np.ndarray]:
    """Q and A as float arrays, checked: Q symmetric (n_v, n_v) or a stack of them, A (n_eq, n_v)."""
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n_v = Q.shape[-1]
    if Q.ndim not in (2, 3) or Q.shape[-2] != n_v:
        raise ValueError(f"Q must be square or a stack of square matrices, got {Q.shape}")
    QT = np.swapaxes(Q, -1, -2)
    if not np.all(np.abs(Q - QT) <= 1e-12 + 1e-10 * np.abs(QT)):
        raise ValueError("Q must be symmetric")
    if A.shape[1] != n_v:
        raise ValueError(f"A has {A.shape[1]} columns, expected {n_v}")
    return Q, A


def _null_space(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, Pb) from one QR of A' = [Y N] [R; 0]: N spans null(A) and Pb = Y R^-T.

    Raises FactorizationError when A is row rank-deficient.
    """
    n_eq, n_v = A.shape
    # R's diagonal gives the rank
    basis, R = np.linalg.qr(A.T, mode="complete")
    pivots = np.abs(np.diagonal(R))
    # covers n_eq > n_v as well: more rows than columns can never be full row rank
    if n_eq > n_v or (n_eq and pivots.min() <= pivots.max() * max(A.shape) * np.finfo(float).eps):
        raise FactorizationError(f"equality matrix A is rank-deficient (rank < {n_eq})")
    R = R[:n_eq]
    Y, N = basis[:, :n_eq], basis[:, n_eq:]
    return N, np.linalg.solve(R, Y.T).T  # Y R^-T, the particular solution map


def _guarded_cond(eig: np.ndarray) -> np.ndarray:
    """The 2-norm condition numbers of reduced Hessians with eigenvalues eig (..., m), one per block.

    Raises FactorizationError when one is not finite or exceeds 1e12.
    """
    cond = np.ones(eig.shape[:-1])  # A square and invertible: nothing left to factor
    if eig.shape[-1]:
        magnitude = np.abs(eig)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = magnitude.max(axis=-1) / magnitude.min(axis=-1)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > _COND_LIMIT:
        raise FactorizationError(f"reduced Hessian N'QN is near-singular (cond estimate {worst:.3e})")
    return cond


def factorize(Q: np.ndarray, A: np.ndarray) -> KKTFactor:
    """Factorize the saddle matrix once for repeated solves.

    Q is (n_v, n_v), or (k, n_v, n_v) for k Hessians sharing A.  Raises
    FactorizationError when A is row rank-deficient or the condition number
    of a reduced Hessian N'QN exceeds 1e12 (penalty schedules can
    degrade conditioning; fail loudly rather than return garbage).
    """
    global _factorization_count
    Q, A = _saddle_blocks(Q, A)
    N, Pb = _null_space(A)

    # the reduced Hessian is symmetric: its eigenvalues give the guard and its inverse
    eig, U = np.linalg.eigh(N.T @ Q @ N)
    cond = _guarded_cond(eig)

    G = N @ U
    q_map = -(G / eig[..., None, :]) @ np.swapaxes(G, -1, -2)
    C = Pb + q_map @ (Q @ Pb)
    dual_map = -(Pb.T @ Q) @ C
    _factorization_count += 1
    return KKTFactor(
        n_v=Q.shape[-1],
        n_eq=A.shape[0],
        cond_estimate=cond if Q.ndim == 3 else float(cond),
        q_map=q_map,
        b_map=np.swapaxes(C, -1, -2),
        dual_map=dual_map,
    )


class Pencil:
    """The factors of Q + sigma * M on rows A for every penalty sigma, from one eigendecomposition.

    Q and M are symmetric (n_v, n_v) and positive semidefinite on null(A),
    with N'(Q + M)N positive definite; otherwise the constructor raises
    FactorizationError, as it does for rank-deficient rows A.  The QR of A'
    is taken once, as factorize takes it, and so are the reduced blocks
    H0 = N'QN and H1 = N'MN.  With S = H0 + H1 = L L' and the symmetric
    eigendecomposition L^-1 H1 L^-T = W diag(mu) W' (mu in [0, 1]), every
    member of the pencil is

        H0 + sigma H1 = L W diag(1 + (sigma - 1) mu) W' L',

    so with G = N L^-T W the primal map is -G diag(1 / (1 + (sigma - 1) mu)) G'
    and the boundary and dual maps follow from the products G'Q Pb and G'M Pb.
    factor(sigma) rescales that diagonal where factorize(Q + sigma * M, A)
    would take a QR, a solve, an eigendecomposition and five products; the
    two agree to rounding.  Its guard is factorize's, on the exact
    eigenvalues of H0 + sigma H1.
    """

    def __init__(self, Q: np.ndarray, M: np.ndarray, A: np.ndarray):
        Q, A = _saddle_blocks(Q, A)
        if Q.ndim != 2 or np.shape(M) != Q.shape:
            raise ValueError(f"a pencil takes Q and M of one (n_v, n_v) shape, got {Q.shape} and {np.shape(M)}")
        M, _ = _saddle_blocks(M, A)
        self.n_v, self.n_eq = Q.shape[0], A.shape[0]
        N, self.Pb = _null_space(A)
        self.H0, self.H1 = N.T @ Q @ N, N.T @ M @ N
        try:
            L = np.linalg.cholesky(self.H0 + self.H1)
        except np.linalg.LinAlgError:
            raise FactorizationError("reduced pencil N'(Q + M)N is not positive definite") from None
        L_inv = np.linalg.inv(L)
        self.mu, W = np.linalg.eigh(L_inv @ self.H1 @ L_inv.T)
        self.G = N @ (L_inv.T @ W)
        QPb, MPb = Q @ self.Pb, M @ self.Pb
        self.GtQPb, self.GtMPb = self.G.T @ QPb, self.G.T @ MPb
        self.PbtQPb, self.PbtMPb = self.Pb.T @ QPb, self.Pb.T @ MPb

    def factor(self, sigma: float) -> KKTFactor:
        """The KKTFactor of Q + sigma * M on rows A; raises FactorizationError as factorize does."""
        global _factorization_count
        cond = _guarded_cond(np.linalg.eigvalsh(self.H0 + sigma * self.H1))
        scale = 1.0 / (1.0 + (sigma - 1.0) * self.mu)
        coupling = self.GtQPb + sigma * self.GtMPb  # G'(Q + sigma M) Pb
        scaled = scale[:, None] * coupling
        C = self.Pb - self.G @ scaled
        _factorization_count += 1
        return KKTFactor(
            n_v=self.n_v,
            n_eq=self.n_eq,
            cond_estimate=float(cond),
            q_map=-(self.G * scale) @ self.G.T,
            b_map=C.T,
            dual_map=coupling.T @ scaled - (self.PbtQPb + sigma * self.PbtMPb),
        )


class FactorCache:
    """The factor of Q + rho * M on rows A, formed again only when one of them changes.

    get forms it with factorize(Q + rho * M, A).  get_from_pencil forms it
    with Pencil(Q, M, A).factor(rho) and keeps the pencil while Q, M and A
    stay equal, so a new rho only rescales the pencil's diagonal.  Either
    forms a factor when rho differs from the last call's, or when Q, M or A
    differs in value from the array last passed; an argument that is that
    very array is not compared again, so the arrays must not be edited in
    place between calls.  count is the number of factors formed.
    """

    def __init__(self):
        self.factor: KKTFactor | None = None
        self.pencil: Pencil | None = None  # of the last call's Q, M and A, when get_from_pencil formed it
        self.count = 0
        self._key: tuple | None = None  # (Q, M, A, rho) of the last call
        self._boundary: tuple | None = None  # (factor, bs, boundary part) of the last boundary call

    def _same_matrices(self, Q: np.ndarray, M: np.ndarray, A: np.ndarray) -> bool:
        key = self._key
        if key is None:
            return False
        # within a solve the arrays are the very ones of the last call
        if Q is key[0] and M is key[1] and A is key[2]:
            return True
        return all(new is old or np.array_equal(new, old) for new, old in zip((Q, M, A), key))

    def get(self, Q: np.ndarray, M: np.ndarray, A: np.ndarray, rho: float) -> KKTFactor:
        same = self._same_matrices(Q, M, A)
        if not same or rho != self._key[3]:
            self.factor = factorize(Q + rho * M, A)
            self.count += 1
            if not same:
                self.pencil = None
        self._key = (Q, M, A, rho)
        return self.factor

    def get_from_pencil(self, Q: np.ndarray, M: np.ndarray, A: np.ndarray, rho: float) -> KKTFactor:
        same = self._same_matrices(Q, M, A)
        pencil = self.pencil if same and self.pencil is not None else Pencil(Q, M, A)
        if not same or rho != self._key[3]:
            self.factor = pencil.factor(rho)
            self.count += 1
        self.pencil, self._key = pencil, (Q, M, A, rho)
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
