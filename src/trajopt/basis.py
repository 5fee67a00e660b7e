"""Time-sampled polynomial basis matrices and trajectory evaluation.

Trajectories are represented as ``x(t) = P @ xi`` where ``P`` holds the
Bernstein basis of the requested degree on normalized time
``tau = (t - t0) / (tf - t0)`` evaluated on a uniform grid.  ``Pdot`` and
``Pddot`` carry the exact analytic first and second derivatives (the chain
rule brings in 1/T and 1/T**2 factors), so velocity and acceleration samples
are ``Pdot @ xi`` and ``Pddot @ xi``.

Bernstein polynomials span the same space as monomials of equal degree but
keep the Gram matrices well conditioned at the default degree 10 (monomial
Gram condition is ~1e14 there, which poisons every downstream saddle
system).

A BasisSet also owns what every solver forms from its matrices alone: the
Gram blocks P'P, Pdot'Pdot and Pddot'Pddot, formed once when it is built,
and the boundary rows of each order set it is asked for, formed once on
first use.  The solvers read these arrays themselves, never copies, so a
factor cache keyed on them compares them by identity.

Everything here is immutable after construction and safe to share between
solver instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_count, check_real


@dataclass(frozen=True)
class TimeGrid:
    """Uniform planning grid with n_p samples covering [t0, tf], and its read-only timestamps.

    The one check of a horizon: t0 and tf finite real numbers with tf > t0,
    and n_p an integer of at least 2.  Raises ValueError.
    """

    t0: float
    tf: float
    n_p: int
    timestamps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_real(self, "finite", "t0", "tf", prefix="horizon ")
        if not self.tf > self.t0:
            raise ValueError(f"horizon needs tf > t0, got [{self.t0}, {self.tf}]")
        check_count(self, 2, "n_p")
        timestamps = np.linspace(self.t0, self.tf, self.n_p)
        timestamps.setflags(write=False)
        object.__setattr__(self, "timestamps", timestamps)

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / (self.n_p - 1)


@dataclass(frozen=True)
class BasisSet:
    """Sampled basis matrices P, Pdot, Pddot of shape (n_p, degree + 1).

    gram[k] is the Gram block of the order-k samples, (degree + 1,
    degree + 1): P'P, Pdot'Pdot and Pddot'Pddot, read-only.  ramp is the
    (n_p, 1) column of n_p points from 0 to 1 that straight_line scales,
    read-only.
    """

    grid: TimeGrid
    degree: int
    P: np.ndarray
    Pdot: np.ndarray
    Pddot: np.ndarray
    gram: tuple = field(init=False, repr=False, compare=False)
    ramp: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        gram = tuple(m.T @ m for m in (self.P, self.Pdot, self.Pddot))
        ramp = np.linspace(0.0, 1.0, self.grid.n_p)[:, None]
        for block in (*gram, ramp):
            block.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "ramp", ramp)

    def boundary_rows(self, start_orders=(0, 1, 2), end_orders=(0, 1, 2)) -> np.ndarray:
        """boundary_matrix(self, start_orders, end_orders), formed once per order set and read-only."""
        key = tuple(start_orders), tuple(end_orders)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = boundary_matrix(self, *key)
            rows.setflags(write=False)
        return rows

    @property
    def n_var(self) -> int:
        return self.degree + 1

    @property
    def n_p(self) -> int:
        return self.grid.n_p


@dataclass
class Trajectory:
    """Dense trajectory samples used by metrics and the benchmark harness.

    pos/vel/acc have shape (n_p, dim); psi is optional heading samples.
    """

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    psi: np.ndarray | None = None


@dataclass(frozen=True)
class AxisBoundary:
    """Boundary values for one axis: position/velocity/acceleration at t0 and tf."""

    p0: float
    v0: float = 0.0
    a0: float = 0.0
    p1: float = 0.0
    v1: float = 0.0
    a1: float = 0.0

    def values(self, start_orders=(0, 1, 2), end_orders=(0, 1, 2)) -> np.ndarray:
        start = self.p0, self.v0, self.a0
        end = self.p1, self.v1, self.a1
        return np.array([start[o] for o in start_orders] + [end[o] for o in end_orders])


def _bernstein_matrix(tau: np.ndarray, degree: int) -> np.ndarray:
    return np.stack(
        [math.comb(degree, j) * tau**j * (1.0 - tau) ** (degree - j) for j in range(degree + 1)],
        axis=1,
    )


def _col(mat: np.ndarray, j: int) -> np.ndarray:
    return mat[:, j] if 0 <= j < mat.shape[1] else np.zeros(mat.shape[0])


def build_basis(t0: float, tf: float, n_p: int, degree: int) -> BasisSet:
    """Build sampled Bernstein basis matrices on a uniform grid.

    Basis functions are B(j, degree) on tau in [0, 1]; derivatives use the
    exact degree-reduction identities, rescaled to real time.
    """
    grid = TimeGrid(t0=float(t0), tf=float(tf), n_p=n_p)
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    duration = grid.tf - grid.t0
    tau = (grid.timestamps - grid.t0) / duration
    n = degree

    P = _bernstein_matrix(tau, n)
    Pdot = np.zeros_like(P)
    Pddot = np.zeros_like(P)
    if n >= 1:
        lower1 = _bernstein_matrix(tau, n - 1)
        for j in range(n + 1):
            Pdot[:, j] = n * (_col(lower1, j - 1) - _col(lower1, j)) / duration
    if n >= 2:
        lower2 = _bernstein_matrix(tau, n - 2)
        for j in range(n + 1):
            Pddot[:, j] = (
                n * (n - 1) * (_col(lower2, j - 2) - 2.0 * _col(lower2, j - 1) + _col(lower2, j)) / duration**2
            )
    for m in (P, Pdot, Pddot):
        m.setflags(write=False)
    return BasisSet(grid=grid, degree=int(degree), P=P, Pdot=Pdot, Pddot=Pddot)


def sample_trajectory(basis: BasisSet, coeffs: np.ndarray, psi: np.ndarray | None = None) -> Trajectory:
    """Position/velocity/acceleration samples of per-axis coefficients.

    coeffs has shape (n_var, dim), one column per axis; psi is passed
    through as the heading samples.
    """
    return Trajectory(
        t=basis.grid.timestamps,
        pos=basis.P @ coeffs,
        vel=basis.Pdot @ coeffs,
        acc=basis.Pddot @ coeffs,
        psi=psi,
    )


def boundary_matrix(basis: BasisSet, start_orders=(0, 1, 2), end_orders=(0, 1, 2)) -> np.ndarray:
    """Equality rows pinning derivatives at the first/last grid sample.

    Row order matches AxisBoundary.values(start_orders, end_orders).
    """
    mats = {0: basis.P, 1: basis.Pdot, 2: basis.Pddot}
    rows = [mats[o][0] for o in start_orders] + [mats[o][-1] for o in end_orders]
    return np.vstack(rows)


def check_boundary_basis(basis: BasisSet) -> None:
    """Reject a basis below degree 5: boundary_matrix's six default rows are then rank-deficient."""
    if basis.n_var < 6:
        raise ValueError(f"a degree-{basis.degree} basis has {basis.n_var} coefficients per axis, fewer than the 6 boundary rows")


def endpoints(boundary) -> tuple[np.ndarray, np.ndarray]:
    """Start and goal positions of per-axis boundaries."""
    return np.array([bc.p0 for bc in boundary], dtype=float), np.array([bc.p1 for bc in boundary], dtype=float)


def straight_line(basis: BasisSet, start, goal) -> np.ndarray:
    """Samples (n_p, dim) of the straight constant-speed path from start to goal on the basis grid."""
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    return start[None, :] + (goal - start)[None, :] * basis.ramp


def straight_line_coeffs(basis: BasisSet, start, goal) -> np.ndarray:
    """Least-squares coefficients of straight_line per axis.

    Returns an array of shape (dim, n_var).  Exact for degree >= 1 since the
    line is affine in tau.
    """
    sol, *_ = np.linalg.lstsq(basis.P, straight_line(basis, start, goal), rcond=None)
    return sol.T

