"""The closed-form polar/spherical kernel shared by all solvers.

A separation constraint against an axis-aligned ellipsoid with semi-axes
(a, a, b) is rewritten as equalities in a line-of-sight scale d and angles
(alpha, beta):

    dx = a * d * cos(alpha) * sin(beta)
    dy = a * d * sin(alpha) * sin(beta)
    dz = b * d * cos(beta),          d >= 1

In 2-D the planar ellipse uses semi-axes (a, b):  dx = a d cos(alpha),
dy = b d sin(alpha).  Velocity and acceleration bounds take the same form
with a = b = the limit and d in [0, 1].

The kernel, the only place this math is written:

- scaled_sq_norm: squared ellipsoidal norm r**2 of per-axis offsets;
- los_scale: the closed-form scale d = clip(r, lower, upper);
- radial_clamp: residual of the closed-form polar projection, with no angles;
- norm_clamp: radial_clamp of velocity or acceleration samples against
  their norm bound, taken only where the bound is exceeded; a family with
  no sample beyond its bound costs one pass over the squared norms and
  yields None, so its solver adds nothing to its products;
- Obstacles: the one obstacle input of every solver, (dim, n_o, n_p) centre
  tracks and (n_o,) semi-axes checked once when built, and check_obstacles,
  their fit (None for none) to a problem's dimension and grid;
- ObstacleRows: the collision rows of many points on their active set,
  found by a broad phase over time windows, the one residual pass over
  obstacles of the batch and priest solvers, and of the CEM penalty;
- unit_pair: the projection onto the unit circle, (cos, sin) of an angle
  without the angle;
- radial_target: the closed-form spheroid scale and target for targets
  shifted off the offset (e.g. by multipliers), with no angles;
- angle2d, angles3d: the angles recovering an offset, which only seed the
  single solver's unit pairs (its sweeps project with unit_pair);
- stalled: the windowed stall test behind every penalty schedule;
- check_schedule: the parameter checks of the geometric penalty schedule
  that the single and batch solvers share;
- check_gaussian: the checks of a sampling mean and covariance that the
  batch and priest/CEM solvers share;
- draw_gaussian: the one draw from such a distribution.

Offsets are passed per axis, and the semi-axes broadcast against them, so
one call covers every timestep, obstacle and batch member.  All functions
are pure.  ObstacleRows owns the buffer of its sums, and forms offsets only
where its broad phase, per-window boxes of the obstacle tracks, cannot
show the clamp's residual to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "D_CAP",
    "EllipsoidShape",
    "ObstacleRows",
    "Obstacles",
    "angle2d",
    "angles3d",
    "check_gaussian",
    "check_obstacles",
    "check_schedule",
    "draw_gaussian",
    "los_scale",
    "norm_clamp",
    "radial_clamp",
    "radial_target",
    "scaled_sq_norm",
    "stalled",
    "unit_pair",
]

# Numerical cap standing in for the +inf upper bound on collision scales.
D_CAP = 1e6

# Time samples per window of ObstacleRows' broad phase.
_WINDOW = 10


@dataclass(frozen=True)
class EllipsoidShape:
    """Semi-axes of an axis-aligned obstacle: a in x/y, b in z (3-D reading).

    The same pair doubles as the planar ellipse (a in x, b in y) for 2-D
    solvers.
    """

    a: float
    b: float

    def __post_init__(self):
        if not all(np.isfinite(axis) and axis > 0 for axis in (self.a, self.b)):
            raise ValueError(f"semi-axes must be positive and finite, got a={self.a}, b={self.b}")


@dataclass(frozen=True, eq=False)
class Obstacles:
    """Obstacle centres sampled on the planning grid, and their semi-axes.

    centres is the (dim, n_o, n_p) track of every obstacle, stacked axis-major
    (bench.predict_obstacles bakes in constant-velocity motion); a and b are
    the (n_o,) semi-axes, read as in scaled_sq_norm.  Every array is copied,
    C-contiguous and read-only, and checked here, once for every solver.
    """

    centres: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        centres = np.array(self.centres, dtype=float, order="C")
        a, b = np.array(self.a, dtype=float), np.array(self.b, dtype=float)
        if centres.ndim != 3 or centres.shape[0] not in (2, 3):
            raise ValueError(f"obstacle centres must be (dim, n_o, n_p) with dim 2 or 3, got shape {centres.shape}")
        if a.shape != centres.shape[1:2] or b.shape != a.shape:
            raise ValueError(f"semi-axes a and b must be {centres.shape[1:2]}, one per obstacle, got {a.shape}, {b.shape}")
        if not np.all(np.isfinite(centres)):
            raise ValueError("obstacle centres must be finite")
        if not (np.all(np.isfinite(a) & (a > 0)) and np.all(np.isfinite(b) & (b > 0))):
            raise ValueError(f"semi-axes must be positive and finite, got a={a}, b={b}")
        for name, value in (("centres", centres), ("a", a), ("b", b)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.centres.shape[0]

    @property
    def n_o(self) -> int:
        return self.centres.shape[1]

    @property
    def n_p(self) -> int:
        return self.centres.shape[2]


def check_obstacles(obstacles: Obstacles | None, dim: int, n_p: int) -> Obstacles:
    """The obstacles of a dim-D problem on n_p timesteps, None for none; ValueError for another dim or grid."""
    if obstacles is None:
        return Obstacles(np.zeros((dim, 0, n_p)), (), ())
    if (obstacles.dim, obstacles.n_p) != (dim, n_p):
        raise ValueError(f"obstacles are {obstacles.dim}-D on {obstacles.n_p} timesteps, the problem is {dim}-D on {n_p}")
    return obstacles


def angle2d(dx, dy):
    """Planar angle in (-pi, pi]; the origin maps to 0 by convention.

    For the planar ellipse pass the scaled offsets (dx / a, dy / b).
    """
    alpha = np.arctan2(dy, dx)
    return np.where(alpha == -np.pi, np.pi, alpha)


def angles3d(deltas, a, b):
    """Azimuth/polar angles recovering (dx, dy, dz) through the spheroid equalities.

    alpha in (-pi, pi], beta in [0, pi].  Degenerate directions
    (dx = dy = 0) take alpha = 0; beta stays total because it is computed
    from the planar magnitude rather than dividing by cos(alpha).  deltas,
    a and b are as in scaled_sq_norm.
    """
    dx, dy, dz = deltas
    alpha = angle2d(dx, dy)
    planar = np.hypot(dx / a, dy / a)
    beta = np.arctan2(planar, dz / b)
    return alpha, beta


def scaled_sq_norm(deltas, a, b):
    """Squared ellipsoidal norm of per-axis offsets.

    deltas is a sequence of per-axis arrays of one shape: (dx, dy) for the
    planar ellipse with semi-axes (a, b), or (dx, dy, dz) for the (a, a, b)
    spheroid.  Every axis but the last is scaled by a, the last by b.  a and
    b broadcast against the offsets, so one call covers many obstacles.
    """
    inv_a, inv_b = 1.0 / np.asarray(a, dtype=float), 1.0 / np.asarray(b, dtype=float)
    *lateral, last = deltas
    quad, *rest = [d * inv_a for d in lateral] + [last * inv_b]
    quad *= quad
    for scaled in rest:
        scaled *= scaled
        quad += scaled
    return quad


def los_scale(deltas, a, b, lower=1.0, upper=D_CAP):
    """Closed-form line-of-sight scale: the scaled norm clamped to [lower, upper].

    This is the d minimizing the polar equality residual when the angles are
    those of the offset itself.  deltas, a and b are as in scaled_sq_norm.
    """
    return np.clip(np.sqrt(scaled_sq_norm(deltas, a, b)), lower, upper)


def radial_clamp(deltas, a, b, lower=1.0, upper=D_CAP):
    """Residual delta - target of the closed-form polar projection.

    The polar sub-steps put the target at scale d = clip(r, lower, upper)
    in the direction of the offset, r being the scaled norm
    (scaled_sq_norm ** 0.5).  Because cos(arctan2(y, x)) = x / r, the
    target is delta * d / r and no angle is needed: the residual is
    delta * (1 - d / r).  At r = 0 the angles take their origin convention
    (alpha = beta = 0), which puts the target at lower * a along the first
    axis in 2-D and at lower * b along the last axis in 3-D.

    deltas, a and b are as in scaled_sq_norm.  Returns the list of per-axis
    residuals, each shaped as the offsets broadcast against a and b.  At
    a = b = lower = upper = 1 in 2-D the target is unit_pair.

    Zero band: the residual is exactly zero (possibly -0.0) wherever the
    squared norm q = scaled_sq_norm(deltas, a, b) satisfies
    lower**2 <= q <= upper**2, with lower and upper such that lower**2 and
    upper**2 are exact (1 and D_CAP**2, 0 and 1).  sqrt is monotone and
    exact at those squares, so r = sqrt(q) lies in [lower, upper], the clamp
    leaves it unchanged and r / r == 1; at r = lower = 0 the origin
    convention puts the target at the offset.  Callers may skip such
    entries.
    """
    r = scaled_sq_norm(deltas, a, b)
    np.sqrt(r, out=r)
    centre = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.clip(r, lower, upper)
        shrink /= r
        np.subtract(1.0, shrink, out=shrink)
        out = [d * shrink for d in deltas]
    if centre.any():
        axis, semi = (0, a) if len(deltas) == 2 else (len(deltas) - 1, b)
        for res in out:
            res[centre] = 0.0
        out[axis][centre] = -lower * np.broadcast_to(semi, r.shape)[centre]
    return out


class ObstacleRows:
    """The collision rows of n points against n_o obstacles, taken on their active set.

    The obstacles' centres and semi-axes are read as in scaled_sq_norm; n
    is the number of points a pass takes.  An entry is one
    (obstacle, point, time) triple, and a (point, time) pair is a cell.
    An entry's residual is radial_clamp of its own offset, point minus
    centre, and nothing else: the priest samples and the batch footprint
    circles, placed by the heading copies, take the same pass.

    radial_clamp's residual is exactly zero wherever the squared scaled norm
    q of an offset lies in [1, D_CAP**2], and a broad phase forms q only
    where an entry can leave that band.  Time is cut into windows of
    _WINDOW samples, the last one possibly short.  Per obstacle, window and
    axis, the box of the track is kept, widened by that axis's semi-axis
    times (1 + 1e-9).  A pass takes each point's per-window range of
    positions and forms q only on the entries of the (obstacle, point,
    window) blocks whose ranges meet the box on every axis.

    A skipped entry has q >= 1 exactly, since rounding is monotone.  Say the
    axis that misses has pmin > fl(cmax + h), h the widened semi-axis.  The
    float pmin then lies above the real cmax + h, so fl(p - c) >=
    fl(pmin - cmax) >= h, which gives fl(p - c) * (1 / a) >= 1 and q >= 1;
    below the box, fl(p - c) = -fl(c - p).  The upper end of the band holds
    for every entry while max|pos| + max|centre| stays below
    D_CAP * min(a, b) / sqrt(dim) * (1 - 1e-9).  When it does not (NaN and
    inf points included), every block is taken.  The buffers of the sums
    and of the windowed positions are allocated once per solve and reused
    by every residual pass.
    """

    def __init__(self, obstacles: Obstacles, n: int):
        self.centres, self.a, self.b = obstacles.centres, obstacles.a, obstacles.b
        dim, n_o, n_p = self.centres.shape
        self.n = n
        self.sums = np.empty((dim, n, n_p))
        n_w = -(-n_p // _WINDOW)
        # the positions, time-major and padded to whole windows, and their
        # per-window ranges, stacked as (min, -max) per axis
        self.windows = np.empty((dim, n_w * _WINDOW, n))
        self.ranges = np.empty((2 * dim, n, n_w))
        # scaled_sq_norm scales every axis but the last by a, the last by b
        semi = np.stack([self.a] * (dim - 1) + [self.b])[:, :, None]
        starts = np.arange(0, n_p, _WINDOW)
        lo = np.minimum.reduceat(self.centres, starts, axis=2) - semi * (1.0 + 1e-9)
        hi = np.maximum.reduceat(self.centres, starts, axis=2) + semi * (1.0 + 1e-9)
        # the boxes as bounds on the ranges, (max, -min) per axis, for every point
        boxes = np.concatenate([hi, -lo])[:, :, None]
        self.boxes = np.ascontiguousarray(np.broadcast_to(boxes, (2 * dim, n_o, n, n_w)))
        self.centre_reach = np.abs(self.centres).max(initial=0.0)
        self.cap_reach = D_CAP * semi.min(initial=np.inf) / np.sqrt(dim) * (1.0 - 1e-9)

    def _broad_phase(self, pos):
        """The entries of the (n, dim, n_p) points pos whose q may leave [1, D_CAP**2].

        Returns (o, point, t, deltas, q) of those entries, in flat (obstacle,
        point, time) order: their obstacle, point and time indices, the
        per-axis offsets pos - centre, and q formed from them with
        scaled_sq_norm's arithmetic.  Every other entry has q in the band.
        """
        dim, _, n_p = self.centres.shape
        windows, ranges = self.windows, self.ranges
        windows[:, :n_p] = pos.transpose(1, 2, 0)
        windows[:, n_p:] = windows[:, n_p - 1 : n_p]  # the last sample fills a short last window
        split = windows.reshape(dim, -1, _WINDOW, self.n)
        ranges[:dim] = split.min(axis=2).transpose(0, 2, 1)
        ranges[dim:] = split.max(axis=2).transpose(0, 2, 1)
        np.negative(ranges[dim:], out=ranges[dim:])
        # -ranges.min() is max|pos|; NaN and inf fail the comparison and keep every block
        if -ranges.min(initial=0.0) + self.centre_reach < self.cap_reach:
            blocks = np.all(ranges[:, None] <= self.boxes, axis=0)
        else:
            blocks = np.ones(self.boxes.shape[1:], dtype=bool)
        ow, w = np.divmod(np.flatnonzero(blocks), ranges.shape[2])
        t = (w * _WINDOW)[:, None] + np.arange(_WINDOW)
        inside = t < n_p
        ow, t = np.broadcast_to(ow[:, None], t.shape)[inside], t[inside]
        o, point = np.divmod(ow, self.n)
        at, cell = o * n_p + t, t * self.n + point
        deltas = [np.take(windows[k], cell) - np.take(self.centres[k], at) for k in range(dim)]
        return o, point, t, deltas, scaled_sq_norm(deltas, self.a[o], self.b[o])

    def least_sq_norms(self, pos):
        """The least q of each of the (n, dim, n_p) points pos, +inf where the broad phase takes none.

        Every entry it skips has q >= 1, so the value is exact wherever it
        is below 1, and at least 1 elsewhere.
        """
        _, point, _, _, q = self._broad_phase(pos)
        least = np.full(self.n, np.inf)
        np.minimum.at(least, point, q)
        return least

    def penetrations(self, pos):
        """The (n,) sum over obstacles and times of max(0, 1 - q) of each of the (n, dim, n_p) points pos.

        An entry the broad phase skips has q >= 1 and adds zero; the others
        are added in flat (obstacle, point, time) order, a NaN q making NaN.
        """
        _, point, _, _, q = self._broad_phase(pos)
        return np.bincount(point, np.maximum(0.0, 1.0 - q), minlength=self.n)

    def residuals(self, pos):
        """Collision residuals of the (n, dim, n_p) points pos against every obstacle.

        Each obstacle's residual is radial_clamp's at lower = 1, upper =
        D_CAP.  Returns (sums, sq, peak): sums is the (dim, n, n_p) sum over
        obstacles of the per-axis residuals, a view of the workspace that
        the next pass overwrites; sq and peak are the (n,) per-point sum of
        squares and largest absolute value of the residual entries.

        radial_clamp's residual is exactly zero wherever the squared scaled
        norm q lies in [1, D_CAP**2], so of the entries the broad phase
        takes, only those outside the band (NaN included) go through the
        clamp, in flat (obstacle, point, time) order, and each cell's sum
        adds them onto zeros in obstacle order.  The skipped terms are exact
        zeros, so the sums are bit for bit those of the clamp of every entry
        summed in obstacle order, and peak is that array's largest entry; sq
        is formed in another order.
        """
        dim, _, n_p = self.centres.shape
        o, point, t, deltas, q = self._broad_phase(pos)
        # the complement of the band, not (q < 1) | (q > D_CAP**2), so that NaN stays active
        active = ~((q >= 1.0) & (q <= D_CAP**2))
        o, point, cell = o[active], point[active], point[active] * n_p + t[active]
        res = radial_clamp([d[active] for d in deltas], self.a[o], self.b[o])
        sums = self.sums.reshape(dim, -1)
        sums.fill(0.0)
        for k, r in enumerate(res):
            np.add.at(sums[k], cell, r)
        sq, peak = np.zeros(self.n), np.zeros(self.n)
        np.add.at(sq, point, sum(r * r for r in res))
        with np.errstate(invalid="ignore"):  # a NaN residual makes its point's peak NaN
            np.maximum.at(peak, point, np.max(np.abs(res), axis=0))
        return self.sums, sq, peak


def norm_clamp(deltas, limit: float):
    """radial_clamp of per-axis samples at a = b = limit, lower = 0, upper = 1, on their active set.

    The velocity and acceleration rows of the batch and priest solvers.
    deltas is a sequence of per-axis arrays of one shape, as in
    scaled_sq_norm.  The residual is zero wherever the squared scaled norm q
    lies in [0, 1] (radial_clamp's zero band), so q is formed once, with
    scaled_sq_norm's arithmetic, and only the entries with q > 1 or NaN go
    through the clamp.  Returns None when every q <= 1: the family has no
    nonzero residual, and a caller adds nothing for it.  Otherwise returns
    the list of per-axis residuals, zero but on the active entries, where
    they equal radial_clamp's of every entry bit for bit.
    """
    # the complement of the band, not q > 1, so that NaN stays active
    active = ~(scaled_sq_norm(deltas, limit, limit) <= 1.0)
    if not active.any():
        return None
    clamped = radial_clamp([d[active] for d in deltas], limit, limit, lower=0.0, upper=1.0)
    out = [np.zeros(active.shape) for _ in deltas]
    for res, r in zip(out, clamped):
        res[active] = r
    return out


def unit_pair(c, s):
    """(c, s) / hypot(c, s), stacked as (2, ...): (cos, sin) of arctan2(s, c), no angle taken.

    This is the radial_clamp target at a = b = lower = upper = 1, the
    nearest point of the unit circle.  The origin maps to (1, 0), the
    convention of arctan2(0, 0) = 0.
    """
    r = np.hypot(c, s)
    out = np.array([c, s], dtype=float)
    centre = r == 0.0
    with np.errstate(invalid="ignore"):
        out /= r
    if centre.any():
        out[0][centre], out[1][centre] = 1.0, 0.0
    return out


def radial_target(deltas, a, b, shifted, lower=1.0, upper=D_CAP):
    """Closed-form (a, a, b) spheroid scale d and target for a shifted target.

    At the angles of the offset delta, d in [lower, upper] minimizes
    |shifted - target(d)|^2, target(d) the spheroid point of scale d.  Since
    sin(beta) cos(alpha) = dx / (a r), sin(beta) sin(alpha) = dy / (a r) and
    cos(beta) = dz / (b r), r the scaled norm, no angle is needed:
    d = clip(r (delta . shifted) / (delta . delta)) and target = delta d / r.
    With shifted = delta, d is los_scale and delta - target is radial_clamp.
    At r = 0 the angles take their origin convention (alpha = beta = 0):
    the target is (0, 0, b d), d = clip(shifted_z / b).

    deltas and shifted are (3, ...) arrays; a and b broadcast against one
    axis.  Returns d, shaped as one axis, and the (3, ...) target.
    """
    r = scaled_sq_norm(deltas, a, b)
    np.sqrt(r, out=r)
    dot = np.einsum("k...,k...->...", deltas, shifted)
    centre = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.clip(r * dot / np.einsum("k...,k...->...", deltas, deltas), lower, upper)
        target = deltas * (d / r)
    if centre.any():
        semi = np.broadcast_to(b, r.shape)[centre]
        d[centre] = np.clip(shifted[-1][centre] / semi, lower, upper)
        target[:, centre] = 0.0
        target[-1][centre] = semi * d[centre]
    return d, target


def stalled(history, since_change, window, improvement, floor):
    """Windowed stall test behind every penalty schedule.

    True when the mean of the last `window` entries of history improved on
    the mean of the `window` before them by a relative amount below
    `improvement`.  Never true with fewer than 2 * window entries, within
    `window` iterations of the last penalty change (since_change), or when
    the earlier mean is already at or below `floor`.  The response (grow a
    penalty, advance a level) is the caller's.
    """
    if len(history) < 2 * window or since_change < window:
        return False
    recent = _window_mean(history[-window:])
    previous = _window_mean(history[-2 * window : -window])
    return bool(previous > floor and (previous - recent) / previous < improvement)


def _window_mean(values):
    """np.mean of a list of floats, bit for bit, without building an array for short lists.

    numpy adds fewer than 8 entries one after another from 0, as sum does;
    from 8 entries on it sums pairwise, so longer windows keep np.mean.
    """
    if len(values) < 8:
        return sum(values) / len(values)
    return np.mean(values)


def check_schedule(params):
    """Reject a geometric penalty schedule that cannot run.

    params carries max_iter, tol, rho_start, rho_growth, rho_cap,
    stall_window and stall_improvement: rho starts positive and finite,
    grows by a finite factor of at least 1 up to a finite cap at or above
    its start, and stalls are judged over windows of at least one entry.
    Raises ValueError naming the first bad field.
    """
    for name in ("rho_start", "rho_cap"):
        value = getattr(params, name)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if params.rho_cap < params.rho_start:
        raise ValueError(f"rho_cap {params.rho_cap} is below rho_start {params.rho_start}")
    if not (np.isfinite(params.rho_growth) and params.rho_growth >= 1):
        raise ValueError(f"rho_growth must be finite and at least 1, got {params.rho_growth}")
    if params.max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {params.max_iter}")
    if params.stall_window < 1:
        raise ValueError(f"stall_window must be at least 1, got {params.stall_window}")
    for name in ("tol", "stall_improvement"):
        if np.isnan(getattr(params, name)):
            raise ValueError(f"{name} must not be NaN")


def check_gaussian(mean: np.ndarray, covariance: np.ndarray) -> None:
    """Reject a sampling distribution N(mean, covariance) that cannot be drawn from.

    mean must be a finite vector and covariance a finite, symmetric, positive
    semi-definite matrix of its size (to 1e-10, relative for the spectrum).
    Raises ValueError.
    """
    if mean.ndim != 1 or covariance.shape != (mean.size, mean.size):
        raise ValueError(f"covariance of shape {covariance.shape} does not match a mean of shape {mean.shape}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(covariance))):
        raise ValueError("mean and covariance must be finite")
    if not np.allclose(covariance, covariance.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(covariance)
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError("covariance must be positive semi-definite")


def draw_gaussian(rng: np.random.Generator, mean: np.ndarray, covariance: np.ndarray, size: int) -> np.ndarray:
    """Draw size samples of N(mean, covariance) from rng, one per row.

    The one sampler of the batch and priest/CEM solvers: an SVD factor of
    the covariance, so a semi-definite one draws.
    """
    return rng.multivariate_normal(mean, covariance, size=size, method="svd")
