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
- radial_target: the closed-form spheroid scale and target for targets
  shifted off the offset (e.g. by multipliers), with no angles;
- angle2d: the planar angle of an offset, in the angle form that
  radial_clamp and radial_target replace; no solver takes it;
- stalled: the windowed stall test behind every penalty schedule;
- Schedule: the geometric penalty schedule that the single and batch
  solvers' parameters extend, its checks, its stall test and its growth;
- residual_extremes: the (norm, max |entry|) a solver reports of a residual;
- check_count: the check of one integer count (iterations, windows, batch
  sizes, seeds) that every params class and the batch problem share;
- check_flag: the check of one bool switch (the certified stops);
- check_real: the check of one real-valued input (limits, weights, margins,
  penalties, semi-axes, horizon ends) against one of a few named rules, that
  every params, problem and scenario class shares;
- check_gaussian: the checks of a sampling mean and covariance that the
  batch and priest/CEM solvers share;
- draw_gaussian: the one draw from such a distribution.

Offsets are passed per axis, and the semi-axes broadcast against them, so
one call covers every timestep, obstacle and batch member.  The functions
are pure but for their out arguments: scaled_sq_norm and radial_target
write their result into out when one is given (the single solver's sweep
and the multi-agent iteration pass their state's own arrays), and return
it.
ObstacleRows owns the buffer of its sums, forms offsets only where its
broad phase, per-window boxes of the obstacle tracks, cannot show the
clamp's residual to be zero, and reduces per-point scores only when a
caller asks for them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "D_CAP",
    "EllipsoidShape",
    "ObstacleRows",
    "Obstacles",
    "Schedule",
    "angle2d",
    "check_count",
    "check_flag",
    "check_gaussian",
    "check_obstacles",
    "check_real",
    "draw_gaussian",
    "norm_clamp",
    "radial_clamp",
    "radial_target",
    "residual_extremes",
    "scaled_sq_norm",
    "stalled",
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
        check_real(self, "positive and finite", "a", "b", prefix="semi-axes ")


@dataclass(frozen=True, eq=False)
class Obstacles:
    """Obstacle centres sampled on the planning grid, and their semi-axes.

    centres is the (dim, n_o, n_p) track of every obstacle, stacked axis-major
    (bench.predict_obstacles bakes in constant-velocity motion); a and b are
    the (n_o,) semi-axes, read as in scaled_sq_norm.  Every array is copied,
    C-contiguous and read-only, and checked here, once for every solver;
    with_axes gives the same tracks with other semi-axes, checking only those.
    """

    centres: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        centres = np.array(self.centres, dtype=float, order="C")
        if centres.ndim != 3 or centres.shape[0] not in (2, 3):
            raise ValueError(f"obstacle centres must be (dim, n_o, n_p) with dim 2 or 3, got shape {centres.shape}")
        if not np.isfinite(centres).all():
            raise ValueError("obstacle centres must be finite")
        centres.setflags(write=False)
        object.__setattr__(self, "centres", centres)
        self._set_axes(self.a, self.b)

    def _set_axes(self, a, b) -> None:
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        if a.shape != self.centres.shape[1:2] or b.shape != a.shape:
            raise ValueError(f"semi-axes a and b must be {self.centres.shape[1:2]}, one per obstacle, got {a.shape}, {b.shape}")
        if not ((np.isfinite(a) & (a > 0)).all() and (np.isfinite(b) & (b > 0)).all()):
            raise ValueError(f"semi-axes must be positive and finite, got a={a}, b={b}")
        for name, value in (("a", a), ("b", b)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def with_axes(self, a, b) -> Obstacles:
        """These tracks with the semi-axes a and b, checked as the constructor
        checks them; the read-only centres are shared, not copied or checked again."""
        other = object.__new__(Obstacles)
        object.__setattr__(other, "centres", self.centres)
        other._set_axes(a, b)
        return other

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


def scaled_sq_norm(deltas, a, b, out=None, inverse=False):
    """Squared ellipsoidal norm of per-axis offsets.

    deltas is a sequence of per-axis arrays of one shape: (dx, dy) for the
    planar ellipse with semi-axes (a, b), or (dx, dy, dz) for the (a, a, b)
    spheroid.  Every axis but the last is scaled by a, the last by b.  a and
    b broadcast against the offsets, so one call covers many obstacles.
    With inverse, a and b are given as 1 / a and 1 / b, formed once by a
    caller that scales many offsets by the same semi-axes.  Written into
    out when given; every axis after the first is squared in one temporary
    row.
    """
    inv_a, inv_b = (a, b) if inverse else (1.0 / np.asarray(a, dtype=float), 1.0 / np.asarray(b, dtype=float))
    first, *others = deltas
    quad = np.multiply(first, inv_a, out=out)
    quad *= quad
    scaled = np.empty_like(quad)
    for d, inv in zip(others, [inv_a] * (len(others) - 1) + [inv_b]):
        np.multiply(d, inv, out=scaled)
        scaled *= scaled
        quad += scaled
    return quad


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
    residuals, each shaped as the offsets broadcast against a and b.

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
    _WINDOW samples; a short last window is padded with repeats of the last
    sample, in the positions and in the centre tracks alike, and no padded
    entry reaches a result.  Per obstacle, window and axis, the box of the
    track is kept, widened by that axis's semi-axis times (1 + 1e-9).  A
    pass takes each point's per-window range of positions and keeps the
    (obstacle, point, window) blocks whose ranges meet the box on every
    axis.  Each kept block gathers its window of positions, from the
    time-major windowed copy, and of the padded centre track, made once
    here, as one row of _WINDOW offsets, and forms q on the row with the
    block's 1 / a and 1 / b; only the entries that leave the band get a
    cell index.

    A skipped entry has q >= 1 exactly, since rounding is monotone.  Say the
    axis that misses has pmin > fl(cmax + h), h the widened semi-axis.  The
    float pmin then lies above the real cmax + h, so fl(p - c) >=
    fl(pmin - cmax) >= h, which gives fl(p - c) * (1 / a) >= 1 and q >= 1;
    below the box, fl(p - c) = -fl(c - p).  The upper end of the band holds
    for every entry while max|pos| + max|centre| stays below
    D_CAP * min(a, b) / sqrt(dim) * (1 - 1e-9).  When it does not (NaN and
    inf points included), every block is taken.

    A pass is split in two: residuals forms the per-cell sums and keeps the
    active entries' residuals, and scores reduces those to per-point scores
    for a caller that reads them.  The buffers of the sums and of the
    windowed positions are allocated once per solve and reused by every
    residual pass.
    """

    def __init__(self, obstacles: Obstacles, n: int):
        self.centres, self.a, self.b = obstacles.centres, obstacles.a, obstacles.b
        dim, n_o, n_p = self.centres.shape
        self.n = n
        self.sums = np.empty((dim, n, n_p))
        n_w = -(-n_p // _WINDOW)
        self.pad = n_w * _WINDOW - n_p  # samples that pad the last window
        # the positions, time-major and padded to whole windows, and their
        # per-window ranges, stacked as (min, -max) per axis
        self.windows = np.empty((dim, n_w * _WINDOW, n))
        self.ranges = np.empty((2 * dim, n, n_w))
        # the centre tracks padded as the positions are, one row per (obstacle, window)
        tracks = np.concatenate([self.centres, np.repeat(self.centres[:, :, -1:], self.pad, axis=2)], axis=2)
        self.tracks = tracks.reshape(dim, n_o, n_w, _WINDOW)
        self.inv_a, self.inv_b = 1.0 / self.a, 1.0 / self.b
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
        # the active entries of the last pass: their points and per-axis residuals
        self.points, self.clamped = np.zeros(0, dtype=np.intp), [np.zeros(0)] * dim

    def _broad_phase(self, pos):
        """The (obstacle, point, window) blocks of the (n, dim, n_p) points pos whose q may leave [1, D_CAP**2].

        Returns (o, point, w, deltas, q), the blocks in flat (obstacle,
        point, window) order: their obstacle, point and window indices, the
        per-axis offsets pos - centre of each block's samples, and q formed
        from them with scaled_sq_norm's arithmetic, each (n_blocks,
        _WINDOW).  Entry (i, j) is time w[i] * _WINDOW + j, so the rows read
        in flat (obstacle, point, time) order; those of a short last window
        end in self.pad repeats of the last sample.  Every entry outside the
        blocks has q in the band.
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
        o, point = np.divmod(ow, self.n)
        deltas = [split[k][w, :, point] - self.tracks[k][o, w] for k in range(dim)]
        return o, point, w, deltas, scaled_sq_norm(deltas, self.inv_a[o][:, None], self.inv_b[o][:, None], inverse=True)

    def _unpad(self, w, values, fill):
        """Set to fill the entries of the (n_blocks, _WINDOW) values of blocks in windows w that pad the last window."""
        if self.pad:
            values[w == self.ranges.shape[2] - 1, -self.pad :] = fill

    def least_sq_norms(self, pos):
        """The least q of each of the (n, dim, n_p) points pos, +inf where the broad phase takes none.

        Every entry it skips has q >= 1, so the value is exact wherever it
        is below 1, and at least 1 elsewhere.  A padded entry repeats the
        last sample of its own block, so the least q of a block is that of
        its samples.
        """
        _, point, _, _, q = self._broad_phase(pos)
        least = np.full(self.n, np.inf)
        np.minimum.at(least, point, q.min(axis=1))
        return least

    def penetrations(self, pos):
        """The (n,) sum over obstacles and times of max(0, 1 - q) of each of the (n, dim, n_p) points pos.

        An entry the broad phase skips has q >= 1 and adds zero; the others
        are added in flat (obstacle, point, time) order, a NaN q making NaN,
        and the padded ones add zero.  The sums are float64 even when no
        entry is kept (np.bincount of no indices returns int64).
        """
        _, point, w, _, q = self._broad_phase(pos)
        gaps = np.maximum(0.0, 1.0 - q)
        self._unpad(w, gaps, 0.0)
        return np.bincount(np.repeat(point, _WINDOW), gaps.ravel(), minlength=self.n).astype(float, copy=False)

    def residuals(self, pos):
        """The (dim, n, n_p) collision residuals of the points pos, summed over obstacles.

        pos holds (n, dim, n_p) points.  Each obstacle's residual is
        radial_clamp's at lower = 1, upper = D_CAP.  The sums are a view of
        the workspace that the next pass overwrites; the active entries'
        residuals are kept for scores.

        radial_clamp's residual is exactly zero wherever the squared scaled
        norm q lies in [1, D_CAP**2], so of the entries the broad phase
        takes, only those outside the band (NaN included) go through the
        clamp, in flat (obstacle, point, time) order, and each cell's sum
        adds them onto zeros in obstacle order.  The skipped terms are exact
        zeros, so the sums are bit for bit those of the clamp of every entry
        summed in obstacle order.
        """
        dim, _, n_p = self.centres.shape
        o, point, w, deltas, q = self._broad_phase(pos)
        # the complement of the band, not (q < 1) | (q > D_CAP**2), so that NaN stays active
        active = ~((q >= 1.0) & (q <= D_CAP**2))
        self._unpad(w, active, False)
        block, j = np.nonzero(active)
        o, point = o[block], point[block]
        res = radial_clamp([d[active] for d in deltas], self.a[o], self.b[o])
        cell = point * n_p + w[block] * _WINDOW + j
        sums = self.sums.reshape(dim, -1)
        sums.fill(0.0)
        for k, r in enumerate(res):
            np.add.at(sums[k], cell, r)
        self.points, self.clamped = point, res
        return self.sums

    def extremes(self):
        """The (dim,) least and greatest coordinate on each axis of the points of the last pass.

        Read from the broad phase's per-window ranges; a NaN coordinate
        makes both of its axis's values NaN.
        """
        dim = self.centres.shape[0]
        least = self.ranges.reshape(2 * dim, -1).min(axis=1)
        return least[:dim], -least[dim:]

    def scores(self):
        """(sq, peak) of the last residuals pass: the (n,) per-point sum of squares and largest |entry| of the residuals.

        peak is the largest entry of the clamp of every entry, a NaN
        residual making its point's peak NaN; sq adds the active entries'
        squares point by point in flat order.
        """
        sq, peak = np.zeros(self.n), np.zeros(self.n)
        np.add.at(sq, self.points, sum(r * r for r in self.clamped))
        with np.errstate(invalid="ignore"):
            np.maximum.at(peak, self.points, np.max(np.abs(self.clamped), axis=0))
        return sq, peak


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


def radial_target(deltas, a, b, shifted, lower=1.0, upper=D_CAP, out=None, inverse=None):
    """Closed-form (a, a, b) spheroid scale d and target for a shifted target.

    At the angles of the offset delta, d in [lower, upper] minimizes
    |shifted - target(d)|^2, target(d) the spheroid point of scale d.  Since
    sin(beta) cos(alpha) = dx / (a r), sin(beta) sin(alpha) = dy / (a r) and
    cos(beta) = dz / (b r), r the scaled norm, no angle is needed:
    d = clip(r (delta . shifted) / (delta . delta)) and target = delta d / r.
    With shifted = delta, d is clip(r) and delta - target is radial_clamp.
    At r = 0 the angles take their origin convention (alpha = beta = 0):
    the target is (0, 0, b d), d = clip(shifted_z / b).

    deltas and shifted are (3, ...) arrays; a and b broadcast against one
    axis.  Returns d, shaped as one axis, and the (3, ...) target.  out, a
    (d, target) pair sharing no memory with deltas or shifted, receives
    them when given; the target's rows hold r and the dot products until
    the target is formed, so such a call allocates only scaled_sq_norm's
    rows and the mask of r = 0.  inverse, when given, is the pair
    (1 / a, 1 / b), formed once by a caller with many offsets of the same
    semi-axes.  The clamp is np.maximum then np.minimum, which give
    np.clip's values, NaN included.
    """
    if inverse is None:
        inverse = 1.0 / np.asarray(a, dtype=float), 1.0 / np.asarray(b, dtype=float)
    if out is None:
        shape = np.broadcast_shapes(np.shape(deltas[0]), np.shape(shifted[0]), np.shape(a), np.shape(b))
        out = np.empty(shape), np.empty((len(deltas), *shape))
    d, target = out
    r, dot = target[0], target[1]
    scaled_sq_norm(deltas, *inverse, out=r, inverse=True)
    np.sqrt(r, out=r)
    np.einsum("k...,k...->...", deltas, shifted, out=dot)
    centre = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(r, dot, out=d)
        d /= np.einsum("k...,k...->...", deltas, deltas, out=dot)
        np.minimum(np.maximum(d, lower, out=d), upper, out=d)
        ratio = np.divide(d, r, out=r)
        # the first row holds d / r until the others are formed
        np.multiply(deltas[1:], ratio, out=target[1:])
        np.multiply(deltas[0], ratio, out=target[0])
    if centre.any():
        semi = np.broadcast_to(b, d.shape)[centre]
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


def residual_extremes(res: np.ndarray) -> tuple[float, float]:
    """(2-norm, largest |entry|) of a residual block, (0, 0) for an empty one.

    sqrt(flat . flat) is np.linalg.norm's own sum of squares on a C-contiguous
    block; a NaN entry makes both NaN.
    """
    if not res.size:
        return 0.0, 0.0
    flat = res.ravel()
    return math.sqrt(flat.dot(flat)), float(np.abs(flat).max())


def _window_mean(values):
    """np.mean of a list of floats, bit for bit, without building an array for short lists.

    numpy adds fewer than 8 entries one after another from 0, as sum does;
    from 8 entries on it sums pairwise, so longer windows keep np.mean.
    """
    if len(values) < 8:
        return sum(values) / len(values)
    return np.mean(values)


@dataclass
class Schedule:
    """The geometric penalty schedule of an augmented-Lagrangian loop, checked when built.

    rho starts positive and finite, grows by a finite factor of at least 1
    up to a finite cap at or above its start, and stalls are judged over
    windows of at least one entry; a bad field raises ValueError naming it.
    The loop stops at max_iter sweeps or once its residual max is at most tol.
    """

    max_iter: int = 100
    tol: float = 1e-2
    rho_start: float = 1.0
    rho_growth: float = 1.4
    # cap keeps the saddle within the qp-core conditioning guard for degree-10 bases
    rho_cap: float = 1e3
    stall_window: int = 5
    stall_improvement: float = 0.01

    def __post_init__(self):
        check_real(self, "positive and finite", "rho_start", "rho_cap")
        if self.rho_cap < self.rho_start:
            raise ValueError(f"rho_cap {self.rho_cap} is below rho_start {self.rho_start}")
        check_real(self, "finite and at least 1", "rho_growth")
        check_count(self, 0, "max_iter")
        check_count(self, 1, "stall_window")
        check_real(self, "not NaN", "tol", "stall_improvement")

    def stalled(self, progress, since) -> bool:
        """stalled() of the residual maxima in progress, since sweeps after the last growth, floored at tol."""
        return stalled(progress, since, self.stall_window, self.stall_improvement, max(self.tol, 0.0))

    def grown(self, rho: float) -> float:
        """The penalty after rho stalls: one growth step, capped."""
        return min(rho * self.rho_growth, self.rho_cap)


def check_count(owner, lower, *names):
    """Reject each named count of owner unless it is an integer of at least lower; a float, even a whole one, is not."""
    for name in names:
        value = getattr(owner, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if value < lower:
            raise ValueError(f"{name} must be at least {lower}, got {value}")


def check_flag(owner, *names):
    """Reject each named field of owner unless it is a bool (NumPy's too); a truthy string or number is not."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {value!r}")


# The rules of check_real, each named by what it asks of a value, as its error states it.
_REAL_RULES = {
    "positive and finite": lambda v: math.isfinite(v) and v > 0,
    "non-negative and finite": lambda v: math.isfinite(v) and v >= 0,
    "finite": math.isfinite,
    "finite and at least 1": lambda v: math.isfinite(v) and v >= 1,
    "not NaN": lambda v: not math.isnan(v),
}


def check_real(owner, rule, *names, prefix=""):
    """Reject each named field of owner unless it is a real number (int or float, NumPy's too) that meets rule.

    rule is a key of _REAL_RULES.  The ValueError names the field, after
    prefix ("warm state ", say).  An integer beyond the float range, which
    the rules' math functions cannot take, is rejected as well.
    """
    for name in names:
        value = getattr(owner, name)
        try:
            ok = isinstance(value, numbers.Real) and _REAL_RULES[rule](value)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{prefix}{name} must be a real number, {rule}, got {value!r}")


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
