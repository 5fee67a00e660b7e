"""Closed-form polar/spherical sub-steps shared by all solvers.

A separation constraint against an axis-aligned ellipsoid with semi-axes
(a, a, b) is rewritten as equalities in a line-of-sight scale d and angles
(alpha, beta):

    dx = a * d * cos(alpha) * sin(beta)
    dy = a * d * sin(alpha) * sin(beta)
    dz = b * d * cos(beta),          d >= 1

In 2-D the planar ellipse uses semi-axes (a, b):  dx = a d cos(alpha),
dy = b d sin(alpha).  All functions are pure and broadcast elementwise over
timesteps / obstacles / batch members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical cap standing in for the +inf upper bound on collision scales.
D_CAP = 1e6


@dataclass(frozen=True)
class EllipsoidShape:
    """Semi-axes of an axis-aligned obstacle: a in x/y, b in z (3-D reading).

    The same pair doubles as the planar ellipse (a in x, b in y) for 2-D
    solvers.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"semi-axes must be positive, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class ObstacleTrack:
    """Obstacle center positions sampled on the planning grid, plus shape.

    centers has shape (n_p, dim); constant-velocity obstacles are baked into
    the track by the caller (see bench.predict_obstacles).
    """

    centers: np.ndarray
    shape: EllipsoidShape


@dataclass
class PolarVars:
    """Line-of-sight scale and angles; beta is None for planar problems."""

    d: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray | None = None


@dataclass
class MultiplierBlock:
    """Per-constraint multipliers plus the two penalty weights."""

    lam: dict
    rho: float
    rho_o: float

    def __post_init__(self):
        if self.rho <= 0 or self.rho_o <= 0:
            raise ValueError("penalty weights must be strictly positive")


def los_distance(delta, shape: EllipsoidShape):
    """Clamped line-of-sight scale of a 3-D offset: max(1, ellipsoidal norm).

    delta has shape (..., 3); returns shape (...).  Equals 1 exactly on and
    inside the ellipsoid.
    """
    delta = np.asarray(delta, dtype=float)
    quad = (
        delta[..., 0] ** 2 / shape.a**2
        + delta[..., 1] ** 2 / shape.a**2
        + delta[..., 2] ** 2 / shape.b**2
    )
    return np.maximum(1.0, np.sqrt(quad))


def los_distance_2d(dx, dy, shape: EllipsoidShape):
    """Planar counterpart on the ellipse with semi-axes (a, b)."""
    return np.maximum(1.0, np.hypot(np.asarray(dx) / shape.a, np.asarray(dy) / shape.b))


def angle2d(dx, dy):
    """Planar angle in (-pi, pi]; the origin maps to 0 by convention."""
    alpha = np.arctan2(dy, dx)
    return np.where(alpha == -np.pi, np.pi, alpha)


def angles3d(delta, shape: EllipsoidShape):
    """Azimuth/polar angles recovering delta through the spherical equalities.

    alpha in (-pi, pi], beta in [0, pi].  Degenerate directions
    (dx = dy = 0) take alpha = 0; beta stays total because it is computed
    from the planar magnitude rather than dividing by cos(alpha).
    """
    delta = np.asarray(delta, dtype=float)
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    alpha = angle2d(dx, dy)
    planar = np.hypot(dx / shape.a, dy / shape.a)
    beta = np.arctan2(planar, dz / shape.b)
    return alpha, beta


def closed_form_d(x_tilde, y_tilde, alpha, shape: EllipsoidShape, lower, upper):
    """Clamped minimizer of |x - a d cos(alpha)|^2 + |y - b d sin(alpha)|^2 over d.

    The objective is a single-variable convex quadratic, so clamping the
    unconstrained minimizer to [lower, upper] is exact.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    num = shape.a * np.asarray(x_tilde) * ca + shape.b * np.asarray(y_tilde) * sa
    den = shape.a**2 * ca**2 + shape.b**2 * sa**2
    return np.clip(num / den, lower, upper)


def closed_form_d_3d(x_tilde, y_tilde, z_tilde, alpha, beta, shape: EllipsoidShape, lower, upper):
    """3-D counterpart for the (a, a, b) spheroid equalities."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    num = shape.a * sb * (np.asarray(x_tilde) * ca + np.asarray(y_tilde) * sa) + shape.b * np.asarray(z_tilde) * cb
    den = shape.a**2 * sb**2 + shape.b**2 * cb**2
    return np.clip(num / den, lower, upper)


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


def update_multiplier(lam, residual, rho):
    """Augmented-Lagrangian dual ascent: lam + rho * residual, elementwise."""
    lam = np.asarray(lam, dtype=float)
    residual = np.asarray(residual, dtype=float)
    if lam.shape != residual.shape:
        raise ValueError(f"multiplier shape {lam.shape} does not match residual shape {residual.shape}")
    return lam + rho * residual
