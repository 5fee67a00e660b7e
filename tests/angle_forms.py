"""The angle form of the polar equalities, which the radial kernel replaces.

No solver takes angles; the tests check geometry.radial_clamp and
geometry.radial_target, and the multi-agent iteration, against this form.
"""

import numpy as np

from trajopt.geometry import D_CAP, angle2d, scaled_sq_norm


def los_scale(deltas, a, b, lower=1.0, upper=D_CAP, out=None, inverse=False):
    """Closed-form line-of-sight scale: the scaled norm clamped to [lower, upper].

    This is the d minimizing the polar equality residual when the angles are
    those of the offset itself.  deltas, a, b, inverse and out are as in
    scaled_sq_norm.  The clamp is np.maximum then np.minimum, which give
    np.clip's values, NaN included.
    """
    r = np.sqrt(scaled_sq_norm(deltas, a, b, out=out, inverse=inverse), out=out)
    return np.minimum(np.maximum(r, lower, out=out), upper, out=out)


def angles3d(deltas, a, b):
    """Azimuth/polar angles recovering (dx, dy, dz) through the spheroid equalities.

    alpha in (-pi, pi], beta in [0, pi].  Degenerate directions
    (dx = dy = 0) take alpha = 0; beta stays total because it is computed
    from the planar magnitude rather than dividing by cos(alpha).  deltas,
    a and b are as in geometry.scaled_sq_norm.
    """
    dx, dy, dz = deltas
    alpha = angle2d(dx, dy)
    planar = np.hypot(dx / a, dy / a)
    beta = np.arctan2(planar, dz / b)
    return alpha, beta
