"""The angle form of the polar equalities, which the radial kernel replaces.

No solver takes angles; the tests check geometry.radial_clamp and
geometry.radial_target, and the multi-agent iteration, against this form.
"""

import numpy as np

from trajopt.geometry import angle2d


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
