import dataclasses
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import trajopt
from trajopt import geometry
from trajopt.basis import AxisBoundary, TimeGrid, build_basis
from trajopt.bench import gen_scenario, runner
from trajopt.geometry import (
    D_CAP,
    EllipsoidShape,
    ObstacleRows,
    Obstacles,
    Schedule,
    check_obstacles,
    angle2d,
    norm_clamp,
    radial_clamp,
    radial_target,
    residual_extremes,
    scaled_sq_norm,
    stalled,
)
from trajopt.solver_batch import BatchParams
from trajopt.solver_multiagent import JointParams
from trajopt.solver_priest import CemParams, PriestParams, ProjectionSetup
from trajopt.solver_single import SingleParams

from angle_forms import angles3d, los_scale

finite_floats = st.floats(-1e3, 1e3, allow_nan=False)


class TestLosDistance:
    """scaled_sq_norm and the clamped line-of-sight scale los_scale built on it."""

    def test_axis_aligned_scaling(self):
        assert scaled_sq_norm(np.array([1.4, 0.0, 0.0]), 0.7, 2.0) == pytest.approx(4.0)
        assert los_scale(np.array([1.4, 0.0, 0.0]), 0.7, 2.0) == pytest.approx(2.0)

    def test_interior_clamped_to_one(self):
        assert los_scale(np.array([0.0, 0.0, 1.0]), 1.0, 2.0) == pytest.approx(1.0)

    def test_polar_direction(self):
        assert los_scale(np.array([0.0, 0.0, 6.0]), 1.0, 2.0) == pytest.approx(3.0)

    @settings(max_examples=100, deadline=None)
    @given(dx=finite_floats, dy=finite_floats, dz=finite_floats)
    def test_one_iff_inside(self, dx, dy, dz):
        delta = np.array([dx, dy, dz])
        quad = scaled_sq_norm(delta, 1.5, 0.75)
        d = float(los_scale(delta, 1.5, 0.75))
        assert d >= 1.0
        if quad <= 1.0:
            assert d == 1.0
        else:
            assert d > 1.0

    def test_later_axes_share_one_row(self):
        # with out, a 3-axis call allocates one row, for the axes after the
        # first, and keeps the arithmetic of one row per axis
        n = 10_000
        deltas = np.random.default_rng(0).normal(size=(3, n))
        out = np.empty(n)
        tracemalloc.start()
        try:
            got = scaled_sq_norm(deltas, 0.7, 1.3, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got is out
        assert peak < 1.5 * out.nbytes
        inv_a, inv_b = 1.0 / np.asarray(0.7), 1.0 / np.asarray(1.3)
        np.testing.assert_array_equal(got, (deltas[0] * inv_a) ** 2 + (deltas[1] * inv_a) ** 2 + (deltas[2] * inv_b) ** 2)

    def test_planar_variant(self):
        assert los_scale(np.array([4.0, 0.0]), 2.0, 1.0) == pytest.approx(2.0)
        assert los_scale(np.array([0.0, 0.5]), 2.0, 1.0) == pytest.approx(1.0)
        # the planar ellipse scales y by b
        assert scaled_sq_norm(np.array([0.0, 3.0]), 2.0, 1.5) == pytest.approx(4.0)


class TestAngle2d:
    def test_examples(self):
        assert angle2d(1.0, 0.0) == pytest.approx(0.0)
        assert angle2d(0.0, 2.0) == pytest.approx(np.pi / 2)
        assert angle2d(1.0, 1.0) == pytest.approx(np.pi / 4)

    def test_origin_convention(self):
        assert angle2d(0.0, 0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(dx=finite_floats, dy=finite_floats)
    def test_range(self, dx, dy):
        a = float(angle2d(dx, dy))
        assert -np.pi < a <= np.pi


class TestAngles3d:
    def test_equatorial_point(self):
        alpha, beta = angles3d(np.array([1.3, 0.0, 0.0]), 1.3, 0.6)
        assert alpha == pytest.approx(0.0)
        assert beta == pytest.approx(np.pi / 2)

    def test_polar_point(self):
        alpha, beta = angles3d(np.array([0.0, 0.0, 0.6]), 1.3, 0.6)
        assert alpha == pytest.approx(0.0)  # degenerate-direction convention
        assert beta == pytest.approx(0.0)

    def test_reconstruction_of_exterior_points(self):
        # forward-substitution oracle on random exterior deltas
        sh = EllipsoidShape(a=0.8, b=1.7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            delta = rng.normal(scale=5.0, size=3)
            d = los_scale(delta, sh.a, sh.b)
            if d <= 1.0 + 1e-9:
                continue
            alpha, beta = angles3d(delta, sh.a, sh.b)
            rebuilt = np.array(
                [
                    sh.a * d * np.cos(alpha) * np.sin(beta),
                    sh.a * d * np.sin(alpha) * np.sin(beta),
                    sh.b * d * np.cos(beta),
                ]
            )
            np.testing.assert_allclose(rebuilt, delta, rtol=1e-9, atol=1e-12)

    def test_beta_range(self):
        rng = np.random.default_rng(1)
        deltas = rng.normal(size=(500, 3))
        _, beta = angles3d(deltas.T, 1.0, 1.0)
        assert np.all(beta >= 0.0) and np.all(beta <= np.pi)


def _closed_form_d_3d(x_tilde, y_tilde, z_tilde, alpha, beta, a, b, lower, upper):
    """Clamped minimizer over d of the spheroid equality residual at fixed angles."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    num = a * sb * (ca * x_tilde + sa * y_tilde) + b * cb * z_tilde
    den = a**2 * sb**2 + b**2 * cb**2
    return np.clip(num / den, lower, upper)


def _spheroid_point(alpha, beta, a, b, d=1.0):
    """(3, ...) point of scale d at the angles (alpha, beta)."""
    return d * np.array([a * np.cos(alpha) * np.sin(beta), a * np.sin(alpha) * np.sin(beta), b * np.cos(beta)])


class TestClosedFormD:
    """radial_target's d, the clamped scale at the angles of the offset.

    Each offset is taken along the angles of the hand case, at a scale that
    does not matter, since only its direction enters the d-step.
    """

    @staticmethod
    def _d(x, y, z, alpha, beta, a, b, lower, upper, scale=0.7):
        delta = _spheroid_point(alpha, beta, a, b, scale)[:, None]
        d, _ = radial_target(delta, a, b, np.array([[x], [y], [z]]), lower, upper)
        return float(d[0])

    def test_on_axis_sphere(self):
        assert self._d(2.0, 0.0, 0.0, 0.0, np.pi / 2, 1.0, 1.0, 1.0, np.inf) == pytest.approx(2.0)

    def test_clamped_at_lower_bound(self):
        assert self._d(0.5, 0.0, 0.0, 0.0, np.pi / 2, 1.0, 1.0, 1.0, np.inf) == pytest.approx(1.0)

    @staticmethod
    def _cost(d, x, y, z, alpha, beta, a, b):
        return (
            (x - a * d * np.cos(alpha) * np.sin(beta)) ** 2
            + (y - a * d * np.sin(alpha) * np.sin(beta)) ** 2
            + (z - b * d * np.cos(beta)) ** 2
        )

    def test_matches_grid_search_on_unit_interval(self):
        a, b = 0.9, 1.8
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 2_000_001)
        for _ in range(20):
            x, y, z = rng.normal(scale=2.0, size=3)
            alpha, beta = rng.uniform(-np.pi, np.pi), rng.uniform(0.0, np.pi)
            d = self._d(x, y, z, alpha, beta, a, b, 0.0, 1.0, scale=rng.uniform(0.1, 10.0))
            d_grid = grid[np.argmin(self._cost(grid, x, y, z, alpha, beta, a, b))]
            assert abs(d - d_grid) < 1e-6

    def test_optimality_against_random_candidates(self):
        a, b = 1.1, 0.4
        rng = np.random.default_rng(3)
        x, y, z, alpha, beta = 1.7, -2.3, 0.8, 0.9, 1.2
        d_star = self._d(x, y, z, alpha, beta, a, b, 1.0, 50.0)
        candidates = rng.uniform(1.0, 50.0, size=1000)
        cost = self._cost(candidates, x, y, z, alpha, beta, a, b)
        assert self._cost(d_star, x, y, z, alpha, beta, a, b) <= cost.min() + 1e-12

    def test_3d_variant_consistent_with_reconstruction(self):
        sh = EllipsoidShape(a=0.8, b=1.7)
        rng = np.random.default_rng(4)
        delta = rng.normal(scale=4.0, size=(3, 50))
        d_unclamped, target = radial_target(delta, sh.a, sh.b, delta, lower=0.0, upper=np.inf)
        quad = np.sqrt(delta[0] ** 2 / sh.a**2 + delta[1] ** 2 / sh.a**2 + delta[2] ** 2 / sh.b**2)
        np.testing.assert_allclose(d_unclamped, quad, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(target, delta, rtol=1e-12, atol=1e-12)


class TestRadialTarget:
    A, B = 1.3, 0.6

    def test_matches_the_angle_form(self):
        # shifted targets around random offsets, clamped at both ends
        rng = np.random.default_rng(5)
        delta = rng.normal(size=(3, 400)) * rng.uniform(0.01, 3.0, size=400)
        shifted = delta + rng.normal(scale=0.5, size=(3, 400))
        d, target = radial_target(delta, self.A, self.B, shifted, 1.0, 2.5)
        alpha, beta = angles3d(delta, self.A, self.B)
        d_ref = _closed_form_d_3d(*shifted, alpha, beta, self.A, self.B, 1.0, 2.5)
        assert np.any(d_ref == 1.0) and np.any(d_ref == 2.5) and np.any((d_ref > 1.0) & (d_ref < 2.5))
        np.testing.assert_allclose(d, d_ref, rtol=1e-13)
        np.testing.assert_allclose(target, _spheroid_point(alpha, beta, self.A, self.B, d_ref), rtol=0, atol=1e-13)

    def test_unshifted_is_los_scale_and_radial_clamp(self):
        rng = np.random.default_rng(6)
        delta = rng.normal(size=(3, 200)) * rng.uniform(0.0, 2.0, size=200)
        delta[:, 0] = 0.0
        d, target = radial_target(delta, self.A, self.B, delta)
        np.testing.assert_allclose(d, los_scale(delta, self.A, self.B), rtol=1e-15)
        np.testing.assert_allclose(delta - target, radial_clamp(delta, self.A, self.B), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shift_z,d_expected", [(None, 1.0), (0.3, 1.0), (1.5, 2.5), (-2.0, 1.0)])
    def test_coincident_offset_takes_the_origin_convention(self, shift_z, d_expected):
        # alpha = beta = 0 at the origin: the target is (0, 0, b d) and d the
        # z-shift over b; a shift in x or y does not move it
        delta = np.zeros((3, 4))
        shifted = delta if shift_z is None else np.array([[0.4] * 4, [-0.2] * 4, [shift_z] * 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, target = radial_target(delta, self.A, self.B, shifted)
        np.testing.assert_array_equal(d, d_expected)
        np.testing.assert_array_equal(target, [[0.0] * 4, [0.0] * 4, [self.B * d_expected] * 4])
        alpha, beta = angles3d(delta, self.A, self.B)
        assert np.all(alpha == 0.0) and np.all(beta == 0.0)
        d_ref = _closed_form_d_3d(*shifted, alpha, beta, self.A, self.B, 1.0, D_CAP)
        np.testing.assert_allclose(d, d_ref)

    def test_broadcasts_over_pairs(self):
        a = np.array([[0.5], [1.0], [2.0]])  # (n_pairs, 1) against (3, n_pairs, n_p) offsets
        b = np.array([[0.7], [0.9], [1.1]])
        rng = np.random.default_rng(8)
        delta, shifted = rng.normal(size=(2, 3, 3, 5))
        delta[:, 1, 2] = 0.0
        d, target = radial_target(delta, a, b, shifted)
        for p in range(3):
            d_p, target_p = radial_target(delta[:, p], a[p, 0], b[p, 0], shifted[:, p])
            np.testing.assert_array_equal(d[p], d_p)
            np.testing.assert_array_equal(target[:, p], target_p)


def _radial_target_allocating(deltas, a, b, shifted, lower, upper):
    """radial_target as first written without out: np.clip and fresh arrays."""
    r = np.sqrt(scaled_sq_norm(deltas, a, b))
    dot = np.einsum("k...,k...->...", deltas, shifted)
    centre = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.clip(r * dot / np.einsum("k...,k...->...", deltas, deltas), lower, upper)
        target = deltas * (d / r)
    semi = np.broadcast_to(b, r.shape)[centre]
    d[centre] = np.clip(shifted[-1][centre] / semi, lower, upper)
    target[:, centre] = 0.0
    target[-1][centre] = semi * d[centre]
    return d, target


def _same_bits(got, expected):
    """Equal bit for bit: values, signs of zero and NaN payloads."""
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestRadialTargetInPlace:
    @pytest.mark.parametrize("per_pair", [False, True])
    def test_out_and_inverse_match_the_allocating_call(self, per_pair):
        # (3, n_pairs, n_p) offsets with entries at r = 0 (the origin
        # convention), NaN, and shifted targets whose d is clamped at both ends
        rng = np.random.default_rng(11)
        n_pairs, n_p, lower, upper = 6, 40, 1.0, 2.5
        delta = rng.normal(size=(3, n_pairs, n_p)) * rng.uniform(0.01, 3.0, size=(n_pairs, n_p))
        shifted = delta * rng.uniform(0.2, 4.0, size=(n_pairs, n_p)) + rng.normal(scale=0.3, size=delta.shape)
        delta[:, 1, :5] = 0.0
        delta[:, 2, 7] = -0.0
        delta[2, 3, 9] = np.nan
        shifted[0, 4, 11] = np.nan
        if per_pair:
            a, b = rng.uniform(0.3, 1.5, size=(2, n_pairs, 1))
            inverse = tuple(np.broadcast_to(1.0 / semi, (n_pairs, n_p)).copy() for semi in (a, b))
        else:
            a, b = 1.3, 0.6
            inverse = (1.0 / a, 1.0 / b)
        out = np.full((n_pairs, n_p), 7.0), np.full((3, n_pairs, n_p), 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, target = radial_target(delta, a, b, shifted, lower, upper, out=out, inverse=inverse)
            d_alloc, target_alloc = radial_target(delta, a, b, shifted, lower, upper)
        assert d is out[0] and target is out[1]
        d_ref, target_ref = _radial_target_allocating(delta, a, b, shifted, lower, upper)
        finite = np.isfinite(d_ref)
        assert np.any(d_ref[finite] == lower) and np.any(d_ref[finite] == upper)
        assert np.any((d_ref > lower) & (d_ref < upper)) and np.isnan(d_ref).sum() == 2
        for got, expected in ((d, d_alloc), (target, target_alloc), (d, d_ref), (target, target_ref)):
            _same_bits(got, expected)


def _trig_residual(delta, shape, lower, upper):
    """delta - target through the angles and the closed-form scale."""
    if delta.shape[-1] == 2:
        alpha = angle2d(delta[..., 0] / shape.a, delta[..., 1] / shape.b)
        # clamped minimizer of |x - a d cos(alpha)|^2 + |y - b d sin(alpha)|^2
        ca, sa = np.cos(alpha), np.sin(alpha)
        num = shape.a * delta[..., 0] * ca + shape.b * delta[..., 1] * sa
        d = np.clip(num / (shape.a**2 * ca**2 + shape.b**2 * sa**2), lower, upper)
        target = np.stack([shape.a * d * ca, shape.b * d * sa], axis=-1)
    else:
        alpha, beta = angles3d(np.moveaxis(delta, -1, 0), shape.a, shape.b)
        d = _closed_form_d_3d(delta[..., 0], delta[..., 1], delta[..., 2], alpha, beta, shape.a, shape.b, lower, upper)
        target = np.stack(
            [
                shape.a * d * np.cos(alpha) * np.sin(beta),
                shape.a * d * np.sin(alpha) * np.sin(beta),
                shape.b * d * np.cos(beta),
            ],
            axis=-1,
        )
    return delta - target


class TestRadialClamp:
    @staticmethod
    def _offsets(dim, shape, rng):
        """Random offsets with r = 0, r < 1, 1 < r < D_CAP and r > D_CAP."""
        direction = rng.normal(size=(40, dim))
        direction[:, -1] *= shape.b / shape.a
        direction /= np.sqrt(scaled_sq_norm(direction.T, shape.a, shape.b))[:, None]
        scales = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 13), rng.uniform(1.0, 50.0, 13), rng.uniform(1.5, 9.0, 13) * D_CAP])
        return direction * scales[:, None] + 0.0  # no negative zeros: arctan2 reads their sign

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("a,b", [(1.3, 0.6), (2e-6, 5e-6)])
    def test_matches_trig_reconstruction(self, dim, a, b):
        shape = EllipsoidShape(a, b)
        delta = self._offsets(dim, shape, np.random.default_rng(dim))
        got = np.stack(radial_clamp(delta.T, a, b), axis=-1)
        np.testing.assert_allclose(got, _trig_residual(delta, shape, 1.0, D_CAP), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_speed_limit_form(self, dim):
        # velocity limit: unscaled norm clamped to [0, limit]; zero velocity
        # has zero residual
        limit = 2.5
        shape = EllipsoidShape(limit, limit)
        rng = np.random.default_rng(7)
        vel = rng.normal(size=(30, dim)) * rng.uniform(0.0, 3.0 * limit, size=(30, 1))
        vel[0] = 0.0
        got = np.stack(radial_clamp(vel.T, limit, limit, lower=0.0, upper=1.0), axis=-1)
        np.testing.assert_allclose(got, _trig_residual(vel, shape, 0.0, 1.0), rtol=1e-12, atol=1e-12)
        assert np.all(got[0] == 0.0)

    def test_broadcasts_over_obstacles(self):
        a = np.array([[0.5], [1.0], [2.0]])  # (n_o, 1) against (N, n_o, n_p) offsets
        b = np.array([[0.7], [0.9], [1.1]])
        rng = np.random.default_rng(3)
        deltas = [rng.normal(size=(4, 3, 5)) for _ in range(3)]
        got = radial_clamp(deltas, a, b)
        for o in range(3):
            shape = EllipsoidShape(float(a[o, 0]), float(b[o, 0]))
            delta = np.stack([d[:, o] for d in deltas], axis=-1)
            ref = _trig_residual(delta, shape, 1.0, D_CAP)
            np.testing.assert_allclose(np.stack([g[:, o] for g in got], axis=-1), ref, rtol=1e-12, atol=1e-12)


# Offsets (x, y) at unit semi-axes whose squared norm lands exactly on a band
# edge or on the double next to it: (1, 2**-26) gives 1 + 2**-52, and
# (1 - 2**-53, 1.2 * 2**-27) gives 1 - 2**-53.
_NEXT_ABOVE_ONE = (1.0, 2.0**-26)
_NEXT_BELOW_ONE = (1.0 - 2.0**-53, 1.2 * 2.0**-27)


class TestZeroBand:
    """radial_clamp's residual is exactly zero wherever lower**2 <= q <= upper**2.

    The priest projection relies on it to skip those collision entries.
    """

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "xy,q,lower,upper",
        [
            ((1.0, 0.0), 1.0, 1.0, D_CAP),
            (_NEXT_ABOVE_ONE, np.nextafter(1.0, np.inf), 1.0, D_CAP),
            ((D_CAP, 0.0), D_CAP**2, 1.0, D_CAP),
            ((0.0, 0.0), 0.0, 0.0, 1.0),
            (_NEXT_BELOW_ONE, np.nextafter(1.0, -np.inf), 0.0, 1.0),
            ((1.0, 0.0), 1.0, 0.0, 1.0),
        ],
    )
    def test_zero_at_band_edges(self, dim, xy, q, lower, upper):
        deltas = [np.array([xy[0]]), *[np.zeros(1)] * (dim - 2), np.array([xy[1]])]
        assert scaled_sq_norm(deltas, 1.0, 1.0)[0] == q
        assert np.array_equal(radial_clamp(deltas, 1.0, 1.0, lower=lower, upper=upper), np.zeros((dim, 1)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "xy,q", [(_NEXT_BELOW_ONE, np.nextafter(1.0, -np.inf)), ((D_CAP, 0.011), np.nextafter(D_CAP**2, np.inf))]
    )
    def test_nonzero_next_to_the_collision_band(self, dim, xy, q):
        # the band is tight: one double outside it the clamp moves the offset
        deltas = [np.array([xy[0]]), *[np.zeros(1)] * (dim - 2), np.array([xy[1]])]
        assert scaled_sq_norm(deltas, 1.0, 1.0)[0] == q
        assert radial_clamp(deltas, 1.0, 1.0)[0][0] != 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        direction=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3),
        fraction=st.floats(0.0, 1.2),
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        band=st.sampled_from([(1.0, D_CAP), (0.0, 1.0)]),
    )
    def test_zero_inside_band(self, dim, direction, fraction, a, b, band):
        lower, upper = band
        unit = np.array(direction[:dim])[:, None]
        norm = np.sqrt(scaled_sq_norm(unit, a, b))
        if not norm > 0:
            unit, norm = np.eye(dim)[:, :1] * a, 1.0
        deltas = unit / norm * (fraction * upper)
        q = scaled_sq_norm(deltas, a, b)[0]
        res = np.array(radial_clamp(deltas, a, b, lower=lower, upper=upper))
        if lower**2 <= q <= upper**2:
            assert np.array_equal(res, np.zeros_like(res))


def _check_norm_clamp(deltas, limit):
    """norm_clamp against radial_clamp at lower = 0, upper = 1 over every sample.

    None exactly when every q <= 1 (NaN is not); otherwise the residuals
    equal the dense clamp's bit for bit, signed zeros aside.  Returns the
    result.
    """
    q = scaled_sq_norm(deltas, limit, limit)
    with np.errstate(invalid="ignore"):
        got = norm_clamp(deltas, limit)
        dense = radial_clamp(deltas, limit, limit, lower=0.0, upper=1.0)
    assert (got is None) == bool(np.all(q <= 1.0))
    if got is None:
        assert np.array_equal(dense, np.zeros_like(dense))
    else:
        assert len(got) == len(deltas)
        assert np.array_equal(got, dense, equal_nan=True)
    return got


class TestNormClamp:
    """norm_clamp: the velocity and acceleration rows, clamped on their active set."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_none_at_and_inside_the_bound(self, dim):
        # q == 1 exactly, the double below it, and the origin
        xs, ys = zip((1.0, 0.0), (0.0, 1.0), _NEXT_BELOW_ONE, (0.0, 0.0), (-1.0, -0.0))
        deltas = [np.array(xs), *[np.zeros(len(xs))] * (dim - 2), np.array(ys)]
        assert scaled_sq_norm(deltas, 1.0, 1.0).max() == 1.0
        assert _check_norm_clamp(deltas, 1.0) is None

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_double_beyond_the_bound_is_active(self, dim):
        xs, ys = zip((1.0, 0.0), _NEXT_ABOVE_ONE)
        deltas = [np.array(xs), *[np.zeros(2)] * (dim - 2), np.array(ys)]
        # q = 1 + 2**-52 takes the clamp, though sqrt(q) rounds to 1 and the
        # residual to zero
        assert scaled_sq_norm(deltas, 1.0, 1.0)[1] > 1.0
        assert _check_norm_clamp(deltas, 1.0) is not None

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_active(self, dim, value):
        deltas = [np.zeros((2, 3)) for _ in range(dim)]
        deltas[-1][1, 2] = value
        got = _check_norm_clamp(deltas, 2.5)
        assert got is not None
        assert not np.isfinite(got[-1][1, 2]) and not got[-1][0].any()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_active_entries_equal_the_dense_clamp(self, dim):
        limit = 2.5
        rng = np.random.default_rng(dim)
        deltas = list(rng.normal(size=(dim, 6, 40)) * rng.uniform(0.0, 2.0 * limit, size=(6, 40)))
        deltas[0][0, 0] = limit  # on the bound
        got = _check_norm_clamp(deltas, limit)
        active = ~(scaled_sq_norm(deltas, limit, limit) <= 1.0)
        assert 0 < active.sum() < active.size
        assert not any(res[~active].any() for res in got)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dim=st.sampled_from([2, 3]),
        n=st.integers(1, 12),
        limit=st.floats(1e-3, 1e3),
        reach=st.sampled_from([0.5, 1.0, 1.5]),
    )
    def test_none_iff_every_sample_in_the_band(self, data, dim, n, limit, reach):
        # unit directions scaled up to reach times the limit, some samples
        # exactly on the bound and some not finite
        direction = data.draw(hnp.arrays(float, (dim, n), elements=st.floats(-1.0, 1.0)))
        norm = np.sqrt(scaled_sq_norm(direction, 1.0, 1.0))
        direction = np.where(norm > 0, direction / np.where(norm > 0, norm, 1.0), np.eye(dim)[:, :1])
        fraction = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, reach)))
        deltas = direction * (fraction * limit)
        on_bound = data.draw(hnp.arrays(bool, n))
        deltas[:, on_bound] = 0.0
        deltas[-1, on_bound] = limit
        special = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
        if special is not None:
            deltas[data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, n - 1))] = special
        _check_norm_clamp(list(deltas), limit)


def _dense_rows(centres, a, b, pos):
    """ObstacleRows.residuals with the clamp over every (obstacle, point, time) entry."""
    dim, n_o = centres.shape[:2]
    deltas = [pos[None, :, k] - centres[k][:, None] for k in range(dim)]
    res = np.stack(radial_clamp(deltas, a[:, None, None], b[:, None, None]))
    sums = np.zeros((dim, *pos[:, 0].shape))
    for o in range(n_o):  # in obstacle order
        sums = sums + res[:, o]
    sq = (res * res).sum(axis=(0, 1, 3))
    peak = np.abs(res).transpose(2, 0, 1, 3).reshape(pos.shape[0], -1).max(axis=1, initial=0.0)
    return sums, sq, peak


def _check_rows(centres, a, b, pos):
    """The active-set pass against the clamp of every entry: sums and peak bit for bit."""
    rows = ObstacleRows(Obstacles(centres, a, b), pos.shape[0])
    got = (rows.residuals(pos), *rows.scores())
    sums, sq, peak = _dense_rows(centres, np.asarray(a, dtype=float), np.asarray(b, dtype=float), pos)
    np.testing.assert_array_equal(got[0], sums)
    np.testing.assert_allclose(got[1], sq, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(got[2], peak)
    return got


class TestObstacleRows:
    """The active-set pass against the clamp of every entry: sums and peak bit for bit."""

    _check = staticmethod(_check_rows)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_points_and_overlapping_obstacles(self, dim):
        rng = np.random.default_rng(dim)
        n_o, n, n_p = 9, 5, 30
        centres = rng.uniform(-1.0, 1.0, size=(dim, n_o, n_p))
        a, b = rng.uniform(0.3, 1.5, size=(2, n_o))
        pos = rng.uniform(-2.0, 2.0, size=(n, dim, n_p))
        self._check(centres, a, b, pos)

    def test_cell_where_every_obstacle_is_active(self):
        # both obstacles hold the point at t = 0, and the cell adds both
        # terms; at t = 1 they are 10 m away and the cell is exactly zero
        centres = np.zeros((2, 2, 2))
        centres[0, :, 1] = 10.0
        pos = np.array([[[0.3, 0.0], [0.0, 0.0]]])
        sums, _, _ = self._check(centres, np.array([1.0, 0.8]), np.array([1.0, 0.8]), pos)
        assert sums[0, 0, 0] < -0.3 and not sums[:, 0, 1].any()

    def test_no_obstacles(self):
        pos = np.ones((3, 2, 4))
        sums, sq, peak = self._check(np.zeros((2, 0, 4)), np.zeros(0), np.zeros(0), pos)
        assert not sums.any() and not sq.any() and not peak.any()

    def test_nan_point_stays_active(self):
        centres = np.zeros((2, 3, 4))
        pos = np.full((2, 2, 4), 3.0)
        pos[1, 0, 2] = np.nan
        sums, sq, peak = self._check(centres, np.ones(3), np.ones(3), pos)
        assert np.isnan(sums[:, 1, 2]).all() and np.isnan(sq[1]) and np.isnan(peak[1])
        assert np.isfinite(sums[:, 0]).all() and np.isfinite(sq[0]) and np.isfinite(peak[0])


def _check_broad_phase(centres, a, b, pos):
    """The broad phase against q formed densely over every (obstacle, point, time) entry.

    The blocks it takes hold their entries in flat order, carry the dense q
    bit for bit, and include every entry outside [1, D_CAP**2] (NaN
    included), so that the active index array is the dense one; the entries
    that pad a short last window repeat its last sample; least_sq_norms is
    exact below 1, and penetrations are the dense sums of max(0, 1 - q) to
    rounding.  Returns the number of entries taken.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    dim, n_o, n_p = centres.shape
    rows = ObstacleRows(Obstacles(centres, a, b), pos.shape[0])
    with np.errstate(invalid="ignore"):
        q = scaled_sq_norm([pos[None, :, k] - centres[k][:, None] for k in range(dim)], a[:, None, None], b[:, None, None])
        o, point, w, _, q_blocks = rows._broad_phase(pos)
        least = rows.least_sq_norms(pos)
        penetrations = rows.penetrations(pos)
        dense_penetrations = np.maximum(0.0, 1.0 - q).sum(axis=(0, 2))
    t = w[:, None] * geometry._WINDOW + np.arange(geometry._WINDOW)
    inside = t < n_p
    np.testing.assert_array_equal(q_blocks[~inside], np.broadcast_to(q[o, point, n_p - 1, None], t.shape)[~inside])
    taken = ((o * pos.shape[0] + point)[:, None] * n_p + t)[inside]
    q_taken = q_blocks[inside]
    assert np.all(np.diff(taken) > 0)
    np.testing.assert_array_equal(q_taken, q.ravel()[taken])
    outside = ~((q >= 1.0) & (q <= D_CAP**2)).ravel()
    np.testing.assert_array_equal(taken[outside[taken]], np.flatnonzero(outside))
    dense_least = q.min(axis=(0, 2), initial=np.inf)
    below = ~(dense_least >= 1.0)
    np.testing.assert_array_equal(least[below], dense_least[below])
    assert np.all(least[~below] >= 1.0)
    np.testing.assert_allclose(penetrations, dense_penetrations, rtol=1e-12, atol=0)
    return taken.size


class TestBroadPhase:
    """The window-box broad phase: the entries it skips all lie in the zero band."""

    def _check(self, centres, a, b, pos):
        """The broad phase's entries, and the pass's sums and peak."""
        n_taken = _check_broad_phase(centres, a, b, pos)
        _check_rows(centres, a, b, pos)
        return n_taken

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_p", [1, 7, 37])
    def test_short_and_partial_windows(self, dim, n_p):
        rng = np.random.default_rng(n_p + dim)
        n_o, n = 6, 4
        centres = rng.uniform(-3.0, 3.0, size=(dim, n_o, 1)) + rng.normal(scale=0.2, size=(dim, n_o, n_p)).cumsum(axis=2)
        a, b = rng.uniform(0.3, 1.2, size=(2, n_o))
        pos = rng.uniform(-4.0, 4.0, size=(n, dim, 1)) + rng.normal(scale=0.3, size=(n, dim, n_p)).cumsum(axis=2)
        n_taken = self._check(centres, a, b, pos)
        assert n_taken < n_o * n * n_p or n_p == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_padding_of_a_deep_last_sample_reaches_no_result(self, dim):
        # n_p = 13 pads the second window with seven repeats of t = 12, where
        # point 0 sits deep inside obstacle 0; a leaked repeat would add to
        # its sq, peak and penetration, and its cells would spill onto
        # point 1's first samples, which lie inside obstacle 1
        n_p = 13
        centres = np.zeros((dim, 2, n_p))
        centres[0, 1] = 10.0
        a, b = np.array([1.0, 0.8]), np.array([0.9, 1.2])
        pos = np.full((2, dim, n_p), 5.0)
        pos[0, :, 12] = 0.05
        pos[1, :, :7] = centres[:, 1, :7] + 0.1
        self._check(centres, a, b, pos)
        rows = ObstacleRows(Obstacles(centres, a, b), 2)
        o, point, w, _, q = rows._broad_phase(pos)
        assert np.any((o == 0) & (point == 0) & (w == 1))  # the padded block is taken
        q_last = scaled_sq_norm(list(pos[0, :, 12:]), a[0], b[0])[0]
        assert q_last < 0.01
        assert rows.penetrations(pos)[0] == 1.0 - q_last
        assert rows.least_sq_norms(pos)[0] == q_last
        sums = rows.residuals(pos)
        sq, peak = rows.scores()
        res = np.array(radial_clamp(list(pos[0, :, 12:]), a[0], b[0]))[:, 0]
        assert sq[0] == sum(r * r for r in res) and peak[0] == np.abs(res).max()
        np.testing.assert_array_equal(sums[:, 0, 12], res)
        assert not sums[:, 0, :12].any() and not sums[:, 1, 7:].any()

    def test_obstacles_sweeping_metres_inside_one_window(self):
        # 3 m per sample: one window spans 30 m, and the box spans the whole sweep
        n_p = 25
        t = np.arange(n_p, dtype=float)
        centres = np.stack([np.stack([-30.0 + 3.0 * t, 30.0 - 2.5 * t]), np.stack([np.full(n_p, 0.3), -0.1 * t])])
        pos = np.stack([np.stack([0.5 * t - 6.0, np.full(n_p, 0.3)]), np.stack([2.0 * t - 20.0, 0.05 * t])])
        a, b = np.array([1.6, 1.1]), np.array([0.5, 0.9])
        rows = ObstacleRows(Obstacles(centres, a, b), 2)
        rows.residuals(pos)
        assert rows.scores()[0].any()  # the sweep crosses a point
        self._check(centres, a, b, pos)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_on_and_just_beyond_the_widened_semi_axis(self, dim):
        a, b = np.array([0.7, 0.3]), np.array([0.45, 1.9])
        centres = np.zeros((dim, 2, 12))
        centres[:, 1] = 2.3
        semi = np.stack([a] * (dim - 1) + [b])  # (dim, n_o)
        points = []
        for o in range(2):
            for k in range(dim):
                for sign in (1.0, -1.0):
                    for reach in (semi[k, o], semi[k, o] * (1.0 + 1e-9)):
                        for step in (-1, 0, 1):  # one float below, on and one above
                            p = centres[:, o, 0].copy()
                            edge = p[k] + sign * reach
                            p[k] = edge if step == 0 else np.nextafter(edge, sign * step * np.inf)
                            points.append(np.repeat(p[:, None], 12, axis=1))
        pos = np.stack(points)
        self._check(centres, a, b, pos)

    @pytest.mark.parametrize("a,c", [(3.6745331488215927, -3.2241339939692635), (1.6201851902388829, -1.7852964842917505)])
    def test_the_widening_covers_a_times_its_inverse_below_one(self, a, c):
        # a point one float beyond fl(c + a) still has fl(p - c) = a, and
        # a * (1 / a) rounds below 1: q < 1, so the box must reach past c + a
        p = np.nextafter(c + a, np.inf)
        assert p - c == a and ((p - c) * (1.0 / a)) ** 2 < 1.0
        centres = np.zeros((2, 1, 3))
        centres[0] = c
        pos = np.zeros((1, 2, 3))
        pos[0, 0] = p
        self._check(centres, [a], [2.0], pos)

    @pytest.mark.parametrize("scale", [1e3, 1e-4])
    def test_tiny_semi_axes(self, scale):
        # semi-axes of 1e-9: near 1e3 the cap check takes every block (D_CAP
        # * a is 1e-3), near 1e-4 the boxes decide
        rng = np.random.default_rng(7)
        centres = scale + rng.integers(-2, 3, size=(2, 3, 1)) * 0.5e-9 + np.zeros(15)
        centres[:, 2, 5:] += 0.5e-9  # one obstacle steps
        a = b = np.full(3, 1e-9)
        pos = scale + rng.integers(-8, 9, size=(5, 2, 1)) * 0.5e-9 + np.zeros(15)
        pos[0] = centres[:, 0]  # exactly on a centre: q = 0
        # a standing obstacle, and points exactly on its box's edges
        centres[:, 1] = scale
        pos[1:3] = scale
        pos[1, 0] = scale + 1e-9 * (1.0 + 1e-9)
        pos[2, 1] = scale - 1e-9 * (1.0 + 1e-9)
        n_taken = self._check(centres, a, b, pos)
        assert n_taken > 0
        if scale < 1.0:
            assert n_taken < 3 * 5 * 15

    @pytest.mark.parametrize(
        "offset",
        [(1e4, 0.0), (-3e3, 0.0), (900.0, 900.0), (600.0, 600.0, 600.0)],
        ids=["far", "far-negative", "diagonal-2d", "diagonal-3d"],
    )
    def test_offsets_beyond_the_cap_stay_active(self, offset):
        # scaled offsets above D_CAP leave the band from above; on the
        # diagonals no axis alone reaches D_CAP * a
        dim = len(offset)
        centres = np.zeros((dim, 2, 20))
        centres[0, 1] = 5.0
        a, b = np.array([1e-3, 0.5]), np.array([1e-3, 0.5])
        pos = np.zeros((2, dim, 20))
        pos[0] = np.asarray(offset)[:, None]
        pos[1, 0] = 5.1
        q = scaled_sq_norm(list(pos[0]), a[0], b[0])
        assert (q > D_CAP**2).all()
        self._check(centres, a, b, pos)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_points(self, value):
        rng = np.random.default_rng(11)
        centres = rng.uniform(-2.0, 2.0, size=(3, 4, 23))
        a, b = rng.uniform(0.2, 0.6, size=(2, 4))
        pos = rng.uniform(-3.0, 3.0, size=(3, 3, 23))
        pos[1, 2, 17] = value
        pos[2, 0, 3] = value
        with np.errstate(invalid="ignore"):
            self._check(centres, a, b, pos)

    def test_no_obstacles(self):
        pos = np.ones((3, 2, 13))
        assert self._check(np.zeros((2, 0, 13)), np.zeros(0), np.zeros(0), pos) == 0
        rows = ObstacleRows(Obstacles(np.zeros((2, 0, 13)), [], []), 3)
        np.testing.assert_array_equal(rows.least_sq_norms(pos), np.inf)
        np.testing.assert_array_equal(rows.penetrations(pos), 0.0)

    def test_penetrations_are_float_when_no_block_is_kept(self):
        # np.bincount of no indices returns int64, whatever the weights' dtype
        centres = np.zeros((2, 1, 13))
        far = np.full((3, 2, 13), 50.0)
        for obstacles in (Obstacles(centres, [0.5], [0.5]), Obstacles(np.zeros((2, 0, 13)), [], [])):
            gaps = ObstacleRows(obstacles, 3).penetrations(far)
            assert gaps.dtype == np.float64
            np.testing.assert_array_equal(gaps, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]), n_o=st.integers(0, 4), n=st.integers(1, 3), n_p=st.integers(1, 25))
    def test_random_tracks(self, data, dim, n_o, n, n_p):
        coords = st.floats(-6.0, 6.0, allow_nan=False)
        centres = data.draw(hnp.arrays(float, (dim, n_o, 1), elements=coords))
        velocity = data.draw(hnp.arrays(float, (dim, n_o, 1), elements=st.floats(-1.0, 1.0)))
        centres = centres + velocity * np.arange(n_p)
        a = data.draw(hnp.arrays(float, n_o, elements=st.floats(0.05, 3.0)))
        b = data.draw(hnp.arrays(float, n_o, elements=st.floats(0.05, 3.0)))
        pos = data.draw(hnp.arrays(float, (n, dim, n_p), elements=st.floats(-10.0, 10.0)))
        self._check(centres, a, b, pos)

    def test_no_dense_array_is_kept_or_allocated(self):
        # one (n_o, n, n_p) float array would be 3.2 MB here; the pass keeps
        # no such workspace and allocates nothing near its size
        rng = np.random.default_rng(2)
        n_o, n, n_p = 40, 100, 100
        centres = rng.uniform(-20.0, 20.0, size=(2, n_o, 1)) + np.zeros((2, n_o, n_p))
        pos = rng.uniform(-20.0, 20.0, size=(n, 2, 1)) + np.linspace(0.0, 3.0, n_p)
        rows = ObstacleRows(Obstacles(centres, np.full(n_o, 0.5), np.full(n_o, 0.5)), n)
        rows.residuals(pos)
        tracemalloc.start()
        try:
            rows.residuals(pos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_o * n * n_p * 8 / 2
        assert max(np.size(v) for v in vars(rows).values()) < n_o * n * n_p
        assert not hasattr(rows, "sq_norms")


class TestUnitPair:
    def test_unit_radial_clamp_target_and_trig_of_arctan2(self):
        # the unit pair (cos, sin) of an angle is radial_clamp's target at unit
        # semi-axes and scale; the origin takes its convention, (1, 0)
        rng = np.random.default_rng(3)
        c, s = rng.normal(size=(2, 3, 40)) * np.array([1e-3, 1.0, 1e3])[:, None]
        c[:, :2] = s[:, :2] = 0.0
        got = np.array([x - res for x, res in zip((c, s), radial_clamp((c, s), 1.0, 1.0, 1.0, 1.0))])
        angle = np.arctan2(s, c)
        np.testing.assert_allclose(got, [np.cos(angle), np.sin(angle)], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[:, :, :2], np.broadcast_to([[[1.0]], [[0.0]]], (2, 3, 2)))


class TestShapeValidation:
    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)]
    )
    def test_invalid_semi_axes(self, a, b):
        with pytest.raises(ValueError, match="semi-axes"):
            EllipsoidShape(a=a, b=b)


def _obstacle_case(centres=None, a=None, b=None):
    """Two 2-D obstacles on 5 timesteps, with one field replaced."""
    good = np.arange(20.0).reshape(2, 2, 5)
    return (good if centres is None else centres), ([0.5, 0.7] if a is None else a), ([0.4, 0.9] if b is None else b)


def _with(index, value):
    centres = np.arange(20.0).reshape(2, 2, 5)
    centres[index] = value
    return centres


class TestObstacles:
    """Obstacles is the one check of obstacle input: every bad array is rejected when it is built."""

    @pytest.mark.parametrize(
        "case,match",
        [
            (_obstacle_case(centres=_with((0, 1, 3), np.nan)), "finite"),
            (_obstacle_case(centres=_with((1, 0, 0), np.inf)), "finite"),
            (_obstacle_case(centres=_with((1, 1, 4), -np.inf)), "finite"),
            (_obstacle_case(centres=np.zeros((2, 5))), "dim, n_o, n_p"),
            (_obstacle_case(centres=np.zeros((1, 2, 2, 5))), "dim, n_o, n_p"),
            (_obstacle_case(centres=np.zeros((4, 2, 5))), "dim 2 or 3"),
            (_obstacle_case(centres=np.zeros((1, 2, 5))), "dim 2 or 3"),
            (_obstacle_case(a=[0.5]), "semi-axes"),
            (_obstacle_case(b=[0.4, 0.9, 1.0]), "semi-axes"),
            (_obstacle_case(a=[[0.5, 0.7]]), "semi-axes"),
            (_obstacle_case(a=[0.0, 0.7]), "semi-axes"),
            (_obstacle_case(b=[0.4, -0.9]), "semi-axes"),
            (_obstacle_case(a=[0.5, np.nan]), "semi-axes"),
            (_obstacle_case(b=[np.nan, 0.9]), "semi-axes"),
            (_obstacle_case(a=[np.inf, 0.7]), "semi-axes"),
        ],
        ids=[
            "centre-nan", "centre-inf", "centre-minus-inf", "ndim-2", "ndim-4", "dim-4", "dim-1", "a-short",
            "b-long", "a-2d", "a-zero", "b-negative", "a-nan", "b-nan", "a-inf",
        ],
    )
    def test_rejected(self, case, match):
        with pytest.raises(ValueError, match=match):
            Obstacles(*case)

    def test_arrays_are_read_only_contiguous_copies(self):
        centres = np.asfortranarray(np.arange(30.0).reshape(3, 2, 5))
        a = np.array([0.5, 0.7])
        obstacles = Obstacles(centres, a, [0.4, 0.9])
        assert (obstacles.dim, obstacles.n_o, obstacles.n_p) == (3, 2, 5)
        assert obstacles.centres.flags["C_CONTIGUOUS"]
        for value in (obstacles.centres, obstacles.a, obstacles.b):
            assert not value.flags["WRITEABLE"] and value.dtype == float
        centres[0, 0, 0], a[0] = -1.0, 9.0  # the caller's arrays stay its own
        assert obstacles.centres[0, 0, 0] == 0.0 and obstacles.a[0] == 0.5

    def test_with_axes_shares_the_tracks_and_checks_the_axes(self):
        obstacles = Obstacles(*_obstacle_case())
        a = np.array([0.6, 0.8])
        other = obstacles.with_axes(a, [0.5, 1.0])
        assert other.centres is obstacles.centres
        for value in (other.a, other.b):
            assert not value.flags["WRITEABLE"] and value.dtype == float
        a[0] = 9.0  # the caller's array stays its own
        np.testing.assert_array_equal(other.a, [0.6, 0.8])
        np.testing.assert_array_equal(other.b, [0.5, 1.0])
        np.testing.assert_array_equal(obstacles.a, _obstacle_case()[1])
        for bad in ([0.5], [0.0, 0.7], [0.5, np.nan], [[0.5, 0.7]]):
            with pytest.raises(ValueError, match="semi-axes"):
                obstacles.with_axes(bad, [0.4, 0.9])
            with pytest.raises(ValueError, match="semi-axes"):
                obstacles.with_axes([0.4, 0.9], bad)

    def test_none_is_no_obstacles_of_the_problem(self):
        obstacles = check_obstacles(None, 3, 7)
        assert obstacles.centres.shape == (3, 0, 7) and obstacles.a.shape == obstacles.b.shape == (0,)

    @pytest.mark.parametrize("dim,n_p", [(3, 5), (2, 6)])
    def test_other_dimension_or_grid_rejected(self, dim, n_p):
        with pytest.raises(ValueError, match="obstacles are 2-D on 5 timesteps"):
            check_obstacles(Obstacles(*_obstacle_case()), dim, n_p)


class TestStalled:
    # window 2, improvement 0.1 (10 %), floor 0.5
    @pytest.mark.parametrize(
        "history,since_change,floor,expected",
        [
            ([4.0, 4.0, 4.0], 10, 0.5, False),  # too little history: fewer than 2 windows
            ([4.0, 4.0, 4.0, 4.0], 1, 0.5, False),  # inside the window after the last change
            ([4.0, 4.0, 4.0, 4.0], 2, 0.5, True),  # a full window after the change, flat history
            ([0.5, 0.5, 0.5, 0.5], 10, 0.5, False),  # previous mean at the floor
            ([0.4, 0.4, 0.4, 0.4], 10, 0.5, False),  # previous mean below the floor
            ([0.4, 0.4, 0.4, 0.4], 10, 0.0, True),  # the same history above a zero floor
            ([5.0, 5.0, 4.45, 4.45], 10, 0.5, False),  # improved 11 %: just above the threshold
            ([5.0, 5.0, 4.55, 4.55], 10, 0.5, True),  # improved 9 %: just below the threshold
            ([9.0, 5.0, 5.0, 4.55, 4.55], 10, 0.5, True),  # only the last two windows count
        ],
    )
    def test_table(self, history, since_change, floor, expected):
        assert stalled(history, since_change, 2, 0.1, floor) is expected

    @pytest.mark.parametrize("window", range(1, 13))
    def test_decisions_match_numpy_means(self, window):
        # the window means are np.mean's bit for bit, short windows summed in
        # order and windows of 8 or more pairwise as numpy sums them
        rng = np.random.default_rng(window)
        for _ in range(300):
            scales = 10.0 ** rng.integers(-8, 3, size=2 * window)
            history = (rng.uniform(0.0, 1.0, size=2 * window) * scales).tolist()
            recent, previous = history[-window:], history[:window]
            assert geometry._window_mean(recent) == np.mean(recent)
            assert geometry._window_mean(previous) == np.mean(previous)
            # the improvement threshold set just at the history's own ratio
            improvement = float((np.mean(previous) - np.mean(recent)) / np.mean(previous))
            for threshold in (improvement, np.nextafter(improvement, np.inf)):
                expected = bool(np.mean(previous) > 0.0 and improvement < threshold)
                assert stalled(history, window, window, threshold, 0.0) is expected


class TestSchedule:
    """The one penalty schedule that the single and batch params extend."""

    def test_growth_is_capped(self):
        schedule = Schedule(rho_growth=1.5, rho_cap=10.0)
        assert [schedule.grown(rho) for rho in (2.0, 8.0, 10.0)] == [3.0, 10.0, 10.0]

    @pytest.mark.parametrize("tol,expected", [(0.5, False), (0.0, True), (-1.0, True)])
    def test_stall_is_floored_at_tol(self, tol, expected):
        # a flat history at 0.4 stalls above a floor of max(tol, 0) only
        schedule = Schedule(tol=tol, stall_window=2, stall_improvement=0.1)
        assert schedule.stalled([0.4] * 4, 2) is expected
        assert schedule.stalled([0.4] * 4, 1) is False  # inside the window after the last growth

    def test_params_keep_its_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(Schedule)]
        assert [f.name for f in dataclasses.fields(SingleParams)] == [*names, "extra_sweeps"]
        assert [f.name for f in dataclasses.fields(BatchParams)] == [*names, "d_margin", "kin_margin", "stop_on_certificate"]
        assert (SingleParams().max_iter, SingleParams().tol, SingleParams().stall_improvement) == (300, 1e-3, 0.04)
        assert SingleParams().extra_sweeps == 0
        assert BatchParams().stop_on_certificate is False
        assert (BatchParams().max_iter, BatchParams().tol) == (100, 1e-2)


class TestResidualExtremes:
    @pytest.mark.parametrize("shape", [(7,), (3, 5, 11), (4, 0, 60)])
    def test_matches_numpy(self, shape):
        # np.linalg.norm and the largest |entry|, bit for bit on a C-contiguous block
        res = np.random.default_rng(3).normal(size=shape)
        expected = (float(np.linalg.norm(res)), float(np.max(np.abs(res)))) if res.size else (0.0, 0.0)
        assert residual_extremes(res) == expected

    def test_sign_and_nan(self):
        assert residual_extremes(np.array([0.5, -2.0, 1.0])) == (np.sqrt(5.25), 2.0)
        assert residual_extremes(np.array([-0.0, -0.0])) == (0.0, 0.0)
        assert all(np.isnan(residual_extremes(np.array([1.0, np.nan, -3.0]))))


class TestCheckCount:
    """Every count of the params classes and of the batch problem is an integer, checked when built."""

    # each of these used to build, then raise TypeError partway through the solve
    @pytest.mark.parametrize(
        "cls,name,value",
        [
            (SingleParams, "max_iter", 5.0),
            (SingleParams, "stall_window", 2.5),
            (BatchParams, "max_iter", 5.0),
            (BatchParams, "stall_window", 2.5),
            (JointParams, "max_iter", 5.0),
            (JointParams, "stall_window", 2.5),
            (JointParams, "rho_levels", 3.0),
            (PriestParams, "n_outer", 2.0),
            (PriestParams, "n_batch", 110.5),
            (PriestParams, "seed", 1.5),
            (CemParams, "iterations", 2.0),
            (CemParams, "seed", 1.5),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_non_integer_rejected(self, cls, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            cls(**{name: value})

    def test_non_integer_batch_size_rejected(self):
        scenario = gen_scenario("dynamic-flow", seed=0)
        basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
        with pytest.raises(ValueError, match="n_batch must be an integer, got 2.5"):
            runner.batch_problem_from_scenario(scenario, basis, n_batch=2.5)

    @pytest.mark.parametrize(
        "cls,name,lower",
        [(SingleParams, "max_iter", 0), (JointParams, "rho_levels", 1), (PriestParams, "seed", 0), (CemParams, "n_batch", 1)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_below_lower_bound_rejected(self, cls, name, lower):
        with pytest.raises(ValueError, match=f"{name} must be at least {lower}, got {lower - 1}"):
            cls(**{name: lower - 1})

    def test_integers_of_any_type_accepted(self):
        assert SingleParams(max_iter=np.int64(5), stall_window=np.int32(2)).max_iter == 5
        JointParams(rho_levels=np.uint8(3))
        PriestParams(seed=None)
        CemParams(iterations=np.int16(2), seed=np.int64(7))


def _scenario_problem(kind):
    """A corridor problem of the given kind ("single" or "batch"), to rebuild with one field replaced."""
    scenario = gen_scenario("corridor", seed=0)
    basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
    if kind == "single":
        return runner.single_problem_from_scenario(scenario, basis)
    return runner.batch_problem_from_scenario(scenario, basis, n_batch=2)


def _projection_setup(**limits):
    boundary = (AxisBoundary(p0=0.0, p1=8.0), AxisBoundary(p0=0.0, p1=0.0))
    return ProjectionSetup(build_basis(0.0, 8.0, 20, 8), boundary, **limits)


# the real fields with no rejection-by-name test in their own module; each
# entry builds the field's owner with the field set to the value given
_REAL_FIELDS = {
    **{f"Schedule.{name}": (lambda v, name=name: Schedule(**{name: v})) for name in ("rho_start", "rho_cap", "rho_growth", "tol", "stall_improvement")},
    "EllipsoidShape.a": lambda v: EllipsoidShape(a=v, b=1.0),
    "EllipsoidShape.b": lambda v: EllipsoidShape(a=1.0, b=v),
    "TimeGrid.t0": lambda v: TimeGrid(v, 1.0, 10),
    "TimeGrid.tf": lambda v: TimeGrid(0.0, v, 10),
    "SingleProblem.w_smooth": lambda v: dataclasses.replace(_scenario_problem("single"), w_smooth=v),
    "SingleProblem.w_track": lambda v: dataclasses.replace(_scenario_problem("single"), w_track=v),
    "BatchProblem.v_max": lambda v: dataclasses.replace(_scenario_problem("batch"), v_max=v),
    "BatchProblem.a_max": lambda v: dataclasses.replace(_scenario_problem("batch"), a_max=v),
    "ProjectionSetup.v_max": lambda v: _projection_setup(v_max=v),
    "ProjectionSetup.a_max": lambda v: _projection_setup(a_max=v),
}


class TestCheckReal:
    """Every real field of the params, problem and setup classes is a real number, checked when built."""

    # each of these raised TypeError, or (a "1" weight) was taken as 1.0;
    # None is ProjectionSetup's "no limit"
    @pytest.mark.parametrize(
        "field,value",
        [(field, value) for field in _REAL_FIELDS for value in ("1", None) if not (value is None and field.startswith("Projection"))],
    )
    def test_wrong_type_rejected_by_name(self, field, value):
        name = field.split(".")[1]
        with pytest.raises(ValueError, match=rf"{name} must be a real number, .*, got {re.escape(repr(value))}$"):
            _REAL_FIELDS[field](value)

    @pytest.mark.parametrize(
        "rule,good,bad",
        [
            ("positive and finite", [1e-300, 2, np.float32(0.5)], [0.0, -1.0, np.inf, np.nan]),
            ("non-negative and finite", [0.0, 0, np.int64(3)], [-1e-300, np.inf, np.nan]),
            ("finite", [-1.0, 0.0, np.float64(2.5)], [np.inf, -np.inf, np.nan]),
            ("finite and at least 1", [1, 1.0, 7.5], [0.999, np.inf, np.nan]),
            ("not NaN", [np.inf, -np.inf, 0.0, True], [np.nan, np.float32("nan")]),
        ],
    )
    def test_rules(self, rule, good, bad):
        for value in good:
            geometry.check_real(SimpleNamespace(x=value), rule, "x")
        # an integer beyond the float range, as a JSON document can hold, raised OverflowError
        for value in bad + ["1", None, np.array(1.0), 10**400, -(10**400)]:
            with pytest.raises(ValueError, match=rf"^x must be a real number, {rule}, got {re.escape(repr(value))}$"):
                geometry.check_real(SimpleNamespace(x=value), rule, "x")

    def test_prefix_leads_the_message(self):
        with pytest.raises(ValueError, match=r"^warm state rho must be a real number, positive and finite, got 0\.0$"):
            geometry.check_real(SimpleNamespace(rho=0.0), "positive and finite", "rho", prefix="warm state ")


def test_check_flag_takes_only_bools():
    for value in (True, False, np.True_, np.False_):
        geometry.check_flag(SimpleNamespace(stop=value), "stop")
    # each was truthy or falsy, and taken as a switch without a word
    for value in ("no", "", 1, 0, 1.0, None, np.array(True)):
        with pytest.raises(ValueError, match=rf"^stop must be a bool, got {re.escape(repr(value))}$"):
            geometry.check_flag(SimpleNamespace(stop=value), "stop")


def test_public_names_are_used_by_the_package():
    # geometry exports only the kernel: every public name has a caller in
    # the package outside geometry.py itself
    root = Path(trajopt.__file__).parent
    sources = "\n".join(p.read_text() for p in root.rglob("*.py") if p.name != "geometry.py" or p.parent != root)
    unused = [name for name in geometry.__all__ if not re.search(rf"\b{name}\b", sources)]
    assert unused == []
    public = {n for n, v in vars(geometry).items() if not n.startswith("_") and getattr(v, "__module__", None) == geometry.__name__}
    assert public <= set(geometry.__all__)
