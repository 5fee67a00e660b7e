import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt.geometry import (
    D_CAP,
    EllipsoidShape,
    angle2d,
    angles3d,
    closed_form_d,
    closed_form_d_3d,
    los_distance,
    los_distance_2d,
    radial_clamp,
    scaled_sq_norm,
    update_multiplier,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False)


class TestLosDistance:
    def test_axis_aligned_scaling(self):
        sh = EllipsoidShape(a=0.7, b=2.0)
        assert los_distance(np.array([1.4, 0.0, 0.0]), sh) == pytest.approx(2.0)

    def test_interior_clamped_to_one(self):
        sh = EllipsoidShape(a=1.0, b=2.0)
        assert los_distance(np.array([0.0, 0.0, 1.0]), sh) == pytest.approx(1.0)

    def test_polar_direction(self):
        sh = EllipsoidShape(a=1.0, b=2.0)
        assert los_distance(np.array([0.0, 0.0, 6.0]), sh) == pytest.approx(3.0)

    @settings(max_examples=100, deadline=None)
    @given(dx=finite_floats, dy=finite_floats, dz=finite_floats)
    def test_one_iff_inside(self, dx, dy, dz):
        sh = EllipsoidShape(a=1.5, b=0.75)
        quad = dx**2 / sh.a**2 + dy**2 / sh.a**2 + dz**2 / sh.b**2
        d = float(los_distance(np.array([dx, dy, dz]), sh))
        assert d >= 1.0
        if quad <= 1.0:
            assert d == 1.0
        else:
            assert d > 1.0

    def test_planar_variant(self):
        sh = EllipsoidShape(a=2.0, b=1.0)
        assert los_distance_2d(4.0, 0.0, sh) == pytest.approx(2.0)
        assert los_distance_2d(0.0, 0.5, sh) == pytest.approx(1.0)


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
        sh = EllipsoidShape(a=1.3, b=0.6)
        alpha, beta = angles3d(np.array([1.3, 0.0, 0.0]), sh)
        assert alpha == pytest.approx(0.0)
        assert beta == pytest.approx(np.pi / 2)

    def test_polar_point(self):
        sh = EllipsoidShape(a=1.3, b=0.6)
        alpha, beta = angles3d(np.array([0.0, 0.0, 0.6]), sh)
        assert alpha == pytest.approx(0.0)  # degenerate-direction convention
        assert beta == pytest.approx(0.0)

    def test_reconstruction_of_exterior_points(self):
        # forward-substitution oracle on random exterior deltas
        sh = EllipsoidShape(a=0.8, b=1.7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            delta = rng.normal(scale=5.0, size=3)
            d = los_distance(delta, sh)
            if d <= 1.0 + 1e-9:
                continue
            alpha, beta = angles3d(delta, sh)
            rebuilt = np.array(
                [
                    sh.a * d * np.cos(alpha) * np.sin(beta),
                    sh.a * d * np.sin(alpha) * np.sin(beta),
                    sh.b * d * np.cos(beta),
                ]
            )
            np.testing.assert_allclose(rebuilt, delta, rtol=1e-9, atol=1e-12)

    def test_beta_range(self):
        sh = EllipsoidShape(a=1.0, b=1.0)
        rng = np.random.default_rng(1)
        deltas = rng.normal(size=(500, 3))
        _, beta = angles3d(deltas, sh)
        assert np.all(beta >= 0.0) and np.all(beta <= np.pi)


class TestClosedFormD:
    def test_on_axis_sphere(self):
        sh = EllipsoidShape(a=1.0, b=1.0)
        assert closed_form_d(2.0, 0.0, 0.0, sh, 1.0, np.inf) == pytest.approx(2.0)

    def test_clamped_at_lower_bound(self):
        sh = EllipsoidShape(a=1.0, b=1.0)
        assert closed_form_d(0.5, 0.0, 0.0, sh, 1.0, np.inf) == pytest.approx(1.0)

    def test_matches_grid_search_on_unit_interval(self):
        sh = EllipsoidShape(a=0.9, b=1.8)
        rng = np.random.default_rng(2)

        def cost(d, x, y, alpha):
            return (x - sh.a * d * np.cos(alpha)) ** 2 + (y - sh.b * d * np.sin(alpha)) ** 2

        grid = np.linspace(0.0, 1.0, 2_000_001)
        for _ in range(20):
            x, y = rng.normal(scale=2.0, size=2)
            alpha = rng.uniform(-np.pi, np.pi)
            d = float(closed_form_d(x, y, alpha, sh, 0.0, 1.0))
            d_grid = grid[np.argmin(cost(grid, x, y, alpha))]
            assert abs(d - d_grid) < 1e-6

    def test_optimality_against_random_candidates(self):
        sh = EllipsoidShape(a=1.1, b=0.4)
        rng = np.random.default_rng(3)
        x, y = 1.7, -2.3
        alpha = 0.9

        def cost(d):
            return (x - sh.a * d * np.cos(alpha)) ** 2 + (y - sh.b * d * np.sin(alpha)) ** 2

        d_star = float(closed_form_d(x, y, alpha, sh, 1.0, 50.0))
        candidates = rng.uniform(1.0, 50.0, size=1000)
        assert cost(d_star) <= cost(candidates).min() + 1e-12

    def test_3d_variant_consistent_with_reconstruction(self):
        sh = EllipsoidShape(a=0.8, b=1.7)
        rng = np.random.default_rng(4)
        for _ in range(50):
            delta = rng.normal(scale=4.0, size=3)
            alpha, beta = angles3d(delta, sh)
            d_unclamped = closed_form_d_3d(delta[0], delta[1], delta[2], alpha, beta, sh, 0.0, np.inf)
            quad = np.sqrt(delta[0] ** 2 / sh.a**2 + delta[1] ** 2 / sh.a**2 + delta[2] ** 2 / sh.b**2)
            assert d_unclamped == pytest.approx(quad, rel=1e-9, abs=1e-12)


def _trig_residual(delta, shape, lower, upper):
    """delta - target through the angles and the closed-form scale."""
    if delta.shape[-1] == 2:
        alpha = angle2d(delta[..., 0] / shape.a, delta[..., 1] / shape.b)
        d = closed_form_d(delta[..., 0], delta[..., 1], alpha, shape, lower, upper)
        target = np.stack([shape.a * d * np.cos(alpha), shape.b * d * np.sin(alpha)], axis=-1)
    else:
        alpha, beta = angles3d(delta, shape)
        d = closed_form_d_3d(delta[..., 0], delta[..., 1], delta[..., 2], alpha, beta, shape, lower, upper)
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


class TestUpdateMultiplier:
    def test_zero_residual_unchanged(self):
        lam = np.array([0.3, -0.7])
        np.testing.assert_array_equal(update_multiplier(lam, np.zeros(2), 10.0), lam)

    def test_scalar_case(self):
        assert update_multiplier(np.array(0.0), np.array(0.5), 1.0) == pytest.approx(0.5)

    def test_vector_hand_case(self):
        out = update_multiplier(np.array([1.0, -1.0]), np.array([0.1, 0.2]), 2.0)
        np.testing.assert_allclose(out, [1.2, -0.6])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            update_multiplier(np.zeros(2), np.zeros(3), 1.0)


class TestShapeValidation:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_semi_axes(self, a, b):
        with pytest.raises(ValueError):
            EllipsoidShape(a=a, b=b)


class TestStateContainers:
    def test_polar_vars_planar_has_no_beta(self):
        from trajopt.geometry import PolarVars

        pv = PolarVars(d=np.ones(4), alpha=np.zeros(4))
        assert pv.beta is None

    def test_multiplier_block_requires_positive_weights(self):
        from trajopt.geometry import MultiplierBlock

        MultiplierBlock(lam={"x": np.zeros(3)}, rho=1.0, rho_o=2.0)
        with pytest.raises(ValueError):
            MultiplierBlock(lam={}, rho=0.0, rho_o=1.0)
        with pytest.raises(ValueError):
            MultiplierBlock(lam={}, rho=1.0, rho_o=-1.0)
