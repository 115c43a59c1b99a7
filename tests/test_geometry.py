import math

import numpy as np
import pytest

from occfield import (
    CameraModel,
    ContractionParams,
    DepthBinning,
    FourierConfig,
    Query4,
    RigidTransform,
    contract_axis,
    contract_query,
    depth_bin_centers,
    depth_bin_edges,
    fourier_encode,
    lift_pixel,
    project_point,
    uncontract_axis,
)
from occfield.geometry import ray_box

P = ContractionParams(k_hr=40.0, beta=0.8)


class TestContraction:
    def test_origin_fixed_point(self):
        assert contract_axis(0.0, P) == 0.0

    def test_boundary(self):
        assert contract_axis(40.0, P) == pytest.approx(0.8, abs=1e-15)

    def test_far_branch(self):
        assert contract_axis(80.0, P) == pytest.approx(0.9, abs=1e-15)

    def test_odd(self):
        assert contract_axis(-80.0, P) == pytest.approx(-0.9, abs=1e-15)
        k = np.linspace(-300, 300, 601)
        np.testing.assert_allclose(contract_axis(-k, P), -contract_axis(k, P), atol=1e-15)

    def test_branch_continuity(self):
        # both branch expressions at |kbar| = 1
        left = P.beta * 1.0
        right = 1.0 - (1.0 - P.beta) / 1.0
        assert abs(left - right) < 1e-12
        eps = np.nextafter(40.0, 80.0) - 40.0
        assert abs(contract_axis(40.0 + eps, P) - contract_axis(40.0, P)) < 1e-12

    def test_strictly_monotone_into_unit_interval(self):
        k = np.linspace(-4000, 4000, 20001)
        c = contract_axis(k, P)
        assert np.all(np.diff(c) > 0)
        assert np.all(np.abs(c) < 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            contract_axis(np.nan, P)
        with pytest.raises(ValueError):
            contract_axis(np.inf, P)

    def test_uncontract_examples(self):
        assert uncontract_axis(0.0, P) == 0.0
        assert uncontract_axis(0.8, P) == pytest.approx(40.0, rel=1e-12)
        assert uncontract_axis(0.9, P) == pytest.approx(80.0, rel=1e-12)

    def test_uncontract_domain(self):
        with pytest.raises(ValueError):
            uncontract_axis(1.0, P)
        with pytest.raises(ValueError):
            uncontract_axis(-1.5, P)

    def test_round_trip(self):
        k = np.linspace(-10 * P.k_hr, 10 * P.k_hr, 4001)
        rt = uncontract_axis(contract_axis(k, P), P)
        rel = np.abs(rt - k) / np.maximum(np.abs(k), 1e-12)
        assert np.max(rel) < 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ContractionParams(-1.0, 0.8)
        with pytest.raises(ValueError):
            ContractionParams(40.0, 1.0)


class TestContractQuery:
    def test_origin_passthrough(self):
        q = contract_query(Query4(0.0, 0.0, 1.5, 0.5), P)
        assert (q.x, q.y, q.z, q.t) == (0.0, 0.0, 1.5, 0.5)

    def test_per_axis(self):
        q = contract_query(Query4(80.0, -40.0, 2.0, 0.0), P)
        assert q.x == pytest.approx(0.9, abs=1e-15)
        assert q.y == pytest.approx(-0.8, abs=1e-15)
        assert (q.z, q.t) == (2.0, 0.0)

    def test_round_trip_xy(self):
        q = contract_query(Query4(123.4, -56.7, 2.0, 0.25), P)
        assert uncontract_axis(q.x, P) == pytest.approx(123.4, rel=1e-9)
        assert uncontract_axis(q.y, P) == pytest.approx(-56.7, rel=1e-9)

    def test_finiteness_enforced(self):
        with pytest.raises(ValueError):
            Query4(np.nan, 0.0, 0.0, 0.0)


class TestDepthBins:
    def test_endpoints_any_alpha(self):
        for alpha in (0.0, 0.3, 1.0):
            b = DepthBinning(40.0, 100.0, alpha, 16, None)
            e = depth_bin_edges(b)
            assert e[0] == 40.0
            assert e[-1] == 100.0
            assert np.all(np.diff(e) > 0)

    def test_alpha_one_is_uniform(self):
        b = DepthBinning(40.0, 100.0, 1.0, 6, None)
        e = depth_bin_edges(b)
        np.testing.assert_allclose(e, np.linspace(40.0, 100.0, 7), rtol=1e-12)

    def test_midpoint_value_against_scalar_oracle(self):
        # independent scalar evaluation of the log-linear blend at r = 0.5
        r = 0.5
        expected = (1 - 0.3) * 40.0 * math.pow(100.0 / 40.0, r) + 0.3 * (
            40.0 + r * (100.0 - 40.0)
        )
        assert expected == pytest.approx(65.27188724235731, rel=1e-12)
        b = DepthBinning(40.0, 100.0, 0.3, 10, None)
        assert depth_bin_edges(b)[5] == pytest.approx(expected, rel=1e-12)

    def test_infinity_bin(self):
        b = DepthBinning(40.0, 100.0, 0.3, 8, 180.0)
        e = depth_bin_edges(b)
        assert len(e) == 10
        assert e[-1] == 180.0
        reps = depth_bin_centers(b)
        assert len(reps) == 9
        assert reps[-1] == 180.0

    def test_centers_are_geometric_midpoints(self):
        b = DepthBinning(2.0, 50.0, 0.0, 5, None)
        e = depth_bin_edges(b)
        np.testing.assert_allclose(depth_bin_centers(b), np.sqrt(e[:-1] * e[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DepthBinning(100.0, 40.0, 0.3, 8)
        with pytest.raises(ValueError):
            DepthBinning(40.0, 100.0, 0.3, 8, infinity_bin_depth=90.0)


def _random_camera(rng):
    fx, fy = rng.uniform(100, 800, 2)
    w, h = 640, 480
    K = np.array([[fx, 0, w / 2 + rng.uniform(-5, 5)], [0, fy, h / 2 + rng.uniform(-5, 5)], [0, 0, 1.0]])
    A = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    return CameraModel(K, RigidTransform(Q, rng.uniform(-3, 3, 3)), w, h)


class TestLiftPixel:
    def test_principal_point_on_axis(self):
        K = np.array([[400.0, 0, 320.0], [0, 400.0, 240.0], [0, 0, 1.0]])
        cam = CameraModel(K, RigidTransform.identity(), 640, 480)
        p = lift_pixel(cam, 320.0, 240.0, 7.0)
        np.testing.assert_allclose(p, [0.0, 0.0, 7.0], atol=1e-12)
        assert np.linalg.norm(p) == pytest.approx(7.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cam = _random_camera(rng)
            u = rng.uniform(0, cam.width - 1e-6, 40)
            v = rng.uniform(0, cam.height - 1e-6, 40)
            d = rng.uniform(0.5, 80.0, 40)
            u2, v2, d2 = project_point(cam, lift_pixel(cam, u, v, d))
            assert np.max(np.abs(u2 - u)) < 1e-6
            assert np.max(np.abs(v2 - v)) < 1e-6
            assert np.max(np.abs(d2 - d)) < 1e-6

    def test_translation_shifts_point(self):
        K = np.array([[400.0, 0, 320.0], [0, 400.0, 240.0], [0, 0, 1.0]])
        cam0 = CameraModel(K, RigidTransform.identity(), 640, 480)
        t = np.array([1.5, -2.0, 0.25])
        cam1 = CameraModel(K, RigidTransform(np.eye(3), t), 640, 480)
        p0 = lift_pixel(cam0, 100.0, 200.0, 5.0)
        p1 = lift_pixel(cam1, 100.0, 200.0, 5.0)
        np.testing.assert_allclose(p1 - p0, t, atol=1e-12)

    def test_out_of_image_rejected(self):
        cam = _random_camera(np.random.default_rng(0))
        with pytest.raises(ValueError):
            lift_pixel(cam, -1.0, 10.0, 5.0)
        with pytest.raises(ValueError):
            lift_pixel(cam, 10.0, cam.height + 0.5, 5.0)
        with pytest.raises(ValueError):
            lift_pixel(cam, 10.0, 10.0, 0.0)


class TestFourier:
    def test_zero_input(self):
        cfg = FourierConfig(16, 1.0, 10.0)
        enc = fourier_encode(0.0, cfg)
        np.testing.assert_array_equal(enc[:16], np.zeros(16))
        np.testing.assert_array_equal(enc[16:], np.ones(16))

    def test_length(self):
        cfg = FourierConfig(16, 1.0, 10.0)
        assert len(fourier_encode(0.3, cfg)) == 32
        assert len(fourier_encode(np.array([0.3, -1.0, 2.0]), cfg)) == 96

    def test_deterministic(self):
        cfg = FourierConfig(8, 1.0, 10.0)
        a = fourier_encode(np.array([0.7, 1.3]), cfg)
        b = fourier_encode(np.array([0.7, 1.3]), cfg)
        np.testing.assert_array_equal(a, b)

    def test_log_linear_band_layout(self):
        cfg = FourierConfig(16, 1.0, 10.0)
        f = cfg.frequencies
        assert f[0] == 1.0 and f[-1] == 10.0
        ratios = f[1:] / f[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FourierConfig(0, 1.0, 10.0)
        with pytest.raises(ValueError):
            FourierConfig(4, 10.0, 1.0)


class TestRayBox:
    LO = np.array([0.0, 0.0, 0.0])
    HI = np.array([1.0, 2.0, 1.0])

    def test_through(self):
        t_in, t_out = ray_box(np.array([-3.0, 0.5, 0.5]), np.array([1.0, 0.0, 0.0]), self.LO, self.HI)
        assert (t_in, t_out) == (3.0, 4.0)

    def test_miss(self):
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        t_in, t_out = ray_box(np.array([-3.0, 0.5, 0.5]), d, self.LO, self.HI)
        assert t_in > t_out

    def test_parallel_inside(self):
        # y and z components are zero; the origin lies within both slabs
        t_in, t_out = ray_box(np.array([5.0, 2.0, 0.0]), np.array([-1.0, 0.0, 0.0]), self.LO, self.HI)
        assert (t_in, t_out) == (4.0, 5.0)

    def test_parallel_outside(self):
        t_in, t_out = ray_box(np.array([-3.0, 2.5, 0.5]), np.array([1.0, 0.0, 0.0]), self.LO, self.HI)
        assert t_in == np.inf and t_out == -np.inf

    def test_inside_mask_overrides_closed_slab(self):
        o, d = np.array([-3.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0])
        t_in, t_out = ray_box(o, d, self.LO, self.HI, inside=np.array([True, False, True]))
        assert t_in > t_out

    def test_origin_inside(self):
        d = np.array([0.0, 0.6, 0.8])
        t_in, t_out = ray_box(np.array([0.5, 0.5, 0.5]), d, self.LO, self.HI)
        assert t_in == pytest.approx(-0.625) and t_out == pytest.approx(0.625)

    def test_broadcasts_and_clips_fewer_axes(self):
        rng = np.random.default_rng(4)
        o = rng.normal(size=(5, 1, 3))
        d = rng.normal(size=(5, 1, 3))
        lo = rng.normal(size=(7, 3))
        hi = lo + rng.random((7, 3))
        t_in, t_out = ray_box(o, d, lo, hi)
        assert t_in.shape == t_out.shape == (5, 7)
        one = ray_box(o[2, 0], d[2, 0], lo[4], hi[4])
        assert (t_in[2, 4], t_out[2, 4]) == one
        z_in, z_out = ray_box(o[..., 2:], d[..., 2:], lo[:, 2:], hi[:, 2:])
        assert np.all(z_in <= t_in) and np.all(z_out >= t_out)
