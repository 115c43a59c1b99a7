import numpy as np
import pytest

from occfield import (
    ContractionParams,
    FourierConfig,
    contract_axis,
)
from occfield import init_field_model
from occfield.field import _encode
from occfield.geometry import fourier_encode_batch, ray_box

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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ContractionParams(-1.0, 0.8)
        with pytest.raises(ValueError):
            ContractionParams(40.0, 1.0)


class TestContractQuery:
    """A 4D query (x, y, z, t) as the field encodes it: x and y are contracted
    onto the BEV grid, z and t pass to the Fourier encoding unchanged."""

    FOURIER = FourierConfig(2, 1.0, 4.0)

    def _encode(self, query, size=64):
        model = init_field_model(P, n_classes=2, grid_size=size, grid_channels=3,
                                 fourier=self.FOURIER, hidden_width=4, hidden_layers=1)
        enc, iy, ix, bw = _encode(model, np.array([query], dtype=np.float64))
        u = (bw * ix).sum(axis=1)[0]  # continuous cell coordinates
        v = (bw * iy).sum(axis=1)[0]
        zt = enc[0, model.grid.channels:]
        return 2 * (u + 0.5) / size - 1, 2 * (v + 0.5) / size - 1, zt

    def _zt(self, z, t):
        return np.concatenate([fourier_encode_batch(np.array([v]), self.FOURIER)[0] for v in (z, t)])

    def test_origin_passthrough(self):
        cx, cy, zt = self._encode((0.0, 0.0, 1.5, 0.5))
        assert (cx, cy) == (0.0, 0.0)
        np.testing.assert_array_equal(zt, self._zt(1.5, 0.5))

    def test_per_axis(self):
        cx, cy, zt = self._encode((80.0, -40.0, 2.0, 0.0))
        assert cx == pytest.approx(0.9, abs=1e-12)
        assert cy == pytest.approx(-0.8, abs=1e-12)
        np.testing.assert_array_equal(zt, self._zt(2.0, 0.0))

    def test_round_trip_xy(self):
        cx, cy, _ = self._encode((123.4, -56.7, 2.0, 0.25))
        # the bilinear footprint recovers the contracted coordinates
        assert cx == pytest.approx(contract_axis(123.4, P), abs=1e-12)
        assert cy == pytest.approx(contract_axis(-56.7, P), abs=1e-12)

    def test_finiteness_enforced(self):
        for query in ((np.nan, 0.0, 0.0, 0.0), (0.0, np.inf, 0.0, 0.0)):
            with pytest.raises(ValueError):
                self._encode(query)


class TestFourier:
    def test_zero_input(self):
        cfg = FourierConfig(16, 1.0, 10.0)
        enc = fourier_encode_batch(np.zeros(1), cfg)[0]
        np.testing.assert_array_equal(enc[:16], np.zeros(16))
        np.testing.assert_array_equal(enc[16:], np.ones(16))

    def test_length(self):
        cfg = FourierConfig(16, 1.0, 10.0)
        assert fourier_encode_batch(np.array([0.3, 0.5]), cfg).shape == (2, 32)
        assert fourier_encode_batch(np.array([[0.3, -1.0, 2.0]]), cfg).shape == (1, 96)

    def test_deterministic(self):
        cfg = FourierConfig(8, 1.0, 10.0)
        v = np.array([[0.7, 1.3], [-2.0, 0.1]])
        a = fourier_encode_batch(v, cfg)
        np.testing.assert_array_equal(a, fourier_encode_batch(v, cfg))
        # sines first, dimension-major within each block, then cosines
        phases = (v[:, :, None] * cfg.frequencies).reshape(2, 16)
        np.testing.assert_array_equal(a, np.concatenate([np.sin(phases), np.cos(phases)], axis=1))

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
