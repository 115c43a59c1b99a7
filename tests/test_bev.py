import io

import numpy as np
import pytest

from occfield import BevGrid, ContractionParams, FourierConfig, PointCloud, contract_axis, splat_pointcloud
from occfield.bev import bilinear_setup, grid_to_ppm
from occfield.field import FieldModel, read_field_model, write_field_model

P = ContractionParams(40.0, 0.8)
ENC = FourierConfig(1, 1.0, 1.0)  # 4 encoding channels: sin and cos of z and t


def _points(positions, cls=0):
    """A cloud of ``positions`` at time 0, all of class ``cls``."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pos)
    return PointCloud(pos, pos + 5.0, np.zeros(n), np.full(n, cls, np.uint16), np.zeros(n, bool))


def _mass(grid):
    return float(grid.data[:, :, -1].sum())


class TestSplat:
    def test_point_at_cell_center_stays_in_one_cell(self):
        grid = BevGrid(8, 8, 4 + 2 + 1, P)
        # cell centers sit at contracted (2(i+0.5)/8 - 1); pick i=5 -> 0.375
        x = 0.375 / 0.8 * 40.0  # inverse of contraction within the linear branch
        out = splat_pointcloud(_points([x, x, 0.0], cls=1), grid, ENC, n_classes=2)
        assert out.data[5, 5, -1] == pytest.approx(1.0)
        assert out.data[5, 5, 4 + 1] == pytest.approx(1.0)  # one-hot class 1
        assert np.count_nonzero(out.data[:, :, -1]) == 1

    def test_mass_conservation_with_far_points(self):
        rng = np.random.default_rng(1)
        grid = BevGrid(16, 16, 4 + 3 + 1, P)
        out = splat_pointcloud(_points(rng.uniform(-900, 900, (400, 3)), cls=2), grid, ENC, n_classes=3)
        assert _mass(out) == pytest.approx(400.0, abs=1e-6)

    def test_additivity(self):
        rng = np.random.default_rng(2)
        grid = BevGrid(12, 12, 4 + 2 + 1, P)
        pc = _points(rng.uniform(-100, 100, (100, 3)), cls=1)
        both = splat_pointcloud(pc, grid, ENC, n_classes=2)
        halves = [splat_pointcloud(pc.take(np.arange(i, i + 50)), grid, ENC, n_classes=2) for i in (0, 50)]
        np.testing.assert_allclose(halves[0].data + halves[1].data, both.data, atol=1e-9)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        grid = BevGrid(32, 32, 2, P)
        _, _, w = bilinear_setup(rng.uniform(-200, 200, 500), rng.uniform(-200, 200, 500), grid)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_contraction_placement_matches_core_geometry(self):
        rng = np.random.default_rng(4)
        grid = BevGrid(64, 64, 2, P)
        x = rng.uniform(-300, 300, 1000)
        y = rng.uniform(-300, 300, 1000)
        iy, ix, w = bilinear_setup(x, y, grid)
        cx = contract_axis(x, P)
        u = (cx + 1) / 2 * 64 - 0.5
        # weighted mean of corner x-indices reproduces the continuous coord
        np.testing.assert_allclose((w * ix).sum(axis=1), np.clip(u, 0, 63), atol=1e-9)

    def test_metric_80_lands_at_contracted_09(self):
        grid = BevGrid(20, 20, 2, P)
        iy, ix, w = bilinear_setup(np.array([80.0]), np.array([0.0]), grid)
        u = (0.9 + 1) / 2 * 20 - 0.5  # 18.5
        assert {int(i) for i in ix[0]} == {18, 19}
        np.testing.assert_allclose((w * ix).sum(axis=1), [u], atol=1e-12)

    def test_channel_mismatch_rejected(self):
        grid = BevGrid(8, 8, 3, P)
        for pc in (_points(np.zeros(3)), _points(np.zeros((0, 3)))):
            with pytest.raises(ValueError, match="channels"):
                splat_pointcloud(pc, grid, ENC, n_classes=2)

    def test_empty_input_returns_copy(self):
        grid = BevGrid(8, 8, 4 + 2 + 1, P, np.full((8, 8, 7), 0.5))
        out = splat_pointcloud(_points(np.zeros((0, 3))), grid, ENC, n_classes=2)
        assert out is not grid and out.data is not grid.data
        np.testing.assert_array_equal(out.data, grid.data)


class TestSplatPointcloud:
    def _cloud(self, rng, n, cls=1):
        pos = rng.uniform(-30, 30, (n, 3))
        return PointCloud(
            pos, pos + np.array([0, 0, 5.0]), rng.uniform(-1, 1, n),
            np.full(n, cls, np.uint16), np.zeros(n, bool),
        )

    def test_empty_cloud_zero_grid(self):
        enc = FourierConfig(4, 1.0, 10.0)
        grid = BevGrid(8, 8, 4 * 4 + 3 + 1, P)
        out = splat_pointcloud(_points(np.zeros((0, 3))), grid, enc, n_classes=3)
        assert _mass(out) == 0.0

    def test_duplicate_point_doubles_mass(self):
        enc = FourierConfig(4, 1.0, 10.0)
        grid = BevGrid(8, 8, 16 + 2 + 1, P)
        rng = np.random.default_rng(5)
        one = self._cloud(rng, 1)
        two = PointCloud(
            np.repeat(one.positions, 2, axis=0), np.repeat(one.origins, 2, axis=0),
            np.repeat(one.times, 2), np.repeat(one.class_ids, 2),
            np.repeat(one.dynamic_flags, 2),
        )
        a = splat_pointcloud(one, grid, enc, n_classes=2)
        b = splat_pointcloud(two, grid, enc, n_classes=2)
        np.testing.assert_allclose(b.data, 2 * a.data, atol=1e-12)

    def test_mass_equals_point_count(self):
        enc = FourierConfig(3, 1.0, 10.0)
        grid = BevGrid(16, 16, 12 + 4 + 1, P)
        rng = np.random.default_rng(6)
        pc = self._cloud(rng, 250, cls=2)
        out = splat_pointcloud(pc, grid, enc, n_classes=4)
        assert _mass(out) == pytest.approx(250.0, abs=1e-6)


class TestEncodeAndIO:
    def test_grid_round_trip(self):
        # the grid travels inside the QOFM model file; values exact in float32
        rng = np.random.default_rng(8)
        contraction = ContractionParams(40.0, 0.75)
        grid = BevGrid(6, 4, 3, contraction, rng.integers(-100, 100, (4, 6, 3)) / 16.0)
        model = FieldModel(grid, [(np.zeros((3 + 4 * ENC.n_bands, 2)), np.zeros(2))], ENC, 1, 0)
        buf = io.BytesIO()
        write_field_model(model, buf)
        back = read_field_model(io.BytesIO(buf.getvalue())).grid
        assert (back.width, back.height, back.channels) == (6, 4, 3)
        np.testing.assert_array_equal(back.data, grid.data)
        assert back.contraction == contraction

    def test_ppm_header(self):
        grid = BevGrid(6, 4, 2, P)
        ppm = grid_to_ppm(grid)
        assert ppm.startswith(b"P6\n6 4\n255\n")
        assert len(ppm) == len(b"P6\n6 4\n255\n") + 6 * 4 * 3
