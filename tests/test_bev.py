import io

import numpy as np
import pytest

from occfield import BevGrid, ContractionParams, FourierConfig, PointCloud, contract_axis, splat_pointcloud
from occfield.bev import bilinear_setup, grid_to_ppm
from occfield.field import FieldModel, read_field_model, write_field_model

P = ContractionParams(40.0, 0.8)
ENC = FourierConfig(1, 1.0, 1.0)  # 4 encoding channels: sin and cos of z and t


def _points(positions):
    """A cloud of ``positions`` at time 0."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pos)
    return PointCloud(pos, pos + 5.0, np.zeros(n), np.zeros(n, np.uint16), np.zeros(n, bool))


def _mass(grid):
    return float(grid.data.sum())


class TestSplat:
    def test_point_at_cell_center_stays_in_one_cell(self):
        grid = BevGrid(8, 8, 1, P)
        # cell centers sit at contracted (2(i+0.5)/8 - 1); pick i=5 -> 0.375
        x = 0.375 / 0.8 * 40.0  # inverse of contraction within the linear branch
        out = splat_pointcloud(_points([x, x, 0.0]), grid)
        assert out.data[5, 5, 0] == pytest.approx(1.0)
        assert np.count_nonzero(out.data) == 1

    def test_mass_conservation_with_far_points(self):
        rng = np.random.default_rng(1)
        grid = BevGrid(16, 16, 1, P)
        out = splat_pointcloud(_points(rng.uniform(-900, 900, (400, 3))), grid)
        assert _mass(out) == pytest.approx(400.0, abs=1e-6)

    def test_additivity(self):
        rng = np.random.default_rng(2)
        grid = BevGrid(12, 12, 1, P)
        pc = _points(rng.uniform(-100, 100, (100, 3)))
        both = splat_pointcloud(pc, grid)
        halves = [splat_pointcloud(pc.take(np.arange(i, i + 50)), grid) for i in (0, 50)]
        np.testing.assert_allclose(halves[0].data + halves[1].data, both.data, atol=1e-9)

    def test_mass_lands_on_the_four_bilinear_cells(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-60, 60, (50, 3))
        out = splat_pointcloud(_points(pos), BevGrid(10, 10, 1, P))
        ref = np.zeros((10, 10))
        for x, y, _ in pos:
            u = (contract_axis(x, P) + 1) / 2 * 10 - 0.5
            v = (contract_axis(y, P) + 1) / 2 * 10 - 0.5
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            fx, fy = u - x0, v - y0
            for dx, dy, weight in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                                   (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
                ref[np.clip(y0 + dy, 0, 9), np.clip(x0 + dx, 0, 9)] += weight
        np.testing.assert_allclose(out.data[:, :, 0], ref, atol=1e-12)

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
                splat_pointcloud(pc, grid)

    def test_empty_input_returns_copy(self):
        grid = BevGrid(8, 8, 1, P, np.full((8, 8, 1), 0.5))
        out = splat_pointcloud(_points(np.zeros((0, 3))), grid)
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
        out = splat_pointcloud(_points(np.zeros((0, 3))), BevGrid(8, 8, 1, P))
        assert _mass(out) == 0.0

    def test_duplicate_point_doubles_mass(self):
        grid = BevGrid(8, 8, 1, P)
        rng = np.random.default_rng(5)
        one = self._cloud(rng, 1)
        two = PointCloud(
            np.repeat(one.positions, 2, axis=0), np.repeat(one.origins, 2, axis=0),
            np.repeat(one.times, 2), np.repeat(one.class_ids, 2),
            np.repeat(one.dynamic_flags, 2),
        )
        a = splat_pointcloud(one, grid)
        b = splat_pointcloud(two, grid)
        np.testing.assert_allclose(b.data, 2 * a.data, atol=1e-12)

    def test_mass_equals_point_count(self):
        grid = BevGrid(16, 16, 1, P)
        rng = np.random.default_rng(6)
        pc = self._cloud(rng, 250, cls=2)
        out = splat_pointcloud(pc, grid)
        assert _mass(out) == pytest.approx(250.0, abs=1e-6)


class TestEncodeAndIO:
    def test_grid_round_trip(self):
        # the grid travels inside the QOFM model file; values exact in float32
        rng = np.random.default_rng(8)
        contraction = ContractionParams(40.0, 0.75)
        grid = BevGrid(6, 4, 3, contraction, rng.integers(-100, 100, (4, 6, 3)) / 16.0)
        model = FieldModel(grid, [(np.zeros((3 + 4 * ENC.n_bands, 2)), np.zeros(2))], ENC, 1)
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
