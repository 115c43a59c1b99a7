import numpy as np
import pytest

from occfield import (
    ContractionParams, FourierConfig, brute_force_ray_iou, init_field_model, iou,
    predict_volume, ray_iou,
)
from occfield import metrics
from occfield.metrics import RayIoUConfig, first_hits, first_hits_exact
from occfield.scene import FREE, VoxelVolume

# Dyadic grid values: face planes, cell indices and the floor() that assigns
# points to half-open cells are all exact in floating point.
MINS = np.array([-1.0, 0.5, -0.75])
CELL = 0.5
DIMS = (6, 5, 4)


def _random_volume(rng, p=0.2, n_classes=3):
    labels = np.where(rng.random(DIMS) < p, rng.integers(0, n_classes, DIMS), FREE)
    return VoxelVolume(labels.astype(np.int32), MINS, CELL)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _assert_agree(vol, origins, dirs):
    """first_hits against the exact oracle: same hits, depth within 1e-9, and
    a class among those whose cells the oracle enters at that depth."""
    hit, cls, depth = first_hits(vol, origins, dirs)
    o_hit, o_cls, o_depth = first_hits_exact(vol, origins, dirs)
    np.testing.assert_array_equal(hit, o_hit)
    np.testing.assert_allclose(depth[hit], o_depth[hit], rtol=0, atol=1e-9)
    assert np.all(cls[~hit] == FREE) and np.all(o_cls[~o_hit] == FREE)
    tied = np.zeros(hit.sum(), dtype=bool)
    for c in np.unique(vol.labels[vol.labels != FREE]):
        only_c = VoxelVolume(np.where(vol.labels == c, c, FREE), vol.mins, vol.cell_size)
        _, _, c_depth = first_hits_exact(only_c, origins[hit], dirs[hit])
        tied |= (cls[hit] == c) & (c_depth <= o_depth[hit] + 1e-9)
    assert tied.all(), np.flatnonzero(hit)[~tied]
    return hit


class TestFirstHitsAgainstExactOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_rays_from_outside(self, seed):
        rng = np.random.default_rng(seed)
        vol = _random_volume(rng)
        center = (vol.mins + vol.maxs) / 2
        origins = center + 6.0 * _unit(rng.normal(size=(400, 3)))
        targets = vol.mins + rng.random((400, 3)) * (vol.maxs - vol.mins)
        hit = _assert_agree(vol, origins, _unit(targets - origins))
        assert 0 < hit.sum() < len(hit)

    @pytest.mark.parametrize("seed", range(4))
    def test_rays_starting_inside(self, seed):
        rng = np.random.default_rng(100 + seed)
        vol = _random_volume(rng)
        origins = vol.mins + rng.random((400, 3)) * (vol.maxs - vol.mins)
        dirs = _unit(rng.normal(size=(400, 3)))
        assert _assert_agree(vol, origins, dirs).any()
        # a ray that starts in an occupied cell hits it at depth 0
        idx = np.floor((origins - vol.mins) / vol.cell_size).astype(int)
        _, _, depth = first_hits(vol, origins, dirs)
        assert np.all(depth[vol.occupancy[tuple(idx.T)]] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_axis_parallel_rays_on_and_off_face_planes(self, seed):
        rng = np.random.default_rng(200 + seed)
        vol = _random_volume(rng, p=0.3)
        n = 600
        axis = rng.integers(0, 3, n)
        sign = rng.choice([-1.0, 1.0], n)
        dirs = np.zeros((n, 3))
        dirs[np.arange(n), axis] = sign
        # start outside the grid along the ray's axis, anywhere across it
        origins = vol.mins - 1.0 + rng.random((n, 3)) * (vol.maxs - vol.mins + 2.0)
        origins[np.arange(n), axis] = np.where(sign > 0, vol.mins[axis] - 0.3, vol.maxs[axis] + 0.3)
        # snap the other coordinates of most rays onto face planes, the
        # grid's outer faces included, so many rays run along a face or an edge
        planes = vol.mins + rng.integers(0, np.array(vol.dims) + 1, (n, 3)) * vol.cell_size
        snap = (rng.random((n, 3)) < 0.6) & (np.arange(3) != axis[:, None])
        origins = np.where(snap, planes, origins)
        hit = _assert_agree(vol, origins, dirs)
        assert hit.any()

    def test_face_plane_ray_belongs_to_cells_above(self):
        labels = np.full((3, 2, 1), FREE, dtype=np.int32)
        labels[1, 0, 0] = 1  # below the plane y = 1
        labels[2, 1, 0] = 2  # above it
        vol = VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)
        o = np.array([[-1.0, 1.0, 0.5], [-1.0, 2.0, 0.5], [-1.0, 0.0, 0.5]])
        d = np.tile([1.0, 0.0, 0.0], (3, 1))
        for fn in (first_hits, first_hits_exact):
            hit, cls, depth = fn(vol, o, d)
            # y = 2 is the grid's upper face: outside every half-open cell
            np.testing.assert_array_equal(hit, [True, False, True])
            np.testing.assert_array_equal(cls[hit], [2, 1])
            np.testing.assert_array_equal(depth[hit], [3.0, 2.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_through_cell_edges_and_corners(self, seed):
        """Rays that enter an occupied cell exactly through one of its
        corners or edges.  The other cells at that corner or edge meet such a
        ray in one point only; whether a traversal steps through one of them
        is an axis tie-break that rounding decides, so they are left free."""
        rng = np.random.default_rng(300 + seed)
        for _ in range(40):
            vol = _random_volume(rng, p=0.15)
            cell = rng.integers(1, np.array(DIMS) - 1)
            corner = rng.integers(0, 2, 3)  # which corner of the cell
            point = vol.mins + (cell + corner) * CELL
            into = np.where(corner == 1, -1, 1)  # from that corner into the cell
            edge_axis = rng.integers(-1, 3)  # -1: through the corner itself
            if edge_axis >= 0:
                # slide along the edge parallel to this axis, off its ends
                point[edge_axis] += into[edge_axis] * CELL * rng.uniform(0.1, 0.9)
            shared = np.arange(3) != edge_axis
            for off in np.ndindex(2, 2, 2):
                off = np.array(off) * shared
                vol.labels[tuple(cell - off * into)] = FREE
            vol.labels[tuple(cell)] = rng.integers(0, 3)
            d = _unit(into * rng.uniform(0.2, 1.0, 3))
            o = point - rng.uniform(0.5, 4.0) * d
            assert _assert_agree(vol, o[None], d[None])[0]

    @pytest.mark.xfail(strict=True, reason="known: corner ties are broken differently")
    def test_ray_through_a_corner_touching_only_the_occupied_cell(self):
        """The traversal steps along x first at the corner (1, 1) and never
        enters cell (0, 1), which the oracle counts as touched there."""
        labels = np.full((2, 2, 1), FREE, dtype=np.int32)
        labels[0, 1, 0] = 3
        vol = VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)
        o = np.array([[0.5, 0.5, 0.5]])
        d = _unit(np.array([[1.0, 1.0, 0.0]]))
        assert first_hits(vol, o, d)[0][0] == first_hits_exact(vol, o, d)[0][0]

    def test_corner_clip_shorter_than_a_tenth_of_a_cell(self):
        labels = np.full((3, 3, 1), FREE, dtype=np.int32)
        labels[1, 1, 0] = 2
        vol = VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)
        # x + y = 2.02 cuts a 0.028 m chord off the corner (1, 1) of cell (1, 1)
        o = np.array([[-1.0, 3.02, 0.5]])
        d = _unit(np.array([[1.0, -1.0, 0.0]]))
        for fn in (first_hits, first_hits_exact):
            hit, cls, depth = fn(vol, o, d)
            assert hit[0] and cls[0] == 2
            assert depth[0] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_empty_volume_and_misses(self):
        vol = VoxelVolume(np.full(DIMS, FREE, dtype=np.int32), MINS, CELL)
        o = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]])
        d = _unit(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
        for fn in (first_hits, first_hits_exact):
            hit, cls, depth = fn(vol, o, d)
            assert not hit.any() and np.all(cls == FREE) and np.all(np.isinf(depth))

    def test_chunking_does_not_change_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(9)
        vol = _random_volume(rng)
        o = vol.mins + rng.random((50, 3)) * (vol.maxs - vol.mins)
        d = _unit(rng.normal(size=(50, 3)))
        whole = first_hits_exact(vol, o, d)
        monkeypatch.setattr(metrics, "_ORACLE_PAIRS", 7)
        for a, b in zip(whole, first_hits_exact(vol, o, d)):
            np.testing.assert_array_equal(a, b)


class TestScores:
    def test_brute_force_matches_ray_iou(self):
        rng = np.random.default_rng(11)
        gt = _random_volume(rng)
        pred = VoxelVolume(np.where(rng.random(DIMS) < 0.1, FREE, gt.labels), MINS, CELL)
        center = (gt.mins + gt.maxs) / 2
        origins = center + 5.0 * _unit(rng.normal(size=(300, 3)))
        cfg = RayIoUConfig(origins, _unit(center + rng.normal(size=(300, 3)) - origins), (0.25, 1.0))
        a, b = ray_iou(pred, gt, cfg), brute_force_ray_iou(pred, gt, cfg)
        np.testing.assert_array_equal(a.ray_counts, b.ray_counts)
        np.testing.assert_array_equal(a.occ_ray_counts, b.occ_ray_counts)
        assert a.mean_rayiou == b.mean_rayiou and a.occupancy_rayiou == b.occupancy_rayiou

    def test_depth_tolerances(self):
        gt = np.full((8, 1, 1), FREE, dtype=np.int32)
        pred = gt.copy()
        gt[2] = 0
        pred[3] = 0  # the prediction's surface is 1.5 m further along the ray
        gt_v = VoxelVolume(gt, (0.0, 0.0, 0.0), 1.5)
        pred_v = VoxelVolume(pred, (0.0, 0.0, 0.0), 1.5)
        cfg = RayIoUConfig([[-1.0, 0.75, 0.75]], [[1.0, 0.0, 0.0]], (1.0, 2.0, 4.0))
        rep = ray_iou(pred_v, gt_v, cfg)
        # TP/(TP+FP+FN) is 0/2 at 1 m and 1/1 at 2 m and 4 m
        np.testing.assert_array_equal(rep.ray_counts[0, :, 0], [0, 1, 1])
        assert rep.mean_rayiou == pytest.approx(2.0 / 3.0)
        assert rep.occupancy_rayiou == pytest.approx(2.0 / 3.0)

    def test_iou_per_class(self):
        gt = np.array([[[0, 0, 1, FREE]]], dtype=np.int32)
        pred = np.array([[[0, 1, 1, 1]]], dtype=np.int32)
        rep = iou(VoxelVolume(pred, np.zeros(3), 1.0), VoxelVolume(gt, np.zeros(3), 1.0))
        np.testing.assert_allclose(rep.iou_per_class, [0.5, 1.0 / 3.0])
        assert rep.occupancy_iou == 0.75

    def test_grids_must_match(self):
        a = VoxelVolume(np.full((2, 2, 2), FREE, dtype=np.int32), np.zeros(3), 0.4)
        b = VoxelVolume(a.labels, np.zeros(3), np.float32(0.4))
        with pytest.raises(ValueError, match="grids differ"):
            iou(a, b)


class TestPredictVolume:
    @staticmethod
    def _model():
        model = init_field_model(
            ContractionParams(10.0, 0.8), n_classes=4, grid_size=8, grid_channels=4,
            fourier=FourierConfig(3, 1.0, 10.0), hidden_width=12, hidden_layers=2, seed=1,
        )
        rng = np.random.default_rng(3)
        for w, _ in model.layers:
            w += rng.standard_normal(w.shape)
        model.grid.data += rng.standard_normal(model.grid.data.shape)
        return model

    def test_chunk_size_does_not_change_labels(self, monkeypatch):
        model = self._model()
        maxs = MINS + CELL * np.array(DIMS)
        default = predict_volume(model, MINS, maxs, CELL, time=0.25)
        assert len(np.unique(default.labels)) > 2  # free and several classes
        for chunk in (7, default.labels.size):
            monkeypatch.setattr(metrics, "_CHUNK", chunk)
            other = predict_volume(model, MINS, maxs, CELL, time=0.25)
            np.testing.assert_array_equal(other.labels, default.labels)

    def test_extents_must_be_whole_cells(self):
        model = self._model()
        for maxs in (MINS + [3.0, 2.5, 2.2], MINS):
            with pytest.raises(ValueError, match="whole number of cells"):
                predict_volume(model, MINS, maxs, CELL)
