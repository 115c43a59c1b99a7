import io
import struct

import numpy as np
import pytest

from occfield import (
    Box,
    ClassTable,
    Cylinder,
    GroundSlab,
    ScanSpec,
    SceneSpec,
    raycast_scan,
    read_voxel_volume,
    voxelize_ground_truth,
    write_voxel_volume,
)
from occfield.scene import FREE, VoxelVolume, oracle_query_batch


def _basic_scene():
    table = ClassTable(
        ("ground", "boxy", "tube"), np.array([0.6, 0.3, 0.1]), np.array([False, True, False])
    )
    return SceneSpec(
        (
            GroundSlab(-0.5, 0.0, 0),
            Box((8.0, 0.0, 1.0), (2.0, 2.0, 2.0), 1),
            Cylinder((0.0, 8.0), 1.0, 0.0, 3.0, 2),
        ),
        bounds=30.0,
        classes=table,
    )


def _oracle(scene, x, y, z, t):
    """(occupied, class or None) of one query through the batch oracle."""
    occ, cls = oracle_query_batch(scene, np.array([[x, y, z]]), np.array([t]))
    return bool(occ[0]), (int(cls[0]) if occ[0] else None)


class TestOracle:
    def test_static_box_any_time(self):
        scene = _basic_scene()
        for t in (-3.0, 0.0, 5.0):
            assert _oracle(scene, 8.0, 0.0, 1.0, t) == (True, 1)

    def test_free_above_everything(self):
        assert _oracle(_basic_scene(), 0.0, 0.0, 5.0, 0.0) == (False, None)

    def test_moving_box_vacates(self):
        scene = SceneSpec((Box((0.0, 0.0, 1.0), (2.0, 2.0, 2.0), 0, velocity=(1.0, 0, 0)),), 20.0)
        assert _oracle(scene, 0.0, 0.0, 1.0, 0.0) == (True, 0)
        assert _oracle(scene, 0.0, 0.0, 1.0, 3.0) == (False, None)
        assert _oracle(scene, 3.0, 0.0, 1.0, 3.0) == (True, 0)

    def test_overlap_first_wins(self):
        scene = SceneSpec(
            (Box((0, 0, 1), (2, 2, 2), 1), Box((0, 0, 1), (4, 4, 4), 0)), 20.0
        )
        assert _oracle(scene, 0.0, 0.0, 1.0, 0.0) == (True, 1)
        assert _oracle(scene, 1.5, 0.0, 1.0, 0.0) == (True, 0)

    def test_cylinder_contains(self):
        scene = _basic_scene()
        assert _oracle(scene, 0.0, 8.0, 1.5, 0.0) == (True, 2)
        assert _oracle(scene, 0.0, 9.5, 1.5, 0.0) == (False, None)
        assert _oracle(scene, 0.0, 8.0, 3.5, 0.0) == (False, None)


def _reference_contains(prim, pts, t):
    """Row-wise containment on (N, 3) points, as the oracle computed it before
    it tested one axis at a time over the points still free."""
    t = np.asarray(t, dtype=np.float64)
    off = t[..., None] * np.asarray(prim.velocity)
    if isinstance(prim, Box):
        c = np.asarray(prim.center) + off
        h = np.asarray(prim.size) / 2.0
        return np.all(np.abs(pts - c) <= h, axis=-1)
    if isinstance(prim, GroundSlab):
        z = pts[..., 2] - off[..., 2]
        return (z >= prim.z_min) & (z <= prim.z_max)
    p = pts - off
    dx = p[..., 0] - prim.center[0]
    dy = p[..., 1] - prim.center[1]
    inside_r = dx * dx + dy * dy <= prim.radius**2
    return inside_r & (p[..., 2] >= prim.z_min) & (p[..., 2] <= prim.z_max)


def _reference_oracle(scene, points, times):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    labels = np.full(len(pts), FREE, dtype=np.int32)
    for prim in scene.primitives:
        undecided = labels == FREE
        if not undecided.any():
            break
        hit = _reference_contains(prim, pts[undecided], t[undecided])
        labels[np.flatnonzero(undecided)[hit]] = prim.class_id
    return labels != FREE, labels


class TestOracleMatchesReference:
    """Every parameter is a multiple of 1/8 and every velocity of 1/8, so
    lattice queries at multiples of 1/8 m and 1/4 s land exactly on faces,
    edges and the cylinder's rim, where the closed sets decide."""

    SCENE = SceneSpec(
        (
            GroundSlab(-0.5, 0.0, 0, velocity=(0.0, 0.0, 0.125)),
            Box((2.0, 0.0, 1.0), (2.0, 2.0, 2.0), 1),
            Box((2.5, 0.5, 1.0), (2.0, 2.0, 2.0), 2),  # overlaps the box before it
            Box((-3.0, 2.0, 0.75), (1.5, 1.0, 1.5), 3, velocity=(0.5, -0.25, 0.0)),
            Cylinder((0.0, -3.0), 1.25, 0.0, 2.5, 4, velocity=(-0.5, 0.25, 0.125)),
        ),
        20.0,
    )

    def _queries(self):
        rng = np.random.default_rng(12)
        n = 50_000
        smooth = np.column_stack([rng.uniform(-6, 6, (n, 2)), rng.uniform(-1, 3, n)])
        lattice = np.column_stack([rng.integers(-48, 49, (n, 2)), rng.integers(-8, 25, n)]) / 8.0
        times = np.concatenate([rng.uniform(-2, 2, n), rng.integers(-8, 9, n) / 4.0])
        return np.concatenate([smooth, lattice]), times

    def test_labels_bitwise_equal(self):
        pts, times = self._queries()
        occ, labels = oracle_query_batch(self.SCENE, pts, times)
        ref_occ, ref_labels = _reference_oracle(self.SCENE, pts, times)
        assert labels.dtype == ref_labels.dtype and occ.dtype == ref_occ.dtype
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(occ, ref_occ)
        assert set(np.unique(labels)) == {FREE, 0, 1, 2, 3, 4}

    def test_faces_are_inside(self):
        # faces of the static box, the overlapping box, the moving box at
        # t = 0.5 (center (-2.75, 1.875)), the moving cylinder's rim at t = 1
        # (center (-0.5, -2.75), top at 2.625) and the slab's top at t = -2
        pts = [
            (1.0, 0.0, 1.0), (3.0, 1.0, 2.0), (3.5, 1.5, 2.0),
            (-2.0, 2.375, 1.5), (0.75, -2.75, 2.625), (-1.25, -1.75, 1.0),
            (4.0, 4.0, -0.25),
        ]
        t = [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, -2.0]
        _, labels = oracle_query_batch(self.SCENE, np.array(pts), np.array(t))
        assert labels.tolist() == [1, 1, 2, 3, 4, 4, 0]
        np.testing.assert_array_equal(labels, _reference_oracle(self.SCENE, pts, t)[1])

    def test_empty_input(self):
        occ, labels = oracle_query_batch(self.SCENE, np.zeros((0, 3)), np.zeros(0))
        assert occ.shape == labels.shape == (0,)
        assert occ.dtype == bool and labels.dtype == np.int32


class TestRaycast:
    def test_box_face_distance(self):
        scene = SceneSpec((Box((10.0, 0.0, 1.0), (2.0, 2.0, 2.0), 0),), 30.0)
        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.0),
            azimuth_count=1, elevation_count=1,
            elevation_min=0.0, elevation_max=0.0,
            azimuth_min=0.0, azimuth_max=2 * np.pi, max_range=40.0,
        )
        pc = raycast_scan(scene, scan)
        assert len(pc) == 1
        np.testing.assert_allclose(pc.positions[0], [9.0, 0.0, 1.0], atol=1e-12)

    def test_infinite_max_range_means_no_limit(self):
        scene = SceneSpec((Box((100.0, 0.0, 1.0), (2.0, 2.0, 2.0), 0),), 200.0)
        ray = dict(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.0),
            azimuth_count=1, elevation_count=1,
            elevation_min=0.0, elevation_max=0.0,
            azimuth_min=0.0, azimuth_max=2 * np.pi,
        )
        pc = raycast_scan(scene, ScanSpec(**ray, max_range=np.inf))
        np.testing.assert_allclose(pc.positions, [[99.0, 0.0, 1.0]], atol=1e-12)
        for bad in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="max_range"):
                ScanSpec(**ray, max_range=bad)

    def test_sky_miss_produces_no_record(self):
        scene = _basic_scene()
        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.0),
            azimuth_count=8, elevation_count=3,
            elevation_min=0.3, elevation_max=0.8, max_range=40.0,
        )
        assert len(raycast_scan(scene, scan)) == 0

    def test_nearer_of_two_boxes_wins(self):
        scene = SceneSpec(
            (Box((20.0, 0, 1), (2, 2, 2), 1), Box((10.0, 0, 1), (2, 2, 2), 0)), 40.0
        )
        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.0),
            azimuth_count=1, elevation_count=1,
            elevation_min=0.0, elevation_max=0.0,
            azimuth_min=0.0, azimuth_max=2 * np.pi, max_range=60.0,
        )
        pc = raycast_scan(scene, scan)
        assert pc.class_ids[0] == 0
        np.testing.assert_allclose(pc.positions[0], [9.0, 0.0, 1.0], atol=1e-12)

    def test_surface_consistency(self):
        # every returned point: occupied just behind, free just in front
        scene = _basic_scene()
        scan = ScanSpec(
            timesteps=(-0.5, 0.0, 0.5), origin_start=(0.1, 0.2, 1.7),
            origin_velocity=(1.0, 0.0, 0.0),
            azimuth_count=48, elevation_count=12,
            elevation_min=-0.9, elevation_max=0.2, max_range=50.0,
        )
        pc = raycast_scan(scene, scan)
        assert len(pc) > 200
        eps = 1e-4
        d = pc.positions - pc.origins
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        occ_behind, _ = oracle_query_batch(scene, pc.positions + eps * d, pc.times)
        occ_front, _ = oracle_query_batch(scene, pc.positions - eps * d, pc.times)
        assert occ_behind.all()
        assert not occ_front.any()

    def test_order_independence_of_ray_enumeration(self):
        scene = _basic_scene()
        base = dict(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.5), max_range=40.0,
            elevation_min=-0.8, elevation_max=0.1,
        )
        a = raycast_scan(scene, ScanSpec(azimuth_count=32, elevation_count=8, **base))
        b = raycast_scan(scene, ScanSpec(azimuth_count=32, elevation_count=8, **base))
        np.testing.assert_array_equal(a.positions, b.positions)
        # same ray set as a set regardless of grid enumeration: compare sorted
        sa = a.positions[np.lexsort(a.positions.T)]
        sb = b.positions[np.lexsort(b.positions.T)]
        np.testing.assert_allclose(sa, sb)

    def test_dynamic_flag_from_class_table(self):
        scene = _basic_scene()
        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.5),
            azimuth_count=64, elevation_count=12,
            elevation_min=-0.9, elevation_max=0.1, max_range=50.0,
        )
        pc = raycast_scan(scene, scan)
        hit_box = pc.class_ids == 1
        assert hit_box.any()
        assert pc.dynamic_flags[hit_box].all()
        assert not pc.dynamic_flags[~hit_box].any()

    def test_noise_is_seeded(self):
        scene = _basic_scene()
        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.0, 0.0, 1.5),
            azimuth_count=16, elevation_count=4,
            elevation_min=-0.8, elevation_max=0.0, max_range=50.0, noise_sigma=0.05,
        )
        a = raycast_scan(scene, scan, noise_seed=3)
        b = raycast_scan(scene, scan, noise_seed=3)
        c = raycast_scan(scene, scan, noise_seed=4)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert np.any(a.positions != c.positions)


class TestVoxelize:
    def test_free_volume_spans_its_extents(self):
        vol = VoxelVolume.free((-0.4, 0.0, 1.0), (0.4, 0.4, 2.2), 0.4)
        assert vol.dims == (2, 1, 3) and not vol.occupancy.any()
        np.testing.assert_allclose(vol.maxs, (0.4, 0.4, 2.2))
        for maxs in ((0.5, 0.4, 2.2), (-0.4, 0.4, 2.2)):  # not a whole cell; no cell
            with pytest.raises(ValueError, match="whole number of cells"):
                VoxelVolume.free((-0.4, 0.0, 1.0), maxs, 0.4)

    def test_empty_scene_all_free(self):
        vol = voxelize_ground_truth(SceneSpec((), 10.0), (-2, -2, 0), (2, 2, 2), 0.5)
        assert not vol.occupancy.any()

    def test_box_matches_independent_center_containment(self):
        # 0.4 m grid over a 4x4x4 box: compare against a direct predicate
        box = Box((0.1, -0.2, 2.0), (4.0, 4.0, 4.0), 1)
        scene = SceneSpec((box,), 10.0)
        vol = voxelize_ground_truth(scene, (-4, -4, -0.4), (4, 4, 4.4), 0.4)
        centers = vol.centers()
        lo = np.array(box.center) - 2.0
        hi = np.array(box.center) + 2.0
        inside = np.all((centers >= lo) & (centers <= hi), axis=-1)
        np.testing.assert_array_equal(vol.occupancy, inside)
        assert np.all(vol.labels[inside] == 1)

    def test_dynamic_box_shifts(self):
        scene = SceneSpec((Box((0.0, 0.0, 1.0), (2.0, 2.0, 2.0), 0, velocity=(2.0, 0, 0)),), 20.0)
        a = voxelize_ground_truth(scene, (-6, -2, 0), (6, 2, 2), 0.5, time=0.0)
        b = voxelize_ground_truth(scene, (-6, -2, 0), (6, 2, 2), 0.5, time=2.0)
        assert a.occupancy.sum() == b.occupancy.sum()
        # displacement of 4 m = 8 cells along x
        np.testing.assert_array_equal(np.roll(a.occupancy, 8, axis=0), b.occupancy)

    def test_spot_check_oracle_agreement(self):
        scene = _basic_scene()
        vol = voxelize_ground_truth(scene, (-10, -10, -0.5), (10, 10, 3.5), 0.5, time=0.0)
        rng = np.random.default_rng(0)
        centers = vol.centers().reshape(-1, 3)
        labels = vol.labels.reshape(-1)
        idx = rng.choice(len(centers), 1000, replace=False)
        occ, cls = oracle_query_batch(scene, centers[idx], np.zeros(1000))
        np.testing.assert_array_equal(labels[idx] != FREE, occ)
        np.testing.assert_array_equal(labels[idx][occ], cls[occ])


class TestVoxelIO:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        labels = np.where(rng.random((6, 5, 4)) < 0.4, rng.integers(0, 3, (6, 5, 4)), FREE)
        vol = VoxelVolume(labels.astype(np.int32), np.array([-1.5, 0.0, 0.25]), 0.5)
        buf = io.BytesIO()
        write_voxel_volume(vol, buf)
        back = read_voxel_volume(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(back.labels, vol.labels)
        np.testing.assert_allclose(back.mins, vol.mins)
        assert back.cell_size == vol.cell_size

    def test_bad_magic(self):
        from occfield.errors import BadMagicError

        with pytest.raises(BadMagicError):
            read_voxel_volume(io.BytesIO(b"XXXX" + b"\x00" * 64))

    def test_float64_header_keeps_config_grid(self):
        labels = np.full((100, 100, 6), FREE, dtype=np.int32)
        labels[3, 4, 1] = 2
        config_grid = VoxelVolume(labels, (-20.0, -20.0, -0.4), 0.4)
        buf = io.BytesIO()
        write_voxel_volume(config_grid, buf)
        assert buf.getvalue()[4:8] == struct.pack("<I", 2)
        back = read_voxel_volume(io.BytesIO(buf.getvalue()))
        assert back.cell_size == 0.4
        np.testing.assert_array_equal(back.mins, [-20.0, -20.0, -0.4])
        assert back.same_grid(config_grid)
        np.testing.assert_array_equal(back.labels, labels)

    def test_truncated_v2_header_and_unknown_version(self):
        from occfield.errors import FormatVersionError, TruncatedFileError

        vol = VoxelVolume(np.full((2, 2, 2), FREE, dtype=np.int32), np.zeros(3), 0.4)
        buf = io.BytesIO()
        write_voxel_volume(vol, buf)
        blob = buf.getvalue()
        # no version field; a cut inside the version-2 header; one byte short of it
        for cut in (6, 50, 4 + 71):
            with pytest.raises(TruncatedFileError):
                read_voxel_volume(io.BytesIO(blob[:cut]))
        with pytest.raises(TruncatedFileError):
            read_voxel_volume(io.BytesIO(blob[:-1]))
        for version in (1, 3):  # only version 2 is read
            with pytest.raises(FormatVersionError):
                read_voxel_volume(io.BytesIO(blob[:4] + struct.pack("<I", version) + blob[8:]))


class TestSceneClasses:
    def test_n_classes_from_table(self):
        assert _basic_scene().n_classes == 3

    def test_n_classes_from_primitives(self):
        scene = SceneSpec((GroundSlab(-0.5, 0.0, 0), Box((0, 0, 1), (1, 1, 1), 4)))
        assert scene.n_classes == 5
