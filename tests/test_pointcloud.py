import io

import numpy as np
import pytest

from occfield import (
    UNLABELED,
    ClassTable,
    PointCloud,
    PointRecord,
    RigidTransform,
    min_depth_filter,
    read_class_table,
    read_pointcloud,
    subsample,
    transform_to_reference,
    write_class_table,
    write_pointcloud,
)
from occfield.errors import (
    BadMagicError,
    FeatureDimMismatchError,
    FormatVersionError,
    MissingPoseError,
    TruncatedFileError,
)


def _random_cloud(rng, n, feature_dim=0, tag="lidar"):
    # values chosen representable in float32 so file round trips compare equal
    positions = rng.integers(-8000, 8000, (n, 3)) / 128.0
    origins = positions + rng.integers(1, 4000, (n, 3)) / 128.0
    return PointCloud(
        positions,
        origins,
        rng.integers(-12, 12, n) / 8.0,
        rng.integers(0, 5, n).astype(np.uint16),
        rng.random(n) < 0.5,
        rng.integers(-1000, 1000, (n, feature_dim)) / 64.0,
        tag,
    )


class TestIO:
    def test_empty_round_trip_bytes(self):
        pc = PointCloud.empty(feature_dim=0, source_tag="pseudo")
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        blob = buf.getvalue()
        again = io.BytesIO()
        write_pointcloud(read_pointcloud(io.BytesIO(blob)), again)
        assert again.getvalue() == blob

    def test_three_point_cloud_field_equality(self):
        recs = [
            PointRecord(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.5]), 0.5, 2,
                        np.array([0.25, -1.5]), True),
            PointRecord(np.array([-4.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.5]), -0.5, 0,
                        np.array([1.0, 2.0]), False),
            PointRecord(np.array([7.5, -2.0, 1.0]), np.array([1.0, 0.0, 1.5]), 0.0,
                        UNLABELED, np.array([0.0, 0.0]), False),
        ]
        pc = PointCloud.from_records(recs, "unified")
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        back = read_pointcloud(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(back.positions, pc.positions)
        np.testing.assert_array_equal(back.origins, pc.origins)
        np.testing.assert_array_equal(back.times, pc.times)
        np.testing.assert_array_equal(back.class_ids, pc.class_ids)
        np.testing.assert_array_equal(back.dynamic_flags, pc.dynamic_flags)
        np.testing.assert_array_equal(back.features, pc.features)
        assert back.source_tag == "unified"

    def test_round_trip_byte_exact_randomized(self):
        rng = np.random.default_rng(0)
        for feature_dim in (0, 3, 8):
            for _ in range(5):
                pc = _random_cloud(rng, int(rng.integers(1, 60)), feature_dim)
                buf = io.BytesIO()
                write_pointcloud(pc, buf)
                blob = buf.getvalue()
                again = io.BytesIO()
                write_pointcloud(read_pointcloud(io.BytesIO(blob)), again)
                assert again.getvalue() == blob

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_pointcloud(io.BytesIO(b"NOPE" + b"\x00" * 32))

    def test_version_mismatch(self):
        pc = _random_cloud(np.random.default_rng(1), 3)
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        blob = bytearray(buf.getvalue())
        blob[4] = 99  # version field
        with pytest.raises(FormatVersionError):
            read_pointcloud(io.BytesIO(bytes(blob)))

    def test_truncated(self):
        pc = _random_cloud(np.random.default_rng(2), 5)
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        blob = buf.getvalue()
        with pytest.raises(TruncatedFileError):
            read_pointcloud(io.BytesIO(blob[:-7]))
        with pytest.raises(TruncatedFileError):
            read_pointcloud(io.BytesIO(blob[:10]))

    def test_feature_dim_mismatch(self):
        recs = [
            PointRecord(np.ones(3), np.zeros(3), 0.0, 0, np.array([1.0])),
            PointRecord(np.ones(3) * 2, np.zeros(3), 0.0, 0, np.array([1.0, 2.0])),
        ]
        with pytest.raises(FeatureDimMismatchError):
            PointCloud.from_records(recs)

    def test_class_table_round_trip(self, tmp_path):
        table = ClassTable(("ground", "car"), np.array([0.8, 0.2]), np.array([False, True]))
        path = tmp_path / "classes.txt"
        write_class_table(table, path)
        back = read_class_table(path)
        assert back.names == table.names
        np.testing.assert_allclose(back.frequencies, table.frequencies)
        np.testing.assert_array_equal(back.dynamic_mask, table.dynamic_mask)


class TestConcat:
    def test_records_in_order(self):
        rng = np.random.default_rng(5)
        parts = [_random_cloud(rng, n, feature_dim=2, tag="unified") for n in (3, 0, 5)]
        whole = PointCloud.concat(parts)
        assert len(whole) == 8 and whole.source_tag == "unified" and whole.feature_dim == 2
        for i, (k, j) in enumerate([(0, 0), (0, 1), (0, 2)] + [(2, j) for j in range(5)]):
            a, b = whole.record(i), parts[k].record(j)
            np.testing.assert_array_equal(a.position, b.position)
            np.testing.assert_array_equal(a.origin, b.origin)
            np.testing.assert_array_equal(a.feature, b.feature)
            assert (a.time, a.class_id, a.dynamic_flag) == (b.time, b.class_id, b.dynamic_flag)


class TestMinDepthFilter:
    def test_collinear_nearer_survives(self):
        origin = np.zeros(3)
        near = PointRecord(np.array([5.0, 0.0, 0.0]), origin, 0.0, 1)
        far = PointRecord(np.array([10.0, 0.0, 0.0]), origin, 0.0, 2)
        pc = PointCloud.from_records([far, near])
        out = min_depth_filter(pc, 0.1)
        assert len(out) == 1
        np.testing.assert_array_equal(out.positions[0], near.position)

    def test_different_origins_do_not_suppress(self):
        a = PointRecord(np.array([5.0, 0.0, 0.0]), np.zeros(3), 0.0, 1)
        b = PointRecord(np.array([10.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 0.0, 2)
        pc = PointCloud.from_records([a, b])
        assert len(min_depth_filter(pc, 0.1)) == 2

    def test_single_point_identity(self):
        pc = PointCloud.from_records(
            [PointRecord(np.array([3.0, 1.0, 0.2]), np.zeros(3), 0.0, 1)]
        )
        out = min_depth_filter(pc, 0.5)
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_idempotent_on_random_clouds(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pc = _random_cloud(rng, 200)
            once = min_depth_filter(pc, 0.2)
            twice = min_depth_filter(once, 0.2)
            assert len(twice) == len(once)
            np.testing.assert_array_equal(twice.positions, once.positions)

    def test_order_preserved_and_smaller(self):
        rng = np.random.default_rng(5)
        pc = _random_cloud(rng, 300)
        out = min_depth_filter(pc, 1.0)
        assert len(out) <= len(pc)
        # survivors appear in their original relative order
        idx = [np.flatnonzero((pc.positions == p).all(axis=1))[0] for p in out.positions]
        assert idx == sorted(idx)


class TestSubsample:
    def test_identity_when_n_large(self):
        pc = _random_cloud(np.random.default_rng(6), 20)
        out = subsample(pc, 25, "uniform", seed=0)
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_empty_when_zero(self):
        pc = _random_cloud(np.random.default_rng(7), 20)
        assert len(subsample(pc, 0, "uniform", seed=0)) == 0

    def test_reproducible(self):
        pc = _random_cloud(np.random.default_rng(8), 500)
        a = subsample(pc, 100, "uniform", seed=42)
        b = subsample(pc, 100, "uniform", seed=42)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_unknown_strategy(self):
        pc = _random_cloud(np.random.default_rng(9), 10)
        with pytest.raises(ValueError):
            subsample(pc, 5, "stratified", seed=0)

    def test_dynamic_weight_two_gives_two_thirds(self):
        # single weighted draw from a 50/50 cloud; binomial oracle over 10k draws
        rng = np.random.default_rng(10)
        n = 400
        pc = PointCloud(
            rng.normal(0, 5, (n, 3)), rng.normal(0, 5, (n, 3)) + 20.0,
            np.zeros(n), np.zeros(n, np.uint16),
            np.arange(n) < n // 2,
        )
        draws = 10000
        got_dynamic = 0
        for seed in range(draws):
            out = subsample(pc, 1, "dynamic_weighted", seed=seed, dynamic_weight=2.0)
            got_dynamic += int(out.dynamic_flags[0])
        p = 2.0 / 3.0
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(got_dynamic / draws - p) < 3 * sigma

    def test_voxel_uniform_one_per_cell(self):
        rng = np.random.default_rng(11)
        # 40 points crammed into very few 1 m cells
        pos = np.round(rng.uniform(-2, 2, (40, 3))) + 0.25
        pc = PointCloud(pos, pos + 5.0, np.zeros(40), np.zeros(40, np.uint16), np.zeros(40, bool))
        cells = np.floor(pos / 1.0).astype(int)
        n_cells = len(np.unique(cells, axis=0))
        out = subsample(pc, n_cells, "voxel_uniform", seed=0, cell_size=1.0)
        out_cells = np.unique(np.floor(out.positions / 1.0).astype(int), axis=0)
        assert len(out_cells) == n_cells  # exactly one representative per cell


class TestTransform:
    def test_identity(self):
        pc = _random_cloud(np.random.default_rng(12), 30)
        poses = {float(t): RigidTransform.identity() for t in np.unique(pc.times)}
        out = transform_to_reference(pc, poses)
        np.testing.assert_array_equal(out.positions, pc.positions)
        np.testing.assert_array_equal(out.times, pc.times)

    def test_pure_translation(self):
        pc = _random_cloud(np.random.default_rng(13), 30)
        t = np.array([1.0, -2.0, 3.0])
        poses = {float(tt): RigidTransform(np.eye(3), t) for tt in np.unique(pc.times)}
        out = transform_to_reference(pc, poses)
        np.testing.assert_allclose(out.positions, pc.positions + t)
        np.testing.assert_allclose(out.origins, pc.origins + t)

    def test_compose_with_inverse_restores(self):
        rng = np.random.default_rng(14)
        pc = _random_cloud(rng, 30)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] *= -1
        pose = RigidTransform(Q, rng.uniform(-2, 2, 3))
        times = np.unique(pc.times)
        fwd = transform_to_reference(pc, {float(t): pose for t in times})
        back = transform_to_reference(fwd, {float(t): pose.inverse() for t in times})
        np.testing.assert_allclose(back.positions, pc.positions, atol=1e-9)
        np.testing.assert_allclose(back.origins, pc.origins, atol=1e-9)

    def test_missing_pose(self):
        pc = _random_cloud(np.random.default_rng(15), 10)
        with pytest.raises(MissingPoseError):
            transform_to_reference(pc, {})
