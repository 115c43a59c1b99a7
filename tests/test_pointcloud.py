import io

import numpy as np
import pytest

from occfield import (
    UNLABELED,
    ClassTable,
    PointCloud,
    read_class_table,
    read_pointcloud,
    write_class_table,
    write_pointcloud,
)
from occfield.errors import BadMagicError, FormatVersionError, TruncatedFileError


def _random_cloud(rng, n):
    # values chosen representable in float32 so file round trips compare equal
    positions = rng.integers(-8000, 8000, (n, 3)) / 128.0
    origins = positions + rng.integers(1, 4000, (n, 3)) / 128.0
    return PointCloud(
        positions,
        origins,
        rng.integers(-12, 12, n) / 8.0,
        rng.integers(0, 5, n).astype(np.uint16),
        rng.random(n) < 0.5,
    )


class TestIO:
    def test_empty_round_trip_bytes(self):
        pc = _random_cloud(np.random.default_rng(3), 0)
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        blob = buf.getvalue()
        again = io.BytesIO()
        write_pointcloud(read_pointcloud(io.BytesIO(blob)), again)
        assert again.getvalue() == blob

    def test_three_point_cloud_field_equality(self):
        pc = PointCloud(
            np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 0.0], [7.5, -2.0, 1.0]]),
            np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 1.5], [1.0, 0.0, 1.5]]),
            np.array([0.5, -0.5, 0.0]),
            np.array([2, 0, UNLABELED], np.uint16),
            np.array([True, False, False]),
        )
        buf = io.BytesIO()
        write_pointcloud(pc, buf)
        back = read_pointcloud(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(back.positions, pc.positions)
        np.testing.assert_array_equal(back.origins, pc.origins)
        np.testing.assert_array_equal(back.times, pc.times)
        np.testing.assert_array_equal(back.class_ids, pc.class_ids)
        np.testing.assert_array_equal(back.dynamic_flags, pc.dynamic_flags)

    def test_round_trip_byte_exact_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            pc = _random_cloud(rng, int(rng.integers(1, 60)))
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
        parts = [_random_cloud(rng, n) for n in (3, 0, 5)]
        whole = PointCloud.concat(parts)
        assert len(whole) == 8
        order = [(0, j) for j in range(3)] + [(2, j) for j in range(5)]
        for column in ("positions", "origins", "times", "class_ids", "dynamic_flags"):
            expected = np.stack([getattr(parts[k], column)[j] for k, j in order])
            np.testing.assert_array_equal(getattr(whole, column), expected)
