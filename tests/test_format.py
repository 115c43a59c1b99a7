"""The four binary formats through their one reader, and the benchmark's own
readers of the files the writers make."""

import io
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from occfield import (
    UNLABELED,
    ContractionParams,
    FourierConfig,
    PointCloud,
    QueryBatch,
    VoxelVolume,
    init_field_model,
    read_field_model,
    read_pointcloud,
    read_query_batch,
    read_voxel_volume,
    write_field_model,
    write_pointcloud,
    write_query_batch,
    write_voxel_volume,
)
from occfield.errors import BadMagicError, FormatVersionError, TruncatedFileError
from occfield.scene import FREE

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


def _cloud(n=5):
    rng = np.random.default_rng(0)
    positions = rng.uniform(-9, 9, (n, 3))
    classes = np.where(np.arange(n) % 3 == 0, UNLABELED, rng.integers(0, 4, n))
    return PointCloud(positions, positions + 3.0, rng.uniform(-1, 1, n), classes, rng.random(n) < 0.5)


def _batch(n=6):
    rng = np.random.default_rng(1)
    occ = (np.arange(n) % 2).astype(np.uint8)
    return QueryBatch(rng.uniform(-9, 9, (n, 4)), occ, np.where(occ == 1, rng.integers(0, 4, n), UNLABELED))


def _volume():
    labels = np.full((3, 2, 2), FREE, dtype=np.int32)
    labels[0, 1, 1], labels[2, 0, 0] = 0, 3
    return VoxelVolume(labels, (-0.6, -0.4, -0.4), 0.4)


def _model():
    rng = np.random.default_rng(2)
    model = init_field_model(
        ContractionParams(5.0, 0.8), n_classes=2, grid_size=2, grid_channels=2,
        fourier=FourierConfig(1, 1.0, 1.0), hidden_width=3, hidden_layers=1,
    )
    for p in model.parameters():
        p[...] = rng.standard_normal(p.shape)
    return model


def _bytes(write, obj) -> bytes:
    buf = io.BytesIO()
    write(obj, buf)
    return buf.getvalue()


def _qofm_feature_dim_offset(blob):
    # magic, <II version and size count, the layer sizes, then n_classes
    return 12 + 4 * struct.unpack_from("<I", blob, 8)[0] + 4, "<I"


# format: (its bytes, its reader, where its header keeps feature_dim, or None)
FORMATS = {
    "QOPC": (lambda: _bytes(write_pointcloud, _cloud()), read_pointcloud, lambda b: (16, "<H")),
    "QOQS": (lambda: _bytes(write_query_batch, _batch()), read_query_batch, lambda b: (16, "<H")),
    "QOVX": (lambda: _bytes(write_voxel_volume, _volume()), read_voxel_volume, None),
    "QOFM": (lambda: _bytes(write_field_model, _model()), read_field_model, _qofm_feature_dim_offset),
}


def _read(reader, blob):
    return reader(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize("name", FORMATS)
def test_malformed_files_raise_their_error(name):
    make, reader, feature_dim_at = FORMATS[name]
    blob = make()
    assert blob[:4] == name.encode()
    _read(reader, blob)

    with pytest.raises(BadMagicError):
        _read(reader, b"NOPE" + blob[4:])

    unknown = bytearray(blob)
    struct.pack_into("<I", unknown, 4, 99)
    with pytest.raises(FormatVersionError):
        _read(reader, unknown)

    if feature_dim_at is not None:
        offset, fmt = feature_dim_at(blob)
        assert struct.unpack_from(fmt, blob, offset) == (0,)
        features = bytearray(blob)
        struct.pack_into(fmt, features, offset, 2)
        with pytest.raises(FormatVersionError, match="feature"):
            _read(reader, features)

    for cut in range(len(blob)):
        with pytest.raises(BadMagicError if cut < 4 else TruncatedFileError):
            _read(reader, blob[:cut])


def test_benchmark_readers_see_the_same_columns():
    pc = _cloud(40)
    blob = _bytes(write_pointcloud, pc)
    theirs, ours = checks.read_qopc(blob), read_pointcloud(io.BytesIO(blob))
    np.testing.assert_array_equal(theirs["positions"], ours.positions)
    np.testing.assert_array_equal(theirs["times"], ours.times)
    np.testing.assert_array_equal(theirs["classes"], ours.class_ids)

    blob = _bytes(write_query_batch, _batch(40))
    theirs, ours = checks.read_qoqs(blob), read_query_batch(io.BytesIO(blob))
    np.testing.assert_array_equal(theirs["queries"], ours.queries)
    np.testing.assert_array_equal(theirs["occ"], ours.occupancy)
    np.testing.assert_array_equal(theirs["classes"], ours.classes)

    blob = _bytes(write_field_model, _model())
    theirs, ours = checks.read_qofm(blob), read_field_model(io.BytesIO(blob))
    np.testing.assert_array_equal(theirs["grid"], ours.grid.data)
    assert len(theirs["layers"]) == len(ours.layers)
    for (tw, tb), (w, b) in zip(theirs["layers"], ours.layers):
        np.testing.assert_array_equal(tw, w)
        np.testing.assert_array_equal(tb, b)
    assert (theirs["n_classes"], theirs["n_bands"]) == (ours.n_classes, ours.fourier.n_bands)
    assert (theirs["fmin"], theirs["fmax"]) == (ours.fourier.min_freq, ours.fourier.max_freq)
    assert (theirs["k_hr"], theirs["beta"]) == (ours.contraction.k_hr, ours.contraction.beta)

