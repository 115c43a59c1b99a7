"""Point cloud data model, bit-exact binary I/O, and the class table.

In memory all coordinates are float64; the on-disk format carries float32.
Times are seconds relative to the reference timestep, positions and sensor
origins are expressed in the reference ego frame.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Sequence

import numpy as np

from .errors import BadMagicError, FeatureDimMismatchError, FormatVersionError, TruncatedFileError
from ._util import read_bytes, write_bytes

__all__ = [
    "UNLABELED",
    "PointCloud",
    "ClassTable",
    "write_pointcloud",
    "read_pointcloud",
    "read_class_table",
    "write_class_table",
]

UNLABELED = 0xFFFF  # sentinel in the class field: occupancy-only supervision

_MAGIC = b"QOPC"
_VERSION = 1
_HEADER = struct.Struct("<IQHBB")  # version, count, feature_dim, source_tag, reserved
_SOURCE_TAGS = ("pseudo", "lidar", "unified")


class PointCloud:
    """Immutable-by-convention column store of point records.

    All records share one feature dimensionality (0 meaning no features).
    """

    def __init__(
        self,
        positions: np.ndarray,
        origins: np.ndarray,
        times: np.ndarray,
        class_ids: np.ndarray,
        dynamic_flags: np.ndarray,
        features: np.ndarray | None = None,
        source_tag: str = "lidar",
    ):
        n = len(positions)
        self.positions = np.asarray(positions, dtype=np.float64).reshape(n, 3)
        self.origins = np.asarray(origins, dtype=np.float64).reshape(n, 3)
        self.times = np.asarray(times, dtype=np.float64).reshape(n)
        self.class_ids = np.asarray(class_ids, dtype=np.uint16).reshape(n)
        self.dynamic_flags = np.asarray(dynamic_flags, dtype=bool).reshape(n)
        if features is None:
            features = np.zeros((n, 0), dtype=np.float64)
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError("features must have shape (n, feature_dim)")
        self.features = feats
        if source_tag not in _SOURCE_TAGS:
            raise ValueError(f"unknown source_tag {source_tag!r}")
        self.source_tag = source_tag
        if not (
            np.all(np.isfinite(self.positions))
            and np.all(np.isfinite(self.origins))
            and np.all(np.isfinite(self.times))
        ):
            raise ValueError("point cloud coordinates must be finite")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def concat(clouds: Sequence["PointCloud"]) -> "PointCloud":
        """All records of ``clouds`` in order; the first cloud's source tag."""
        fdims = {c.feature_dim for c in clouds}
        if len(fdims) > 1:
            raise FeatureDimMismatchError(f"clouds disagree on feature_dim: {sorted(fdims)}")
        return PointCloud(
            np.concatenate([c.positions for c in clouds]),
            np.concatenate([c.origins for c in clouds]),
            np.concatenate([c.times for c in clouds]),
            np.concatenate([c.class_ids for c in clouds]),
            np.concatenate([c.dynamic_flags for c in clouds]),
            np.concatenate([c.features for c in clouds]),
            clouds[0].source_tag,
        )

    def take(self, indices: np.ndarray) -> "PointCloud":
        idx = np.asarray(indices)
        return PointCloud(
            self.positions[idx], self.origins[idx], self.times[idx],
            self.class_ids[idx], self.dynamic_flags[idx], self.features[idx],
            self.source_tag,
        )


def _record_dtype(feature_dim: int) -> np.dtype:
    fields = [
        ("position", "<f4", (3,)),
        ("origin", "<f4", (3,)),
        ("time", "<f4"),
        ("class_id", "<u2"),
        ("flags", "<u2"),
    ]
    if feature_dim:
        fields.append(("feature", "<f4", (feature_dim,)))
    return np.dtype(fields)


def write_pointcloud(pc: PointCloud, destination) -> None:
    """Serialize to the QOPC binary format (little-endian, float32 payload)."""
    rec = np.zeros(len(pc), dtype=_record_dtype(pc.feature_dim))
    rec["position"] = pc.positions.astype("<f4")
    rec["origin"] = pc.origins.astype("<f4")
    rec["time"] = pc.times.astype("<f4")
    rec["class_id"] = pc.class_ids
    rec["flags"] = pc.dynamic_flags.astype("<u2")  # bit 0 = dynamic
    if pc.feature_dim:
        rec["feature"] = pc.features.astype("<f4")
    blob = _MAGIC + _HEADER.pack(
        _VERSION, len(pc), pc.feature_dim, _SOURCE_TAGS.index(pc.source_tag), 0
    ) + rec.tobytes()
    write_bytes(destination, blob)


def read_pointcloud(source) -> PointCloud:
    """Read a QOPC file; raises a distinct error per malformation."""
    data = read_bytes(source)
    if len(data) < 4 or data[:4] != _MAGIC:
        raise BadMagicError("not a QOPC point cloud file")
    if len(data) < 4 + _HEADER.size:
        raise TruncatedFileError("QOPC header truncated")
    version, count, feature_dim, tag_code, _ = _HEADER.unpack_from(data, 4)
    if version != _VERSION:
        raise FormatVersionError(f"unsupported QOPC version {version}")
    if tag_code >= len(_SOURCE_TAGS):
        raise FormatVersionError(f"unknown source tag code {tag_code}")
    dtype = _record_dtype(feature_dim)
    payload = data[4 + _HEADER.size:]
    if len(payload) < count * dtype.itemsize:
        raise TruncatedFileError(
            f"expected {count * dtype.itemsize} payload bytes, got {len(payload)}"
        )
    rec = np.frombuffer(payload, dtype=dtype, count=count)
    feats = rec["feature"].astype(np.float64) if feature_dim else np.zeros((count, 0))
    return PointCloud(
        rec["position"].astype(np.float64),
        rec["origin"].astype(np.float64),
        rec["time"].astype(np.float64),
        rec["class_id"].copy(),
        (rec["flags"] & 1).astype(bool),
        feats,
        _SOURCE_TAGS[tag_code],
    )


@dataclasses.dataclass(frozen=True)
class ClassTable:
    """Semantic class names with dataset frequencies and a dynamic mask."""

    names: tuple[str, ...]
    frequencies: np.ndarray
    dynamic_mask: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        dyn = np.asarray(self.dynamic_mask, dtype=bool)
        if len(self.names) < 1:
            raise ValueError("need at least one class")
        if freqs.shape != (len(self.names),) or dyn.shape != (len(self.names),):
            raise ValueError("frequencies/dynamic_mask must match names")
        if np.any(freqs < 0):
            raise ValueError("frequencies must be non-negative")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "dynamic_mask", dyn)

    @property
    def n_classes(self) -> int:
        return len(self.names)


def write_class_table(table: ClassTable, destination) -> None:
    lines = [
        f"{name},{freq:.10g},{int(dyn)}\n"
        for name, freq, dyn in zip(table.names, table.frequencies, table.dynamic_mask)
    ]
    write_bytes(destination, "".join(lines).encode())


def read_class_table(source) -> ClassTable:
    text = read_bytes(source).decode()
    names, freqs, dyn = [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"class table line {lineno}: expected name,frequency,dynamic")
        names.append(parts[0])
        freqs.append(float(parts[1]))
        dyn.append(bool(int(parts[2])))
    return ClassTable(tuple(names), np.array(freqs), np.array(dyn))

