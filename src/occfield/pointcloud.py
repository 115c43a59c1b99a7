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

from . import _format

__all__ = [
    "UNLABELED",
    "PointCloud",
    "ClassTable",
    "write_pointcloud",
    "read_pointcloud",
    "read_class_table",
]

UNLABELED = 0xFFFF  # sentinel in the class field: occupancy-only supervision

_MAGIC = b"QOPC"
_VERSION = 1
# version, count, feature_dim (always 0), source tag (always 1, lidar), reserved
_HEADER = struct.Struct("<IQHBB")
_RECORD = np.dtype([
    ("position", "<f4", (3,)),
    ("origin", "<f4", (3,)),
    ("time", "<f4"),
    ("class_id", "<u2"),
    ("flags", "<u2"),
])


class PointCloud:
    """Immutable-by-convention column store of point records."""

    def __init__(
        self,
        positions: np.ndarray,
        origins: np.ndarray,
        times: np.ndarray,
        class_ids: np.ndarray,
        dynamic_flags: np.ndarray,
    ):
        n = len(positions)
        self.positions = np.asarray(positions, dtype=np.float64).reshape(n, 3)
        self.origins = np.asarray(origins, dtype=np.float64).reshape(n, 3)
        self.times = np.asarray(times, dtype=np.float64).reshape(n)
        self.class_ids = np.asarray(class_ids, dtype=np.uint16).reshape(n)
        self.dynamic_flags = np.asarray(dynamic_flags, dtype=bool).reshape(n)
        if not (
            np.all(np.isfinite(self.positions))
            and np.all(np.isfinite(self.origins))
            and np.all(np.isfinite(self.times))
        ):
            raise ValueError("point cloud coordinates must be finite")

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def concat(clouds: Sequence["PointCloud"]) -> "PointCloud":
        """All records of ``clouds`` in order."""
        return PointCloud(
            np.concatenate([c.positions for c in clouds]),
            np.concatenate([c.origins for c in clouds]),
            np.concatenate([c.times for c in clouds]),
            np.concatenate([c.class_ids for c in clouds]),
            np.concatenate([c.dynamic_flags for c in clouds]),
        )

    def take(self, indices: np.ndarray) -> "PointCloud":
        idx = np.asarray(indices)
        return PointCloud(
            self.positions[idx], self.origins[idx], self.times[idx],
            self.class_ids[idx], self.dynamic_flags[idx],
        )


def write_pointcloud(pc: PointCloud, destination) -> None:
    """Serialize to the QOPC binary format (little-endian, float32 payload)."""
    rec = np.zeros(len(pc), dtype=_RECORD)
    rec["position"] = pc.positions
    rec["origin"] = pc.origins
    rec["time"] = pc.times
    rec["class_id"] = pc.class_ids
    rec["flags"] = pc.dynamic_flags  # bit 0 = dynamic
    _format.write(destination, [_MAGIC + _HEADER.pack(_VERSION, len(pc), 0, 1, 0), rec])


def read_pointcloud(source) -> PointCloud:
    """Read a QOPC file; raises a distinct error per malformation."""
    f = _format.Reader(source, _MAGIC, {_VERSION: _HEADER})
    _, count, feature_dim, _, _ = f.header
    f.no_features(feature_dim)
    rec = f.array(_RECORD, count)
    f.end()
    return PointCloud(
        rec["position"], rec["origin"], rec["time"], rec["class_id"].copy(), rec["flags"] & 1,
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
        if not np.all((freqs >= 0) & (freqs < np.inf)):  # NaN fails this too
            raise ValueError("frequencies must be finite and non-negative")
        if not all(name.strip() for name in self.names) or len(set(self.names)) < len(self.names):
            raise ValueError("class names must be distinct and not blank")  # they key the CSV rows
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "dynamic_mask", dyn)

    @property
    def n_classes(self) -> int:
        return len(self.names)


def read_class_table(source) -> ClassTable:
    text = _format.read_bytes(source).decode()
    names, freqs, dyn = [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"class table line {lineno}: expected name,frequency,dynamic")
        flag = int(parts[2])
        if flag not in (0, 1):
            raise ValueError(f"class table line {lineno}: the dynamic flag must be 0 or 1")
        names.append(parts[0])
        freqs.append(float(parts[1]))
        dyn.append(flag == 1)
    return ClassTable(tuple(names), np.array(freqs), np.array(dyn))

