"""Point cloud data model, bit-exact binary I/O, filtering, and subsampling.

In memory all coordinates are float64; the on-disk format carries float32.
Times are seconds relative to the reference timestep, positions and sensor
origins are expressed in the reference ego frame.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    FeatureDimMismatchError,
    FormatVersionError,
    MissingPoseError,
    TruncatedFileError,
)
from .geometry import RigidTransform
from ._util import read_bytes, write_bytes

__all__ = [
    "UNLABELED",
    "PointRecord",
    "PointCloud",
    "ClassTable",
    "write_pointcloud",
    "read_pointcloud",
    "read_class_table",
    "write_class_table",
    "min_depth_filter",
    "subsample",
    "transform_to_reference",
]

UNLABELED = 0xFFFF  # sentinel in the class field: occupancy-only supervision

_MAGIC = b"QOPC"
_VERSION = 1
_HEADER = struct.Struct("<IQHBB")  # version, count, feature_dim, source_tag, reserved
_SOURCE_TAGS = ("pseudo", "lidar", "unified")


@dataclasses.dataclass
class PointRecord:
    """One surface point with its sensor origin and supervision targets."""

    position: np.ndarray
    origin: np.ndarray
    time: float = 0.0
    class_id: int = UNLABELED
    feature: np.ndarray | None = None
    dynamic_flag: bool = False


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
    def empty(feature_dim: int = 0, source_tag: str = "lidar") -> "PointCloud":
        return PointCloud(
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
            np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=bool),
            np.zeros((0, feature_dim)), source_tag,
        )

    @staticmethod
    def from_records(records: Sequence[PointRecord], source_tag: str = "lidar") -> "PointCloud":
        dims = {0 if r.feature is None else len(r.feature) for r in records}
        if len(dims) > 1:
            raise FeatureDimMismatchError(f"records disagree on feature_dim: {sorted(dims)}")
        fdim = dims.pop() if dims else 0
        n = len(records)
        feats = np.zeros((n, fdim))
        for i, r in enumerate(records):
            if r.feature is not None:
                feats[i] = r.feature
        return PointCloud(
            np.array([r.position for r in records]).reshape(n, 3),
            np.array([r.origin for r in records]).reshape(n, 3),
            np.array([r.time for r in records]),
            np.array([r.class_id for r in records], dtype=np.uint16),
            np.array([r.dynamic_flag for r in records], dtype=bool),
            feats,
            source_tag,
        )

    @staticmethod
    def concat(clouds: Sequence["PointCloud"]) -> "PointCloud":
        """All records of ``clouds`` in order; the first cloud's source tag."""
        return PointCloud(
            np.concatenate([c.positions for c in clouds]),
            np.concatenate([c.origins for c in clouds]),
            np.concatenate([c.times for c in clouds]),
            np.concatenate([c.class_ids for c in clouds]),
            np.concatenate([c.dynamic_flags for c in clouds]),
            np.concatenate([c.features for c in clouds]),
            clouds[0].source_tag,
        )

    def record(self, i: int) -> PointRecord:
        return PointRecord(
            self.positions[i].copy(),
            self.origins[i].copy(),
            float(self.times[i]),
            int(self.class_ids[i]),
            self.features[i].copy() if self.feature_dim else None,
            bool(self.dynamic_flags[i]),
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


def min_depth_filter(pc: PointCloud, group_radius: float) -> PointCloud:
    """Keep only the nearest point per (origin, ray-direction) group.

    Directions from a shared origin are quantized on an azimuth/elevation
    grid whose angular resolution corresponds to ``group_radius`` meters of
    lateral separation at 10 m range.  Output preserves input order.
    """
    if group_radius <= 0:
        raise ValueError("group_radius must be positive")
    if len(pc) == 0:
        return pc
    res = group_radius / 10.0  # radians
    d = pc.positions - pc.origins
    rng_m = np.linalg.norm(d, axis=1)
    az = np.arctan2(d[:, 1], d[:, 0])
    el = np.arcsin(np.clip(d[:, 2] / np.maximum(rng_m, 1e-12), -1.0, 1.0))
    az_bin = np.floor(az / res).astype(np.int64)
    el_bin = np.floor(el / res).astype(np.int64)
    origin_key = pc.origins.astype("<f8").view(np.uint64).reshape(len(pc), 3)
    key = np.column_stack([origin_key, az_bin.view(np.uint64), el_bin.view(np.uint64)])
    _, group = np.unique(key, axis=0, return_inverse=True)
    order = np.lexsort((np.arange(len(pc)), rng_m, group))
    first = np.ones(len(order), dtype=bool)
    first[1:] = group[order][1:] != group[order][:-1]
    keep = np.sort(order[first])
    return pc.take(keep)


def subsample(
    pc: PointCloud,
    n: int,
    strategy: str,
    seed: int,
    *,
    dynamic_weight: float = 2.0,
    cell_size: float = 0.4,
) -> PointCloud:
    """Down-sample to ``n`` records; deterministic given ``seed``.

    Strategies: ``uniform`` (equal probability without replacement),
    ``dynamic_weighted`` (dynamic-flagged records drawn with ``dynamic_weight``
    relative to static ones), ``voxel_uniform`` (at most one record per cubic
    cell of side ``cell_size``, then uniform fill).  Selected records keep
    their original order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n >= len(pc):
        return pc
    rng = np.random.default_rng(seed)
    if strategy == "uniform":
        idx = rng.choice(len(pc), size=n, replace=False)
    elif strategy == "dynamic_weighted":
        w = np.where(pc.dynamic_flags, float(dynamic_weight), 1.0)
        # Efraimidis-Spirakis keys: top-n of u**(1/w) is weighted sampling
        # without replacement
        keys = rng.random(len(pc)) ** (1.0 / w)
        idx = np.argpartition(keys, len(pc) - n)[len(pc) - n:]
    elif strategy == "voxel_uniform":
        cells = np.floor(pc.positions / cell_size).astype(np.int64)
        _, group = np.unique(cells, axis=0, return_inverse=True)
        tie = rng.random(len(pc))
        order = np.lexsort((tie, group))
        first = np.ones(len(order), dtype=bool)
        first[1:] = group[order][1:] != group[order][:-1]
        reps = order[first]
        if len(reps) >= n:
            idx = rng.choice(reps, size=n, replace=False)
        else:
            rest = np.setdiff1d(np.arange(len(pc)), reps)
            fill = rng.choice(rest, size=n - len(reps), replace=False)
            idx = np.concatenate([reps, fill])
    else:
        raise ValueError(f"unknown subsample strategy {strategy!r}")
    return pc.take(np.sort(idx))


def transform_to_reference(
    pc: PointCloud, poses: Mapping[float, RigidTransform]
) -> PointCloud:
    """Map positions and origins into the reference frame, per timestep.

    ``poses`` maps each distinct time in the cloud (matched exactly) to the
    rigid transform from that timestep's ego frame into the reference frame.
    """
    new_pos = np.empty_like(pc.positions)
    new_org = np.empty_like(pc.origins)
    for t in np.unique(pc.times):
        pose = poses.get(float(t))
        if pose is None:
            raise MissingPoseError(f"no pose for time {t}")
        mask = pc.times == t
        new_pos[mask] = pose.apply(pc.positions[mask])
        new_org[mask] = pose.apply(pc.origins[mask])
    return PointCloud(
        new_pos, new_org, pc.times.copy(), pc.class_ids.copy(),
        pc.dynamic_flags.copy(), pc.features.copy(), pc.source_tag,
    )

