"""Synthetic scenes with an exact analytic occupancy oracle.

Primitives are axis-aligned boxes, infinite ground slabs, and vertical
cylinders; dynamic primitives translate with constant velocity.  Scans are
simulated by analytic ray casting (slab method for boxes, quadratic for
cylinders), and ground truth is produced by querying the oracle at voxel
centers.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Sequence

import numpy as np

from . import _format
from .errors import InconsistentFileError
from .geometry import ray_box
from .pointcloud import UNLABELED, ClassTable, PointCloud

__all__ = [
    "Box",
    "GroundSlab",
    "Cylinder",
    "SceneSpec",
    "ScanSpec",
    "VoxelVolume",
    "oracle_query_batch",
    "raycast_scan",
    "voxelize_ground_truth",
    "write_voxel_volume",
    "read_voxel_volume",
]

FREE = -1  # label value for unoccupied voxels

_ZERO3 = (0.0, 0.0, 0.0)


class _Solid:
    """The checks every primitive makes when built, each naming its key."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite")
        for key in ("size", "radius"):
            if np.min(getattr(self, key, 1.0)) <= 0:
                raise ValueError(f"{key} must be positive")
        if getattr(self, "z_min", 0.0) > getattr(self, "z_max", 0.0):
            raise ValueError("z_max must not lie below z_min")
        if not 0 <= self.class_id < UNLABELED:
            raise ValueError(f"class must lie in [0, {UNLABELED})")


@dataclasses.dataclass(frozen=True)
class Box(_Solid):
    """Axis-aligned box, optionally translating at constant velocity."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    class_id: int
    velocity: tuple[float, float, float] = _ZERO3


@dataclasses.dataclass(frozen=True)
class GroundSlab(_Solid):
    """Horizontal slab infinite in x and y."""

    z_min: float
    z_max: float
    class_id: int
    velocity: tuple[float, float, float] = _ZERO3


@dataclasses.dataclass(frozen=True)
class Cylinder(_Solid):
    """Vertical cylinder over [z_min, z_max]."""

    center: tuple[float, float]  # x, y
    radius: float
    z_min: float
    z_max: float
    class_id: int
    velocity: tuple[float, float, float] = _ZERO3


Primitive = Box | GroundSlab | Cylinder


@dataclasses.dataclass(frozen=True)
class SceneSpec:
    """Ordered primitive list; overlaps resolve to the first primitive."""

    primitives: tuple[Primitive, ...]
    bounds: float = 50.0
    classes: ClassTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not 0 < self.bounds < np.inf:  # NaN fails this too
            raise ValueError("bounds must be positive and finite")
        if self.classes is not None:
            for p in self.primitives:
                if p.class_id >= self.classes.n_classes:
                    raise ValueError(f"class_id {p.class_id} not in class table")

    @property
    def n_classes(self) -> int:
        if self.classes is not None:
            return self.classes.n_classes
        return max(p.class_id for p in self.primitives) + 1

    def is_dynamic_class(self, class_id: int) -> bool:
        if self.classes is not None:
            return bool(self.classes.dynamic_mask[class_id])
        return any(
            p.class_id == class_id and np.any(np.asarray(p.velocity) != 0)
            for p in self.primitives
        )


@dataclasses.dataclass(frozen=True)
class ScanSpec:
    """Simulated multi-timestep scan.

    The sensor starts at ``origin_start`` moving with ``origin_velocity``;
    rays form an azimuth/elevation grid (azimuth spacing excludes the
    endpoint so a full circle has no duplicate direction).
    """

    timesteps: tuple[float, ...]
    origin_start: tuple[float, float, float]
    origin_velocity: tuple[float, float, float] = _ZERO3
    azimuth_count: int = 64
    elevation_count: int = 16
    elevation_min: float = -0.6
    elevation_max: float = 0.1
    azimuth_min: float = -np.pi
    azimuth_max: float = np.pi
    max_range: float = 60.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        ts = tuple(float(t) for t in self.timesteps)
        object.__setattr__(self, "timesteps", ts)
        for f in dataclasses.fields(self):  # max_range may be inf, checked below
            if f.name != "max_range" and not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite")
        if len(ts) == 0 or np.any(np.diff(ts) <= 0):
            raise ValueError("timesteps must be non-empty and strictly increasing")
        if not self.max_range > 0:  # NaN fails this too; inf means no limit
            raise ValueError("max_range must be positive")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails this too
            raise ValueError("noise_sigma must be finite and at least 0")
        if self.azimuth_count < 1 or self.elevation_count < 1:
            raise ValueError("ray grid must be non-empty")

    def directions(self) -> np.ndarray:
        az = self.azimuth_min + (self.azimuth_max - self.azimuth_min) * (
            np.arange(self.azimuth_count) / self.azimuth_count
        )
        el = np.linspace(self.elevation_min, self.elevation_max, self.elevation_count)
        azg, elg = np.meshgrid(az, el, indexing="ij")
        d = np.stack(
            [np.cos(elg) * np.cos(azg), np.cos(elg) * np.sin(azg), np.sin(elg)], axis=-1
        )
        return d.reshape(-1, 3)

    def origins(self) -> np.ndarray:
        t = np.asarray(self.timesteps)[:, None]
        return np.asarray(self.origin_start) + t * np.asarray(self.origin_velocity)


def _contains(prim: Primitive, x, y, z, t: np.ndarray) -> np.ndarray:
    """Closed-set containment of the points (x, y, z) at per-point times t.

    Each coordinate column is tested on its own with the scalar operations of
    the primitive's definition: for a box, c_k = center_k + t * v_k and
    |p_k - c_k| <= size_k / 2 on every axis; for a slab, z - t * v_z within
    [z_min, z_max]; for a cylinder, p_k - t * v_k, then the radius test in x, y
    and the height test in z.  Points on a face are inside.
    """
    if isinstance(prim, Box):
        in_x, in_y, in_z = (
            np.abs(p - (c + t * v)) <= s / 2.0
            for p, c, v, s in zip((x, y, z), prim.center, prim.velocity, prim.size)
        )
        return in_x & in_y & in_z
    if isinstance(prim, GroundSlab):
        pz = z - t * prim.velocity[2]
        return (pz >= prim.z_min) & (pz <= prim.z_max)
    if isinstance(prim, Cylinder):
        vx, vy, vz = prim.velocity
        dx = (x - t * vx) - prim.center[0]
        dy = (y - t * vy) - prim.center[1]
        pz = z - t * vz
        inside_r = dx * dx + dy * dy <= prim.radius**2
        return inside_r & (pz >= prim.z_min) & (pz <= prim.z_max)
    raise TypeError(f"unknown primitive {type(prim)}")


def oracle_query_batch(
    scene: SceneSpec, points: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact occupancy and class at 4D queries: returns (occupied bool (N,),
    class int32 (N,), FREE where empty).

    Primitives are closed sets, tested in scene order, and the first one that
    contains a query labels it.  Each primitive sees only the queries still
    free: after it, the index, coordinates and times of the ones it took are
    dropped.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    labels = np.full(len(pts), FREE, dtype=np.int32)
    idx = np.arange(len(pts))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    for prim in scene.primitives:
        if not len(idx):
            break
        hit = _contains(prim, x, y, z, t)
        labels[idx[hit]] = prim.class_id
        free = ~hit
        idx, x, y, z, t = idx[free], x[free], y[free], z[free], t[free]
    return labels != FREE, labels


def _ray_interval(prim: Primitive, origin: np.ndarray, dirs: np.ndarray, t: float):
    """Entry/exit ray parameters for a solid primitive at time t.

    Returns (t_in, t_out) arrays; empty intersections have t_in > t_out.
    """
    off = np.asarray(prim.velocity) * t
    if isinstance(prim, Box):
        half = np.asarray(prim.size) / 2.0
        return ray_box(origin, dirs, off + prim.center - half, off + prim.center + half)
    if not isinstance(prim, (GroundSlab, Cylinder)):
        raise TypeError(f"unknown primitive {type(prim)}")
    t_in, t_out = ray_box(origin[2:], dirs[:, 2:], prim.z_min + off[2:], prim.z_max + off[2:])
    if isinstance(prim, Cylinder):
        oc = origin[:2] - (np.asarray(prim.center) + off[:2])
        a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
        b = 2.0 * (dirs[:, 0] * oc[0] + dirs[:, 1] * oc[1])
        c = oc @ oc - prim.radius**2
        disc = b * b - 4.0 * a * c
        vertical = a < 1e-16
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(np.maximum(disc, 0.0))
            tc0 = (-b - sq) / (2.0 * a)
            tc1 = (-b + sq) / (2.0 * a)
        miss = disc < 0
        tc0 = np.where(vertical, np.where(c <= 0, -np.inf, np.inf), np.where(miss, np.inf, tc0))
        tc1 = np.where(vertical, np.where(c <= 0, np.inf, -np.inf), np.where(miss, -np.inf, tc1))
        t_in = np.maximum(t_in, tc0)
        t_out = np.minimum(t_out, tc1)
    return t_in, t_out


def raycast_scan(
    scene: SceneSpec,
    scan: ScanSpec,
    noise_seed: int = 0,
) -> PointCloud:
    """Simulate a lidar-style scan: first hit per ray within max_range.

    Misses produce no record.  Gaussian position noise of
    ``scan.noise_sigma`` is applied when configured (seeded, isotropic).
    """
    dirs = scan.directions()
    origins = scan.origins()
    rng = np.random.default_rng(noise_seed)
    parts: list[tuple[np.ndarray, ...]] = []
    for origin, t in zip(origins, scan.timesteps):
        best = np.full(len(dirs), np.inf)
        cls = np.full(len(dirs), FREE, dtype=np.int32)
        for prim in scene.primitives:
            t_in, t_out = _ray_interval(prim, origin, dirs, t)
            ok = (t_in <= t_out) & (t_in > 1e-9) & (t_in <= scan.max_range)
            # strict < keeps the earlier primitive on exact ties
            better = ok & (t_in < best)
            best[better] = t_in[better]
            cls[better] = prim.class_id
        hit = cls != FREE
        pos = origin + best[hit, None] * dirs[hit]
        if scan.noise_sigma > 0:
            pos = pos + rng.normal(0.0, scan.noise_sigma, pos.shape)
        parts.append((pos, np.full(len(pos), t), cls[hit]))
    positions = np.concatenate([p[0] for p in parts])
    times = np.concatenate([p[1] for p in parts])
    classes = np.concatenate([p[2] for p in parts]).astype(np.uint16)
    origins_per_point = np.concatenate(
        [np.broadcast_to(o, (len(p[0]), 3)) for o, p in zip(origins, parts)]
    )
    dynamic = np.zeros(len(positions), dtype=bool)
    for c in np.unique(classes):
        dynamic[classes == c] = scene.is_dynamic_class(int(c))
    return PointCloud(positions, origins_per_point, times, classes, dynamic)


class VoxelVolume:
    """Dense labeled voxel grid; ``labels`` holds FREE or a class id."""

    def __init__(self, labels: np.ndarray, mins: np.ndarray, cell_size: float):
        self.labels = np.asarray(labels, dtype=np.int32)
        if self.labels.ndim != 3:
            raise ValueError("labels must be a 3-d grid")
        self.mins = np.asarray(mins, dtype=np.float64).reshape(3)
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)

    @staticmethod
    def dims_of(mins, maxs, cell_size: float) -> tuple[int, int, int]:
        """Cells per axis between ``mins`` and ``maxs``, each extent a positive
        whole number of cells."""
        mins, maxs = np.asarray(mins, dtype=np.float64), np.asarray(maxs, dtype=np.float64)
        dims = np.round((maxs - mins) / cell_size).astype(int)
        if np.any(dims < 1) or np.any(np.abs(mins + dims * cell_size - maxs) > 1e-6):
            raise ValueError("extents must be a positive whole number of cells")
        return tuple(dims)

    @classmethod
    def free(cls, mins, maxs, cell_size: float) -> "VoxelVolume":
        """An all-free volume from ``mins`` to ``maxs``."""
        return cls(np.full(cls.dims_of(mins, maxs, cell_size), FREE, dtype=np.int32), mins, cell_size)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    @property
    def maxs(self) -> np.ndarray:
        return self.mins + np.array(self.dims) * self.cell_size

    @property
    def occupancy(self) -> np.ndarray:
        return self.labels != FREE

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape dims + (3,)."""
        axes = [
            self.mins[a] + (np.arange(self.dims[a]) + 0.5) * self.cell_size
            for a in range(3)
        ]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def same_grid(self, other: "VoxelVolume") -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.mins, other.mins, atol=1e-6)
            and abs(self.cell_size - other.cell_size) < 1e-9
        )


def voxelize_ground_truth(
    scene: SceneSpec,
    mins: Sequence[float],
    maxs: Sequence[float],
    cell_size: float,
    time: float = 0.0,
) -> VoxelVolume:
    """Label every cell by the oracle at its center at the given time."""
    vol = VoxelVolume.free(mins, maxs, cell_size)
    centers = vol.centers().reshape(-1, 3)
    _, labels = oracle_query_batch(scene, centers, np.full(len(centers), time))
    vol.labels = labels.reshape(vol.dims)
    return vol


_VOX_MAGIC = b"QOVX"
_VOX_VERSION = 2
_VOX_HEADER = struct.Struct("<I3Id6d")  # version, dims, cell, extents


def write_voxel_volume(vol: VoxelVolume, destination) -> None:
    """QOVX format: u16 cells (0 = free, else class_id + 1), C-order."""
    maxs = vol.maxs
    header = _VOX_MAGIC + _VOX_HEADER.pack(
        _VOX_VERSION,
        *vol.dims,
        vol.cell_size,
        vol.mins[0], vol.mins[1], vol.mins[2],
        maxs[0], maxs[1], maxs[2],
    )
    cells = np.where(vol.labels == FREE, 0, vol.labels + 1).astype("<u2")
    _format.write(destination, [header, cells])


def read_voxel_volume(source) -> VoxelVolume:
    f = _format.Reader(source, _VOX_MAGIC, {_VOX_VERSION: _VOX_HEADER})
    _, nx, ny, nz, cell, *extents = f.header
    cells = f.array("<u2", nx * ny * nz).reshape(nx, ny, nz)
    f.end()
    labels = np.where(cells == 0, FREE, cells.astype(np.int32) - 1)
    vol = VoxelVolume(labels, extents[:3], float(cell))
    if not np.all(np.abs(vol.maxs - extents[3:]) <= 1e-6):  # NaN fails this too
        raise InconsistentFileError(f"QOVX maxs {extents[3:]} are not mins + dims x cell size")
    return vol
