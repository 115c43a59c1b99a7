"""Bird's-eye-view grids that are uniform in contracted x/y space.

``bilinear_setup`` contracts metric x/y and gives each point its four
surrounding cells and their bilinear weights.  The field model gathers its
grid features through it; ``splat_pointcloud`` scatters point mass through it
onto a one-channel grid, so the grid's total mass equals the point count,
and ``grid_to_ppm`` images that grid.
"""

from __future__ import annotations

import numpy as np

from .geometry import ContractionParams, contract_axis
from .pointcloud import PointCloud

__all__ = [
    "BevGrid",
    "splat_pointcloud",
    "bilinear_setup",
    "grid_to_ppm",
]


class BevGrid:
    """Feature grid over contracted space [-1, 1]^2.

    ``data[iy, ix, c]`` covers a uniform tile of contracted space; cell
    centers sit at contracted coordinates (2*(i+0.5)/size - 1).
    """

    def __init__(
        self,
        width: int,
        height: int,
        channels: int,
        contraction: ContractionParams,
        data: np.ndarray | None = None,
    ):
        if width < 2 or height < 2 or channels < 1:
            raise ValueError("grid must be at least 2x2 with one channel")
        self.width = int(width)
        self.height = int(height)
        self.channels = int(channels)
        self.contraction = contraction
        if data is None:
            data = np.zeros((height, width, channels))
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (height, width, channels):
            raise ValueError(f"data shape {data.shape} != {(height, width, channels)}")
        if not np.all(np.isfinite(data)):
            raise ValueError("grid data must be finite")
        self.data = data

    def copy(self) -> "BevGrid":
        return BevGrid(self.width, self.height, self.channels, self.contraction, self.data.copy())


def bilinear_setup(
    x: np.ndarray, y: np.ndarray, grid: BevGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract metric x/y and return bilinear corner indices and weights.

    Returns (iy, ix, w), each (N, 4): the four surrounding cells per point
    and their partition-of-unity weights.  Contracted values at or beyond
    the boundary collapse onto the border cells.
    """
    cx = contract_axis(np.asarray(x, dtype=np.float64), grid.contraction)
    cy = contract_axis(np.asarray(y, dtype=np.float64), grid.contraction)
    u = (cx + 1.0) * 0.5 * grid.width - 0.5
    v = (cy + 1.0) * 0.5 * grid.height - 0.5
    x0 = np.floor(u)
    y0 = np.floor(v)
    fx = u - x0
    fy = v - y0
    ix0 = np.clip(x0, 0, grid.width - 1).astype(np.int64)
    ix1 = np.clip(x0 + 1, 0, grid.width - 1).astype(np.int64)
    iy0 = np.clip(y0, 0, grid.height - 1).astype(np.int64)
    iy1 = np.clip(y0 + 1, 0, grid.height - 1).astype(np.int64)
    w = np.stack(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=1
    )
    ix = np.stack([ix0, ix1, ix0, ix1], axis=1)
    iy = np.stack([iy0, iy0, iy1, iy1], axis=1)
    return iy, ix, w


def splat_pointcloud(pc: PointCloud, grid: BevGrid) -> BevGrid:
    """Splat raw points with weight 1 into a copy of a one-channel (mass) grid.

    Each point adds its four bilinear weights, in contracted space, to the
    mass of its four surrounding cells.
    """
    if grid.channels != 1:
        raise ValueError(f"grid channels {grid.channels} != 1 (mass)")
    out = grid.copy()
    if len(pc) == 0:
        return out
    iy, ix, w = bilinear_setup(pc.positions[:, 0], pc.positions[:, 1], grid)
    mass = out.data[:, :, 0]
    for k in range(4):
        np.add.at(mass, (iy[:, k], ix[:, k]), w[:, k])
    return out


def grid_to_ppm(grid: BevGrid, channel: int = -1) -> bytes:
    """Render one grid channel as a grayscale binary PPM (P6) image."""
    img = grid.data[:, :, channel]
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    gray = ((img - lo) * scale).astype(np.uint8)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode()
    return header + rgb.tobytes()
