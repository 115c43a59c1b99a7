"""The exact first-hit oracle that the tests hold ``metrics.first_hits`` to."""

import numpy as np

from occfield.geometry import ray_box
from occfield.scene import FREE


def exact_hits(vol, origins, dirs):
    """(hit, class, entry depth) of each ray for one volume, as ``first_hits``
    gives them, from a slab test of every ray against every occupied cell's box.

    Half-open like the cells: on an axis the ray parallels, it is inside a
    cell's slab iff its origin's cell index is the cell's, and a cell is hit
    only over a chord of positive length (t_in < t_out).  Entry depths are
    clamped at 0; of cells entered at one depth, the first in C order gives
    the class.  Costs rays x occupied cells.
    """
    cells = np.argwhere(vol.occupancy)
    lo = vol.mins + cells * vol.cell_size
    o, d = origins[:, None, :], dirs[:, None, :]
    inside = np.floor((o - vol.mins) / vol.cell_size) == cells
    t_in, t_out = ray_box(o, d, lo, lo + vol.cell_size, inside)
    t_in = np.maximum(t_in, 0.0)
    entry = np.where(t_in < t_out, t_in, np.inf)
    depth = entry.min(axis=1, initial=np.inf)
    hit = np.isfinite(depth)
    cls = np.full(len(depth), FREE, dtype=np.int32)
    if hit.any():  # else there may be no cell to take an argmin over
        cls[hit] = vol.labels[tuple(cells[np.argmin(entry[hit], axis=1)].T)]
    return hit, cls, depth

