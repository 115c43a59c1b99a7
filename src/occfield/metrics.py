"""Voxel prediction and metrics: per-class IoU and first-hit RayIoU.

Both scores come from one (classes, tolerances, [TP, FP, FN]) count table
plus an occupancy row per tolerance.  An item is a voxel for IoU and a ray
for RayIoU; it is a class-c true positive when ground truth and prediction
are both on, match, and both say c.  FP is the predicted count of c minus TP
and FN the ground-truth count of c minus TP; the occupancy row counts the
same way without classes.  Voxels match where they are the same voxel, with
one tolerance; RayIoU marches each ray to the first occupied voxel in ground
truth and prediction, and the two hits match at tolerance tau when their
entry depths lie within tau.  A class's value is TP / (TP + FP + FN)
averaged over the tolerances.

Cells are half-open: a point belongs to cell floor((p - mins) / cell_size),
so a ray running along a face plane lies in the cells above it.  A ray hits
a cell only over a chord of positive length: a cell that it meets only along
an edge or at a corner is not hit.  Depths are measured from the origin and
clamped at the ray's entry into the grid, which is 0 for a ray starting
inside it.
``first_hits`` finds the first occupied cell by integer grid traversal
(Amanatides & Woo); given several volumes on one grid it walks each ray once
and reports each volume's first hit, so ``ray_iou`` walks ground truth and
prediction together.  It builds the padded cell mask and label arrays once per
call and walks the rays in blocks of ``_WALK_RAYS``, so the per-ray walk state
stays a few MB however many rays there are; each ray's walk is elementwise, so
the block size changes no bit.  ``predict_volume`` queries the field over the
whole lattice in one ``forward_batch`` call, which runs it in blocks of its own.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .field import FieldModel, forward_batch
from .geometry import ray_box
from .pointcloud import ClassTable
from .scene import FREE, ScanSpec, VoxelVolume
from . import _format

__all__ = [
    "MetricsReport",
    "RayIoUConfig",
    "predict_volume",
    "iou",
    "ray_iou",
    "rays_from_scan",
    "first_hits",
    "write_metrics_csv",
    "write_ray_counts_csv",
    "summary_line",
]

_WALK_RAYS = 16384  # rays per first_hits block: a block's walk state is about 6 MB


@dataclasses.dataclass
class MetricsReport:
    """IoU (from :func:`iou`) or RayIoU (from :func:`ray_iou`) results; the
    other block is None.

    Both blocks are read off one (n_classes, tolerances, [TP, FP, FN]) table,
    with a single tolerance for IoU; RayIoU keeps its table as
    ``ray_counts`` and the occupancy rows as ``occ_ray_counts``.  A class's
    support is the sum of its row; a class without support scores 0.0 and is
    left out of the means.  A mean with no supported class, and an occupancy
    value with no occupied item (no occupied voxel, or no ray hitting either
    volume), is 1.0.  The dynamic mean covers the table's dynamic classes
    with support and is None without a class table or such a class.
    """

    n_classes: int
    iou_per_class: np.ndarray | None = None
    iou_defined: np.ndarray | None = None
    mean_iou: float | None = None
    dynamic_mean_iou: float | None = None
    occupancy_iou: float | None = None
    depth_tolerances: tuple[float, ...] | None = None
    rayiou_per_class: np.ndarray | None = None
    rayiou_support: np.ndarray | None = None
    mean_rayiou: float | None = None
    dynamic_mean_rayiou: float | None = None
    occupancy_rayiou: float | None = None
    ray_counts: np.ndarray | None = None  # (n_classes, n_tolerances, [TP, FP, FN])
    occ_ray_counts: np.ndarray | None = None  # (n_tolerances, [TP, FP, FN])


@dataclasses.dataclass(frozen=True)
class RayIoUConfig:
    """Ray set plus depth tolerances for RayIoU."""

    origins: np.ndarray
    directions: np.ndarray
    depth_tolerances: tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self):
        o = np.asarray(self.origins, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(self.directions, dtype=np.float64).reshape(-1, 3)
        if len(o) != len(d):
            raise ValueError("origins and directions must pair up")
        # min and max carry any NaN or infinity, without a full-size mask
        ends = [o.min(initial=0.0), o.max(initial=0.0), d.min(initial=0.0), d.max(initial=0.0)]
        if not np.isfinite(ends).all():
            raise ValueError("ray origins and directions must be finite")
        n = np.linalg.norm(d, axis=1)
        if np.any(np.abs(n - 1.0) > 1e-9):
            raise ValueError("directions must be unit-norm")
        object.__setattr__(self, "origins", o)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "depth_tolerances", check_tolerances(self.depth_tolerances))


def check_tolerances(tolerances) -> tuple[float, ...]:
    """``tolerances`` as floats, if they are finite, positive and increasing:
    a NaN tolerance would match no ray and an infinite one every ray."""
    taus = tuple(float(t) for t in tolerances)
    if not taus or not all(a < b for a, b in zip((0.0, *taus), (*taus, math.inf))):  # NaN fails too
        raise ValueError("tolerances must be finite, positive and increasing")
    return taus


def rays_from_scan(scan: ScanSpec, tolerances=(1.0, 2.0, 4.0)) -> RayIoUConfig:
    """One ray per (timestep origin, grid direction) of the scan."""
    dirs = scan.directions()
    origins = scan.origins()
    o = np.repeat(origins, len(dirs), axis=0)
    d = np.tile(dirs, (len(origins), 1))
    return RayIoUConfig(o, d, tolerances)


def predict_volume(
    model: FieldModel,
    mins: Sequence[float],
    maxs: Sequence[float],
    cell_size: float,
    time: float = 0.0,
    occ_threshold: float = 0.5,
) -> VoxelVolume:
    """Query the field at voxel centers: occupied iff occ_prob >= threshold.

    The class is the semantic argmax (lowest index wins ties).  Every center
    goes to one ``forward_batch`` call, which evaluates the lattice in blocks
    through buffers it reuses, so only the (voxels, 4) queries and the
    outputs grow with the grid.  A non-finite ``time`` raises ValueError.
    """
    vol = VoxelVolume.free(mins, maxs, cell_size)
    centers = vol.centers().reshape(-1, 3)
    occ_p, sem_p = forward_batch(model, np.concatenate([centers, np.full((len(centers), 1), time)], axis=1))
    cls = np.argmax(sem_p, axis=1).astype(np.int32)
    vol.labels[...] = np.where(occ_p >= occ_threshold, cls, FREE).reshape(vol.dims)
    return vol


def _n_classes(pred: VoxelVolume, gt: VoxelVolume, classes: ClassTable | None) -> int:
    """Classes scored for ``pred`` against ``gt``: each label of either volume
    and each class of the table, at least one."""
    if not pred.same_grid(gt):
        raise ValueError("prediction and ground truth grids differ")
    n = max(pred.labels.max(initial=FREE), gt.labels.max(initial=FREE)) + 1
    return int(max(n, classes.n_classes if classes is not None else 0, 1))


def _counts(gt_on, gt_cls, pr_on, pr_cls, matched, n_classes: int):
    """The (n_classes, tolerances, [TP, FP, FN]) table and the (tolerances,
    [TP, FP, FN]) occupancy rows of one item set.

    ``gt_on``/``pr_on`` mark the items that are occupied in ground truth and
    prediction, ``gt_cls``/``pr_cls`` give their classes there, and row t of
    ``matched`` marks the items on in both that match at tolerance t.
    """
    gt_n = np.bincount(gt_cls[gt_on], minlength=n_classes)
    pr_n = np.bincount(pr_cls[pr_on], minlength=n_classes)
    same = gt_cls == pr_cls
    tp = np.stack([np.bincount(gt_cls[m & same], minlength=n_classes) for m in matched], axis=1)
    occ_tp = np.count_nonzero(matched, axis=1)
    occ = np.stack([occ_tp, np.count_nonzero(pr_on) - occ_tp, np.count_nonzero(gt_on) - occ_tp], axis=1)
    return np.stack([tp, pr_n[:, None] - tp, gt_n[:, None] - tp], axis=2), occ


def _scores(counts: np.ndarray, occ: np.ndarray, classes: ClassTable | None):
    """(per-class value, support, mean, dynamic mean, occupancy value) of a
    count table, as :class:`MetricsReport` defines them."""
    support = counts.sum(axis=(1, 2))
    per_class = np.mean(counts[:, :, 0] / np.maximum(counts.sum(axis=2), 1), axis=1)
    scored = support > 0
    mean = float(per_class[scored].mean()) if scored.any() else 1.0
    dyn = None
    if classes is not None:
        dmask = classes.dynamic_mask & scored[: classes.n_classes]
        dyn = float(per_class[: classes.n_classes][dmask].mean()) if dmask.any() else None
    occupancy = float(np.mean(occ[:, 0] / np.maximum(occ.sum(axis=1), 1))) if occ.any() else 1.0
    return per_class, support, mean, dyn, occupancy


def iou(
    pred: VoxelVolume, gt: VoxelVolume, classes: ClassTable | None = None
) -> MetricsReport:
    """Per-class and binary-occupancy intersection-over-union: the count
    table with voxels as items, matched where both are occupied."""
    n_classes = _n_classes(pred, gt, classes)
    gt_cls, pr_cls = gt.labels.ravel(), pred.labels.ravel()
    gt_on, pr_on = gt_cls != FREE, pr_cls != FREE
    counts, occ = _counts(gt_on, gt_cls, pr_on, pr_cls, (gt_on & pr_on)[None], n_classes)
    per_class, support, mean, dyn, occupancy = _scores(counts, occ, classes)
    return MetricsReport(
        n_classes=n_classes,
        iou_per_class=per_class,
        iou_defined=support > 0,
        mean_iou=mean,
        dynamic_mean_iou=dyn,
        occupancy_iou=occupancy,
    )


def first_hits(
    vol: VoxelVolume, origins: np.ndarray, dirs: np.ndarray, *others: VoxelVolume
) -> tuple[np.ndarray, ...]:
    """March rays through the voxel grid (integer stepping) to the first
    occupied cell of ``vol`` and of each volume in ``others``.

    The volumes must share ``vol``'s grid (``ValueError`` otherwise), and each
    ray is walked once for all of them: bit i of a per-cell mask is set where
    volume i is occupied, and a ray stays active until every volume has hit or
    it leaves the grid.  Returns (hit, class, entry_depth) per ray for ``vol``,
    then the same three arrays for each of ``others`` in turn, as one tuple;
    each volume's arrays are bitwise those of walking it alone on ``vol``'s grid.

    Under the module's half-open rule a ray is walked from its entry depth,
    to which each axis's first boundary depth is clamped, and a cell that it
    leaves at the depth it entered (one met only along an edge or at a
    corner, which the axis tie-break may step through) is not hit.
    """
    vols = (vol, *others)
    if not all(vol.same_grid(v) for v in others):
        raise ValueError("first_hits volumes lie on different grids")
    n = len(origins)
    out = [
        (np.zeros(n, dtype=bool), np.full(n, FREE, dtype=np.int32), np.full(n, np.inf))
        for _ in vols
    ]
    # The mask is padded by one layer of cells that hold only the outside bit,
    # so a ray that steps off the grid lands on one of them instead of wrapping
    # around in the flat cell index.
    bit_type = np.min_scalar_type((2 << len(vols)) - 1).type
    outside = bit_type(1 << len(vols))
    occupied = sum(v.occupancy.astype(bit_type) << bit_type(i) for i, v in enumerate(vols))
    bits = np.pad(occupied, 1, constant_values=outside).ravel()
    labels = [np.pad(v.labels, 1).ravel() for v in vols]
    for lo in range(0, n, _WALK_RAYS):
        rays = slice(lo, lo + _WALK_RAYS)
        _walk(vol, origins[rays], dirs[rays], bits, labels, [[a[rays] for a in hits] for hits in out])
    return tuple(a for hits in out for a in hits)


def _walk(vol: VoxelVolume, origins, dirs, bits, labels, out) -> None:
    """The walk of :func:`first_hits` over one block of rays, through the
    padded cell mask ``bits`` and label arrays ``labels`` that it built;
    writes each volume's hits into the block's views ``out``."""
    dims = np.array(vol.dims)
    strides = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    bit_type = bits.dtype.type
    outside = bit_type(1 << len(labels))
    finished = bit_type((2 << len(labels)) - 1)  # every volume hit, plus the outside bit

    # half-open like the cells: a ray along the grid's upper face is outside it
    inside = (origins >= vol.mins) & (origins < vol.maxs)
    t_in, t_out = ray_box(origins, dirs, vol.mins, vol.maxs, inside)
    t_in = np.maximum(t_in, 0.0)
    # The walk keeps state for the active rays only: row r is ray ids[r], and
    # tmax, tdelta and move hold one row per axis.
    ids = np.flatnonzero(t_in <= t_out)
    o, d, t_cur, t_out = origins[ids], dirs[ids], t_in[ids], t_out[ids]
    cur = np.clip(
        np.floor((o + t_cur[:, None] * d - vol.mins) / vol.cell_size).astype(np.int64),
        0, dims - 1,
    )
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = vol.mins + (cur + (step > 0)) * vol.cell_size
        # rounding can put the entry point across a face plane that the ray
        # nearly parallels, and the plane's crossing then lies before the entry
        tmax = np.maximum(t_cur, np.where(d != 0, (boundary - o) / d, np.inf).T, order="C")
        tdelta = np.where(d != 0, vol.cell_size / np.abs(d), np.inf).T.copy()
    move = (step * strides).T.copy()
    flat = (cur + 1) @ strides
    # bit i: volume i has hit; the outside bit keeps outside cells from counting
    done = np.full(len(ids), outside)

    while len(ids):
        cell = bits[flat]
        x, y, z = tmax
        m = np.minimum(np.minimum(x, y), z)  # the depth at which the ray leaves the cell
        new = cell & ~done
        rows = np.flatnonzero(new)
        # a cell left at the depth it was entered is only touched, not hit
        rows = rows[m[rows] > t_cur[rows]]
        new_rows = new[rows]
        for i, (hit, cls, depth) in enumerate(out):
            r = rows[(new_rows >> bit_type(i)) & 1 != 0]
            hit[ids[r]] = True
            cls[ids[r]] = labels[i][flat[r]]
            depth[ids[r]] = t_cur[r]
        done[rows] |= new_rows

        # Step along the first axis whose boundary is nearest, as argmin would;
        # lin indexes the flat (axis, row) storage of tmax, tdelta and move.
        not_x = x != m
        lin = not_x.astype(np.intp)
        lin += not_x & (y != m)
        lin *= len(ids)
        lin += np.arange(len(ids))
        t_cur = tmax.take(lin)
        tmax.put(lin, t_cur + tdelta.take(lin))
        flat += move.take(lin)
        # a ray on an outside cell has left the grid; past t_out it is leaving
        keep = (cell < outside) & (done != finished) & (t_cur <= t_out)
        if not keep.all():
            k = np.flatnonzero(keep)
            ids, t_out, t_cur, flat, done = ids[k], t_out[k], t_cur[k], flat[k], done[k]
            tmax, tdelta, move = tmax.take(k, axis=1), tdelta.take(k, axis=1), move.take(k, axis=1)


def ray_iou(
    pred: VoxelVolume, gt: VoxelVolume, cfg: RayIoUConfig,
    classes: ClassTable | None = None,
) -> MetricsReport:
    """First-hit depth/class agreement averaged over the tolerance set: the
    count table with rays as items, walked once by :func:`first_hits`."""
    n_classes = _n_classes(pred, gt, classes)
    gt_hit, gt_cls, gt_depth, pr_hit, pr_cls, pr_depth = first_hits(gt, cfg.origins, cfg.directions, pred)
    both = gt_hit & pr_hit
    close = np.full(len(gt_hit), np.inf)
    close[both] = np.abs(pr_depth[both] - gt_depth[both])
    matched = close <= np.array(cfg.depth_tolerances)[:, None]
    counts, occ = _counts(gt_hit, gt_cls, pr_hit, pr_cls, matched, n_classes)
    per_class, support, mean, dyn, occupancy = _scores(counts, occ, classes)
    return MetricsReport(
        n_classes=n_classes,
        depth_tolerances=cfg.depth_tolerances,
        rayiou_per_class=per_class,
        rayiou_support=support,
        mean_rayiou=mean,
        dynamic_mean_rayiou=dyn,
        occupancy_rayiou=occupancy,
        ray_counts=counts,
        occ_ray_counts=occ,
    )


def summary_line(vox: MetricsReport, ray: MetricsReport) -> str:
    values = (
        vox.mean_iou, vox.dynamic_mean_iou, vox.occupancy_iou,
        ray.mean_rayiou, ray.dynamic_mean_rayiou, ray.occupancy_rayiou,
    )
    return ",".join("" if v is None else f"{v:.6f}" for v in values)


def _class_name(c: int, classes: ClassTable | None) -> str:
    return classes.names[c] if classes is not None and c < classes.n_classes else str(c)


def write_metrics_csv(
    vox: MetricsReport, ray: MetricsReport, destination, classes: ClassTable | None = None
) -> None:
    """Per-class rows `class,iou,rayiou,support` then one summary line, from
    the :func:`iou` and :func:`ray_iou` reports of one pair."""
    lines = ["class,iou,rayiou,support\n"]
    for c in range(vox.n_classes):
        iou_v = f"{vox.iou_per_class[c]:.6f}" if vox.iou_defined[c] else ""
        sup = int(ray.rayiou_support[c])
        ray_v = f"{ray.rayiou_per_class[c]:.6f}" if sup else ""
        lines.append(f"{_class_name(c, classes)},{iou_v},{ray_v},{sup}\n")
    lines.append("# mean_iou,dyn_iou,occ_iou,mean_rayiou,dyn_rayiou,occ_rayiou\n")
    lines.append(summary_line(vox, ray) + "\n")
    _format.write(destination, ["".join(lines).encode()])


def write_ray_counts_csv(report: MetricsReport, destination, classes: ClassTable | None = None) -> None:
    """RayIoU rows `class,tolerance,tp,fp,fn`: each scored class, then `occupancy`."""
    names = [_class_name(c, classes) for c in range(len(report.ray_counts))] + ["occupancy"]
    lines = ["class,tolerance,tp,fp,fn\n"]
    for name, counts in zip(names, [*report.ray_counts, report.occ_ray_counts]):
        for tau, (tp, fp, fn) in zip(report.depth_tolerances, counts):
            lines.append(f"{name},{tau},{tp},{fp},{fn}\n")
    _format.write(destination, ["".join(lines).encode()])
