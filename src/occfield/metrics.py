"""Voxel prediction and metrics: per-class IoU and first-hit RayIoU.

RayIoU marches each ray to the first occupied voxel in ground truth and
prediction; a ray counts as a class-c true positive at tolerance tau when
both hit with matching class c and entry depths within tau.  Per-class
values are averaged over the tolerance set.

Cells are half-open: a point belongs to cell floor((p - mins) / cell_size),
so a ray running along a face plane lies in the cells above it.
``first_hits`` finds the first occupied cell by integer grid traversal
(Amanatides & Woo); given several volumes on one grid it walks each ray once
and reports each volume's first hit, so ``ray_iou`` walks ground truth and
prediction together.  ``first_hits_exact`` and ``brute_force_ray_iou`` are the
independent oracle: they slab-test every ray against the box of every
occupied cell, in chunks, and take the nearest entry.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .field import FieldModel, forward_batch
from .geometry import ray_box
from .pointcloud import ClassTable
from .scene import FREE, ScanSpec, VoxelVolume
from ._util import write_bytes

__all__ = [
    "MetricsReport",
    "RayIoUConfig",
    "predict_volume",
    "iou",
    "ray_iou",
    "brute_force_ray_iou",
    "rays_from_scan",
    "rays_to_gt_surface",
    "first_hits",
    "first_hits_exact",
    "write_metrics_csv",
    "write_ray_counts_csv",
    "summary_line",
]

_CHUNK = 16384  # voxels per inference chunk: one 16,384 x 160 activation is 21 MB
_ORACLE_PAIRS = 1 << 21  # ray x cell pairs per slab-test chunk of the oracle


@dataclasses.dataclass
class MetricsReport:
    """IoU and/or RayIoU results; unset blocks are None.

    Means are arithmetic means over the defined (IoU) or supported (RayIoU)
    class subsets; ``zero_support`` marks a vacuous RayIoU (no ray hits
    anything in either volume), reported as 1.0.
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
    zero_support: bool = False


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
        taus = tuple(float(t) for t in self.depth_tolerances)
        if len(taus) == 0 or any(t <= 0 for t in taus) or np.any(np.diff(taus) <= 0):
            raise ValueError("tolerances must be positive and increasing")
        object.__setattr__(self, "origins", o)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "depth_tolerances", taus)


def rays_from_scan(scan: ScanSpec, tolerances=(1.0, 2.0, 4.0)) -> RayIoUConfig:
    """One ray per (timestep origin, grid direction) of the scan."""
    dirs = scan.directions()
    origins = scan.origins()
    o = np.repeat(origins, len(dirs), axis=0)
    d = np.tile(dirs, (len(origins), 1))
    return RayIoUConfig(o, d, tolerances)


def rays_to_gt_surface(
    gt: VoxelVolume, origin, tolerances=(1.0, 2.0, 4.0)
) -> RayIoUConfig:
    """Rays from one origin toward every occupied ground-truth cell center."""
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    centers = gt.centers()[gt.occupancy]
    d = centers - origin
    norms = np.linalg.norm(d, axis=1)
    good = norms > 1e-9
    return RayIoUConfig(
        np.broadcast_to(origin, (int(good.sum()), 3)), d[good] / norms[good, None], tolerances
    )


def predict_volume(
    model: FieldModel,
    mins: Sequence[float],
    maxs: Sequence[float],
    cell_size: float,
    time: float = 0.0,
    occ_threshold: float = 0.5,
) -> VoxelVolume:
    """Query the field at voxel centers: occupied iff occ_prob >= threshold.

    The class is the semantic argmax (lowest index wins ties).
    """
    mins = np.asarray(mins, dtype=np.float64)
    maxs = np.asarray(maxs, dtype=np.float64)
    dims = np.round((maxs - mins) / cell_size).astype(int)
    if np.any(dims < 1) or np.any(np.abs(mins + dims * cell_size - maxs) > 1e-6):
        raise ValueError("extents must be a positive whole number of cells")
    vol = VoxelVolume(np.full(dims, FREE, dtype=np.int32), mins, cell_size, time)
    centers = vol.centers().reshape(-1, 3)
    labels = np.full(len(centers), FREE, dtype=np.int32)
    for lo in range(0, len(centers), _CHUNK):
        hi = min(lo + _CHUNK, len(centers))
        q = np.concatenate([centers[lo:hi], np.full((hi - lo, 1), time)], axis=1)
        occ_p, sem_p, _ = forward_batch(model, q)
        occupied = occ_p >= occ_threshold
        cls = np.argmax(sem_p, axis=1).astype(np.int32)
        labels[lo:hi] = np.where(occupied, cls, FREE)
    vol.labels = labels.reshape(vol.dims)
    return vol


def iou(
    pred: VoxelVolume, gt: VoxelVolume, classes: ClassTable | None = None
) -> MetricsReport:
    """Per-class and binary-occupancy intersection-over-union.

    Classes whose union is empty in both volumes are excluded from means.
    """
    if not pred.same_grid(gt):
        raise ValueError("prediction and ground truth grids differ")
    n_classes = int(
        max(pred.labels.max(initial=FREE), gt.labels.max(initial=FREE)) + 1
    )
    if classes is not None:
        n_classes = max(n_classes, classes.n_classes)
    per_class = np.zeros(max(n_classes, 1))
    defined = np.zeros(max(n_classes, 1), dtype=bool)
    for c in range(n_classes):
        inter = int(np.sum((pred.labels == c) & (gt.labels == c)))
        union = int(np.sum((pred.labels == c) | (gt.labels == c)))
        if union > 0:
            per_class[c] = inter / union
            defined[c] = True
    p_occ, g_occ = pred.occupancy, gt.occupancy
    occ_union = int(np.sum(p_occ | g_occ))
    occ_iou = float(np.sum(p_occ & g_occ) / occ_union) if occ_union else 1.0
    mean = float(per_class[defined].mean()) if defined.any() else 1.0
    dyn = None
    if classes is not None:
        dmask = classes.dynamic_mask[: len(defined)] & defined[: classes.n_classes]
        dyn = float(per_class[: classes.n_classes][dmask].mean()) if dmask.any() else None
    return MetricsReport(
        n_classes=n_classes,
        iou_per_class=per_class,
        iou_defined=defined,
        mean_iou=mean,
        dynamic_mean_iou=dyn,
        occupancy_iou=occ_iou,
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
    dims = np.array(vol.dims)
    strides = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    bit_type = np.min_scalar_type((2 << len(vols)) - 1).type
    outside = bit_type(1 << len(vols))
    finished = bit_type((2 << len(vols)) - 1)  # every volume hit, plus the outside bit
    occupied = sum(v.occupancy.astype(bit_type) << bit_type(i) for i, v in enumerate(vols))
    bits = np.pad(occupied, 1, constant_values=outside).ravel()
    labels = [np.pad(v.labels, 1).ravel() for v in vols]

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
        tmax = np.where(d != 0, (boundary - o) / d, np.inf).T.copy()
        tdelta = np.where(d != 0, vol.cell_size / np.abs(d), np.inf).T.copy()
    move = (step * strides).T.copy()
    flat = (cur + 1) @ strides
    # bit i: volume i has hit; the outside bit keeps outside cells from counting
    done = np.full(len(ids), outside)

    while len(ids):
        cell = bits[flat]
        new = cell & ~done
        rows = np.flatnonzero(new)
        for i, (hit, cls, depth) in enumerate(out):
            r = rows[(new[rows] >> bit_type(i)) & 1 != 0]
            hit[ids[r]] = True
            cls[ids[r]] = labels[i][flat[r]]
            depth[ids[r]] = t_cur[r]
        done |= new

        # Step along the first axis whose boundary is nearest, as argmin would;
        # lin indexes the flat (axis, row) storage of tmax, tdelta and move.
        x, y, z = tmax
        m = np.minimum(np.minimum(x, y), z)
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
    return tuple(a for hits in out for a in hits)


def first_hits_exact(
    vol: VoxelVolume, origins: np.ndarray, dirs: np.ndarray, *others: VoxelVolume
) -> tuple[np.ndarray, ...]:
    """Exact oracle for :func:`first_hits`, with the same arguments and
    results: each ray's nearest entry (clamped at 0) into any occupied cell's
    box, half-open on axes the ray parallels.  Of cells entered at one depth,
    the first in C order gives the class."""
    if not all(vol.same_grid(v) for v in others):
        raise ValueError("first_hits volumes lie on different grids")
    return tuple(a for v in (vol, *others) for a in _exact_hits(v, origins, dirs))


def _exact_hits(vol: VoxelVolume, origins: np.ndarray, dirs: np.ndarray):
    n = len(origins)
    cls = np.full(n, FREE, dtype=np.int32)
    depth = np.full(n, np.inf)
    cells = np.argwhere(vol.occupancy)
    lo = vol.mins + cells * vol.cell_size
    hi = lo + vol.cell_size
    step = max(1, _ORACLE_PAIRS // max(len(cells), 1))
    for s in range(0, n if len(cells) else 0, step):
        o = origins[s : s + step, None, :]
        inside = np.floor((o - vol.mins) / vol.cell_size) == cells
        t_in, t_out = ray_box(o, dirs[s : s + step, None, :], lo, hi, inside)
        t_in = np.maximum(t_in, 0.0)
        entry = np.where(t_in <= t_out, t_in, np.inf)
        first = np.argmin(entry, axis=1)
        depth[s : s + step] = entry[np.arange(len(first)), first]
        cls[s : s + step] = vol.labels[tuple(cells[first].T)]
    hit = np.isfinite(depth)
    cls[~hit] = FREE
    return hit, cls, depth


def _count_and_score(
    gt_hit, gt_cls, gt_depth, pr_hit, pr_cls, pr_depth, cfg: RayIoUConfig,
    n_classes: int, classes: ClassTable | None,
) -> MetricsReport:
    taus = cfg.depth_tolerances
    counts = np.zeros((n_classes, len(taus), 3), dtype=np.int64)
    occ_counts = np.zeros((len(taus), 3), dtype=np.int64)
    both = gt_hit & pr_hit
    close = np.full(len(gt_hit), np.inf)
    close[both] = np.abs(pr_depth[both] - gt_depth[both])
    for ti, tau in enumerate(taus):
        matched = both & (close <= tau)
        occ_counts[ti] = (
            int(matched.sum()),
            int((pr_hit & ~matched).sum()),
            int((gt_hit & ~matched).sum()),
        )
        cls_match = matched & (gt_cls == pr_cls)
        for c in range(n_classes):
            tp = int(np.sum(cls_match & (gt_cls == c)))
            fp = int(np.sum(pr_hit & (pr_cls == c))) - tp
            fn = int(np.sum(gt_hit & (gt_cls == c))) - tp
            counts[c, ti] = (tp, fp, fn)

    support = counts.sum(axis=(1, 2)) > 0
    per_class = np.ones(n_classes)
    for c in range(n_classes):
        if support[c]:
            denom = counts[c].sum(axis=1)
            per_class[c] = float(np.mean(counts[c, :, 0] / np.maximum(denom, 1)))
    occ_denom = occ_counts.sum(axis=1)
    zero_support = not (gt_hit.any() or pr_hit.any())
    occ_val = float(np.mean(occ_counts[:, 0] / np.maximum(occ_denom, 1))) if not zero_support else 1.0
    mean = float(per_class[support].mean()) if support.any() else 1.0
    dyn = None
    if classes is not None:
        dmask = classes.dynamic_mask[: n_classes] & support[: classes.n_classes]
        dyn = float(per_class[: classes.n_classes][dmask].mean()) if dmask.any() else None
    return MetricsReport(
        n_classes=n_classes,
        depth_tolerances=taus,
        rayiou_per_class=per_class,
        rayiou_support=counts.sum(axis=(1, 2)),
        mean_rayiou=mean,
        dynamic_mean_rayiou=dyn,
        occupancy_rayiou=occ_val,
        ray_counts=counts,
        occ_ray_counts=occ_counts,
        zero_support=zero_support,
    )


def _ray_metric(pred, gt, cfg, classes, hit_fn) -> MetricsReport:
    if not pred.same_grid(gt):
        raise ValueError("prediction and ground truth grids differ")
    n_classes = int(max(pred.labels.max(initial=FREE), gt.labels.max(initial=FREE)) + 1)
    if classes is not None:
        n_classes = max(n_classes, classes.n_classes)
    n_classes = max(n_classes, 1)
    hits = hit_fn(gt, cfg.origins, cfg.directions, pred)
    return _count_and_score(*hits, cfg, n_classes, classes)


def ray_iou(
    pred: VoxelVolume, gt: VoxelVolume, cfg: RayIoUConfig,
    classes: ClassTable | None = None,
) -> MetricsReport:
    """First-hit depth/class agreement averaged over the tolerance set."""
    return _ray_metric(pred, gt, cfg, classes, first_hits)


def brute_force_ray_iou(
    pred: VoxelVolume, gt: VoxelVolume, cfg: RayIoUConfig,
    classes: ClassTable | None = None,
) -> MetricsReport:
    """Reference RayIoU from the exact slab oracle :func:`first_hits_exact`
    (half-open cells) instead of the grid traversal; costs rays x occupied cells."""
    return _ray_metric(pred, gt, cfg, classes, first_hits_exact)


def summary_line(report: MetricsReport) -> str:
    def fmt(v):
        return "" if v is None else f"{v:.6f}"

    return ",".join(
        [
            fmt(report.mean_iou),
            fmt(report.dynamic_mean_iou),
            fmt(report.occupancy_iou),
            fmt(report.mean_rayiou),
            fmt(report.dynamic_mean_rayiou),
            fmt(report.occupancy_rayiou),
        ]
    )


def _class_name(c: int, classes: ClassTable | None) -> str:
    return classes.names[c] if classes is not None and c < classes.n_classes else str(c)


def write_metrics_csv(report: MetricsReport, destination, classes: ClassTable | None = None) -> None:
    """Per-class rows `class,iou,rayiou,support` then one summary line."""
    lines = ["class,iou,rayiou,support\n"]
    for c in range(report.n_classes):
        name = _class_name(c, classes)
        iou_v = ""
        if report.iou_per_class is not None and report.iou_defined is not None:
            iou_v = f"{report.iou_per_class[c]:.6f}" if report.iou_defined[c] else ""
        ray_v = ""
        sup = ""
        if report.rayiou_per_class is not None:
            sup_n = int(report.rayiou_support[c])
            sup = str(sup_n)
            ray_v = f"{report.rayiou_per_class[c]:.6f}" if sup_n else ""
        lines.append(f"{name},{iou_v},{ray_v},{sup}\n")
    lines.append("# mean_iou,dyn_iou,occ_iou,mean_rayiou,dyn_rayiou,occ_rayiou\n")
    lines.append(summary_line(report) + "\n")
    write_bytes(destination, "".join(lines).encode())


def write_ray_counts_csv(report: MetricsReport, destination, classes: ClassTable | None = None) -> None:
    """RayIoU rows `class,tolerance,tp,fp,fn`: each scored class, then `occupancy`."""
    names = [_class_name(c, classes) for c in range(len(report.ray_counts))] + ["occupancy"]
    lines = ["class,tolerance,tp,fp,fn\n"]
    for name, counts in zip(names, [*report.ray_counts, report.occ_ray_counts]):
        for tau, (tp, fp, fn) in zip(report.depth_tolerances, counts):
            lines.append(f"{name},{tau},{tp},{fp},{fn}\n")
    write_bytes(destination, "".join(lines).encode())
