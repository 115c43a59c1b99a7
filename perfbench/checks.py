"""Output checks computed apart from the program.

Each check returns ``(ok, detail)``.  The references here share no code
with ``occfield``: they parse its files with their own readers, replay rays
with their own slab tests and run their own forward pass.  Where a check
calls the program (``metrics.first_hits``, ``field.backward``), the program
is the thing under test and the function is a parameter, so the self-test
can hand in a broken one.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

import workloads

FREE = -1
_CHUNK_ELEMS = 1 << 21  # ray x cell pairs per slab-test chunk


# --------------------------------------------------------------- file readers

def read_qoqs(blob: bytes) -> dict:
    """Query set: magic, <IQH header, then (query f4[4], occ u1, class u2)."""
    if blob[:4] != b"QOQS":
        raise ValueError("not a QOQS file")
    _, count, fdim = struct.unpack_from("<IQH", blob, 4)
    fields = [("query", "<f4", (4,)), ("occ", "u1"), ("class", "<u2")]
    if fdim:
        fields.append(("feature", "<f4", (fdim,)))
    rec = np.frombuffer(blob, dtype=np.dtype(fields), count=count, offset=4 + 14)
    return {"queries": rec["query"].astype(np.float64), "occ": rec["occ"], "classes": rec["class"]}


def read_qopc(blob: bytes) -> dict:
    """Point cloud: magic, <IQHBB header, then position, origin, time, class, flags."""
    if blob[:4] != b"QOPC":
        raise ValueError("not a QOPC file")
    _, count, fdim, _, _ = struct.unpack_from("<IQHBB", blob, 4)
    fields = [("position", "<f4", (3,)), ("origin", "<f4", (3,)), ("time", "<f4"),
              ("class_id", "<u2"), ("flags", "<u2")]
    if fdim:
        fields.append(("feature", "<f4", (fdim,)))
    rec = np.frombuffer(blob, dtype=np.dtype(fields), count=count, offset=4 + 16)
    return {
        "positions": rec["position"].astype(np.float64),
        "times": rec["time"].astype(np.float64),
        "classes": rec["class_id"].astype(np.int64),
    }


def read_qofm(blob: bytes) -> dict:
    """Field model: header, then float32 grid (H, W, C) and per layer W, b."""
    if blob[:4] != b"QOFM":
        raise ValueError("not a QOFM file")
    off = 4
    _, n = struct.unpack_from("<II", blob, off)
    off += 8
    sizes = struct.unpack_from(f"<{n}I", blob, off)
    off += 4 * n
    head = struct.unpack_from("<IIIff2f3I", blob, off)
    off += struct.calcsize("<IIIff2f3I")
    n_classes, _, n_bands, fmin, fmax, k_hr, beta, gw, gh, gc = head

    def take(shape):
        nonlocal off
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off).astype(np.float64)
        off += 4 * count
        return arr.reshape(shape)

    grid = take((gh, gw, gc))
    layers = [(take((sizes[i], sizes[i + 1])), take((sizes[i + 1],))) for i in range(n - 1)]
    return {
        "grid": grid, "layers": layers, "n_classes": n_classes, "n_bands": n_bands,
        "fmin": float(fmin), "fmax": float(fmax), "k_hr": float(k_hr), "beta": float(beta),
    }


# ------------------------------------------------------------- own references

def own_forward(m: dict, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy probability and semantic logits of a QOFM model at (N, 4) queries."""
    grid = m["grid"]
    gh, gw, _ = grid.shape

    def contract(k):
        r = k / m["k_hr"]
        a = np.abs(r)
        return np.where(a <= 1.0, m["beta"] * r, np.sign(r) * (1.0 - (1.0 - m["beta"]) / np.maximum(a, 1.0)))

    u = (contract(queries[:, 0]) + 1.0) * 0.5 * gw - 0.5
    v = (contract(queries[:, 1]) + 1.0) * 0.5 * gh - 0.5
    x0, y0 = np.floor(u), np.floor(v)
    fx, fy = (u - x0)[:, None], (v - y0)[:, None]
    xa, xb = np.clip(x0, 0, gw - 1).astype(int), np.clip(x0 + 1, 0, gw - 1).astype(int)
    ya, yb = np.clip(y0, 0, gh - 1).astype(int), np.clip(y0 + 1, 0, gh - 1).astype(int)
    feat = ((1 - fx) * (1 - fy) * grid[ya, xa] + fx * (1 - fy) * grid[ya, xb]
            + (1 - fx) * fy * grid[yb, xa] + fx * fy * grid[yb, xb])
    n = m["n_bands"]
    freqs = np.array([m["fmin"]]) if n == 1 else m["fmin"] * (m["fmax"] / m["fmin"]) ** (np.arange(n) / (n - 1))

    def enc(x):
        ph = x[:, None] * freqs[None, :]
        return np.concatenate([np.sin(ph), np.cos(ph)], axis=1)

    h = np.concatenate([feat, enc(queries[:, 2]), enc(queries[:, 3])], axis=1)
    for w, b in m["layers"][:-1]:
        a = h @ w + b
        h = 0.5 * (a + np.sqrt(a * a + 4.0))
    w, b = m["layers"][-1]
    out = h @ w + b
    return 1.0 / (1.0 + np.exp(-out[:, 0])), out[:, 1 : 1 + m["n_classes"]]


def _slab(o, d, lo, hi, inside=None):
    """Entry and exit parameters of rays (o, d) through boxes [lo, hi]; all broadcast.

    ``inside`` says, per axis, whether a ray parallel to that axis lies
    within the box's extent; by default the box is closed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    if inside is None:
        inside = (o >= lo) & (o <= hi)
    near = np.where(d == 0, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    far = np.where(d == 0, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    return near.max(axis=-1), far.min(axis=-1)


def exact_first_hits(labels, mins, cell, origins, dirs):
    """Slab-test every ray against the box of every occupied cell.

    Cells are half-open: a point belongs to cell floor((p - mins) / cell), so
    a ray running exactly along a face plane lies in the cells above it.
    Returns (hit, depth, tie_classes): the first entry depth per ray and, as
    a (rays, n_classes) mask, every class among cells entered at that depth.
    """
    idx = np.argwhere(labels != FREE)
    cls = labels[labels != FREE] if len(idx) else np.zeros(0, int)
    n_cls = int(labels.max()) + 1 if len(idx) else 1
    mins = np.asarray(mins, dtype=np.float64)
    lo = mins + idx * cell
    hi = lo + cell
    n = len(origins)
    depth = np.full(n, np.inf)
    ties = np.zeros((n, n_cls), dtype=bool)
    step = max(1, _CHUNK_ELEMS // max(len(idx), 1))
    for s in range(0, n if len(idx) else 0, step):
        o = origins[s : s + step, None, :]
        d = dirs[s : s + step, None, :]
        inside = np.floor((o - mins) / cell) == idx[None]
        near, far = _slab(o, d, lo[None], hi[None], inside)
        near = np.maximum(near, 0.0)
        entry = np.where(near <= far, near, np.inf)
        first = entry.min(axis=1)
        depth[s : s + step] = first
        at_first = np.isfinite(first)[:, None] & (entry <= first[:, None] + 1e-9)
        for c in range(n_cls):
            ties[s : s + step, c] = (at_first & (cls == c)[None]).any(axis=1)
    return np.isfinite(depth), depth, ties


def own_raycast(w: workloads.Workload, frame: int):
    """First hit of every scan ray of one frame: (hit, depth, class, origin, dirs)."""
    t = workloads.TIMESTEPS[frame]
    origin = np.asarray(workloads.ORIGIN_START) + t * np.asarray(workloads.ORIGIN_VELOCITY)
    az = -np.pi + 2.0 * np.pi * np.arange(w.azimuth_count) / w.azimuth_count
    el = np.linspace(*workloads.ELEVATION, w.elevation_count)
    A, E = np.meshgrid(az, el, indexing="ij")
    dirs = np.stack([np.cos(E) * np.cos(A), np.cos(E) * np.sin(A), np.sin(E)], -1).reshape(-1, 3)
    prims = [(workloads.SLAB[0], (-np.inf, -np.inf, workloads.SLAB[1]), (np.inf, np.inf, workloads.SLAB[2]))]
    for _, c, center, size, vel in workloads.BOXES:
        ctr = np.asarray(center) + t * np.asarray(vel)
        prims.append((c, ctr - np.asarray(size) / 2, ctr + np.asarray(size) / 2))
    best = np.full(len(dirs), np.inf)
    cls = np.full(len(dirs), FREE)
    for c, lo, hi in prims:
        near, far = _slab(origin[None], dirs, np.asarray(lo)[None], np.asarray(hi)[None])
        ok = (near <= far) & (near > 1e-9) & (near <= workloads.MAX_RANGE) & (near < best)
        best[ok] = near[ok]
        cls[ok] = c
    return cls != FREE, best, cls, origin, dirs


def strictly_inside(points: np.ndarray, times: np.ndarray, margin: float) -> np.ndarray:
    """Points at least ``margin`` inside some solid of the scene."""
    z = points[:, 2]
    inside = (z > workloads.SLAB[1] + margin) & (z < workloads.SLAB[2] - margin)
    for _, _, center, size, vel in workloads.BOXES:
        ctr = np.asarray(center) + times[:, None] * np.asarray(vel)
        inside |= np.all(np.abs(points - ctr) < np.asarray(size) / 2 - margin, axis=1)
    return inside


def slab_only_labels(dims, mins, cell) -> np.ndarray:
    """A prediction that labels the ground slab's cells and nothing else."""
    cls, z_min, z_max = workloads.SLAB
    zc = mins[2] + (np.arange(dims[2]) + 0.5) * cell
    labels = np.full(dims, FREE, dtype=np.int32)
    labels[:, :, (zc >= z_min) & (zc <= z_max)] = cls
    return labels


def file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


# ------------------------------------------------------------------ the checks

def check_first_hits(first_hits, vol, origins, dirs):
    """The program's traversal against the exact slab oracle."""
    hit, cls, depth = first_hits(vol, origins, dirs)
    o_hit, o_depth, ties = exact_first_hits(vol.labels, vol.mins, vol.cell_size, origins, dirs)
    both = np.flatnonzero(hit & o_hit)
    err = np.abs(depth[both] - o_depth[both])
    known = (cls[both] >= 0) & (cls[both] < ties.shape[1])
    cls_ok = known & ties[both, np.where(known, cls[both], 0)]
    bad = int((hit != o_hit).sum()) + int(((err > 1e-9) | ~cls_ok).sum())
    worst = float(err.max(initial=0.0))
    return bad == 0, f"{bad}/{len(hit)} rays disagree, max depth error {worst:.3g} m"


def check_self_score(metrics, gt, rays, classes):
    """Ground truth scored against itself is exactly 1.0."""
    vox = metrics.iou(gt, gt, classes)
    ray = metrics.ray_iou(gt, gt, rays, classes)
    values = (vox.mean_iou, vox.occupancy_iou, ray.mean_rayiou, ray.occupancy_rayiou)
    return all(v == 1.0 for v in values), "iou, occ_iou, rayiou, occ_rayiou = " + ", ".join(map(str, values))


def check_predicted_labels(qofm: bytes, pred_labels, mins, cell, thr, sample):
    """predict_volume's labels at sampled voxels against our own forward pass."""
    m = read_qofm(qofm)
    ijk = np.stack(np.unravel_index(sample, pred_labels.shape), axis=1)
    q = np.concatenate([np.asarray(mins) + (ijk + 0.5) * cell, np.zeros((len(sample), 1))], axis=1)
    p, logits = own_forward(m, q)
    own = np.where(p >= thr, np.argmax(logits, axis=1), FREE)
    top2 = np.sort(logits, axis=1)[:, -2:] if logits.shape[1] > 1 else np.zeros((len(q), 2))
    ambiguous = (np.abs(p - thr) < 1e-9) | ((p >= thr) & (top2[:, 1] - top2[:, 0] < 1e-9))
    bad = (own != pred_labels.reshape(-1)[sample]) & ~ambiguous
    return not bad.any(), f"{int(bad.sum())}/{len(sample)} sampled voxels differ, {int((own != FREE).sum())} occupied"


def check_fd_gradients(backward, loss, model, batch, cfg, rng, eps=1e-6):
    """Analytic gradients against central differences at sampled parameters."""
    grads, _ = backward(model, batch, cfg)
    picks = []
    touched = np.argwhere(grads.grid != 0)
    for i in rng.choice(len(touched), size=min(3, len(touched)), replace=False):
        picks.append((model.grid.data, grads.grid, tuple(touched[i])))
    untouched = np.argwhere(grads.grid == 0)
    if len(untouched):
        picks.append((model.grid.data, grads.grid, tuple(untouched[rng.integers(len(untouched))])))
    for li in (0, len(model.layers) - 1):
        (w, b), (gw, gb) = model.layers[li], grads.layers[li]
        for _ in range(2):
            picks.append((w, gw, tuple(int(rng.integers(s)) for s in w.shape)))
        picks.append((b, gb, (int(rng.integers(b.shape[0])),)))
    worst = 0.0
    ok = True
    for param, grad, at in picks:
        keep = param[at]
        param[at] = keep + eps
        up = loss(model, batch, cfg).total
        param[at] = keep - eps
        down = loss(model, batch, cfg).total
        param[at] = keep
        fd = (up - down) / (2 * eps)
        gap = abs(fd - grad[at])
        worst = max(worst, gap)
        ok &= gap <= 1e-8 + 1e-5 * abs(grad[at])
    return bool(ok), f"{len(picks)} parameters, max |fd - analytic| {worst:.3g}"


def check_balance(qoqs: bytes):
    """The query set holds as many positives as negatives."""
    occ = read_qoqs(qoqs)["occ"]
    pos, neg = int((occ == 1).sum()), int((occ == 0).sum())
    return pos == neg and pos + neg == len(occ) and pos > 0, f"{pos} positive, {neg} negative"


def check_negative_purity(validation: str, qoqs: bytes):
    """negative_purity is exactly 1.0 on a noise-free scan; no negative sits inside a solid."""
    reported = dict(line.split("=") for line in validation.split())
    qs = read_qoqs(qoqs)
    neg = qs["occ"] == 0
    inside = strictly_inside(qs["queries"][neg, :3], qs["queries"][neg, 3], 1e-4)
    ok = float(reported["negative_purity"]) == 1.0 and not inside.any()
    return ok, f"reported {reported['negative_purity']}, {int(inside.sum())} negatives inside a solid"


def check_scan_returns(w: workloads.Workload, clouds: list[bytes]):
    """Every frame's returns against our own ray-box depths."""
    worst, bad = 0.0, 0
    for frame, blob in enumerate(clouds):
        pc = read_qopc(blob)
        hit, depth, cls, origin, dirs = own_raycast(w, frame)
        expect = origin + depth[hit, None] * dirs[hit]
        if len(expect) != len(pc["positions"]):
            return False, f"frame {frame}: {len(pc['positions'])} returns, expected {len(expect)}"
        gap = np.abs(pc["positions"] - expect).max(axis=1)
        worst = max(worst, float(gap.max(initial=0.0)))
        bad += int(((gap > 1e-4) | (pc["classes"] != cls[hit])
                    | (pc["times"] != workloads.TIMESTEPS[frame])).sum())
    return bad == 0, f"{bad} returns differ, max position error {worst:.3g} m"


def check_beats_slab(mean_rayiou: float, slab_rayiou: float):
    return mean_rayiou > slab_rayiou, f"mean_rayiou {mean_rayiou:.4f} vs slab-only {slab_rayiou:.4f}"


def check_identical(a: dict, b: dict):
    """Two pipelines with one seed wrote byte-identical files."""
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return not differ and bool(a), f"{len(a)} files, differing: {differ or 'none'}"
