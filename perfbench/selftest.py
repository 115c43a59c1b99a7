"""Toy-size self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it takes a few seconds.  Every check
must pass on correct toy data and fail once the data is broken in one
place: a first-hit depth shifted by one cell, a relabelled voxel, a scaled
gradient, a flipped query label, a return moved along its ray.  Exits 1 if
any check fails to tell the two apart.
"""

from __future__ import annotations

import dataclasses
import io
import os
import shutil
import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from occfield import field, metrics, supervision  # noqa: E402
from occfield.config import read_scan_file, read_scene_file  # noqa: E402
from occfield.geometry import ContractionParams, FourierConfig  # noqa: E402
from occfield.pointcloud import write_pointcloud  # noqa: E402
from occfield.scene import FREE, VoxelVolume, raycast_scan  # noqa: E402


def toy_volume(rng) -> VoxelVolume:
    labels = np.full((12, 12, 6), FREE, dtype=np.int32)
    labels[:, :, 0] = 0
    labels[3:6, 4:8, 1:4] = 1
    labels[8:10, 2:4, 1:3] = 2
    return VoxelVolume(labels, np.array([-2.4, -2.4, -0.4]), 0.4)


def toy_rays(rng, n=300):
    origins = np.tile([0.1, 0.05, 3.0], (n, 1)) + rng.uniform(-0.3, 0.3, (n, 3))
    d = np.column_stack([rng.normal(size=n), rng.normal(size=n), -np.abs(rng.normal(size=n)) - 0.3])
    return origins, d / np.linalg.norm(d, axis=1, keepdims=True)


def toy_model(seed=3) -> field.FieldModel:
    rng = np.random.default_rng(seed)
    model = field.init_field_model(
        ContractionParams(5.0, 0.8), n_classes=3, grid_size=8, grid_channels=4,
        fourier=FourierConfig(2, 1.0, 4.0), hidden_width=16, hidden_layers=2, seed=seed,
    )
    model.grid.data[:] = rng.normal(0, 0.5, model.grid.data.shape)
    w, b = model.layers[-1]
    w[:] = rng.normal(0, 0.5, w.shape)
    return model


def toy_batch(rng, n=64) -> supervision.QueryBatch:
    q = np.column_stack([rng.uniform(-3, 3, (n, 3)), rng.uniform(-1, 1, n)])
    occ = np.arange(n) % 2
    cls = np.where(occ == 1, rng.integers(0, 3, n), 0xFFFF)
    return supervision.QueryBatch(q, occ, cls)


def qoqs_bytes(batch) -> bytes:
    buf = io.BytesIO()
    supervision.write_query_batch(batch, buf)
    return buf.getvalue()


def main() -> int:
    rng = np.random.default_rng(0)
    cases = []  # (check, passes on good data, fails on broken data)

    vol = toy_volume(rng)
    o, d = toy_rays(rng)

    def shifted(v, o, d):
        hit, cls, depth = metrics.first_hits(v, o, d)
        return hit, cls, np.where(hit, depth + v.cell_size, depth)

    def relabelled(v, o, d):
        hit, cls, depth = metrics.first_hits(v, o, d)
        return hit, np.where(cls == 1, 2, cls), depth

    good = checks.check_first_hits(metrics.first_hits, vol, o, d)
    cases.append(("first_hits, depth +1 cell", good, checks.check_first_hits(shifted, vol, o, d)))
    cases.append(("first_hits, class relabelled", good, checks.check_first_hits(relabelled, vol, o, d)))

    def one_voxel_off(v):
        labels = v.labels.copy()
        labels[5, 5, 2] = 2
        return VoxelVolume(labels, v.mins, v.cell_size)

    rays = metrics.RayIoUConfig(o, d)
    broken = types.SimpleNamespace(
        iou=lambda p, g, c: metrics.iou(one_voxel_off(p), g, c), ray_iou=metrics.ray_iou)
    cases.append(("self_score, relabelled voxel", checks.check_self_score(metrics, vol, rays, None),
                  checks.check_self_score(broken, vol, rays, None)))

    model = toy_model()
    buf = io.BytesIO()
    field.write_field_model(model, buf)
    saved = field.read_field_model(io.BytesIO(buf.getvalue()))
    pred = metrics.predict_volume(saved, vol.mins, vol.maxs, vol.cell_size)
    sample = rng.choice(pred.labels.size, size=200, replace=False)
    wrong = pred.labels.copy().reshape(-1)
    wrong[sample[0]] = FREE if wrong[sample[0]] != FREE else 0
    cases.append(("predicted_labels, relabelled voxel",
                  checks.check_predicted_labels(buf.getvalue(), pred.labels, vol.mins, vol.cell_size, 0.5, sample),
                  checks.check_predicted_labels(buf.getvalue(), wrong.reshape(pred.labels.shape),
                                                vol.mins, vol.cell_size, 0.5, sample)))

    batch = toy_batch(rng)
    cfg = field.TrainConfig()

    def scaled_backward(m, b, c):
        g, r = field.backward(m, b, c)
        return field.Gradients(g.grid * 1.01, g.layers), r

    cases.append(("fd_gradients, gradient x1.01",
                  checks.check_fd_gradients(field.backward, field.loss, model, batch, cfg, np.random.default_rng(1)),
                  checks.check_fd_gradients(scaled_backward, field.loss, model, batch, cfg, np.random.default_rng(1))))

    blob = qoqs_bytes(batch)
    flipped = bytearray(blob)
    flipped[18 + 16] ^= 1  # occupancy byte of the first record
    cases.append(("query_balance, flipped label", checks.check_balance(blob), checks.check_balance(bytes(flipped))))

    free = batch.take(np.flatnonzero(batch.occupancy == 0))
    free.queries[:, 2] = 3.0  # above every solid
    inside = free.take(np.arange(len(free)))
    inside.queries[0, :3] = workloads.BOXES[0][2]
    report = "negative_purity=1.000000\npositive_purity=1.000000\n"
    cases.append(("negative_purity, negative inside a box",
                  checks.check_negative_purity(report, qoqs_bytes(free)),
                  checks.check_negative_purity(report, qoqs_bytes(inside))))

    tmp = Path.cwd() / "perfbench" / "out" / f"selftest-{os.getpid()}"
    try:
        w = dataclasses.replace(workloads.WORKLOADS["query-train"], azimuth_count=24, elevation_count=8)
        run_ini = workloads.write_inputs(w, tmp)
        scan = read_scan_file(run_ini.parent / "scan.ini")
        cloud = raycast_scan(read_scene_file(run_ini.parent / "scene.ini"), scan)
        frames = [cloud.take(np.flatnonzero(cloud.times == t)) for t in scan.timesteps]

        def encode(frames):
            out = []
            for f in frames:
                b = io.BytesIO()
                write_pointcloud(f, b)
                out.append(b.getvalue())
            return out

        moved = [f.take(np.arange(len(f))) for f in frames]
        ray = moved[0].positions[0] - moved[0].origins[0]
        moved[0].positions[0] += 0.4 * ray / np.linalg.norm(ray)
        cases.append(("scan_returns, return moved 0.4 m", checks.check_scan_returns(w, encode(frames)),
                      checks.check_scan_returns(w, encode(moved))))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cases.append(("beats_slab_only, slab-only itself", checks.check_beats_slab(0.3, 0.18),
                  checks.check_beats_slab(0.18, 0.18)))
    hashes = {"model.qofm": "ab", "loss.csv": "cd"}
    cases.append(("identical, one file differs", checks.check_identical(hashes, dict(hashes)),
                  checks.check_identical(hashes, dict(hashes, **{"loss.csv": "ce"}))))

    failures = 0
    for name, (ok_good, detail_good), (ok_bad, detail_bad) in cases:
        sound = ok_good and not ok_bad
        failures += not sound
        print(f"{'ok  ' if sound else 'FAIL'} {name}: good -> {detail_good}; broken -> {detail_bad}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
