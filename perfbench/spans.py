"""Span recorder for the traced run.

It wraps functions of the ``occfield`` modules from outside, so the program
itself carries no tracing code.  Each wrapped call is a span; a span's self
time is its duration minus the time of the spans it encloses.  The
recorder's own bookkeeping (counting rows, diffing optimizer parameters) is
timed apart as ``overhead_s`` and charged to no span, so the self times of
one stage plus that overhead add up to the stage's wall time.  Everything
stays in memory until ``export``.
"""

from __future__ import annotations

import io
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

INFER = "field.infer"


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _io_bytes(target) -> int:
    if isinstance(target, (str, Path)):
        return os.path.getsize(target)
    if isinstance(target, io.BytesIO):
        return target.getbuffer().nbytes
    return 0


class Recorder:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self.overhead_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span name, time spent in children]

    def wrap(self, name, fn, count=None, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs ahead of the call and its result is handed to
        ``count(args, result, state, duration)``; both are bookkeeping.
        """
        rec = self

        def traced(*args, **kwargs):
            t_pre = time.perf_counter()
            state = before(args) if before else None
            start = time.perf_counter()
            frame = [name, 0.0]
            rec._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
            rec.self_s[name] += (end - start) - frame[1]
            if count:
                count(args, result, state, end - start)
            done = time.perf_counter()
            rec.overhead_s += (start - t_pre) + (done - end)
            if rec._stack:
                rec._stack[-1][1] += done - t_pre
            return result

        return traced

    def export(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "values": dict(self.values),
            "overhead_s": self.overhead_s,
            "absent": list(self.absent),
        }


def _replace(modules, original, replacement) -> None:
    """Rebind every module-level name that refers to ``original``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(rec: Recorder, occfield_modules: dict) -> None:
    """Wrap the layer boundaries of the imported ``occfield`` modules.

    A missing entry point is listed in ``rec.absent``; its metrics stay 0.
    """
    mods = list(occfield_modules.values())
    field = occfield_modules["field"]

    def add(key, value):
        rec.counts[key] += value

    def func(module, attr, name, count=None, before=None):
        mod = occfield_modules[module]
        original = getattr(mod, attr, None)
        if original is None:
            rec.absent.append(f"{module}.{attr}")
            return
        _replace(mods, original, rec.wrap(name, original, count, before))

    # forward passes: a _forward_raw call made by forward_batch belongs to
    # the inference span that encloses it; any other keeps a backprop cache
    raw = getattr(field, "_forward_raw", None)
    if raw is None:
        rec.absent.append("field._forward_raw")
    else:
        forward_span = rec.wrap(
            "field.forward", raw,
            lambda a, r, s, d: add("field.forward_rows", len(r[0])),
        )

        def forward_raw(*args, **kwargs):
            if not (rec._stack and rec._stack[-1][0] == INFER):
                return forward_span(*args, **kwargs)
            result = raw(*args, **kwargs)
            t0 = time.perf_counter()
            size = _nbytes(result[-1])
            rec.peaks["field.cache_bytes"] = max(rec.peaks["field.cache_bytes"], size)
            book = time.perf_counter() - t0
            rec.overhead_s += book
            rec._stack[-1][1] += book
            return result

        _replace(mods, raw, forward_raw)

    func("field", "forward_batch", INFER,
         lambda a, r, s, d: add("field.infer_rows", len(r[0])))
    func("field", "_backward_from_output_grads", "field.backward",
         lambda a, r, s, d: add("field.backward_rows", len(a[1][0])))
    func("field", "_loss_terms", "field.loss")
    func("field", "_composite_backward", "field.composite")

    def loop_count(a, r, s, d):
        add("field.steps", len(r[1]))
        add("field.loop_wall_s", d)

    func("field", "train", "field.loop", loop_count)
    func("field", "train_rendering_baseline", "field.loop", loop_count)
    func("field", "write_field_model", "field.io",
         lambda a, r, s, d: add("field.io_bytes", _io_bytes(a[1])))
    func("field", "read_field_model", "field.io",
         lambda a, r, s, d: add("field.io_bytes", _io_bytes(a[0])))

    adamw = getattr(field, "_AdamW", None)
    if adamw is None or not hasattr(adamw, "step"):
        rec.absent.append("field._AdamW.step")
    else:
        # The grid is compared cell by cell through its channel sums, which
        # costs a fraction of copying it; the small MLP arrays are copied.
        def snapshot(args):
            params = args[0].params
            return [params[0].sum(axis=-1)] + [p.copy() for p in params[1:]]

        def opt_count(args, result, before, d):
            params, grads = args[0].params, args[1]
            cells = int(np.count_nonzero(before[0] != params[0].sum(axis=-1)))
            mlp = sum(int(np.count_nonzero(b != p)) for b, p in zip(before[1:], params[1:]))
            add("field.optimizer_elems", cells * params[0].shape[-1] + mlp)
            add("field.grid_grad_cells", int(np.any(grads[0] != 0, axis=-1).sum()))
            add("field.grid_updated_cells", cells)

        adamw.step = rec.wrap("field.optimizer", adamw.step, opt_count, snapshot)

    func("geometry", "fourier_encode_batch", "geometry.fourier",
         lambda a, r, s, d: add("geometry.fourier_values", np.size(a[0])))
    func("bev", "bilinear_setup", "bev.bilinear",
         lambda a, r, s, d: add("bev.bilinear_queries", np.size(a[0])))

    func("metrics", "predict_volume", "metrics.predict",
         lambda a, r, s, d: add("metrics.predict_voxels", r.labels.size))
    func("metrics", "first_hits", "metrics.first_hits",
         lambda a, r, s, d: add("metrics.first_hits_rays", len(a[1])))
    func("metrics", "iou", "metrics.iou")
    func("metrics", "ray_iou", "metrics.ray_score")

    func("scene", "voxelize_ground_truth", "scene.voxelize",
         lambda a, r, s, d: add("scene.voxelize_cells", r.labels.size))
    func("scene", "raycast_scan", "scene.raycast",
         lambda a, r, s, d: add("scene.raycast_points", len(r)))
    func("scene", "oracle_query_batch", "scene.oracle",
         lambda a, r, s, d: add("scene.oracle_queries", len(r[0])))
    func("scene", "write_voxel_volume", "scene.io",
         lambda a, r, s, d: add("scene.io_bytes", _io_bytes(a[1])))
    func("scene", "read_voxel_volume", "scene.io",
         lambda a, r, s, d: add("scene.io_bytes", _io_bytes(a[0])))

    func("supervision", "build_query_set", "supervision.build",
         lambda a, r, s, d: add("supervision.queries", len(r)))

    def validate_count(a, r, s, d):
        rec.values["supervision.positive_purity"] = r.positive_purity

    func("supervision", "validate_against_oracle", "supervision.validate", validate_count)
    func("supervision", "write_query_batch", "supervision.io",
         lambda a, r, s, d: add("supervision.io_bytes", _io_bytes(a[1])))
    func("supervision", "read_query_batch", "supervision.io",
         lambda a, r, s, d: add("supervision.io_bytes", _io_bytes(a[0])))

    func("pointcloud", "write_pointcloud", "pointcloud.io",
         lambda a, r, s, d: add("pointcloud.io_bytes", _io_bytes(a[1])))
    func("pointcloud", "read_pointcloud", "pointcloud.io",
         lambda a, r, s, d: add("pointcloud.io_bytes", _io_bytes(a[0])))
