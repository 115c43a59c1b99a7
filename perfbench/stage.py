"""Run one pipeline stage in a process of its own, as a CLI user would.

    python3 perfbench/stage.py STAGE RUN_INI RESULT_JSON [--trace]

STAGE is one of synth, scan, queries, train (each through ``occfield.cli``)
or eval (``predict_volume``, ``iou`` and ``ray_iou`` on the model read back
from ``model.qofm``).  The result file records when the imports finished,
the stage's wall time, the process's peak resident memory and, with
``--trace``, the spans of every layer.  Run it from the checkout root.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import occfield  # noqa: E402,F401  (imports every module of the package)
from occfield import cli, field, metrics  # noqa: E402
from occfield.config import read_run_config, read_scan_file, read_scene_file  # noqa: E402
from occfield.scene import VoxelVolume, read_voxel_volume  # noqa: E402

READY = time.perf_counter()


def run_eval(run_ini: Path) -> dict:
    """Predict the trained model on the config's grid and score it once, as ``occfield eval`` does.

    ``gt.qovx`` stores its grid header as float32, so the volume read back
    is re-anchored on the config's exact grid before it is compared.
    """
    cfg = read_run_config(run_ini)
    classes = read_scene_file(cfg.scene_path).classes
    model = field.read_field_model(cfg.output_dir / "model.qofm")
    gt_file = read_voxel_volume(cfg.output_dir / "gt.qovx")
    gt = VoxelVolume(gt_file.labels, cfg.grid.mins, cfg.grid.cell_size)
    rays = metrics.rays_from_scan(read_scan_file(cfg.scan_path), cfg.metrics.tolerances)
    t0 = time.perf_counter()
    pred = metrics.predict_volume(
        model, cfg.grid.mins, cfg.grid.maxs, cfg.grid.cell_size,
        time=0.0, occ_threshold=cfg.metrics.occ_threshold,
    )
    predict_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    vox = metrics.iou(pred, gt, classes)
    ray = metrics.ray_iou(pred, gt, rays, classes)
    score_s = time.perf_counter() - t1
    np.save(cfg.output_dir / "pred.npy", pred.labels)
    return {
        "voxels": int(pred.labels.size),
        "predict_s": predict_s,
        "score_s": score_s,
        "mean_iou": vox.mean_iou,
        "occ_iou": vox.occupancy_iou,
        "mean_rayiou": ray.mean_rayiou,
        "occ_rayiou": ray.occupancy_rayiou,
    }


def main(argv) -> int:
    stage, run_ini, result_path = argv[0], Path(argv[1]), Path(argv[2])
    rec = None
    if "--trace" in argv[3:]:
        import spans

        rec = spans.Recorder()
        spans.install(rec, {
            name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "occfield" or name.startswith("occfield.")
        })
    extra = {}
    start = time.perf_counter()
    if stage == "eval":
        extra = run_eval(run_ini)
        code = 0
    else:
        code = cli.main([stage, "--config", str(run_ini)])
    end = time.perf_counter()
    result = {
        "ready": READY,
        "start": start,
        "end": end,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "extra": extra,
        "spans": rec.export() if rec else None,
    }
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
