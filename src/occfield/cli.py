"""Batch command-line pipeline.

Subcommands: synth, scan, queries, train, eval, inspect-geometry.  Every
command reads one run-config file, writes outputs atomically (temp file +
rename) into the configured output directory, and is idempotent for a fixed
seed.  Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric
divergence, 5 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import bev, field, metrics, supervision
from .config import RunConfig, read_run_config, read_scan_file, read_scene_file
from .errors import ConfigError, FormatError, TrainingDivergedError
from .pointcloud import UNLABELED, PointCloud, write_class_table, read_pointcloud, write_pointcloud
from .scene import raycast_scan, read_voxel_volume, voxelize_ground_truth, write_voxel_volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VALIDATION = 5


def _atomic_write(path: Path, writer) -> None:
    """Write via a temp file in the same directory, then atomically rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        buf = io.BytesIO()
        writer(buf)
        tmp.write_bytes(buf.getvalue())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _resolve_seed(cfg: RunConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    if cfg.seed is not None:
        return cfg.seed
    raise ConfigError("no seed: set [run] seed or pass --seed (wall-clock seeding is not supported)")


def _scan_cloud_path(out: Path, index: int) -> Path:
    return out / f"scan_{index:03d}.qopc"


def cmd_synth(cfg: RunConfig, seed: int) -> None:
    scene = read_scene_file(cfg.scene_path)
    gt = voxelize_ground_truth(scene, cfg.grid.mins, cfg.grid.maxs, cfg.grid.cell_size, time=0.0)
    _atomic_write(cfg.output_dir / "gt.qovx", lambda f: write_voxel_volume(gt, f))
    if scene.classes is not None:
        _atomic_write(
            cfg.output_dir / "classes.txt", lambda f: write_class_table(scene.classes, f)
        )
    print(f"synth: wrote {cfg.output_dir / 'gt.qovx'} ({int(gt.occupancy.sum())} occupied cells)")


def cmd_scan(cfg: RunConfig, seed: int) -> None:
    scene = read_scene_file(cfg.scene_path)
    scan = read_scan_file(cfg.scan_path)
    cloud = raycast_scan(scene, scan, noise_seed=seed)
    for i, t in enumerate(scan.timesteps):
        frame = cloud.take(np.flatnonzero(cloud.times == t))
        _atomic_write(_scan_cloud_path(cfg.output_dir, i), lambda f, fr=frame: write_pointcloud(fr, f))
    print(f"scan: wrote {len(scan.timesteps)} clouds, {len(cloud)} points total")


def _check_classes(path: Path, class_ids: np.ndarray, n_classes: int) -> None:
    """Refuse a file holding a class id that the scene's ``n_classes`` classes
    lack; UNLABELED, the occupancy-only sentinel, names no class."""
    top = int(class_ids.max(initial=0, where=class_ids != UNLABELED))
    if top >= n_classes:
        raise ValueError(f"{path}: class id {top}, but the scene has {n_classes} classes")


def _load_scan_clouds(cfg: RunConfig, n_classes: int | None = None) -> list[PointCloud]:
    """The scan's clouds, each checked against ``n_classes`` classes if given."""
    n_frames = len(read_scan_file(cfg.scan_path).timesteps)
    clouds = []
    for i in range(n_frames):
        path = _scan_cloud_path(cfg.output_dir, i)
        clouds.append(read_pointcloud(path))
        if n_classes is not None:
            _check_classes(path, clouds[-1].class_ids, n_classes)
    return clouds


def cmd_queries(cfg: RunConfig, seed: int) -> None:
    scene = read_scene_file(cfg.scene_path)
    sampling = dataclasses.replace(cfg.sampling, seed=seed)
    batch = supervision.build_query_set(_load_scan_clouds(cfg, scene.n_classes), sampling)
    report = supervision.validate_against_oracle(batch, scene)
    _atomic_write(cfg.output_dir / "queries.qoqs", lambda f: supervision.write_query_batch(batch, f))
    _atomic_write(
        cfg.output_dir / "validation.txt", lambda f: f.write(report.lines().encode())
    )
    print(f"queries: {len(batch)} samples; " + report.lines().replace("\n", " ").strip())


def _init_model(cfg: RunConfig, seed: int, n_classes: int) -> field.FieldModel:
    ts = cfg.train
    return field.init_field_model(
        contraction=ts.contraction(),
        n_classes=n_classes,
        grid_size=ts.grid_size,
        grid_channels=ts.grid_channels,
        fourier=ts.fourier(),
        hidden_width=ts.hidden_width,
        hidden_layers=ts.hidden_layers,
        seed=seed,
    )


def cmd_train(cfg: RunConfig, seed: int) -> None:
    scene = read_scene_file(cfg.scene_path)
    weights = None
    if scene.classes is not None:
        weights = field.log_frequency_weights(scene.classes.frequencies)
    model = _init_model(cfg, seed, scene.n_classes)
    tc = dataclasses.replace(cfg.train, seed=seed, class_weights=weights)
    if cfg.train.mode == "query":
        path = cfg.output_dir / "queries.qoqs"
        batch = supervision.read_query_batch(path)
        _check_classes(path, batch.classes, scene.n_classes)
        model, history = field.train(model, batch, tc)
    else:
        clouds = [cfg.sampling.window(pc) for pc in _load_scan_clouds(cfg, scene.n_classes)]
        rays = field.rays_from_pointcloud(PointCloud.concat(clouds))
        model, history = field.train_rendering_baseline(model, rays, tc)
    _atomic_write(cfg.output_dir / "model.qofm", lambda f: field.write_field_model(model, f))
    _atomic_write(cfg.output_dir / "loss.csv", lambda f: field.write_loss_csv(history, f))
    print(
        f"train[{cfg.train.mode}]: {len(history)} steps, "
        f"final loss {history[-1].total:.4f}"
    )


def cmd_eval(cfg: RunConfig, seed: int) -> None:
    scene = read_scene_file(cfg.scene_path)
    model = field.read_field_model(cfg.output_dir / "model.qofm")
    gt_path = cfg.output_dir / "gt.qovx"
    gt = read_voxel_volume(gt_path)
    _check_classes(gt_path, gt.labels, scene.n_classes)
    pred = metrics.predict_volume(
        model, cfg.grid.mins, cfg.grid.maxs, cfg.grid.cell_size,
        time=0.0, occ_threshold=cfg.metrics.occ_threshold,
    )
    if cfg.metrics.ray_source == "scan":
        rays = metrics.rays_from_scan(read_scan_file(cfg.scan_path), cfg.metrics.tolerances)
    else:
        origin = read_scan_file(cfg.scan_path).origins()[0]
        rays = metrics.rays_to_gt_surface(gt, origin, cfg.metrics.tolerances)
    vox = metrics.iou(pred, gt, scene.classes)
    ray = metrics.ray_iou(pred, gt, rays, scene.classes)
    _atomic_write(
        cfg.output_dir / "metrics.csv",
        lambda f: metrics.write_metrics_csv(vox, ray, f, scene.classes),
    )
    _atomic_write(
        cfg.output_dir / "ray_counts.csv",
        lambda f: metrics.write_ray_counts_csv(ray, f, scene.classes),
    )
    print("eval: mean_iou,dyn_iou,occ_iou,mean_rayiou,dyn_rayiou,occ_rayiou")
    print("eval: " + metrics.summary_line(vox, ray))


def cmd_inspect_geometry(cfg: RunConfig, seed: int) -> None:
    ts = cfg.train
    cloud = PointCloud.concat(_load_scan_clouds(cfg))
    grid = bev.splat_pointcloud(cloud, bev.BevGrid(ts.grid_size, ts.grid_size, 1, ts.contraction()))
    _atomic_write(
        cfg.output_dir / "bev_mass.ppm", lambda f: f.write(bev.grid_to_ppm(grid))
    )
    print(f"inspect-geometry: wrote the scan's BEV mass image to {cfg.output_dir}")


_COMMANDS = {
    "synth": cmd_synth,
    "scan": cmd_scan,
    "queries": cmd_queries,
    "train": cmd_train,
    "eval": cmd_eval,
    "inspect-geometry": cmd_inspect_geometry,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="occfield",
        description="Synthetic-scene occupancy-field pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config (INI)")
        p.add_argument("--seed", type=int, default=None, help="overrides [run] seed")
    args = parser.parse_args(argv)

    try:
        cfg = read_run_config(Path(args.config))
        seed = _resolve_seed(cfg, args)
        _COMMANDS[args.command](cfg, seed)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except TrainingDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
