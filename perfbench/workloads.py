"""Workload inputs: the scene, scan, class table and run config of each workload.

Every workload scans the acceptance scene (a ground slab, three static boxes
and one moving box) without noise.  The program always runs with
``PROGRAM_SEED``, which drives query sampling, model initialisation and the
training batch order, so each workload's outputs and ``final_loss`` are
exactly reproducible and a change to the numerics shows in them.  The
benchmark's ``--seed`` picks what the output checks sample.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

CLASSES = "ground,0.85,0\nwall,0.06,0\nblock,0.03,0\nshelf,0.04,0\nmover,0.02,1\n"

# (name, class id, center, size, velocity); all faces sit on 0.4 m grid lines
BOXES = (
    ("wall", 1, (-6.0, 4.0, 0.8), (4.8, 1.6, 0.8), (0.0, 0.0, 0.0)),
    ("block", 2, (5.2, -3.0, 0.8), (2.4, 2.4, 0.8), (0.0, 0.0, 0.0)),
    ("shelf", 3, (2.0, 4.0, 0.8), (3.2, 1.6, 0.8), (0.0, 0.0, 0.0)),
    ("mover", 4, (0.4, -4.2, 0.8), (1.6, 1.6, 0.8), (0.4, 0.0, 0.0)),
)
SLAB = (0, -0.4, 0.0)  # class id, z_min, z_max
TIMESTEPS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
ORIGIN_START = (0.1, 0.0, 4.0)
ORIGIN_VELOCITY = (4.0, 0.0, 0.0)
ELEVATION = (-1.4, 0.0)
MAX_RANGE = 60.0
PROGRAM_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    azimuth_count: int
    elevation_count: int
    mode: str
    total_steps: int
    batch_size: int
    grid_xy: float  # eval grid spans [-grid_xy, grid_xy] in x and y
    cell_size: float
    check_rays: int  # rays the exact first-hit oracle replays per volume
    evals: int  # eval processes per round, all on the first trained pipeline


WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-train", 200, 100, "query", 40, 2048, 20.0, 0.4, 500, 3),
        Workload("render-train", 200, 100, "rendering", 6, 256, 20.0, 0.4, 500, 3),
        Workload("dense-eval", 260, 110, "query", 16, 2048, 10.0, 0.2, 300, 2),
    )
}


def scene_text() -> str:
    lines = ["[scene]", "bounds = 30.0", "classes = classes.txt", ""]
    cls, z_min, z_max = SLAB
    lines += ["[slab:ground]", f"class = {cls}", f"z_min = {z_min}", f"z_max = {z_max}", ""]
    for name, cls, center, size, vel in BOXES:
        lines += [
            f"[box:{name}]",
            f"class = {cls}",
            "center = " + " ".join(map(str, center)),
            "size = " + " ".join(map(str, size)),
            "velocity = " + " ".join(map(str, vel)),
            "",
        ]
    return "\n".join(lines)


def scan_text(w: Workload) -> str:
    return "\n".join([
        "[scan]",
        "timesteps = " + " ".join(map(str, TIMESTEPS)),
        f"max_range = {MAX_RANGE}",
        "noise_sigma = 0.0",
        "",
        "[origin]",
        "start = " + " ".join(map(str, ORIGIN_START)),
        "velocity = " + " ".join(map(str, ORIGIN_VELOCITY)),
        "",
        "[rays]",
        f"azimuth_count = {w.azimuth_count}",
        f"elevation_count = {w.elevation_count}",
        f"elevation_min = {ELEVATION[0]}",
        f"elevation_max = {ELEVATION[1]}",
        "",
    ])


def run_text(w: Workload) -> str:
    g = w.grid_xy
    return "\n".join([
        "[run]",
        "scene = scene.ini",
        "scan = scan.ini",
        "output_dir = out",
        f"seed = {PROGRAM_SEED}",
        "",
        "[sampling]",
        "delta = 0.4",
        "n_neg_per_point = 2",
        "n_pos_per_point = 2",
        "t_min = -1.5",
        "t_max = 1.5",
        "",
        "[train]",
        f"mode = {w.mode}",
        "learning_rate = 5e-3",
        "warmup_steps = 10",
        f"total_steps = {w.total_steps}",
        f"batch_size = {w.batch_size}",
        "grid_size = 320",
        "grid_channels = 16",
        "k_hr = 20.0",
        "beta = 0.8",
        "",
        "[grid]",
        f"x_min = {-g}",
        f"x_max = {g}",
        f"y_min = {-g}",
        f"y_max = {g}",
        "z_min = -0.4",
        "z_max = 2.0",
        f"cell_size = {w.cell_size}",
        "",
        "[metrics]",
        "occ_threshold = 0.5",
        "tolerances = 1 2 4",
        "ray_source = scan",
        "",
    ])


def write_inputs(w: Workload, directory: Path) -> Path:
    """Write the workload's input files; returns the run config path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "classes.txt").write_text(CLASSES)
    (directory / "scene.ini").write_text(scene_text())
    (directory / "scan.ini").write_text(scan_text(w))
    run = directory / "run.ini"
    run.write_text(run_text(w))
    return run
