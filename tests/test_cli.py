import ast
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import occfield
from occfield import (
    field, iou, metrics, ray_iou, read_pointcloud, read_query_batch, read_voxel_volume,
    rays_from_scan,
)
from occfield.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from occfield.config import read_run_config, read_scan_file
from occfield.scene import VoxelVolume
from slab_oracle import exact_hits

SCENE = """\
[scene]
bounds = 20.0
classes = classes.txt

[slab:ground]
class = 0
z_min = -0.4
z_max = 0.0

[box:block]
class = 1
center = 2.0 0.8 0.8
size = 1.6 1.6 0.8

[box:mover]
class = 2
center = -1.6 -2.0 0.8
size = 0.8 0.8 0.8
velocity = 0.4 0.0 0.0
"""

SCAN = """\
[scan]
timesteps = -0.5 0.0 0.5
max_range = 20.0

[origin]
start = 0.1 0.0 3.0
velocity = 1.0 0.0 0.0

[rays]
azimuth_count = 48
elevation_count = 12
elevation_min = -1.2
elevation_max = -0.1
"""

RUN = """\
[run]
scene = scene.ini
scan = scan.ini
output_dir = out
seed = 3

[train]
mode = {mode}
learning_rate = 5e-3
warmup_steps = 5
total_steps = 20
batch_size = 256
grid_size = 24
grid_channels = 4
hidden_width = 24
hidden_layers = 2
fourier_bands = 4
k_hr = 4.0
render_coarse = 8
render_importance = 4
{extra}
[grid]
x_min = -4.0
x_max = 4.0
y_min = -4.0
y_max = 4.0
z_min = -0.4
z_max = 2.0
cell_size = 0.4
"""

PREP = ("synth", "scan", "queries")


def _write_run(tmp_path, mode="query", extra=""):
    (tmp_path / "classes.txt").write_text("ground,0.8,0\nblock,0.15,0\nmover,0.05,1\n")
    (tmp_path / "scene.ini").write_text(SCENE)
    (tmp_path / "scan.ini").write_text(SCAN)
    run = tmp_path / "run.ini"
    run.write_text(RUN.format(mode=mode, extra=extra))
    return run


def _run(run, *commands):
    return [main([c, "--config", str(run)]) for c in commands]


def test_all_six_commands(tmp_path):
    run = _write_run(tmp_path)
    commands = (*PREP, "train", "eval", "inspect-geometry")
    assert _run(run, *commands) == [EXIT_OK] * 6
    out = tmp_path / "out"
    expected = [
        "gt.qovx", "classes.txt", "scan_000.qopc", "scan_001.qopc", "scan_002.qopc",
        "queries.qoqs", "validation.txt", "model.qofm", "loss.csv", "metrics.csv",
        "ray_counts.csv", "bev_mass.ppm",
    ]
    for name in expected:
        assert (out / name).stat().st_size > 0, name
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    assert len((out / "loss.csv").read_text().splitlines()) == 21
    summary = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert len(summary) == 6 and all(0.0 <= float(v) <= 1.0 for v in summary if v)


def test_bev_mass_image_is_pinned(tmp_path):
    run = _write_run(tmp_path)
    assert _run(run, "scan", "inspect-geometry") == [EXIT_OK] * 2
    image = (tmp_path / "out" / "bev_mass.ppm").read_bytes()
    assert hashlib.sha256(image).hexdigest() == (
        "6103ff3ac0dcc704b70ca4ceddef591fbc374c052435b6789ff9856628396237"
    )


def test_inspect_geometry_before_scan_is_an_io_error(tmp_path, capsys):
    run = _write_run(tmp_path)
    assert _run(run, "inspect-geometry") == [EXIT_IO]
    assert "scan_000.qopc" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bev_mass.ppm").exists()


def test_ground_truth_scores_one_against_itself(tmp_path, monkeypatch):
    run = _write_run(tmp_path)
    assert _run(run, "synth") == [EXIT_OK]
    cfg = read_run_config(run)
    gt = read_voxel_volume(cfg.output_dir / "gt.qovx")
    # the file keeps the config's grid exactly, as eval's prediction has it
    assert gt.cell_size == cfg.grid.cell_size
    np.testing.assert_array_equal(gt.mins, cfg.grid.mins)
    config_grid = VoxelVolume(gt.labels, cfg.grid.mins, cfg.grid.cell_size)
    rays = rays_from_scan(read_scan_file(cfg.scan_path))
    vox = iou(config_grid, gt)
    assert vox.mean_iou == 1.0 and vox.occupancy_iou == 1.0

    def exact(g, o, d, p):
        return (*exact_hits(g, o, d), *exact_hits(p, o, d))

    for walk in (metrics.first_hits, exact):
        monkeypatch.setattr(metrics, "first_hits", walk)
        rep = ray_iou(config_grid, gt, rays)
        assert rep.mean_rayiou == 1.0 and rep.occupancy_rayiou == 1.0
        assert rep.occ_ray_counts.any()  # some ray hits: not the vacuous 1.0


def _ground_truth_eval(tmp_path, monkeypatch, extra=""):
    """Run eval with the ground truth as the prediction; return metrics.csv
    rows and the ray_counts.csv columns (class, tolerance) pairs, tp, fp, fn."""
    run = _write_run(tmp_path, extra=extra)
    assert _run(run, *PREP, "train") == [EXIT_OK] * 4
    out = tmp_path / "out"
    gt = read_voxel_volume(out / "gt.qovx")
    monkeypatch.setattr(metrics, "predict_volume", lambda *args, **kwargs: gt)
    assert _run(run, "eval") == [EXIT_OK]
    lines = (out / "ray_counts.csv").read_text().splitlines()
    assert lines[0] == "class,tolerance,tp,fp,fn"
    rows = [line.split(",") for line in lines[1:]]
    tp, fp, fn = (np.array([int(r[k]) for r in rows]) for k in (2, 3, 4))
    scores = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
    return scores, [(r[0], r[1]) for r in rows], tp, fp, fn


def test_ground_truth_eval_counts_no_false_rays(tmp_path, monkeypatch):
    _, keys, tp, fp, fn = _ground_truth_eval(tmp_path, monkeypatch)
    names = ["ground", "block", "mover", "occupancy"]
    assert keys == [(c, t) for c in names for t in ("1.0", "2.0", "4.0")]
    assert tp[-1] > 0 and not fp.any() and not fn.any()
    # every occupancy hit is a class hit at every tolerance
    np.testing.assert_array_equal(tp[-3:], tp[:-3].reshape(3, 3).sum(axis=0))


def test_ground_truth_eval_with_surface_rays_scores_one(tmp_path, monkeypatch):
    scores, _, tp, fp, fn = _ground_truth_eval(tmp_path, monkeypatch, "[metrics]\nray_source = surface\n")
    assert tp[-1] > 0 and not fp.any() and not fn.any()
    np.testing.assert_array_equal(tp[-3:], tp[:-3].reshape(3, 3).sum(axis=0))
    per_class, summary = scores[1:4], scores[-1]
    assert [row[:3] for row in per_class] == [[c, "1.000000", "1.000000"] for c in ("ground", "block", "mover")]
    assert summary == ["1.000000"] * 6


@pytest.mark.parametrize("mode", ["query", "rendering"])
def test_divergence_exits_4(tmp_path, capsys, mode):
    run = _write_run(tmp_path, mode=mode, extra="render_far = 20.0\n")
    run.write_text(run.read_text().replace("learning_rate = 5e-3", "learning_rate = 1e300"))
    assert _run(run, *PREP) == [EXIT_OK] * 3
    with np.errstate(all="ignore"):
        assert _run(run, "train") == [EXIT_DIVERGED]
    assert "diverged" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.qofm").exists()


def test_zero_class_model_is_a_validation_error(tmp_path, capsys):
    run = _write_run(tmp_path)
    assert _run(run, *PREP, "train") == [EXIT_OK] * 4
    path = tmp_path / "out" / "model.qofm"
    blob = bytearray(path.read_bytes())
    # magic, <II version and size count, the layer sizes, then n_classes
    off = 12 + 4 * struct.unpack_from("<I", blob, 8)[0]
    struct.pack_into("<I", blob, off, 0)
    path.write_bytes(bytes(blob))
    assert _run(run, "eval") == [EXIT_VALIDATION]
    assert "n_classes" in capsys.readouterr().err


def test_rendering_mode_trains(tmp_path):
    run = _write_run(tmp_path, mode="rendering", extra="render_far = 20.0\n")
    text = run.read_text().replace("total_steps = 20", "total_steps = 2")
    run.write_text(text.replace("batch_size = 256", "batch_size = 16"))
    assert _run(run, *PREP, "train") == [EXIT_OK] * 4
    assert len((tmp_path / "out" / "loss.csv").read_text().splitlines()) == 3


def test_both_modes_train_on_the_frames_inside_the_window(tmp_path, monkeypatch):
    run = _write_run(tmp_path, mode="rendering", extra="render_far = 20.0\n")
    text = run.read_text().replace("total_steps = 20", "total_steps = 2")
    run.write_text(text.replace("batch_size = 256", "batch_size = 16"))
    # the default window is [-1.5, 1.5]: the frame at 2.0 lies outside it
    scan = tmp_path / "scan.ini"
    scan.write_text(SCAN.replace("timesteps = -0.5 0.0 0.5", "timesteps = -0.5 0.0 0.5 2.0"))
    assert _run(run, *PREP) == [EXIT_OK] * 3
    seen = []
    original = field.train_rendering_baseline

    def recording(model, rays, cfg):
        seen.append(rays)
        return original(model, rays, cfg)

    monkeypatch.setattr(field, "train_rendering_baseline", recording)
    assert _run(run, "train") == [EXIT_OK]
    out = tmp_path / "out"
    assert len(read_pointcloud(out / "scan_003.qopc")) > 0
    queries = read_query_batch(out / "queries.qoqs")
    np.testing.assert_array_equal(np.unique(seen[0].times), [-0.5, 0.0, 0.5])
    np.testing.assert_array_equal(np.unique(queries.queries[:, 3]), [-0.5, 0.0, 0.5])


def test_unknown_train_key_is_a_config_error(tmp_path, capsys):
    run = _write_run(tmp_path, extra="learning_rte = 1e-3\n")
    assert _run(run, "train") == [EXIT_CONFIG]
    assert "learning_rte" in capsys.readouterr().err


def test_truncated_queries_is_an_io_error(tmp_path):
    run = _write_run(tmp_path)
    assert _run(run, *PREP) == [EXIT_OK] * 3
    path = tmp_path / "out" / "queries.qoqs"
    path.write_bytes(path.read_bytes()[:-7])
    assert _run(run, "train") == [EXIT_IO]
    assert not (tmp_path / "out" / "model.qofm").exists()


@pytest.mark.parametrize("coordinate", [2, 3])
def test_non_finite_query_is_a_validation_error(tmp_path, capsys, coordinate):
    run = _write_run(tmp_path)
    assert _run(run, *PREP) == [EXIT_OK] * 3
    path = tmp_path / "out" / "queries.qoqs"
    blob = bytearray(path.read_bytes())
    # magic (4 bytes) and <IQH header (14), then records led by query <f4[4]
    struct.pack_into("<f", blob, 4 + 14 + 4 * coordinate, float("nan"))
    path.write_bytes(bytes(blob))
    assert _run(run, "train") == [EXIT_VALIDATION]
    assert "finite" in capsys.readouterr().err


def test_occupancy_other_than_0_or_1_is_a_validation_error(tmp_path, capsys):
    run = _write_run(tmp_path)
    assert _run(run, *PREP) == [EXIT_OK] * 3
    path = tmp_path / "out" / "queries.qoqs"
    blob = bytearray(path.read_bytes())
    # magic (4 bytes) and <IQH header (14), then records of query <f4[4], occ u1, class u2
    blob[4 + 14 + 16] = 2
    path.write_bytes(bytes(blob))
    assert _run(run, "train") == [EXIT_VALIDATION]
    assert "occupancy" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.qofm").exists()


def _class_offset(path):
    """Where the file at ``path`` keeps a class id (a u2), from its layout:
    the first point of a QOPC, the first occupied row of a QOQS (a free row
    must be UNLABELED), and the first cell of a QOVX (class + 1)."""
    if path.suffix == ".qopc":
        # magic, <IQHBB header (16), then position f4[3], origin f4[3], time f4, class u2
        return 4 + 16 + 28
    if path.suffix == ".qoqs":
        # magic, <IQH header (14), then records of query f4[4], occ u1, class u2
        row = int(np.flatnonzero(read_query_batch(path).occupancy == 1)[0])
        return 4 + 14 + 19 * row + 17
    return 4 + 72  # magic, <I3Id6d header, then the cells


@pytest.mark.parametrize("mode, name, command", [
    ("query", "scan_000.qopc", "queries"),
    ("rendering", "scan_000.qopc", "train"),
    ("query", "queries.qoqs", "train"),
    ("query", "gt.qovx", "eval"),
])
def test_class_outside_the_scene_is_a_validation_error(tmp_path, capsys, mode, name, command):
    run = _write_run(tmp_path, mode=mode, extra="render_far = 20.0\n")
    before = ("synth", "scan", "queries", "train", "eval")
    before = before[: before.index(command)]
    assert _run(run, *before) == [EXIT_OK] * len(before)
    path = tmp_path / "out" / name
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, _class_offset(path), 9 + (path.suffix == ".qovx"))
    path.write_bytes(bytes(blob))
    assert _run(run, command) == [EXIT_VALIDATION]
    err = capsys.readouterr().err
    assert name in err and "class id 9" in err


@pytest.mark.parametrize("name, command", [("model.qofm", "eval"), ("queries.qoqs", "train"), ("gt.qovx", "eval")])
def test_file_that_contradicts_its_header_is_an_io_error(tmp_path, capsys, name, command):
    run = _write_run(tmp_path)
    assert _run(run, *PREP, "train") == [EXIT_OK] * 4
    path = tmp_path / "out" / name
    blob = bytearray(path.read_bytes())
    if name == "model.qofm":
        blob += bytes(64)  # after the last layer's bias
    elif name == "queries.qoqs":
        struct.pack_into("<Q", blob, 8, 1)  # a count of 1 row: magic, <I version, then <Q count
    else:
        struct.pack_into("<d", blob, 4 + 48, float("nan"))  # magic, <I3Id header, mins, then maxs
    path.write_bytes(bytes(blob))
    assert _run(run, command) == [EXIT_IO]
    assert ("maxs" if name == "gt.qovx" else "after its last array") in capsys.readouterr().err


def test_an_xfail_that_passes_fails_the_suite(pytestconfig):
    assert pytestconfig.getini("xfail_strict") is True


@pytest.mark.parametrize("parameter", ["first weight", "last bias"])
def test_non_finite_model_parameter_is_a_validation_error(tmp_path, capsys, parameter):
    run = _write_run(tmp_path)
    assert _run(run, *PREP, "train") == [EXIT_OK] * 4
    path = tmp_path / "out" / "model.qofm"
    blob = bytearray(path.read_bytes())
    # magic, <II version and size count, the layer sizes, the rest of the
    # header, then the f4 grid, then per layer W and b
    sizes_end = 12 + 4 * struct.unpack_from("<I", blob, 8)[0]
    head = struct.Struct("<IIIff2f3I")
    *_, width, height, channels = head.unpack_from(blob, sizes_end)
    first_weight = sizes_end + head.size + 4 * width * height * channels
    off = first_weight if parameter == "first weight" else len(blob) - 4
    struct.pack_into("<f", blob, off, float("nan"))
    path.write_bytes(bytes(blob))
    assert _run(run, "eval") == [EXIT_VALIDATION]
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


# Functions that no command reaches on purpose, each with its reason.
UNREACHED = {
    "errors.TrainingDivergedError.__init__": "the divergence path, see test_divergence_exits_4",
    "field.loss": "perfbench's gradient check calls it",
    "supervision.QueryBatch.take": "perfbench's gradient check calls it",
}


def _package_functions() -> dict:
    """(file name, first line of its code object) -> qualified name of every
    def in the package."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(path, first)] = name
                visit(child, name, path)

    for path in sorted(Path(occfield.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.name)
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    functions = _package_functions()
    assert set(UNREACHED) <= set(functions.values()), "an allowed entry no longer exists"
    entered = set()

    def profile(frame, event, arg):
        # by file name, not path: bytecode compiled in another checkout keeps its path
        path = Path(frame.f_code.co_filename)
        if event == "call" and path.parent.name == "occfield":
            entered.add((path.name, frame.f_code.co_firstlineno))

    runs = [
        ("query", "", (*PREP, "train", "eval", "inspect-geometry")),
        ("rendering", "render_far = 20.0\n", ("synth", "scan", "train", "eval")),
        ("query", "[metrics]\nray_source = surface\n", (*PREP, "train", "eval")),
    ]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (mode, extra, commands) in enumerate(runs):
            (tmp_path / str(i)).mkdir()
            run = _write_run(tmp_path / str(i), mode=mode, extra=extra)
            run.write_text(run.read_text().replace("total_steps = 20", "total_steps = 2"))
            assert _run(run, *commands) == [EXIT_OK] * len(commands)
    finally:
        sys.setprofile(previous)
    absent = sorted(name for key, name in functions.items() if key not in entered)
    assert [name for name in absent if name not in UNREACHED] == []
