import dataclasses
import shutil
from pathlib import Path

import pytest

from occfield.cli import EXIT_CONFIG, EXIT_OK, main
from occfield.config import _PARSERS, GridConfig, MetricsConfig, read_run_config, read_scan_file, read_scene_file
from occfield.errors import ConfigError
from occfield.field import TrainConfig
from occfield.scene import Box, Cylinder, GroundSlab, ScanSpec
from occfield.supervision import SamplingConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SCENE = """\
[scene]
bounds = 10.0

[slab:ground]
class = 0
z_min = -0.4
z_max = 0.0

[box:block]
class = 1
center = 2.0 0.8 0.8
size = 1.6 1.6 0.8

[cylinder:post]
class = 1
center = -2.0 1.0
radius = 0.5
z_min = 0.0
z_max = 1.6
"""

SCAN = """\
[scan]
timesteps = 0.0 0.5
max_range = 20.0
noise_sigma = 0.0

[origin]
start = 0.1 0.0 3.0

[rays]
azimuth_count = 8
elevation_count = 4
elevation_min = -0.6
"""

RUN = """\
[run]
scene = scene.ini
scan = scan.ini
output_dir = out
seed = 3

[train]
total_steps = 20

[grid]
x_min = -4.0
x_max = 4.0
y_min = -4.0
y_max = 4.0
z_min = -0.4
z_max = 2.0
cell_size = 0.4

[metrics]
occ_threshold = 0.5
tolerances = 1 2 4
"""


def _write(tmp_path, run=RUN, scene=SCENE, scan=SCAN):
    (tmp_path / "scene.ini").write_text(scene)
    (tmp_path / "scan.ini").write_text(scan)
    path = tmp_path / "run.ini"
    path.write_text(run)
    return path


def _set(text, key, value):
    """Replace the first line of ``key`` in an INI text by ``key = value``."""
    lines = text.splitlines()
    hits = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
    lines[hits[0]] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def test_shipped_acceptance_config_parses():
    cfg = read_run_config(CONFIGS / "acceptance_run.ini")
    assert cfg.seed == 0 and cfg.train.mode == "query" and cfg.train.grid_size == 320
    assert cfg.grid.mins == (-20.0, -20.0, -0.4) and cfg.grid.maxs == (20.0, 20.0, 2.0)
    assert cfg.grid.cell_size == 0.4
    assert cfg.metrics.tolerances == (1.0, 2.0, 4.0) and cfg.metrics.ray_source == "scan"
    scene = read_scene_file(cfg.scene_path)
    assert len(scene.primitives) == 5 and scene.bounds == 30.0
    assert scene.classes.names == ("ground", "wall", "block", "shelf", "mover")
    assert scene.primitives[-1].velocity == (0.4, 0.0, 0.0)
    scan = read_scan_file(cfg.scan_path)
    assert scan.timesteps == (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
    assert (scan.azimuth_count, scan.elevation_count) == (200, 100)
    assert scan.origin_start == (0.1, 0.0, 4.0) and scan.origin_velocity == (4.0, 0.0, 0.0)


def test_shipped_acceptance_config_runs_end_to_end(tmp_path):
    shutil.copytree(CONFIGS, tmp_path / "configs")
    run = tmp_path / "configs" / "acceptance_run.ini"
    run.write_text(_set(run.read_text(), "total_steps", "2"))
    commands = ("synth", "scan", "queries", "train", "eval", "inspect-geometry")
    assert [main([command, "--config", str(run)]) for command in commands] == [EXIT_OK] * 6
    scans = [f"scan_{i:03d}.qopc" for i in range(7)]
    assert sorted(p.name for p in (tmp_path / "out" / "acceptance").iterdir()) == sorted([
        "gt.qovx", *scans, "queries.qoqs", "validation.txt", "model.qofm", "loss.csv",
        "metrics.csv", "ray_counts.csv", "bev_mass.ppm",
    ])


def test_small_config_parses(tmp_path):
    cfg = read_run_config(_write(tmp_path))
    assert cfg.train.total_steps == 20 and cfg.seed == 3
    assert cfg.output_dir == tmp_path / "out"
    scene = read_scene_file(cfg.scene_path)
    assert [type(p).__name__ for p in scene.primitives] == ["GroundSlab", "Box", "Cylinder"]
    assert scene.primitives[2].center == (-2.0, 1.0)
    assert read_scan_file(cfg.scan_path).timesteps == (0.0, 0.5)


FILES = {"run": (read_run_config, RUN), "scene": (read_scene_file, SCENE), "scan": (read_scan_file, SCAN)}


def _read(tmp_path, kind, text):
    reader, _ = FILES[kind]
    path = tmp_path / f"{kind}.ini"
    path.write_text(text)
    return reader(path)


@pytest.mark.parametrize("kind, extra", [
    ("run", "[extra]\nkey = 1\n"),
    ("scene", "[sphere:ball]\nclass = 0\n"),
    ("scan", "[lidar]\nbeams = 3\n"),
])
def test_unknown_section(tmp_path, kind, extra):
    with pytest.raises(ConfigError, match="unknown section"):
        _read(tmp_path, kind, FILES[kind][1] + "\n" + extra)


@pytest.mark.parametrize("kind, after", [
    ("run", "total_steps = 20"),
    ("run", "cell_size = 0.4"),
    ("scene", "radius = 0.5"),
    ("scan", "start = 0.1 0.0 3.0"),
])
def test_unknown_key(tmp_path, kind, after):
    with pytest.raises(ConfigError, match="unknown key 'colour'"):
        _read(tmp_path, kind, FILES[kind][1].replace(after, after + "\ncolour = red"))


@pytest.mark.parametrize("kind, key", [("run", "scan"), ("scene", "z_max"), ("scene", "size"), ("scene", "radius")])
def test_missing_key(tmp_path, kind, key):
    lines = FILES[kind][1].splitlines()
    with pytest.raises(ConfigError, match=f"requires '{key}'"):
        _read(tmp_path, kind, "\n".join(line for line in lines if not line.startswith(key + " ")))


# (file, key, value): numbers that do not parse, vectors of the wrong length,
# or a scene or scan value out of range; for the class table, (file, the name
# the error must give, the file's text)
MALFORMED = [
    ("run", "total_steps", "abc"),
    ("run", "total_steps", "2.5"),
    ("run", "seed", "x"),
    ("run", "cell_size", "0.4m"),
    ("run", "tolerances", "1 two 4"),
    ("run", "occ_threshold", ""),
    ("scene", "z_min", "low"),
    ("scene", "center", "2.0 0.8"),
    ("scene", "radius", "wide"),
    ("scene", "radius", "0"),
    ("scene", "size", "nan 1.6 0.8"),
    ("scene", "size", "-1.6 1.6 0.8"),
    ("scene", "z_max", "nan"),
    ("scene", "z_max", "-1.0"),  # below the slab's z_min
    ("scene", "bounds", "nan"),
    ("scene", "class", "-1"),
    ("scene", "class", "65535"),  # UNLABELED
    ("scan", "max_range", "far"),
    ("scan", "max_range", "nan"),
    ("scan", "timesteps", "0.0 soon"),
    ("scan", "timesteps", "nan"),
    ("scan", "timesteps", "0.0 inf"),
    ("scan", "elevation_min", "nan"),
    ("scan", "start", "0.1 nan 3.0"),
    ("scan", "azimuth_count", "8.5"),
    ("scan", "start", "0.1 0.0"),
    ("scan", "noise_sigma", "-1"),
    ("scan", "noise_sigma", "nan"),
    ("classes", "classes.txt", "ground,abc,0"),
    ("classes", "classes.txt", "ground,0.5"),
    ("classes", "classes.txt", "ground,0.5,x"),
    ("classes", "classes.txt", "ground,-1,0"),
    ("classes", "classes.txt", ""),
    ("classes", "classes.txt", "ground,nan,0"),
    ("classes", "classes.txt", "ground,inf,0"),
    ("classes", "classes.txt", "ground,0.5,0\nblock,0.5,2"),
    ("classes", "classes.txt", "ground,0.5,0\nblock,0.5,-1"),
    ("classes", "classes.txt", "ground,0.5,0\n,0.5,0"),
    ("classes", "classes.txt", "ground,0.5,0\nground,0.5,1"),
]


@pytest.mark.parametrize("where, key, value", MALFORMED)
def test_malformed_number_exits_2(tmp_path, capsys, where, key, value):
    texts = {kind: text for kind, (_, text) in FILES.items()}
    if where == "classes":
        texts["scene"] = texts["scene"].replace("[scene]\n", "[scene]\nclasses = classes.txt\n")
        (tmp_path / "classes.txt").write_text(value)
    else:
        texts[where] = _set(texts[where], key, value)
    run = _write(tmp_path, texts["run"], texts["scene"], texts["scan"])
    # synth reads the scene and scan reads the scan file; both read the run config
    command = "scan" if where == "scan" else "synth"
    assert main([command, "--config", str(run)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (key, value, message): run-config values that would only fail at eval
OUT_OF_RANGE = [
    ("x_min", "nan", "finite"),
    ("y_max", "inf", "finite"),
    ("cell_size", "-inf", "finite"),
    ("cell_size", "0", "cell_size must be positive"),
    ("cell_size", "-0.4", "cell_size must be positive"),
    ("x_min", "4.0", "min must lie below"),
    ("z_max", "-1.0", "min must lie below"),
    ("x_max", "4.1", "whole number of cells"),
    ("tolerances", "", "tolerances"),
    ("tolerances", "0 1 2", "tolerances"),
    ("tolerances", "-1 2", "tolerances"),
    ("tolerances", "2 1", "tolerances"),
    ("tolerances", "1 1 2", "tolerances"),
    ("tolerances", "1 nan", "tolerances"),
    ("tolerances", "1 inf", "tolerances"),
    ("occ_threshold", "nan", "occ_threshold"),
    ("occ_threshold", "inf", "occ_threshold"),
    ("occ_threshold", "-0.1", "occ_threshold"),
    ("occ_threshold", "1.5", "occ_threshold"),
]


@pytest.mark.parametrize("key, value, message", OUT_OF_RANGE)
def test_out_of_range_value_is_a_config_error(tmp_path, key, value, message):
    run = _write(tmp_path, _set(RUN, key, value))
    with pytest.raises(ConfigError, match=message):
        read_run_config(run)


@pytest.mark.parametrize("key, value", [("occ_threshold", "0"), ("occ_threshold", "1"), ("tolerances", "0.5")])
def test_boundary_values_are_accepted(tmp_path, key, value):
    read_run_config(_write(tmp_path, _set(RUN, key, value)))


def test_bad_value_stops_every_command_before_it_runs(tmp_path):
    run = _write(tmp_path, _set(RUN, "occ_threshold", "2"))
    for command in ("synth", "scan", "queries", "train", "eval", "inspect-geometry"):
        assert main([command, "--config", str(run)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


SECTION_OF = dict.fromkeys(  # any other key is in [train]
    ("delta", "n_neg_per_point", "n_pos_per_point", "t_min"), "sampling"
)


def _set_train(text, key, value):
    """Set ``key = value`` in [train] or the section SECTION_OF names, adding
    the line, and the section, when absent."""
    if any(line.split("=")[0].strip() == key for line in text.splitlines()):
        return _set(text, key, value)
    section = f"[{SECTION_OF.get(key, 'train')}]\n"
    if section not in text:
        text += "\n" + section
    return text.replace(section, f"{section}{key} = {value}\n")


# (key, value): [train] values that would otherwise fail only once train runs
TRAIN_OUT_OF_RANGE = [
    ("total_steps", "0"),
    ("total_steps", "-3"),
    ("batch_size", "0"),
    ("lambda_occ", "-1"),
    ("lambda_sem", "-0.5"),
    ("lambda_sem", "nan"),
    ("render_near", "0"),
    ("render_near", "-1"),
    ("render_near", "nan"),
    ("render_near", "60"),  # equal to the default render_far
    ("render_far", "0.25"),  # below the default render_near
    ("render_far", "inf"),
    ("render_coarse", "0"),
    ("render_importance", "-1"),
    ("hidden_width", "0"),
    ("hidden_layers", "-1"),
    ("grid_size", "1"),
    ("grid_channels", "0"),
    ("warmup_steps", "-5"),
    ("learning_rate", "0"),
    ("learning_rate", "nan"),
    ("learning_rate", "inf"),
    ("weight_decay", "-1e-4"),
    ("weight_decay", "inf"),
    ("k_hr", "0"),
    ("beta", "1.5"),
    ("fourier_bands", "0"),
    ("fourier_max", "inf"),
    ("k_hr", "1e39"),  # finite, but not as the model file's float32
    ("fourier_max", "1e39"),
    ("beta", "0.99999999"),  # rounds to 1 in float32
    ("delta", "-1"),  # [sampling]
    ("n_neg_per_point", "0"),  # balancing would keep nothing
    ("n_pos_per_point", "0"),
    ("t_min", "nan"),
]


@pytest.mark.parametrize("key, value", TRAIN_OUT_OF_RANGE)
def test_out_of_range_train_value_exits_2_before_any_stage(tmp_path, capsys, key, value):
    run = _write(tmp_path, _set_train(RUN, key, value))
    for command in ("synth", "scan", "queries", "train"):
        assert main([command, "--config", str(run)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("feature_dim", "0"), ("lambda_vfm", "0.5")])
def test_feature_head_keys_are_unknown(tmp_path, capsys, key, value):
    # the field has no feature head, so a config that sets its keys is refused
    run = _write(tmp_path, _set_train(RUN, key, value))
    for command in ("synth", "scan", "queries", "train"):
        assert main([command, "--config", str(run)]) == EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


TRAIN_BOUNDARY = [
    ("total_steps", "1"),
    ("batch_size", "1"),
    ("lambda_occ", "0"),
    ("render_near", "0.001"),
    ("render_coarse", "1"),
    ("render_importance", "0"),
    ("hidden_layers", "0"),
    ("grid_size", "2"),
    ("warmup_steps", "0"),
    ("weight_decay", "0"),
]


@pytest.mark.parametrize("key, value", TRAIN_BOUNDARY)
def test_boundary_train_values_are_accepted(tmp_path, key, value):
    cfg = read_run_config(_write(tmp_path, _set_train(RUN, key, value)))
    assert getattr(cfg.train, key) == float(value)


def _train_value(key, raw):
    """``raw`` parsed as the type of the TrainConfig field ``key``."""
    return type(getattr(TrainConfig(), key))(raw)


@pytest.mark.parametrize(
    "key, value", [(k, v) for k, v in TRAIN_OUT_OF_RANGE if SECTION_OF.get(k, "train") == "train"]
)
def test_train_config_rejects_out_of_range_value(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: _train_value(key, value)})


@pytest.mark.parametrize("key, value", TRAIN_BOUNDARY)
def test_train_config_accepts_boundary_value(key, value):
    assert getattr(TrainConfig(**{key: _train_value(key, value)}), key) == float(value)


# every section dataclass and the fields its section skips
SECTIONS = [
    (SamplingConfig, ("seed",)),
    (TrainConfig, ("seed", "class_weights")),
    (GridConfig, ()),
    (MetricsConfig, ()),
    (ScanSpec, ()),
    (GroundSlab, ()),
    (Box, ()),
    (Cylinder, ()),
]


@pytest.mark.parametrize("cls, skip", SECTIONS, ids=lambda v: getattr(v, "__name__", ""))
def test_every_section_field_has_a_parser(cls, skip):
    # a field of a type the INI reader cannot parse fails here, not in a user's run
    unparsed = [f.name for f in dataclasses.fields(cls) if f.name not in skip and f.type not in _PARSERS]
    assert unparsed == []


def _section(name, obj, keep=lambda field: True, **renamed):
    """``[name]`` with a ``key = value`` line per field of ``obj`` that ``keep``
    accepts; a key is its field's name unless ``renamed`` gives another."""
    lines = [f"[{name}]"]
    for f in dataclasses.fields(obj):
        if keep(f.name):
            value = getattr(obj, f.name)
            text = " ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{renamed.get(f.name, f.name)} = {text}")
    return "\n".join(lines) + "\n"


def test_run_sections_written_from_defaults_read_back_equal(tmp_path):
    sections = {name: cls() for name, cls in (
        ("sampling", SamplingConfig), ("train", TrainConfig), ("grid", GridConfig), ("metrics", MetricsConfig)
    )}
    text = RUN.split("\n\n")[0] + "\n" + "".join(
        _section(name, obj, lambda field: field not in ("seed", "class_weights"))
        for name, obj in sections.items()
    )
    cfg = read_run_config(_write(tmp_path, text))
    assert {name: getattr(cfg, name) for name in sections} == sections


def test_scan_and_scene_written_from_values_read_back_equal(tmp_path):
    scan = ScanSpec(timesteps=(0.0, 0.5), origin_start=(0.1, 0.0, 3.0))
    origin = {"origin_start": "start", "origin_velocity": "velocity"}
    rays = lambda name: name.startswith(("azimuth_", "elevation_"))  # noqa: E731
    scan_text = (
        _section("scan", scan, keep=lambda name: name not in origin and not rays(name))
        + _section("origin", scan, keep=origin.__contains__, **origin)
        + _section("rays", scan, keep=rays)
    )
    primitives = (
        GroundSlab(-0.4, 0.0, 0),
        Box((2.0, 0.8, 0.8), (1.6, 1.6, 0.8), 1, velocity=(0.5, 0.0, 0.0)),
        Cylinder((-2.0, 1.0), 0.5, 0.0, 1.6, 1),
    )
    scene_text = "".join(
        _section(f"{kind}:{i}", p, class_id="class")
        for i, (kind, p) in enumerate(zip(("slab", "box", "cylinder"), primitives))
    )
    assert _read(tmp_path, "scan", scan_text) == scan
    assert _read(tmp_path, "scene", scene_text).primitives == primitives
