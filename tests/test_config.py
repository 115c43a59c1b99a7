from pathlib import Path

import pytest

from occfield.cli import EXIT_CONFIG, main
from occfield.config import read_run_config, read_scan_file, read_scene_file
from occfield.errors import ConfigError

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

[origin]
start = 0.1 0.0 3.0

[rays]
azimuth_count = 8
elevation_count = 4
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


# (file, key, value): numbers that do not parse, or vectors of the wrong length
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
    ("scan", "max_range", "far"),
    ("scan", "timesteps", "0.0 soon"),
    ("scan", "azimuth_count", "8.5"),
    ("scan", "start", "0.1 0.0"),
]


@pytest.mark.parametrize("where, key, value", MALFORMED)
def test_malformed_number_exits_2(tmp_path, capsys, where, key, value):
    texts = {kind: text for kind, (_, text) in FILES.items()}
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
