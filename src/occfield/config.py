"""Plain-text configuration: INI-style key/value files with [section] blocks.

Unknown sections or keys are hard errors.  Scene files declare one primitive
per block ([slab:NAME], [box:NAME], [cylinder:NAME]); scan files describe the
sensor trajectory and ray grid; run files tie everything together for the
command-line pipeline.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path

from .errors import ConfigError
from .field import TrainConfig
from .pointcloud import ClassTable, read_class_table
from .scene import Box, Cylinder, GroundSlab, SceneSpec, ScanSpec
from .supervision import SamplingConfig

__all__ = [
    "RunConfig",
    "GridConfig",
    "MetricsConfig",
    "read_scene_file",
    "read_scan_file",
    "read_run_config",
]


def _parser(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        with open(path) as f:
            cp.read_file(f)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}")
    return cp


def _values(path: Path, section: str, items: dict, known: dict, required=()) -> dict:
    """One section's values, each converted by its key's parser in ``known``.

    Unknown or missing keys and values the parser rejects are ConfigErrors.
    """
    for key in items:
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
    for key in required:
        if key not in items:
            raise ConfigError(f"{path}: [{section}] requires {key!r}")
    values = {}
    for key, raw in items.items():
        try:
            values[key] = known[key](raw)
        except ValueError as e:
            raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {e}") from None
    return values


def _floats(raw: str, n: int | None = None) -> tuple[float, ...]:
    vals = tuple(float(v) for v in raw.split())
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} numbers")
    return vals


def _vec2(raw: str) -> tuple[float, ...]:
    return _floats(raw, 2)


def _vec3(raw: str) -> tuple[float, ...]:
    return _floats(raw, 3)


_SCENE_KEYS = {"bounds": float, "classes": str}
_SLAB_KEYS = {"class": int, "z_min": float, "z_max": float, "velocity": _vec3}
_BOX_KEYS = {"class": int, "center": _vec3, "size": _vec3, "velocity": _vec3}
_CYL_KEYS = {
    "class": int, "center": _vec2, "radius": float,
    "z_min": float, "z_max": float, "velocity": _vec3,
}


def read_scene_file(path) -> SceneSpec:
    path = Path(path)
    cp = _parser(path)
    bounds = 50.0
    classes: ClassTable | None = None
    primitives = []
    for section in cp.sections():
        items = dict(cp.items(section))
        if section == "scene":
            v = _values(path, section, items, _SCENE_KEYS)
            bounds = v.get("bounds", bounds)
            if "classes" in v:
                class_path = path.parent / v["classes"]
                try:
                    classes = read_class_table(class_path)
                except ValueError as e:
                    raise ConfigError(f"{class_path}: {e}") from None
        elif section.startswith("slab:"):
            v = _values(path, section, items, _SLAB_KEYS, ("class", "z_min", "z_max"))
            primitives.append(GroundSlab(
                z_min=v["z_min"], z_max=v["z_max"], class_id=v["class"],
                velocity=v.get("velocity", (0.0, 0.0, 0.0)),
            ))
        elif section.startswith("box:"):
            v = _values(path, section, items, _BOX_KEYS, ("class", "center", "size"))
            primitives.append(Box(
                center=v["center"], size=v["size"], class_id=v["class"],
                velocity=v.get("velocity", (0.0, 0.0, 0.0)),
            ))
        elif section.startswith("cylinder:"):
            v = _values(
                path, section, items, _CYL_KEYS, ("class", "center", "radius", "z_min", "z_max")
            )
            primitives.append(Cylinder(
                center=v["center"], radius=v["radius"], z_min=v["z_min"], z_max=v["z_max"],
                class_id=v["class"], velocity=v.get("velocity", (0.0, 0.0, 0.0)),
            ))
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")
    try:
        return SceneSpec(tuple(primitives), bounds, classes)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


_SCAN_KEYS = {"timesteps": _floats, "max_range": float, "noise_sigma": float}
_ORIGIN_KEYS = {"start": _vec3, "velocity": _vec3}
_RAY_KEYS = {
    "azimuth_count": int, "elevation_count": int,
    "elevation_min": float, "elevation_max": float,
    "azimuth_min": float, "azimuth_max": float,
}


def read_scan_file(path) -> ScanSpec:
    path = Path(path)
    cp = _parser(path)
    kw: dict = {}
    for section in cp.sections():
        items = dict(cp.items(section))
        if section == "scan":
            kw.update(_values(path, section, items, _SCAN_KEYS))
        elif section == "origin":
            v = _values(path, section, items, _ORIGIN_KEYS)
            if "start" in v:
                kw["origin_start"] = v["start"]
            if "velocity" in v:
                kw["origin_velocity"] = v["velocity"]
        elif section == "rays":
            kw.update(_values(path, section, items, _RAY_KEYS))
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")
    if "timesteps" not in kw or "origin_start" not in kw:
        raise ConfigError(f"{path}: scan needs [scan] timesteps and [origin] start")
    try:
        return ScanSpec(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}")


@dataclasses.dataclass(frozen=True)
class GridConfig:
    mins: tuple[float, float, float]
    maxs: tuple[float, float, float]
    cell_size: float


@dataclasses.dataclass(frozen=True)
class MetricsConfig:
    occ_threshold: float = 0.5
    tolerances: tuple[float, ...] = (1.0, 2.0, 4.0)
    ray_source: str = "scan"  # or "surface"


@dataclasses.dataclass
class RunConfig:
    scene_path: Path
    scan_path: Path
    output_dir: Path
    seed: int | None
    sampling: dict
    train: TrainConfig
    grid: GridConfig
    metrics: MetricsConfig


_RUN_KEYS = {"scene": str, "scan": str, "output_dir": str, "seed": int}
_SAMPLING_KEYS = {
    "delta": float, "n_neg_per_point": int, "n_pos_per_point": int,
    "t_min": float, "t_max": float,
}
# every TrainConfig field but the run's seed and class weights, parsed as the
# type of its default
_TRAIN_KEYS = {
    f.name: type(f.default) for f in dataclasses.fields(TrainConfig)
    if f.name not in ("seed", "class_weights")
}
_GRID_KEYS = {
    "x_min": float, "x_max": float, "y_min": float, "y_max": float,
    "z_min": float, "z_max": float, "cell_size": float,
}
_METRICS_KEYS = {"occ_threshold": float, "tolerances": _floats, "ray_source": str}


def read_run_config(path) -> RunConfig:
    path = Path(path)
    cp = _parser(path)
    known_sections = {"run", "sampling", "train", "grid", "metrics"}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
    if not cp.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")

    run = _values(path, "run", dict(cp.items("run")), _RUN_KEYS, ("scene", "scan", "output_dir"))
    base = path.parent

    def values_of(name: str, known: dict) -> dict:
        return _values(path, name, dict(cp.items(name)), known) if cp.has_section(name) else {}

    def checked(where: str, build):
        """``build()``; the types the commands build check their own values."""
        try:
            return build()
        except ValueError as e:
            raise ConfigError(f"{path}: {where}: {e}") from None

    sampling = values_of("sampling", _SAMPLING_KEYS)
    train = checked("[train]", lambda: TrainConfig(**values_of("train", _TRAIN_KEYS)))

    g = values_of("grid", _GRID_KEYS)
    grid = GridConfig(
        (g.get("x_min", -20.0), g.get("y_min", -20.0), g.get("z_min", -2.0)),
        (g.get("x_max", 20.0), g.get("y_max", 20.0), g.get("z_max", 2.0)),
        g.get("cell_size", 0.4),
    )
    if not all(math.isfinite(x) for x in (*grid.mins, *grid.maxs, grid.cell_size)):
        raise ConfigError(f"{path}: [grid] values must be finite")
    if grid.cell_size <= 0:
        raise ConfigError(f"{path}: [grid] cell_size must be positive")
    if any(lo >= hi for lo, hi in zip(grid.mins, grid.maxs)):
        raise ConfigError(f"{path}: [grid] every min must lie below its max")

    m = values_of("metrics", _METRICS_KEYS)
    metrics = MetricsConfig(
        occ_threshold=m.get("occ_threshold", 0.5),
        tolerances=m.get("tolerances", (1.0, 2.0, 4.0)),
        ray_source=m.get("ray_source", "scan"),
    )
    if metrics.ray_source not in ("scan", "surface"):
        raise ConfigError(f"{path}: ray_source must be 'scan' or 'surface'")
    if not 0.0 <= metrics.occ_threshold <= 1.0:  # NaN fails this too
        raise ConfigError(f"{path}: occ_threshold must lie in [0, 1]")
    taus = metrics.tolerances
    increasing = all(a < b for a, b in zip(taus, taus[1:]))
    if not taus or not increasing or not all(0 < t < math.inf for t in taus):
        raise ConfigError(f"{path}: tolerances must be finite, positive and increasing")

    checked("[sampling]", lambda: SamplingConfig(**sampling))

    return RunConfig(
        scene_path=base / run["scene"],
        scan_path=base / run["scan"],
        output_dir=base / run["output_dir"],
        seed=run.get("seed"),
        sampling=sampling,
        train=train,
        grid=grid,
        metrics=metrics,
    )
