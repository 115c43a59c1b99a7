"""Plain-text configuration: INI-style key/value files with [section] blocks.

Each section fills one dataclass: its keys are that dataclass's fields, each
parsed as its annotation says, and the dataclass checks their values when it
is built.  Unknown sections or keys are hard errors.  Scene files declare one
primitive per block ([slab:NAME], [box:NAME], [cylinder:NAME]); scan files
describe the sensor trajectory and ray grid; run files tie everything together
for the command-line pipeline.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path

from .errors import ConfigError
from .field import TrainConfig
from .metrics import check_tolerances
from .pointcloud import read_class_table
from .scene import Box, Cylinder, GroundSlab, SceneSpec, ScanSpec, VoxelVolume
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


_PARSERS = {  # a field's INI parser by its annotation
    "float": float,
    "int": int,
    "str": str,
    "tuple[float, ...]": _floats,
    "tuple[float, float]": lambda raw: _floats(raw, 2),
    "tuple[float, float, float]": lambda raw: _floats(raw, 3),
}


def _fields(cls, skip=(), **renamed) -> tuple[dict, dict, list]:
    """The INI keys of the fields of ``cls`` but ``skip``: ({key: field name},
    {key: parser}, required keys).  A key is its field's name unless
    ``renamed`` gives another, its parser follows the field's annotation, and
    the keys of the fields without a default are required."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    keys = [renamed.get(f.name, f.name) for f in fields]
    return (
        {key: f.name for key, f in zip(keys, fields)},
        {key: _PARSERS[f.type] for key, f in zip(keys, fields)},
        [key for key, f in zip(keys, fields) if f.default is f.default_factory is dataclasses.MISSING],
    )


def _kwargs(path: Path, cp, section: str, cls, skip=(), **renamed) -> dict:
    """The values of ``[section]``, which may be absent, as keyword arguments of ``cls``."""
    names, known, required = _fields(cls, skip, **renamed)
    items = dict(cp.items(section)) if cp.has_section(section) else {}
    return {names[key]: v for key, v in _values(path, section, items, known, required).items()}


def _build(path: Path, cls, kwargs: dict, section: str | None = None):
    """``cls(**kwargs)``: the dataclasses check their own values, and a value
    they reject is a ConfigError naming the file and ``section``."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        where = f"[{section}]: " if section else ""
        raise ConfigError(f"{path}: {where}{e}") from None


_SCENE_KEYS = {"bounds": float, "classes": str}
_PRIMITIVES = {"slab": GroundSlab, "box": Box, "cylinder": Cylinder}


def read_scene_file(path) -> SceneSpec:
    path = Path(path)
    cp = _parser(path)
    scene: dict = {"primitives": []}
    for section in cp.sections():
        kind, colon, _ = section.partition(":")
        if section == "scene":
            v = _values(path, section, dict(cp.items(section)), _SCENE_KEYS)
            if "bounds" in v:
                scene["bounds"] = v["bounds"]
            if "classes" in v:
                class_path = path.parent / v["classes"]
                try:
                    scene["classes"] = read_class_table(class_path)
                except ValueError as e:
                    raise ConfigError(f"{class_path}: {e}") from None
        elif colon and kind in _PRIMITIVES:
            cls = _PRIMITIVES[kind]
            kw = _kwargs(path, cp, section, cls, class_id="class")
            scene["primitives"].append(_build(path, cls, kw, section))
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")
    return _build(path, SceneSpec, scene)


def read_scan_file(path) -> ScanSpec:
    """[origin] sets the ``origin_`` fields of ScanSpec, [rays] the
    ``azimuth_`` and ``elevation_`` ones and [scan] the rest."""
    path = Path(path)
    cp = _parser(path)
    section_of = {
        f.name: "origin" if f.name.startswith("origin_")
        else "rays" if f.name.startswith(("azimuth_", "elevation_")) else "scan"
        for f in dataclasses.fields(ScanSpec)
    }
    for section in cp.sections():
        if section not in section_of.values():
            raise ConfigError(f"{path}: unknown section [{section}]")
    keys = {name: name.removeprefix("origin_") for name in section_of}
    kw: dict = {}
    for section in ("scan", "origin", "rays"):
        skip = [name for name, s in section_of.items() if s != section]
        kw.update(_kwargs(path, cp, section, ScanSpec, skip, **keys))
    return _build(path, ScanSpec, kw)


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """The ``[grid]`` section: the eval volume, a whole number of cells per axis."""

    x_min: float = -20.0
    x_max: float = 20.0
    y_min: float = -20.0
    y_max: float = 20.0
    z_min: float = -2.0
    z_max: float = 2.0
    cell_size: float = 0.4

    @property
    def mins(self) -> tuple[float, float, float]:
        return (self.x_min, self.y_min, self.z_min)

    @property
    def maxs(self) -> tuple[float, float, float]:
        return (self.x_max, self.y_max, self.z_max)

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (*self.mins, *self.maxs, self.cell_size)):
            raise ValueError("values must be finite")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if any(lo >= hi for lo, hi in zip(self.mins, self.maxs)):
            raise ValueError("every min must lie below its max")
        VoxelVolume.dims_of(self.mins, self.maxs, self.cell_size)


@dataclasses.dataclass(frozen=True)
class MetricsConfig:
    """The ``[metrics]`` section: the occupancy threshold and RayIoU's depth
    tolerances.  RayIoU casts the scan's own rays, each from its timestep's
    origin, so ``scan`` is the one ``ray_source``."""

    occ_threshold: float = 0.5
    tolerances: tuple[float, ...] = (1.0, 2.0, 4.0)
    ray_source: str = "scan"

    def __post_init__(self):
        if self.ray_source != "scan":
            raise ValueError("ray_source must be 'scan': the GT-surface protocol was removed")
        if not 0.0 <= self.occ_threshold <= 1.0:  # NaN fails this too
            raise ValueError("occ_threshold must lie in [0, 1]")
        check_tolerances(self.tolerances)


@dataclasses.dataclass
class RunConfig:
    scene_path: Path
    scan_path: Path
    output_dir: Path
    seed: int | None
    sampling: SamplingConfig  # its seed is the run's, set by the command
    train: TrainConfig
    grid: GridConfig
    metrics: MetricsConfig


_RUN_KEYS = {"scene": str, "scan": str, "output_dir": str, "seed": int}
# each other section of a run file, the dataclass it fills and the fields it skips
_RUN_SECTIONS = {
    "sampling": (SamplingConfig, ("seed",)),
    "train": (TrainConfig, ("seed", "class_weights")),
    "grid": (GridConfig, ()),
    "metrics": (MetricsConfig, ()),
}


def read_run_config(path) -> RunConfig:
    path = Path(path)
    cp = _parser(path)
    for section in cp.sections():
        if section != "run" and section not in _RUN_SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    if not cp.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")

    run = _values(path, "run", dict(cp.items("run")), _RUN_KEYS, ("scene", "scan", "output_dir"))
    sections = {
        section: _build(path, cls, _kwargs(path, cp, section, cls, skip), section)
        for section, (cls, skip) in _RUN_SECTIONS.items()
    }
    base = path.parent
    return RunConfig(
        scene_path=base / run["scene"],
        scan_path=base / run["scan"],
        output_dir=base / run["output_dir"],
        seed=run.get("seed"),
        **sections,
    )
