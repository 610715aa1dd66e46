"""Pipeline configuration: defaults, key=value files, and CLI overrides.

Precedence is built-in defaults < config file < explicit overrides.
Unknown keys are rejected so typos fail loudly. Every key's parse,
format and help live in one table, which config files, the dumped
config and the CLI flags all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from .core import DEFAULT_SCALE_BOUNDARIES, ConfigError, ScaleLevel, SceneExtent
from .density import DEFAULT_DOWNSAMPLE
from .gaze import default_standard_size
from .merge import DEFAULT_NMS_IOU
from .saccade import (
    DEFAULT_DENSITY_THRESHOLD,
    DEFAULT_EXPANSION,
    DEFAULT_GRID_CELLS,
    GridSpec,
    check_expansion,
    check_threshold,
    default_grids,
)


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline tunables with their stock defaults."""

    downsample: float = DEFAULT_DOWNSAMPLE
    boundaries: tuple[float, float, float] = DEFAULT_SCALE_BOUNDARIES
    grids: tuple[int, int, int, int] = DEFAULT_GRID_CELLS
    threshold: float = DEFAULT_DENSITY_THRESHOLD
    expansion: float = DEFAULT_EXPANSION
    nms_iou: float = DEFAULT_NMS_IOU
    standard_size: tuple[int, int] | None = None
    workers: int = 1

    def validate(self) -> "PipelineConfig":
        # Chained comparisons are False for NaN, and "< math.inf" rejects infinity.
        if not 1 <= self.downsample < math.inf:
            raise ConfigError(f"downsample must be finite and >= 1, got {self.downsample}")
        b = self.boundaries
        if len(b) != 3 or not (0 < b[0] < b[1] < b[2] < math.inf):
            raise ConfigError(f"boundaries must be three finite increasing thresholds, got {b}")
        if len(self.grids) != 4 or any(g < 1 for g in self.grids):
            raise ConfigError(f"grids must be four counts >= 1, got {self.grids}")
        check_threshold(self.threshold)
        check_expansion(self.expansion)
        if not 0 < self.nms_iou <= 1:
            raise ConfigError(f"nms_iou must be in (0, 1], got {self.nms_iou}")
        if self.standard_size is not None and any(v < 2 for v in self.standard_size):
            raise ConfigError(f"standard_size must be at least 2x2, got {self.standard_size}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        return self

    def grid_specs(self) -> dict[ScaleLevel, GridSpec]:
        return default_grids(self.grids)

    def resolve_standard_size(self, extent: SceneExtent) -> tuple[int, int]:
        """The configured standard size, or the scene-derived default."""
        if self.standard_size is not None:
            return self.standard_size
        tiny = self.grids[int(ScaleLevel.TINY)]
        return default_standard_size(extent, (tiny, tiny), self.expansion)

    def to_file_text(self) -> str:
        """Effective config in the key=value file syntax."""
        return "".join(f"{name}={key.format(getattr(self, name))}\n" for name, key in CONFIG_KEYS.items())


@dataclass(frozen=True)
class ConfigKey:
    """How one key=value setting is parsed, written back, and described.

    flag is the CLI flag name when it is not the key with '-' for '_'.
    """

    parse: Callable[[str], Any]
    help: str
    format: Callable[[Any], str] = str
    flag: str | None = None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


def _size(raw: str) -> tuple[int, int] | None:
    if raw == "auto":
        return None
    w, h = raw.split("x")
    return (int(w), int(h))


def _fmt(v: float) -> str:
    return repr(float(v))


# One entry per PipelineConfig field, in field order (the dump follows it).
CONFIG_KEYS: dict[str, ConfigKey] = {
    "downsample": ConfigKey(float, "original pixels per density-map cell", _fmt),
    "boundaries": ConfigKey(
        _floats, "scale thresholds, e.g. 800,1600,3200", lambda b: ",".join(_fmt(v) for v in b)
    ),
    "grids": ConfigKey(_ints, "grid cells per scale, e.g. 16,8,4,2", lambda g: ",".join(str(v) for v in g)),
    "threshold": ConfigKey(float, "cell density needed for patch selection", _fmt),
    "expansion": ConfigKey(float, "patch growth factor about the cell center", _fmt),
    "nms_iou": ConfigKey(float, "IoU above which merged boxes are suppressed", _fmt),
    "standard_size": ConfigKey(
        _size, "standard frame WxH, or 'auto'", lambda s: "auto" if s is None else f"{s[0]}x{s[1]}"
    ),
    "workers": ConfigKey(int, "parallel detector workers"),
}


def parse_value(name: str, raw: str, keys: Mapping[str, ConfigKey], what: str = "config") -> Any:
    """Parse one raw value by its key's rule; an unknown name is an unknown `what` key."""
    key = keys.get(name)
    if key is None:
        raise ConfigError(f"unknown {what} key {name!r}")
    raw = raw.strip()
    try:
        return key.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={raw!r}: {exc}") from exc


def parse_config_file(
    path: str | Path, keys: Mapping[str, ConfigKey] = CONFIG_KEYS, what: str = "config"
) -> dict:
    """Read a line-oriented key=value file of `what` keys; '#' starts a comment."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        name, raw = stripped.split("=", 1)
        name = name.strip()
        try:
            values[name] = parse_value(name, raw, keys, what)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def layer_settings(
    file_path: str | Path | None, overrides: dict | None, keys: Mapping[str, ConfigKey], what: str
) -> dict:
    """The values of a key=value file, if any, under explicit overrides;
    an override key not in keys is rejected as an unknown `what` key."""
    values = parse_config_file(file_path, keys, what) if file_path is not None else {}
    overrides = overrides or {}
    unknown = set(overrides) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values.update(overrides)
    return values


def build_config(file_path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Layer file values and explicit overrides onto the defaults."""
    return replace(PipelineConfig(), **layer_settings(file_path, overrides, CONFIG_KEYS, "config")).validate()
