"""Run configuration: a JSON file of flat dotted keys plus flag overrides.

Each dotted key names one field of the objects a run uses -- the
``NoiseConfig``, ``MemoryConfig`` and ``EpisodeSettings`` dataclasses, or
``RunConfig`` itself -- and takes that field's default and type.  Unknown
keys are rejected before any computation, and type errors name the
offending key.  Command line overrides use the same dotted names
(``--set memory.capacity=0`` or the shorthand ``--memory.capacity 0``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .episode import EpisodeSettings, MemoryConfig, build_model, make_tasks
from .memory import new_base
from .synth import NoiseConfig


class ConfigError(ValueError):
    """Invalid run configuration; message names the key and problem."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulate/ablate run uses; the run's noise defaults to
    label noise 0.3 and feature noise 1.0."""

    noise: NoiseConfig = NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0)
    memory: MemoryConfig = MemoryConfig()
    settings: EpisodeSettings = EpisodeSettings()
    task_count: int = 10
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")

    def tasks(self):
        return make_tasks(self.task_count, self.noise)

    def flat(self) -> dict:
        """The configuration as dotted key -> value."""
        out = {}
        for key, (name, sub) in KEYS.items():
            value = getattr(self, name)
            out[key] = value if sub is None else getattr(value, sub)
        return out


# dotted key -> (RunConfig field, field of that object or None)
KEYS: dict[str, tuple[str, str | None]] = {
    "tasks.count": ("task_count", None),
    "noise.label_corrupt_prob": ("noise", "label_corrupt_prob"),
    "noise.feature_noise_sigma": ("noise", "feature_noise_sigma"),
    "noise.confidence_miscalibration": ("noise", "confidence_miscalibration"),
    "memory.capacity": ("memory", "capacity"),
    "memory.k": ("memory", "k"),
    "retrieval": ("memory", "retrieval"),
    "adapter.enabled": ("settings", "adapter_enabled"),
    "model.seed": ("settings", "model_seed"),
    "model.channels": ("settings", "channels"),
    "model.bottleneck": ("settings", "bottleneck"),
    "image.size": ("settings", "image_size"),
    "image.patch": ("settings", "patch_size"),
    "stream.volumes_per_task": ("settings", "volumes_per_task"),
    "stream.slices_per_volume": ("settings", "slices_per_volume"),
    "report.log_retrievals": ("settings", "log_retrievals"),
    "seeds": ("seeds", None),
}


def _bool(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, str):
        if v.lower() in ("true", "1", "yes", "on"):
            return True
        if v.lower() in ("false", "0", "no", "off"):
            return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _int(v):
    """An integer, or an integer string such as a --set value; a float or a
    bool is an error rather than something to truncate or convert."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _int_list(v):
    if isinstance(v, str):
        v = [p for p in v.replace(",", " ").split() if p]
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(_int(x) for x in v)


def _finite(v):
    """A finite number, or a numeric string such as a --set value; a bool
    is an error rather than 0.0 or 1.0."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    out = float(v)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {v!r}")
    return out


# a key's parser is chosen by the type of its default
_PARSERS = {bool: _bool, int: _int, float: _finite, str: str, tuple: _int_list}
_DEFAULTS = RunConfig().flat()


def _parse_value(key: str, raw):
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[type(_DEFAULTS[key])](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file of flat dotted
    keys, and override pairs (applied last)."""
    pairs = []
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {p} must hold a JSON object")
        pairs += data.items()
    pairs += (overrides or {}).items()
    changes: dict = {}
    for key, raw in pairs:
        value = _parse_value(key, raw)
        name, sub = KEYS[key]
        if sub is None:
            changes[name] = value
        else:
            changes.setdefault(name, {})[sub] = value
    # the constructors of everything a run builds check the values
    try:
        default = RunConfig()
        cfg = replace(default, **{
            name: replace(getattr(default, name), **v) if isinstance(v, dict) else v
            for name, v in changes.items()
        })
        cfg.tasks()
        enc_cfg, _ = build_model(cfg.settings)
        new_base(cfg.memory.capacity, enc_cfg.feature_shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_override_pairs(pairs: list[str]) -> dict:
    """Parse ``key=value`` strings into an override mapping."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        out[key.strip()] = raw.strip()
    return out
