"""Run configuration: a JSON file of flat dotted keys plus flag overrides.

Every key has a declared type and default; unknown keys are rejected
before any computation, and type errors name the offending key.  Command
line overrides use the same dotted names (``--set memory.capacity=0`` or
the shorthand ``--memory.capacity 0``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .episode import EpisodeSettings, MemoryConfig, build_model, make_tasks
from .synth import NoiseConfig


class ConfigError(ValueError):
    """Invalid run configuration; message names the key and problem."""


def _bool(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, str):
        if v.lower() in ("true", "1", "yes", "on"):
            return True
        if v.lower() in ("false", "0", "no", "off"):
            return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _int_list(v):
    if isinstance(v, str):
        v = [p for p in v.replace(",", " ").split() if p]
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return [int(x) for x in v]


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    "tasks.count": (int, 10),
    "tasks.base_seed": (int, 100),
    "noise.label_corrupt_prob": (float, 0.3),
    "noise.feature_noise_sigma": (float, 1.0),
    "noise.confidence_miscalibration": (float, 0.0),
    "memory.capacity": (int, 640),
    "memory.k": (int, 4),
    "memory.use_confidence": (_bool, True),
    "retrieval": (str, "confidence_similarity"),
    "adapter.enabled": (_bool, True),
    "model.seed": (int, 777),
    "model.channels": (int, 16),
    "model.blocks": (int, 1),
    "model.bottleneck": (int, 4),
    "model.heads": (int, 2),
    "image.size": (int, 32),
    "image.patch": (int, 4),
    "stream.volumes_per_task": (int, 2),
    "stream.slices_per_volume": (int, 8),
    "fusion.key_gain": (float, 1.5),
    "fusion.value_gain": (float, 1.0),
    "fusion.out_gain": (float, 1.5),
    "report.log_retrievals": (_bool, False),
    "seeds": (_int_list, [0, 1, 2]),
}


@dataclass
class RunConfig:
    """Validated flat configuration for simulate/ablate runs."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def tasks(self):
        return make_tasks(
            self["tasks.count"],
            NoiseConfig(
                label_corrupt_prob=self["noise.label_corrupt_prob"],
                feature_noise_sigma=self["noise.feature_noise_sigma"],
                confidence_miscalibration=self["noise.confidence_miscalibration"],
            ),
            base_seed=self["tasks.base_seed"],
        )

    def memory(self) -> MemoryConfig:
        return MemoryConfig(
            capacity=self["memory.capacity"],
            k=self["memory.k"],
            retrieval=self["retrieval"],
            use_confidence=self["memory.use_confidence"],
        )

    def settings(self) -> EpisodeSettings:
        return EpisodeSettings(
            image_size=self["image.size"],
            patch_size=self["image.patch"],
            channels=self["model.channels"],
            num_blocks=self["model.blocks"],
            bottleneck=self["model.bottleneck"],
            num_heads=self["model.heads"],
            adapter_enabled=self["adapter.enabled"],
            model_seed=self["model.seed"],
            volumes_per_task=self["stream.volumes_per_task"],
            slices_per_volume=self["stream.slices_per_volume"],
            fusion_key_gain=self["fusion.key_gain"],
            fusion_value_gain=self["fusion.value_gain"],
            fusion_out_gain=self["fusion.out_gain"],
            log_retrievals=self["report.log_retrievals"],
        )

    def seeds(self) -> list[int]:
        return self["seeds"]


def _parse_value(key: str, raw):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = SCHEMA[key]
    try:
        return parser(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file of flat dotted
    keys, and override pairs (applied last)."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {p} must hold a JSON object")
        for key, raw in data.items():
            values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    cfg = RunConfig(values=values)
    if not cfg.seeds():
        raise ConfigError("seeds must be non-empty")
    # the constructors of everything a run builds check the values
    try:
        cfg.tasks()
        cfg.memory()
        build_model(cfg.settings())
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
