"""Continual-learning episodes over synthetic task streams.

An episode streams tasks sequentially.  Every frame is encoded, conditioned
on retrieved memory (per the configured retrieval policy), decoded, and
then offered to the memory via the confidence-gated replacement rule.
Right after each task's phase its held-out volume is evaluated with the
memory frozen, and after the last task every task is re-evaluated the same
way; the drop between the two is the forgetting score.

Everything is deterministic given (tasks, memory config, settings, seed):
frame generation, retrieval randomness, and miscalibration noise all draw
from seeds derived with SeedSequence from the episode seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import block_params
from .fusion import fuse, structured_fusion_params
from .memory import (
    MemoryBase,
    MemoryEntry,
    insert_or_replace,
    new_base,
    retrieve_random,
    retrieve_topk,
    stats,
)
from .metrics import dice
from .pipeline import (
    EncoderConfig,
    bbox_of,
    encode_prompt,
    encode_stack,
    mask_feature,
    predict,
)
from .synth import Frame, NoiseConfig, TaskSpec, gen_frame, preprocess_stream

RETRIEVAL_MODES = ("confidence_similarity", "random")


@dataclass(frozen=True)
class MemoryConfig:
    capacity: int = 640
    k: int = 4
    retrieval: str = "confidence_similarity"
    use_confidence: bool = True

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.retrieval not in RETRIEVAL_MODES:
            raise ValueError(
                f"retrieval must be one of {RETRIEVAL_MODES}, got {self.retrieval!r}"
            )


@dataclass(frozen=True)
class EpisodeSettings:
    """Model geometry and stream shape; defaults are the desk-scale setup
    (32x32 images, 16 channels, 8-slice volumes)."""

    image_size: int = 32
    patch_size: int = 4
    channels: int = 16
    bottleneck: int = 4
    adapter_enabled: bool = True
    model_seed: int = 777
    volumes_per_task: int = 2
    slices_per_volume: int = 8
    log_retrievals: bool = False

    def __post_init__(self):
        # channels and bottleneck are checked before build_model draws any
        # weight: a zero extent divides by zero there
        for name in ("channels", "bottleneck", "volumes_per_task", "slices_per_volume"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class EpisodeReport:
    """Per-seed results plus a cross-seed aggregate and the full effective
    configuration; serializes to canonical JSON for byte-level comparison."""

    config: dict
    per_seed: list[dict]
    aggregate: dict

    def to_json(self) -> str:
        return json.dumps(
            {"config": self.config, "per_seed": self.per_seed, "aggregate": self.aggregate},
            sort_keys=True,
            indent=2,
        )


MODALITIES = ("ct", "mr", "us", "xray", "fundus", "derm", "echo")
TASK_BASE_SEED = 100  # projection seed of task 0


def make_tasks(count: int, noise: NoiseConfig) -> list[TaskSpec]:
    """A standard roster: alternating shape families, cycling modality tags,
    consecutive projection seeds from TASK_BASE_SEED."""
    if count < 1:
        raise ValueError("need at least one task")
    return [
        TaskSpec(
            task_id=i,
            modality_tag=MODALITIES[i % len(MODALITIES)],
            projection_seed=TASK_BASE_SEED + i,
            shape_family="ellipse" if i % 2 == 0 else "rectangle",
            noise=noise,
        )
        for i in range(count)
    ]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


def _retrieve(base: MemoryBase, embedding, cfg: MemoryConfig, event_seed: int):
    if cfg.retrieval == "random":
        return retrieve_random(base, cfg.k, rng_seed=event_seed)
    return retrieve_topk(base, embedding, cfg.k, use_confidence=cfg.use_confidence)


def build_model(settings: EpisodeSettings):
    """A run's encoder geometry, its one block (two heads) and fusion;
    ValueError if inconsistent."""
    enc_cfg = EncoderConfig(
        image_size=settings.image_size,
        patch_size=settings.patch_size,
        channels=settings.channels,
        proj_seed=settings.model_seed,
    )
    block = block_params(
        np.random.default_rng(np.random.SeedSequence([settings.model_seed, 0xB10C, 0])),
        settings.channels,
        bottleneck=settings.bottleneck,
    )
    if not settings.adapter_enabled:
        block.adapter.w_up[:] = 0.0  # exact residual: adapter branch off
    return enc_cfg, [block], structured_fusion_params(settings.channels)


class _Runner:
    """One seed's worth of episode state."""

    def __init__(self, tasks, mem_cfg: MemoryConfig, settings: EpisodeSettings, seed: int):
        self.tasks = tasks
        self.mem_cfg = mem_cfg
        self.settings = settings
        self.seed = seed
        self.enc_cfg, self.blocks, self.fusion = build_model(settings)
        self.base = new_base(mem_cfg.capacity, self.enc_cfg.feature_shape)
        self.event = 0
        self.retrieval_log: list[dict] = []
        self.outcomes: dict[str, int] = {}  # this task's insert outcomes, by kind
        self.digest = hashlib.sha256()

    def gen_volume(self, task: TaskSpec, volume: int, eval_split: bool) -> list[Frame]:
        tag = 0xE7A1 if eval_split else 0x57E3
        vol_seed = _derive_seed(self.seed, tag, task.task_id, volume)
        frames = [
            gen_frame(task, volume * self.settings.slices_per_volume + s, vol_seed,
                      size=self.settings.image_size)
            for s in range(self.settings.slices_per_volume)
        ]
        return preprocess_stream(frames)

    def step(self, task: TaskSpec, frame: Frame, enc, tag: str, insert: bool):
        """retrieve -> fuse -> predict -> (optionally) insert; returns the
        frame's dice and confidence."""
        e, pe = enc
        self.event += 1
        event_seed = _derive_seed(self.seed, 0x5EED, self.event)
        result = _retrieve(self.base, e, self.mem_cfg, event_seed)
        e_cond = fuse(e, pe, result.features, result.encodings, self.fusion)
        prompt = encode_prompt(bbox_of(frame.mask), self.settings.image_size)
        mask_hat, y_hat = predict(
            e_cond,
            prompt,
            frame,
            self.enc_cfg,
            miscalibration=task.noise.confidence_miscalibration,
            rng_seed=event_seed,
        )
        self.digest.update(mask_hat.tobytes())
        self.digest.update(repr(y_hat).encode())
        if self.settings.log_retrievals and result.indices:  # an empty base logs nothing
            self.retrieval_log.append(
                {
                    "frame": tag,
                    "mode": self.mem_cfg.retrieval,
                    "use_confidence": self.mem_cfg.use_confidence,
                    "indices": result.indices,
                    "scores": result.scores,
                }
            )
        if insert:
            entry = MemoryEntry(
                mask_feature=mask_feature(frame.mask, self.enc_cfg),
                positional_encoding=pe,
                y_hat=y_hat,
                image_embedding=e,
                source_tag=tag,
            )
            self.outcomes[insert_or_replace(self.base, entry).kind] += 1
        return dice(mask_hat, frame.mask), y_hat

    def eval_pass(self, task: TaskSpec, cached) -> float:
        """Frozen evaluation: no inserts, memory unchanged."""
        values = [
            self.step(task, frame, enc, f"eval/task{task.task_id}/s{frame.slice_index}",
                      insert=False)[0]
            for frame, enc in cached
        ]
        return float(np.mean(values)) if values else 0.0

    def run(self) -> dict:
        settings = self.settings
        eval_cache: dict[int, list] = {}
        per_task: list[dict] = []
        snapshots: list[dict] = []

        for task in self.tasks:
            self.outcomes = dict.fromkeys(("appended", "replaced", "rejected"), 0)
            phase_dice: list[float] = []
            phase_conf: list[float] = []
            for v in range(settings.volumes_per_task):
                frames = self.gen_volume(task, v, eval_split=False)
                encs = encode_stack(frames, self.blocks, self.enc_cfg)
                for frame, enc in zip(frames, encs):
                    d, y = self.step(
                        task,
                        frame,
                        enc,
                        f"task{task.task_id}/v{v}/s{frame.slice_index}",
                        insert=True,
                    )
                    phase_dice.append(d)
                    phase_conf.append(y)
            eval_frames = self.gen_volume(task, settings.volumes_per_task, eval_split=True)
            eval_cache[task.task_id] = list(
                zip(eval_frames, encode_stack(eval_frames, self.blocks, self.enc_cfg))
            )
            dsc_before = self.eval_pass(task, eval_cache[task.task_id])
            per_task.append(
                {
                    "task_id": task.task_id,
                    "modality": task.modality_tag,
                    "stream_dsc_mean": float(np.mean(phase_dice)) if phase_dice else 0.0,
                    "stream_dsc_std": float(np.std(phase_dice)) if phase_dice else 0.0,
                    "stream_frames": len(phase_dice),
                    "mean_confidence": float(np.mean(phase_conf)) if phase_conf else 0.0,
                    "dsc_before": dsc_before,
                }
            )
            snapshots.append({**asdict(stats(self.base)), **self.outcomes})

        for task, row in zip(self.tasks, per_task):
            row["dsc_after"] = self.eval_pass(task, eval_cache[task.task_id])
            row["forgetting"] = row["dsc_before"] - row["dsc_after"]

        mean_dsc = float(
            np.mean([0.5 * (r["dsc_before"] + r["dsc_after"]) for r in per_task])
        )
        out = {
            "seed": self.seed,
            "per_task": per_task,
            "memory_snapshots": snapshots,
            "mean_dsc": mean_dsc,
            "mean_stream_dsc": float(np.mean([r["stream_dsc_mean"] for r in per_task])),
            "mean_forgetting": float(np.mean([r["forgetting"] for r in per_task])),
            "prediction_digest": self.digest.hexdigest(),
        }
        if settings.log_retrievals:
            out["retrieval_log"] = self.retrieval_log
        return out


def run_episode(
    tasks: list[TaskSpec],
    mem_cfg: MemoryConfig,
    seeds: list[int],
    settings: EpisodeSettings = EpisodeSettings(),
) -> EpisodeReport:
    """Run the episode once per seed and aggregate across seeds."""
    if not tasks:
        raise ValueError("need at least one task")
    if not seeds:
        raise ValueError("need at least one seed")
    per_seed = [_Runner(tasks, mem_cfg, settings, int(s)).run() for s in seeds]
    dscs = [r["mean_dsc"] for r in per_seed]
    aggregate = {
        "mean_dsc": float(np.mean(dscs)),
        "std_dsc": float(np.std(dscs)),
        "mean_stream_dsc": float(np.mean([r["mean_stream_dsc"] for r in per_seed])),
        "mean_forgetting": float(np.mean([r["mean_forgetting"] for r in per_seed])),
        "seeds": [int(s) for s in seeds],
    }
    config = {
        "tasks": [asdict(t) for t in tasks],
        "memory": asdict(mem_cfg),
        "settings": asdict(settings),
        "seeds": [int(s) for s in seeds],
    }
    return EpisodeReport(config=config, per_seed=per_seed, aggregate=aggregate)
