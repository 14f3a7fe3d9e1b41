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
import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import block_params
from .fusion import fuse
from .memory import (
    MemoryEntry,
    QueryStack,
    insert_or_replace,
    new_base,
    retrieve_random,
    retrieve_topk,
    stats,
    tokens_of,
)
from .metrics import dice
from .pipeline import (
    EncoderConfig,
    bbox_of,
    encode_prompt,
    encode_stack,
    mask_feature,
    predict,
    prompt_tokens,
)
from .synth import Frame, NoiseConfig, TaskSpec, gen_frame, preprocess_stream

# a uniform sample, similarity alone, the paper's similarity-plus-confidence rule;
# ablate sweeps them all
RETRIEVAL_MODES = ("random", "similarity", "confidence_similarity")


@dataclass(frozen=True)
class MemoryConfig:
    capacity: int = 640
    k: int = 4
    retrieval: str = "confidence_similarity"

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


def build_model(settings: EpisodeSettings):
    """A run's encoder geometry and its one block (two heads); ValueError
    if inconsistent."""
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
    return enc_cfg, [block]


def _volume(task: TaskSpec, settings: EpisodeSettings, seed: int, volume: int,
            eval_split: bool) -> list[Frame]:
    """One preprocessed volume of a task's stream or of its held-out split;
    nothing here depends on the memory."""
    tag = 0xE7A1 if eval_split else 0x57E3
    vol_seed = _derive_seed(seed, tag, task.task_id, volume)
    frames = [
        gen_frame(task, volume * settings.slices_per_volume + s, vol_seed,
                  size=settings.image_size)
        for s in range(settings.slices_per_volume)
    ]
    return preprocess_stream(frames)


def _run_seed(tasks, mem_cfg: MemoryConfig, settings: EpisodeSettings, seed: int) -> dict:
    """One seed's episode.  Each volume is encoded when it is reached, then
    ``run_pass`` is the one loop over its frames: each is retrieved for,
    fused, predicted and inserted.  The rule is read once per seed, and
    whether a pass builds a query stack and reads event seeds is decided
    once per pass, not per frame.  Evaluation is the same pass without the
    insert, so it leaves the memory unchanged."""
    enc_cfg, blocks = build_model(settings)
    base = new_base(mem_cfg.capacity, enc_cfg.feature_shape)
    events = itertools.count(1)
    digest = hashlib.sha256()
    retrieval_log: list[dict] = []
    random_rule = mem_cfg.retrieval == "random"
    use_confidence = mem_cfg.retrieval == "confidence_similarity"

    def encoded(task, volume, eval_split):
        """(frame, (E, PE), box prompt) per frame of one volume; a held-out
        volume's prompts serve both of its evaluations."""
        frames = _volume(task, settings, seed, volume, eval_split)
        return [
            (frame, enc, encode_prompt(bbox_of(frame.mask), settings.image_size))
            for frame, enc in zip(frames, encode_stack(frames, blocks, enc_cfg))
        ]

    def run_pass(task, volume, prefix, outcomes=None):
        """The loop over an encoded volume's frames: retrieve -> fuse ->
        predict, then insert and count the outcome unless ``outcomes`` is
        None; returns (dice, confidence) per frame.  Top-K retrieval scores
        the volume's embeddings as one stack, read through each frame's
        handle; random retrieval builds none."""
        # every frame takes an event number, but only random retrieval and
        # predict's miscalibration draw read its seed
        reads_seed = random_rule or task.noise.confidence_miscalibration > 0
        stack = None if random_rule else QueryStack([e for _, (e, _), _ in volume])
        results = []
        for j, (frame, (e, pe), prompt) in enumerate(volume):
            tag = f"{prefix}/s{frame.slice_index}"
            event = next(events)
            event_seed = _derive_seed(seed, 0x5EED, event) if reads_seed else 0
            if random_rule:
                result = retrieve_random(base, mem_cfg.k, rng_seed=event_seed)
            else:
                result = retrieve_topk(base, stack[j], mem_cfg.k, use_confidence=use_confidence)
            # predict reads only the prompt box's tokens, so only they are fused
            e_cond = fuse(e, pe, tokens_of(base, result.indices), *prompt_tokens(prompt, enc_cfg))
            mask_hat, y_hat = predict(
                e_cond,
                prompt,
                frame,
                enc_cfg,
                miscalibration=task.noise.confidence_miscalibration,
                rng_seed=event_seed,
            )
            digest.update(mask_hat.tobytes())
            digest.update(repr(y_hat).encode())
            if settings.log_retrievals and result.indices:  # an empty base logs nothing
                retrieval_log.append(
                    {
                        "frame": tag,
                        "mode": mem_cfg.retrieval,
                        "indices": result.indices,
                        "scores": result.scores,
                    }
                )
            if outcomes is not None:
                entry = MemoryEntry(
                    mask_feature=mask_feature(frame.mask, enc_cfg),
                    positional_encoding=pe,
                    y_hat=y_hat,
                    image_embedding=e,
                    source_tag=tag,
                )
                outcomes[insert_or_replace(base, entry).kind] += 1
            results.append((dice(mask_hat, frame.mask), y_hat))
        return results

    def evaluate(task, held_out) -> float:
        values = [d for d, _ in run_pass(task, held_out, f"eval/task{task.task_id}")]
        return float(np.mean(values)) if values else 0.0

    per_task: list[dict] = []
    snapshots: list[dict] = []
    held_out: list[list] = []  # per task, its encoded held-out volume
    for task in tasks:
        outcomes = dict.fromkeys(("appended", "replaced", "rejected"), 0)
        streamed = [
            result
            for v in range(settings.volumes_per_task)
            for result in run_pass(task, encoded(task, v, eval_split=False),
                                   f"task{task.task_id}/v{v}", outcomes)
        ]
        # preprocessing can drop every frame of a small volume: an empty
        # stream or held-out volume reports 0.0
        phase_dice = [d for d, _ in streamed]
        phase_conf = [y for _, y in streamed]
        held_out.append(encoded(task, settings.volumes_per_task, eval_split=True))
        per_task.append(
            {
                "task_id": task.task_id,
                "modality": task.modality_tag,
                "stream_dsc_mean": float(np.mean(phase_dice)) if phase_dice else 0.0,
                "stream_dsc_std": float(np.std(phase_dice)) if phase_dice else 0.0,
                "stream_frames": len(phase_dice),
                "mean_confidence": float(np.mean(phase_conf)) if phase_conf else 0.0,
                "dsc_before": evaluate(task, held_out[-1]),
            }
        )
        snapshots.append({**asdict(stats(base)), **outcomes})

    for task, row, volume in zip(tasks, per_task, held_out):
        row["dsc_after"] = evaluate(task, volume)
        row["forgetting"] = row["dsc_before"] - row["dsc_after"]

    mean_dsc = float(
        np.mean([0.5 * (r["dsc_before"] + r["dsc_after"]) for r in per_task])
    )
    out = {
        "seed": seed,
        "per_task": per_task,
        "memory_snapshots": snapshots,
        "mean_dsc": mean_dsc,
        "mean_stream_dsc": float(np.mean([r["stream_dsc_mean"] for r in per_task])),
        "mean_forgetting": float(np.mean([r["forgetting"] for r in per_task])),
        "prediction_digest": digest.hexdigest(),
    }
    if settings.log_retrievals:
        out["retrieval_log"] = retrieval_log
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
    per_seed = [_run_seed(tasks, mem_cfg, settings, int(s)) for s in seeds]
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
