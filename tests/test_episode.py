"""Tests for the continual-learning episode runner."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from memseg import episode, memory
from memseg.episode import (
    EpisodeSettings,
    MemoryConfig,
    make_tasks,
    run_episode,
)
from memseg.fusion import memory_tokens
from memseg.pipeline import EncoderConfig, bbox_of, encode_prompt, encode_stack, predict
from memseg.synth import NoiseConfig, TaskSpec, gen_frame
from blas_core import pin_note

FAST = EpisodeSettings(volumes_per_task=1, slices_per_volume=4)


def quick_tasks(count=2, corrupt=0.0, sigma=0.5):
    return make_tasks(
        count,
        NoiseConfig(label_corrupt_prob=corrupt, feature_noise_sigma=sigma),
    )


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_default_episode_digests_match_reference():
    """Seeds 0 and 1 of the A5 cs640 episode reproduce the benchmark's
    recorded prediction digests."""
    want = json.loads(REFERENCE.read_text())["episode_default"]
    tasks = make_tasks(10, NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0))
    mem = MemoryConfig(capacity=640, k=4, retrieval="confidence_similarity")
    report = run_episode(tasks, mem, [0, 1], EpisodeSettings(volumes_per_task=2))
    assert [r["prediction_digest"] for r in report.per_seed] == [want["0"], want["1"]]


def test_saturated_episode_digest_matches_reference():
    """Seed 0 of the same episode at 10 volumes per task: 800 inserts into
    capacity 640, so confidence-gated replacement runs beside retrieval."""
    want = json.loads(REFERENCE.read_text())["episode_saturated"]
    tasks = make_tasks(10, NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0))
    mem = MemoryConfig(capacity=640, k=4, retrieval="confidence_similarity")
    report = run_episode(tasks, mem, [0], EpisodeSettings(volumes_per_task=10))
    assert report.per_seed[0]["prediction_digest"] == want["0"]


# sha256 of run_episode(...).to_json() for 3 tasks at label noise 0.3 and
# feature noise 1.0, seeds [0, 1] and default settings, at miscalibration
# 0.35 (so predict draws its noise) except where the name says 0.  cs16
# fills after its first task and runs confidence-gated replacement from
# then on.  The bytes hold on the OpenBLAS core type
# blas_core.PIN_CORE_TYPE: other kernels round the encoder's and the
# cosine's products differently.  Regenerate only with an explained
# change, like perfbench/reference.json.
REPORT_SHA256 = {
    "cs640": (
        MemoryConfig(capacity=640),
        0.35,
        "eaef09bc687616e0ebfa5adc9fce65448fa6873197fde7c2ab2a678932164a5b",
    ),
    "cs640-miscalibration0": (
        MemoryConfig(capacity=640),
        0.0,
        "2db70c8e6bcce7876bb2dce130906b6e4e057631b35fc6775375f77cf707a90a",
    ),
    "random640": (
        MemoryConfig(capacity=640, retrieval="random"),
        0.35,
        "8f28adb28c75e8a82cb23ade4d23ab6a6a054cf084172e46fb023c1a1e9f641f",
    ),
    "capacity0": (
        MemoryConfig(capacity=0),
        0.35,
        "ebe733943905e3fb4fde582d9b704315d85ef20b2051f77a7f2c5663908cceb9",
    ),
    "cs16": (
        MemoryConfig(capacity=16),
        0.35,
        "218266410975c77077f9c2a9cccf1532ff1bec108a5a36debecc3151d7a3e4e5",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_full_report_bytes_match_pin(name):
    """The whole report is pinned, not only the predictions: a wrong
    forgetting sign, spread or event seed changes these bytes."""
    mem, miscalibration, want = REPORT_SHA256[name]
    noise = NoiseConfig(
        label_corrupt_prob=0.3, feature_noise_sigma=1.0, confidence_miscalibration=miscalibration
    )
    report = run_episode(make_tasks(3, noise), mem, [0, 1])
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == want, pin_note()


# sha256 of the cs640 report above at a 2x2 token grid (image_size 8,
# patch_size 4) with retrieval logs, on the same core type.  Boxes of one
# token happen there.  Last regenerated when the cosine began to compute
# each row's dot product on its own: 246 logged scores moved, by at most
# 2.2e-16, and the logged indices and the prediction digests stayed.
TINY_GRID_REPORT_SHA256 = "12865c7438afe3e30328ba858afa974bd4650b7c42b9dd5b61bd0602efd595bb"


def test_tiny_grid_report_bytes_match_pin(monkeypatch):
    boxes = []
    fuse = episode.fuse

    def counting_fuse(e, pe, memory, rows, cols):
        boxes.append(len(range(e.shape[1])[rows]) * len(range(e.shape[2])[cols]))
        return fuse(e, pe, memory, rows, cols)

    monkeypatch.setattr(episode, "fuse", counting_fuse)
    noise = NoiseConfig(
        label_corrupt_prob=0.3, feature_noise_sigma=1.0, confidence_miscalibration=0.35
    )
    settings = EpisodeSettings(image_size=8, patch_size=4, log_retrievals=True)
    report = run_episode(make_tasks(3, noise), MemoryConfig(capacity=640), [0, 1], settings)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == TINY_GRID_REPORT_SHA256, (
        pin_note()
    )
    assert {1, 2, 4} <= set(boxes)  # one-token, one-row or one-column, and whole-grid boxes


@pytest.mark.parametrize(
    "retrieval, miscalibration, per_step",
    [
        (retrieval, miscalibration, int(retrieval == "random" or miscalibration > 0))
        for miscalibration in (0.0, 0.35)
        for retrieval in episode.RETRIEVAL_MODES
    ],
)
def test_event_seeds_derived_only_where_read(monkeypatch, retrieval, miscalibration, per_step):
    """Each volume derives its seed; a step derives its event seed only
    when random retrieval or predict's miscalibration draw reads it, and
    the event number advances on every step either way."""
    parts, predicts = [], []
    derive, predict_ = episode._derive_seed, episode.predict
    monkeypatch.setattr(episode, "_derive_seed", lambda *p: parts.append(p) or derive(*p))
    monkeypatch.setattr(
        episode, "predict", lambda *a, **kw: predicts.append(1) or predict_(*a, **kw)
    )
    noise = NoiseConfig(
        label_corrupt_prob=0.3, feature_noise_sigma=1.0, confidence_miscalibration=miscalibration
    )
    tasks = make_tasks(2, noise)
    run_episode(tasks, MemoryConfig(retrieval=retrieval), [0], FAST)
    volume_tags = [p[1] for p in parts if p[1] != 0x5EED]
    events = [p[2] for p in parts if p[1] == 0x5EED]
    assert len(volume_tags) == len(tasks) * (FAST.volumes_per_task + 1)
    assert events == list(range(1, len(predicts) + 1)) * per_step


def test_report_schema_well_formed():
    # two tasks, so the first task's forgetting is measured across a later
    # task's inserts and its sign shows; at feature noise 0.5 similarity
    # retrieval keeps to each task's own entries and forgets nothing
    tasks = quick_tasks(2, corrupt=0.3, sigma=1.0)
    for retrieval in episode.RETRIEVAL_MODES:
        report = run_episode(tasks, MemoryConfig(retrieval=retrieval), [0, 1], FAST)
        assert len(report.per_seed) == 2
        for row in report.per_seed:
            per_task = row["per_task"]
            assert 0.0 <= row["mean_dsc"] <= 1.0
            for task_row in per_task:
                assert 0.0 <= task_row["stream_dsc_mean"] <= 1.0
                assert 0.0 <= task_row["dsc_before"] <= 1.0
                assert 0.0 <= task_row["dsc_after"] <= 1.0
                assert task_row["forgetting"] == task_row["dsc_before"] - task_row["dsc_after"]
            (b0, a0, s0, f0), (b1, a1, s1, f1) = (
                (r["dsc_before"], r["dsc_after"], r["stream_dsc_mean"], r["forgetting"])
                for r in per_task
            )
            assert row["mean_dsc"] == pytest.approx((b0 + a0 + b1 + a1) / 4, rel=1e-12)
            assert row["mean_stream_dsc"] == pytest.approx((s0 + s1) / 2, rel=1e-12)
            assert row["mean_forgetting"] == pytest.approx((f0 + f1) / 2, rel=1e-12, abs=1e-15)
            assert len(row["memory_snapshots"]) == len(tasks)
        assert any(r["forgetting"] != 0.0 for row in report.per_seed for r in row["per_task"])
        seed_dsc = [row["mean_dsc"] for row in report.per_seed]
        assert report.aggregate["mean_dsc"] == pytest.approx(np.mean(seed_dsc), rel=1e-12)
        assert report.aggregate["std_dsc"] == pytest.approx(np.std(seed_dsc), rel=1e-12)
        assert report.config["memory"]["retrieval"] == retrieval
        # the task echo the README's report schema documents
        assert len(report.config["tasks"]) == len(tasks)
        for echo in report.config["tasks"]:
            assert set(echo) == {
                "task_id", "modality_tag", "projection_seed", "shape_family", "noise",
            }
            assert set(echo["noise"]) == {
                "label_corrupt_prob", "feature_noise_sigma", "confidence_miscalibration",
            }


def test_stream_statistics_match_recorded_dice(monkeypatch):
    """Each task's stream mean and spread are np.mean and np.std of the
    Dice values its stream steps returned.  A task's snapshot closes its
    phase, so the values recorded since the previous snapshot are its
    stream steps followed by its dsc_before evaluation."""
    phases = [[]]
    dice_, stats_ = episode.dice, episode.stats

    def recorded_dice(*args):
        phases[-1].append(dice_(*args))
        return phases[-1][-1]

    monkeypatch.setattr(episode, "dice", recorded_dice)
    monkeypatch.setattr(episode, "stats", lambda base: phases.append([]) or stats_(base))
    row = run_episode(quick_tasks(3, corrupt=0.3), MemoryConfig(), [0], FAST).per_seed[0]
    assert len(phases) == 4  # three phases, then the final evaluations
    for task_row, recorded in zip(row["per_task"], phases):
        stream = recorded[: task_row["stream_frames"]]
        assert len(stream) == task_row["stream_frames"] > 1
        assert task_row["stream_dsc_mean"] == float(np.mean(stream))
        assert task_row["stream_dsc_std"] == float(np.std(stream))
        assert task_row["stream_dsc_std"] > 0.0


@pytest.mark.parametrize("retrieval", episode.RETRIEVAL_MODES)
def test_seed_rows_do_not_depend_on_the_other_seeds(retrieval):
    """A seed's row is the same whichever seeds run before it: no state,
    such as an event counter, carries from one seed to the next."""
    noise = NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0,
                        confidence_miscalibration=0.35)
    tasks = make_tasks(3, noise)
    cfg = MemoryConfig(capacity=8, retrieval=retrieval)
    pair = run_episode(tasks, cfg, [3, 7], FAST)
    alone = run_episode(tasks, cfg, [7], FAST)
    assert pair.per_seed[1] == alone.per_seed[0]


@pytest.mark.parametrize("retrieval", episode.RETRIEVAL_MODES)
def test_miscalibration_without_corruption_changes_nothing(retrieval):
    """Miscalibration perturbs only corrupted frames' confidences, so at
    label_corrupt_prob 0 the predictions and confidences are the same at
    miscalibration 0 and 0.7."""

    def digest(miscalibration):
        noise = NoiseConfig(label_corrupt_prob=0.0, feature_noise_sigma=1.0,
                            confidence_miscalibration=miscalibration)
        cfg = MemoryConfig(capacity=8, retrieval=retrieval)
        report = run_episode(make_tasks(3, noise), cfg, [5], FAST)
        return report.per_seed[0]["prediction_digest"]

    assert digest(0.7) == digest(0.0)


@pytest.mark.parametrize("retrieval", episode.RETRIEVAL_MODES)
def test_unfilled_capacity_changes_nothing_but_the_capacity(retrieval):
    """A base that never fills never replaces, so a capacity of the raw
    stream length and one ten times larger report the same, except for
    the snapshots' capacity.  Preprocessing can only drop frames."""
    noise = NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0,
                        confidence_miscalibration=0.35)
    tasks = make_tasks(3, noise)
    frames = len(tasks) * FAST.volumes_per_task * FAST.slices_per_volume

    def results(capacity):
        report = run_episode(tasks, MemoryConfig(capacity=capacity, retrieval=retrieval),
                             [2], FAST)
        for snap in report.per_seed[0]["memory_snapshots"]:
            assert snap.pop("capacity") == capacity
        return report.per_seed, report.aggregate

    full = results(frames)
    assert full[0][0]["memory_snapshots"][-1]["count"] == frames  # the smaller base fills
    assert full == results(10 * frames)


@pytest.mark.parametrize("retrieval", episode.RETRIEVAL_MODES)
def test_kept_slot_tokens_equal_the_retrieved_rows_tokens(monkeypatch, retrieval):
    """Every step fuses read-only tokens bit-equal to memory_tokens of the
    rows it retrieved, as they were at retrieval, in an episode that
    saturates a capacity-4 base: the base drops a slot's kept tokens when
    an insert replaces it, and replaced slots are retrieved again."""
    results, wants, fused = [], [], []
    insert, fuse = episode.insert_or_replace, episode.fuse
    retrieved, stale, revisits = set(), set(), []

    def recording(retrieve):
        def recording_retrieve(base, *args, **kwargs):
            results.append(retrieve(base, *args, **kwargs))
            idx = results[-1].indices
            shape = (len(idx), *base.feature_shape)
            wants.append(memory_tokens(base.mask_features[idx].reshape(shape),
                                       base.positional_encodings[idx].reshape(shape)))
            revisits.extend(stale.intersection(results[-1].indices))
            stale.difference_update(results[-1].indices)
            retrieved.update(results[-1].indices)
            return results[-1]

        return recording_retrieve

    def recording_insert(base, entry):
        outcome = insert(base, entry)
        if outcome.kind == "replaced" and outcome.index in retrieved:
            stale.add(outcome.index)
        return outcome

    def checking_fuse(e, pe, memory, rows, cols):
        want = wants[-1]
        assert memory.shape == want.shape and memory.tobytes() == want.tobytes()
        assert not memory.flags.writeable
        fused.append(len(memory))
        return fuse(e, pe, memory, rows, cols)

    # the names perfbench wraps: the rule's retrieval call is one of them
    for name in ("retrieve_topk", "retrieve_random"):
        monkeypatch.setattr(episode, name, recording(getattr(episode, name)))
    monkeypatch.setattr(episode, "insert_or_replace", recording_insert)
    monkeypatch.setattr(episode, "fuse", checking_fuse)
    noise = NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0,
                        confidence_miscalibration=0.35)
    row = run_episode(make_tasks(3, noise), MemoryConfig(capacity=4, retrieval=retrieval),
                      [0], FAST).per_seed[0]
    assert len(fused) == len(results) and max(fused) == 4
    assert sum(snap["replaced"] for snap in row["memory_snapshots"]) > 0
    assert revisits  # a replaced slot's stale tokens would have been fused


def test_random_retrieval_builds_no_query_stack(monkeypatch):
    """A query stack serves only top-K retrieval: a random-retrieval
    episode never builds one, while a similarity episode, under the same
    patch, does."""
    def refuse(self, embeddings):
        raise AssertionError("a query stack was built")

    monkeypatch.setattr(memory.QueryStack, "__init__", refuse)
    tasks = quick_tasks()
    run_episode(tasks, MemoryConfig(capacity=4, retrieval="random"), [0], FAST)
    with pytest.raises(AssertionError, match="query stack"):
        run_episode(tasks, MemoryConfig(capacity=4, retrieval="similarity"), [0], FAST)


def test_emptied_volumes_report_zero():
    """At image size 4 preprocessing can drop every frame of a one-slice
    volume.  Seed 8 empties task 0's stream and both held-out volumes; each
    empty mean reports 0.0, not NaN or an error."""
    settings = EpisodeSettings(image_size=4, patch_size=2, channels=4, bottleneck=2,
                               volumes_per_task=1, slices_per_volume=1)
    tasks = make_tasks(2, NoiseConfig(label_corrupt_prob=0.5, feature_noise_sigma=1.0))
    row = run_episode(tasks, MemoryConfig(capacity=4), [8], settings).per_seed[0]
    first, second = row["per_task"]
    assert first["stream_frames"] == 0 and second["stream_frames"] == 1
    assert first["stream_dsc_mean"] == first["stream_dsc_std"] == 0.0
    assert first["mean_confidence"] == 0.0
    for task_row in (first, second):
        assert task_row["dsc_before"] == task_row["dsc_after"] == 0.0


def test_digest_ignores_memory_knobs_that_are_never_read():
    """A capacity-0 base is always empty, so the retrieval rule cannot
    reach the predictions.  ablate's grid repeats these cells."""
    tasks = quick_tasks(2, corrupt=0.2)

    def digest(**memory):
        report = run_episode(tasks, MemoryConfig(**memory), [3], FAST)
        return report.per_seed[0]["prediction_digest"]

    zero = {digest(capacity=0, retrieval=retrieval) for retrieval in episode.RETRIEVAL_MODES}
    at16 = {digest(capacity=16, retrieval=retrieval) for retrieval in episode.RETRIEVAL_MODES}
    assert len(zero) == 1
    # memory does reach the predictions at capacity 16, and each rule differently
    assert len(at16) == len(episode.RETRIEVAL_MODES) and not zero & at16


def test_episode_deterministic_byte_identical():
    tasks = quick_tasks(2, corrupt=0.3)
    cfg = MemoryConfig(capacity=16)
    a = run_episode(tasks, cfg, [0, 1], FAST)
    b = run_episode(tasks, cfg, [0, 1], FAST)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("capacity", [640, 4])
@pytest.mark.parametrize("retrieval", episode.RETRIEVAL_MODES)
def test_memory_causality_prefix_equality(retrieval, capacity):
    # streaming later tasks must not change earlier tasks' phase results or
    # memory snapshots, for every prefix and under every rule; capacity 4 is
    # full after the first task, so the later tasks' inserts run the
    # replacement path too
    tasks = quick_tasks(3, corrupt=0.2)
    mem = MemoryConfig(capacity=capacity, retrieval=retrieval)
    full = run_episode(tasks, mem, [7], FAST).per_seed[0]
    snaps = full["memory_snapshots"]
    assert (sum(s["replaced"] for s in snaps) > 0) == (capacity == 4)
    for p in (1, 2):
        prefix = run_episode(tasks[:p], mem, [7], FAST).per_seed[0]
        assert prefix["memory_snapshots"] == snaps[:p], p
        for row_full, row_prefix in zip(full["per_task"][:p], prefix["per_task"], strict=True):
            for key in ("stream_dsc_mean", "stream_dsc_std", "stream_frames",
                        "mean_confidence", "dsc_before"):
                assert row_full[key] == row_prefix[key], (p, key)


def test_memory_fills_and_snapshots_monotone():
    tasks = quick_tasks(2)
    report = run_episode(tasks, MemoryConfig(capacity=640), [0], FAST)
    snaps = report.per_seed[0]["memory_snapshots"]
    assert snaps[0]["count"] > 0
    assert snaps[1]["count"] >= snaps[0]["count"]
    assert snaps[1]["capacity"] == 640


def test_small_capacity_respected():
    tasks = quick_tasks(2)
    report = run_episode(tasks, MemoryConfig(capacity=4), [0], FAST)
    for snap in report.per_seed[0]["memory_snapshots"]:
        assert snap["count"] <= 4


def test_snapshots_count_insert_outcomes_per_task():
    # default settings: 16 inserts per task, so cs16 is full after task 0
    tasks = quick_tasks(2, corrupt=0.3)
    for capacity, saturates in ((16, True), (640, False)):
        row = run_episode(tasks, MemoryConfig(capacity=capacity), [0]).per_seed[0]
        snaps = row["memory_snapshots"]
        for snap, task_row in zip(snaps, row["per_task"]):
            kinds = snap["appended"] + snap["replaced"] + snap["rejected"]
            assert kinds == task_row["stream_frames"] == 16
        assert sum(s["appended"] for s in snaps) == min(capacity, 32)
        full_base_inserts = sum(s["replaced"] + s["rejected"] for s in snaps)
        assert (full_base_inserts > 0) == saturates


def test_retrieval_log_emitted_when_enabled():
    settings = EpisodeSettings(
        volumes_per_task=1, slices_per_volume=4, log_retrievals=True
    )
    tasks = quick_tasks(1)
    report = run_episode(tasks, MemoryConfig(capacity=640), [0], settings)
    log = report.per_seed[0]["retrieval_log"]
    assert log, "expected at least one retrieval event"
    for event in log:
        assert event["scores"] == sorted(event["scores"], reverse=True)
        assert len(event["indices"]) <= 4


def test_confidence_off_scores_are_pure_similarity():
    # without the confidence term the logged scores are bare cosines,
    # which live in [-1, 1]
    settings = EpisodeSettings(
        volumes_per_task=1, slices_per_volume=4, log_retrievals=True
    )
    tasks = quick_tasks(1)
    off = run_episode(tasks, MemoryConfig(capacity=640, retrieval="similarity"), [0], settings)
    for event in off.per_seed[0]["retrieval_log"]:
        assert event["mode"] == "similarity"
        assert all(-1.0 <= s <= 1.0 for s in event["scores"])
    on = run_episode(tasks, MemoryConfig(capacity=640), [0], settings)
    assert any(
        s > 1.0 for event in on.per_seed[0]["retrieval_log"] for s in event["scores"]
    )


# prediction digests of seeds 0 and 1 of the REPORT_SHA256 setup (miscalibration
# 0.35) with the confidence term off, taken when it was a flag beside
# confidence_similarity retrieval: similarity retrieval must reproduce them
SIMILARITY_DIGESTS = {
    16: ["253f7e3dfe62c366fcfd246fc0d50edd8c8f7a725d3d17ebc4c972ef5d455ccb",
         "0e0296da8d53689f53187a49495f69c685ca0f9ef1aabfb3a2e8c40f6e7f5401"],
    640: ["fdd40d99f399d1e913dc8180c5cda4259d012ddd527039529e4f6b42a5fe9a33",
          "4c56b2b21103de55b3c3e49221e57a11c569763cfbbb49d985f3e69fbc05cd4e"],
}


@pytest.mark.parametrize("capacity", sorted(SIMILARITY_DIGESTS))
def test_similarity_reproduces_the_flag_off_predictions(capacity):
    noise = NoiseConfig(
        label_corrupt_prob=0.3, feature_noise_sigma=1.0, confidence_miscalibration=0.35
    )
    mem = MemoryConfig(capacity=capacity, retrieval="similarity")
    report = run_episode(make_tasks(3, noise), mem, [0, 1])
    assert [r["prediction_digest"] for r in report.per_seed] == SIMILARITY_DIGESTS[capacity]


def test_corrupted_frames_get_lower_confidence():
    # statistical: over >= 1000 frames, corrupted labels disagree with the
    # image content so their oracle confidence is lower on average
    cfg = EncoderConfig()
    task = TaskSpec(
        0, "ct", 100,
        noise=NoiseConfig(label_corrupt_prob=0.5, feature_noise_sigma=1.0),
    )
    clean, corrupt = [], []
    n = 0
    seed = 0
    while n < 1000:
        frame = gen_frame(task, n % 8, seed)
        seed += 1
        if frame.mask.sum() == 0:
            continue
        n += 1
        e, _ = encode_stack([frame], [], cfg)[0]
        prompt = encode_prompt(bbox_of(frame.mask), cfg.image_size)
        _, y_hat = predict(e, prompt, frame, cfg, miscalibration=0.0)
        (corrupt if frame.is_corrupted else clean).append(y_hat)
    assert len(clean) > 100 and len(corrupt) > 100
    gap = np.mean(clean) - np.mean(corrupt)
    stderr = np.sqrt(np.var(clean) / len(clean) + np.var(corrupt) / len(corrupt))
    assert gap > 3.0 * stderr


def test_validation_errors():
    with pytest.raises(ValueError):
        MemoryConfig(retrieval="nearest")
    with pytest.raises(ValueError):
        MemoryConfig(capacity=-1)
    with pytest.raises(ValueError):
        MemoryConfig(k=0)
    with pytest.raises(ValueError):
        run_episode([], MemoryConfig(), [0], FAST)
    with pytest.raises(ValueError):
        run_episode(quick_tasks(1), MemoryConfig(), [], FAST)
    with pytest.raises(ValueError):
        make_tasks(0, NoiseConfig())
