"""Acceptance suite: one test per criterion, each printing a PASS line at
its stated tolerance (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight episode batteries (A5/A6) share one module-scoped run.
"""

import json
import time

import numpy as np
import pytest

from memseg.adapter import block_params, grad_check
from memseg.cli import main
from memseg.episode import EpisodeSettings, MemoryConfig, make_tasks, run_episode
from memseg.fusion import fuse, memory_tokens
from memseg.kernels import softmax
from memseg.memory import (
    BadMagicError,
    MemoryEntry,
    base_bytes,
    insert_or_replace,
    load_base,
    new_base,
    retrieve_topk,
    save_base,
)
from memseg.metrics import dice, iou
from memseg.synth import Frame, NoiseConfig, preprocess_stream
from memory_oracle import oracle_topk


def _ok(name: str, detail: str = ""):
    print(f"[{name}] PASS {detail}".rstrip())


def _random_entry(rng, shape):
    return MemoryEntry(
        rng.normal(size=shape),
        rng.normal(size=shape),
        float(rng.normal()),
        rng.normal(size=shape),
    )


# ---------------------------------------------------------------------------
# A1 retrieval oracle equivalence


def test_a1_retrieval_oracle_equivalence():
    rng = np.random.default_rng(0xA1)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, max(2, 128 // (c * h) + 1)))
        shape = (c, h, min(w, 4))
        n = int(rng.integers(1, 65))
        entries = [_random_entry(rng, shape) for _ in range(n)]
        # occasionally force exact duplicates to exercise the tie-break
        if n >= 2 and rng.uniform() < 0.2:
            src = entries[0]
            entries[1] = MemoryEntry(
                src.mask_feature.copy(),
                src.positional_encoding.copy(),
                src.y_hat,
                src.image_embedding.copy(),
            )
        base = new_base(64, shape)
        for e in entries:
            insert_or_replace(base, e)
        query = rng.normal(size=shape)
        k = int(rng.integers(1, 11))
        want = oracle_topk(base.image_embeddings[:n], base.confidences[:n], query, k)
        if retrieve_topk(base, query, k).indices != want:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0
    _ok("A1", f"1000 bases, 0 mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A2 replacement monotonicity


def test_a2_replacement_monotonicity():
    rng = np.random.default_rng(0xA2)
    shape = (1, 2, 2)
    violations = 0
    for _ in range(10_000):
        cap = int(rng.integers(1, 5))
        base = new_base(cap, shape)
        for _ in range(cap):
            insert_or_replace(base, _random_entry(rng, shape))
        for _ in range(int(rng.integers(1, 4))):
            new = _random_entry(rng, shape)
            before = base_bytes(base)
            slot_confidences = base.confidences[:cap].copy()
            out = insert_or_replace(base, new)
            if len(base) > cap:
                violations += 1
            if out.kind == "replaced":
                if not new.y_hat > out.old_confidence:
                    violations += 1
                if not base.confidences[out.index] > slot_confidences[out.index]:
                    violations += 1
            elif out.kind == "rejected":
                if base_bytes(base) != before:
                    violations += 1
            else:
                violations += 1  # full base must never append
    assert violations == 0
    _ok("A2", "10000 insert sequences, 0 violations")


# ---------------------------------------------------------------------------
# A3 gradient agreement


def test_a3_gradient_agreement():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(0xA3000 + trial)
        params = block_params(rng, 8, bottleneck=4, num_heads=2)
        x = rng.normal(size=(3, 4, 4, 8))
        report = grad_check(params, x, tol=1e-9)
        worst = max(worst, report.max_rel_err)
        assert report.passed, (
            f"instance {trial}: max_rel_err={report.max_rel_err:.3e},"
            f" failing={report.failing()}"
        )
    _ok("A3", f"50 instances, worst max_rel_err={worst:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# A4 fusion identities


def test_a4_fusion_identities():
    rng = np.random.default_rng(0xA4)
    for _ in range(100):
        c = int(rng.integers(2, 9))
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        # a draw no longer used; taking it keeps the 100 instances as they were
        rng.integers(1 << 30)
        e = rng.normal(size=(c, h, w))
        pe = rng.normal(size=(c, h, w))
        # empty memory returns the input bitwise
        none = np.empty((0, c, h, w))
        assert np.array_equal(fuse(e, pe, memory_tokens(none, none)), e)
        # permutation invariance within 1e-12
        retrieved = [
            (rng.normal(size=(c, h, w)), rng.normal(size=(c, h, w)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        perm = rng.permutation(len(retrieved))
        feats, encs = (np.stack(a) for a in zip(*retrieved))
        out = fuse(e, pe, memory_tokens(feats, encs))
        out_p = fuse(e, pe, memory_tokens(feats[perm], encs[perm]))
        assert np.max(np.abs(out - out_p)) <= 1e-12
        # softmax rows sum to 1 within 1e-12
        rows = softmax(rng.uniform(-50, 50, (6, 7)))
        assert np.max(np.abs(rows.sum(axis=-1) - 1.0)) <= 1e-12
    _ok("A4", "100 instances: empty-memory bitwise, permutation <= 1e-12")


# ---------------------------------------------------------------------------
# A5 / A6 episode batteries (shared run)


A56_SEEDS = list(range(20))


@pytest.fixture(scope="module")
def episode_battery():
    noise = NoiseConfig(
        label_corrupt_prob=0.3, feature_noise_sigma=1.0, confidence_miscalibration=0.0
    )
    tasks = make_tasks(10, noise)
    settings = EpisodeSettings()
    start = time.monotonic()
    out = {
        "cs640": run_episode(
            tasks, MemoryConfig(capacity=640, k=4, retrieval="confidence_similarity"),
            A56_SEEDS, settings,
        ),
        "rand640": run_episode(
            tasks, MemoryConfig(capacity=640, k=4, retrieval="random"),
            A56_SEEDS, settings,
        ),
        "cs16": run_episode(
            tasks, MemoryConfig(capacity=16, k=4, retrieval="confidence_similarity"),
            A56_SEEDS, settings,
        ),
    }
    out["elapsed"] = time.monotonic() - start
    return out


def test_a5_noise_robust_retrieval(episode_battery):
    cs = episode_battery["cs640"].aggregate["mean_dsc"]
    rand = episode_battery["rand640"].aggregate["mean_dsc"]
    gap = cs - rand
    assert gap >= 0.05, f"confidence-similarity {cs:.4f} vs random {rand:.4f}"
    assert episode_battery["elapsed"] <= 600.0
    _ok(
        "A5",
        f"conf-sim {cs:.4f} > random {rand:.4f} (gap {gap:.4f} >= 0.05,"
        f" {episode_battery['elapsed']:.0f}s, 20 seeds)",
    )


def test_a6_memory_size_ordering(episode_battery):
    big = episode_battery["cs640"].aggregate["mean_dsc"]
    small = episode_battery["cs16"].aggregate["mean_dsc"]
    assert big >= small, f"capacity 640 {big:.4f} < capacity 16 {small:.4f}"
    _ok("A6", f"capacity 640 {big:.4f} >= capacity 16 {small:.4f} (20 seeds)")


# ---------------------------------------------------------------------------
# A7 preprocessing rules


def test_a7_preprocessing_fixture():
    def frame(mask, t):
        h, w = mask.shape
        return Frame(features=np.zeros((h, w, 4)), mask=mask, slice_index=t)

    def square(fill_val=1):
        m = np.zeros((16, 16), dtype=np.uint8)
        m[4:8, 4:8] = fill_val
        return m

    two_class = np.zeros((16, 16), dtype=np.uint8)
    two_class[0:3, 0:3] = 1
    two_class[8:11, 8:11] = 2

    fixture = [
        frame(square(), 0),                                 # keep
        frame(np.zeros((16, 16), dtype=np.uint8), 1),       # drop: zero mask
        frame(square(), 2),                                 # keep
        frame(np.ones((10, 30), dtype=np.uint8), 3),        # drop: 10 < 0.5*30
        frame(two_class, 4),                                # split into 2
        frame(np.zeros((16, 16), dtype=np.uint8), 5),       # drop: zero mask
        frame(square(), 6),                                 # keep
        frame(np.zeros((10, 30), dtype=np.uint8), 7),       # drop: both rules
        frame(square(), 8),                                 # keep
        frame(np.zeros((16, 16), dtype=np.uint8), 9),       # drop: zero mask
        frame(square(), 10),                                # keep
        frame(two_class, 11),                               # split into 2
    ]
    assert len(fixture) == 12
    out = preprocess_stream(fixture, min_edge_ratio=0.5)
    # hand-enumerated survivors: 5 squares + 2 splits of each 2-class frame
    assert [f.slice_index for f in out] == [0, 2, 4, 4, 6, 8, 10, 11, 11]
    for f in out:
        assert set(np.unique(f.mask)) <= {0, 1}
        assert f.mask.sum() > 0
    # the split frames carry one class each
    assert np.array_equal(out[2].mask, (two_class == 1).astype(np.uint8))
    assert np.array_equal(out[3].mask, (two_class == 2).astype(np.uint8))
    # idempotence
    twice = preprocess_stream(out, min_edge_ratio=0.5)
    assert len(twice) == len(out)
    for a, b in zip(out, twice):
        assert np.array_equal(a.mask, b.mask)
        assert a.slice_index == b.slice_index
    _ok("A7", "12-frame fixture -> 9 hand-enumerated survivors; idempotent")


# ---------------------------------------------------------------------------
# A8 metric identities


def test_a8_metric_identities():
    rng = np.random.default_rng(0xA8)
    for _ in range(1000):
        a = (rng.uniform(size=(8, 8)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        b = (rng.uniform(size=(8, 8)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        d, i = dice(a, b), iou(a, b)
        assert abs(d - 2.0 * i / (1.0 + i)) <= 1e-12
        assert d >= i
    # the three pinned examples
    m = np.zeros((4, 4), dtype=np.uint8)
    m[1:3, 1:3] = 1
    assert dice(m, m) == 1.0
    a8a = np.zeros((4, 4), dtype=np.uint8)
    a8b = np.zeros((4, 4), dtype=np.uint8)
    a8a[0, 0] = 1
    a8b[3, 3] = 1
    assert dice(a8a, a8b) == 0.0
    c = np.zeros((4, 4), dtype=np.uint8)
    d4 = np.zeros((4, 4), dtype=np.uint8)
    c[0, 0:4] = 1
    d4[0, 2:4] = 1
    d4[1, 0:2] = 1
    assert dice(c, d4) == 0.5 and iou(c, d4) == pytest.approx(1 / 3, abs=1e-15)
    _ok("A8", "1000 pairs: dice == 2*iou/(1+iou) within 1e-12; examples exact")


# ---------------------------------------------------------------------------
# A9 persistence


def test_a9_persistence(tmp_path):
    rng = np.random.default_rng(0xA9)
    shape = (4, 4, 4)
    base = new_base(640, shape)
    for i in range(640):
        e = _random_entry(rng, shape)
        e.source_tag = f"t{i % 10}/f{i}"
        insert_or_replace(base, e)
    path = tmp_path / "full.smb"
    save_base(base, path)
    loaded = load_base(path)
    assert base_bytes(loaded) == base_bytes(base)
    bad = tmp_path / "bad.smb"
    data = bytearray(path.read_bytes())
    data[0:4] = b"XXXX"
    bad.write_bytes(bytes(data))
    with pytest.raises(BadMagicError, match="bad magic"):
        load_base(bad)
    _ok("A9", "640-entry round trip bit-identical; bad magic raises")


# ---------------------------------------------------------------------------
# A10 determinism


def test_a10_simulate_determinism(tmp_path):
    args = ["simulate", "configs/example.json"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    b1 = (out1 / "aggregate.json").read_bytes()
    b2 = (out2 / "aggregate.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["aggregate"]["mean_dsc"] >= 0.0
    _ok("A10", "bundled config run twice -> byte-identical aggregates")
