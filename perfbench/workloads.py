"""The benchmark's workloads, each built from the workload seed alone.

A workload does its set-up once, then runs rounds.  A round is the unit a
person waits for: one episode seed, one gradient-check instance, or one
pass of the memory op mix over every base size.  Only memseg calls are
timed; the checks of their outputs run between the timed calls.

memseg is imported by the caller before this module is used, and only its
public functions are called, through ``Workload.calls`` so that a traced
run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from tracing import LATENCY_OPS, MEMORY_SIZES

DEFAULT_SEED = 0  # the seed whose episode digests are committed in reference.json
SEED_POOL = 16  # episode seeds per workload seed; rounds cycle through them


def cpu_time() -> float:
    """CPU seconds of this process and of its children that have ended."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + ru.ru_utime + ru.ru_stime


def timed(fn, *args, **kwargs):
    """Call fn; return its result, the wall seconds and the CPU seconds
    spent in it."""
    w0, c0 = perf_counter(), cpu_time()
    out = fn(*args, **kwargs)
    return out, perf_counter() - w0, cpu_time() - c0


@dataclass
class Round:
    seconds: float  # wall time inside timed memseg calls
    cpu_seconds: float  # CPU time (this process and reaped children) in the same calls
    items: int  # stream frames, gradcheck instances or memory calls
    attempted: int
    failed: int
    fingerprint: str  # the round's outputs, so a replayed round can be compared
    notes: list[str] = field(default_factory=list)


class Episode:
    """The A5 cs640 episode: 10 tasks, label noise 0.3, feature noise 1.0,
    capacity 640, k=4, confidence-similarity retrieval.  With
    ``volumes_per_task=10`` it inserts 800 frames into capacity 640, so the
    confidence-gated replacement runs beside retrieval."""

    item = "stream frame"

    def __init__(self, seed: int, volumes_per_task: int, reference: dict[str, str] | None):
        from memseg import episode, pipeline, synth

        self.episode_seeds = [SEED_POOL * seed + j for j in range(SEED_POOL)]
        noise = synth.NoiseConfig(label_corrupt_prob=0.3, feature_noise_sigma=1.0)
        self.tasks = episode.make_tasks(10, noise)
        self.mem = episode.MemoryConfig(capacity=640, k=4, retrieval="confidence_similarity")
        self.settings = episode.EpisodeSettings(volumes_per_task=volumes_per_task)
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.calls = {"run_episode": episode.run_episode}
        # first touch of the pipeline's lru caches (projection, read-out, carrier)
        st = self.settings
        enc = pipeline.EncoderConfig(st.image_size, st.patch_size, st.channels, st.model_seed)
        pipeline.positional_encoding(enc, 0)
        pipeline.mask_feature(np.ones((st.image_size, st.image_size), np.uint8), enc)

    def run_round(self, r: int) -> Round:
        s = self.episode_seeds[r % SEED_POOL]
        report, dt, dc = timed(self.calls["run_episode"], self.tasks, self.mem, [s], self.settings)
        row = report.per_seed[0]
        digest = row["prediction_digest"]
        problems = self._check(s, row)
        notes = [f"episode seed {s}: digest {digest}"] + [f"FAILED seed {s}: {p}" for p in problems]
        frames = sum(t["stream_frames"] for t in row["per_task"])
        return Round(dt, dc, frames, 1, 1 if problems else 0, digest, notes)

    def _check(self, s: int, row: dict) -> list[str]:
        problems = []
        digest = row["prediction_digest"]
        if self.reference is not None and self.reference.get(str(s)) != digest:
            problems.append(f"digest differs from reference {self.reference.get(str(s))}")
        if self.seen.setdefault(s, digest) != digest:
            problems.append("digest differs from an earlier round of the same seed")
        for t in row["per_task"]:
            for key in ("stream_dsc_mean", "dsc_before", "dsc_after"):
                if not 0.0 <= t[key] <= 1.0:
                    problems.append(f"task {t['task_id']} {key}={t[key]} outside [0, 1]")
            if t["stream_frames"] < 1:
                problems.append(f"task {t['task_id']} streamed no frames")
        for snap in row["memory_snapshots"]:
            if snap["count"] > self.mem.capacity:
                problems.append(f"memory count {snap['count']} > capacity")
        return problems

    def extra_metrics(self) -> dict[str, float]:
        return {}


class GradCheck:
    """A3 instances: (B,H,W,C,r)=(3,4,4,8,4), 2 heads, h=1e-6, tol=1e-5.
    Seed 0 gives the instances of the A3 acceptance test."""

    item = "gradcheck instance"

    def __init__(self, seed: int, mutate: str | None = None):
        from memseg import adapter

        self.seed = seed
        self.adapter = adapter
        self.mutate = mutate
        self.calls = {"grad_check": adapter.grad_check}
        self.fd_forwards = 0
        self.max_rel_err = 0.0

    def instance(self, r: int):
        rng = np.random.default_rng(0xA3000 + 1000 * self.seed + r)
        params = self.adapter.block_params(rng, 8, bottleneck=4, num_heads=2)
        return params, rng.normal(size=(3, 4, 4, 8))

    def run_round(self, r: int) -> Round:
        params, x = self.instance(r)
        perturbed = x.size + sum(a.size for a in self.adapter.block_param_arrays(params).values())
        report, dt, dc = timed(self.calls["grad_check"], params, x, h=1e-6, tol=1e-5,
                               mutate=self.mutate)
        self.fd_forwards += 2 * perturbed
        self.max_rel_err = max(self.max_rel_err, report.max_rel_err)
        notes = [f"instance {r}: max_rel_err {report.max_rel_err:.3e}"]
        if not report.passed:
            notes.append(f"FAILED instance {r}: {report.failing()}")
        return Round(dt, dc, 1, 1, 0 if report.passed else 1, repr(report.max_rel_err), notes)

    def extra_metrics(self) -> dict[str, float]:
        return {"fd_forwards": self.fd_forwards, "max_rel_err": self.max_rel_err}


# ---------------------------------------------------------------------------
# memory_io

SHAPE = (16, 8, 8)
K = 4
QUERIES = 4  # retrieve_topk and retrieve_random calls per size per round
INSERTS = 4  # replacement-path inserts per size per round
TIE = 1e-12  # oracle scores closer than this may rank either way


def _sigmoid(y: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(y))
    return np.where(y >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def oracle_topk(emb: np.ndarray, conf: np.ndarray, query: np.ndarray, k: int):
    """Independent full sort of cos(E_i, q) + sigmoid(y_i), descending, ties
    to the lower index.  Rows are normalised before the product, which
    rounds differently from memseg's order of operations.  Returns the top
    indices and every score."""
    q = query.ravel()
    qn = math.sqrt(float(q @ q))
    norms = np.sqrt(np.einsum("ij,ij->i", emb, emb))
    safe = np.where(norms < 1e-12, 1.0, norms)
    sims = (emb / safe[:, None]) @ (q / qn) if qn >= 1e-12 else np.zeros(len(emb))
    sims = np.where(norms < 1e-12, 0.0, np.clip(sims, -1.0, 1.0))
    scores = (sims + _sigmoid(conf)).tolist()
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k], scores


def topk_matches(got: list[int], want: list[int], scores: list[float]) -> bool:
    """Equal, or different only where the oracle's scores tie within TIE."""
    if len(got) != len(want):
        return False
    return all(g == w or abs(scores[g] - scores[w]) <= TIE for g, w in zip(got, want))


def mean_pairwise_cosine(emb: np.ndarray) -> float:
    """O(N*D) oracle for the mean off-diagonal cosine: (|sum u|^2 - N) / (N(N-1))."""
    norms = np.sqrt(np.einsum("ij,ij->i", emb, emb))
    zero = norms < 1e-12
    unit = emb / np.where(zero, 1.0, norms)[:, None]
    unit[zero] = 0.0
    total = unit.sum(axis=0)
    n = len(emb)
    return float((total @ total - np.count_nonzero(~zero)) / (n * (n - 1)))


class MemoryIO:
    """Direct memory-layer calls on full bases of N in MEMORY_SIZES with
    feature shape (16, 8, 8): retrieve_topk, retrieve_random,
    replacement-path insert_or_replace, stats, base_bytes, save_base and
    load_base."""

    item = "memory call"

    def __init__(self, seed: int, workdir: Path):
        from memseg import memory

        self.seed = seed
        self.memory = memory
        self.path = str(workdir / "base.smb")
        self.calls = {
            name: getattr(memory, name)
            for name in ("retrieve_topk", "retrieve_random", "insert_or_replace", "stats",
                         "base_bytes", "save_base", "load_base")
        }
        self.bases = {}
        self.shadow = {}  # n -> (embeddings, confidences): the benchmark's copy, slot by slot
        for n in MEMORY_SIZES:
            self.bases[n], self.shadow[n] = self._build(n)
        self.samples: dict[tuple[str, int], list[tuple[float, float]]] = defaultdict(list)
        self.persist_bytes = 0

    def _entry(self, rng, y_hat: float, tag: str):
        return self.memory.MemoryEntry(
            rng.normal(size=SHAPE), rng.normal(size=SHAPE), y_hat, rng.normal(size=SHAPE),
            source_tag=tag,
        )

    def _build(self, n: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, n, 0xBA5E]))
        base = self.memory.new_base(n, SHAPE)
        emb = np.empty((n, math.prod(SHAPE)))
        conf = np.empty(n)
        for i in range(n):
            e = self._entry(rng, float(rng.normal()), f"s{self.seed}/n{n}/i{i}")
            out = self.memory.insert_or_replace(base, e)
            if out.kind != "appended":
                raise RuntimeError(f"building base {n}: insert {i} was {out.kind}")
            emb[i] = e.image_embedding.ravel()
            conf[i] = e.y_hat
        return base, (emb, conf)

    def _timed(self, op: str, n: int, *args, **kwargs):
        out, dt, dc = timed(self.calls[op], *args, **kwargs)
        self.samples[(op, n)].append((dt, dc))
        return out

    def run_round(self, r: int) -> Round:
        before = self._totals()
        problems: list[str] = []
        outputs = hashlib.sha256()
        for n in MEMORY_SIZES:
            problems += [f"n={n}: {p}" for p in self._round_at(n, r, outputs)]
        calls, wall, cpu = (a - b for a, b in zip(self._totals(), before))
        notes = [f"FAILED round {r} {p}" for p in problems]
        return Round(wall, cpu, calls, calls, len(problems), outputs.hexdigest(), notes)

    def _totals(self):
        flat = [t for v in self.samples.values() for t in v]
        return len(flat), sum(t[0] for t in flat), sum(t[1] for t in flat)

    def _round_at(self, n: int, r: int, outputs) -> list[str]:
        base, (emb, conf) = self.bases[n], self.shadow[n]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, n, r, 0x10]))
        problems = []
        for _ in range(QUERIES):
            q = rng.normal(size=SHAPE)
            got = self._timed("retrieve_topk", n, base, q, K).indices
            outputs.update(repr(got).encode())
            want, scores = oracle_topk(emb, conf, q, K)
            if not topk_matches(got, want, scores):
                problems.append(f"retrieve_topk {got} != oracle {want}")
        for _ in range(QUERIES):
            got = self._timed("retrieve_random", n, base, K, rng_seed=int(rng.integers(2**31))).indices
            outputs.update(repr(got).encode())
            if len(got) != K or len(set(got)) != K or not all(0 <= i < n for i in got):
                problems.append(f"retrieve_random returned {got}")
        for j in range(INSERTS):
            new = self._entry(rng, float(rng.normal(0.5, 1.0)), f"s{self.seed}/n{n}/r{r}/j{j}")
            out = self._timed("insert_or_replace", n, base, new)
            outputs.update(f"{out.kind} {out.index}".encode())
            if out.kind == "replaced":
                i = out.index
                if not (0 <= i < n and out.old_confidence == conf[i] < new.y_hat):
                    problems.append(f"replaced slot {i}: new {new.y_hat} old {out.old_confidence}")
                else:
                    emb[i] = new.image_embedding.ravel()
                    conf[i] = new.y_hat
            elif out.kind != "rejected":
                problems.append(f"insert into a full base was {out.kind}")
        st = self._timed("stats", n, base)
        outputs.update(repr(st).encode())
        if (st.count, st.capacity) != (n, n) or (st.min_y_hat, st.max_y_hat) != (
            float(conf.min()), float(conf.max())
        ):
            problems.append(f"stats {st} disagree with the inserted entries")
        elif not math.isclose(st.mean_y_hat, float(conf.mean()), rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"stats mean_y_hat {st.mean_y_hat} != {conf.mean()}")
        elif not math.isclose(st.mean_pairwise_similarity, mean_pairwise_cosine(emb),
                              rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"stats mean_pairwise_similarity {st.mean_pairwise_similarity}")
        data = self._timed("base_bytes", n, base)
        image = hashlib.sha256(data).digest()
        self.persist_bytes += 3 * len(data)
        del data  # keep one serialized image alive at a time: N=4096 is 100 MB
        self._timed("save_base", n, base, self.path)
        loaded = self._timed("load_base", n, self.path)
        # the check calls memseg directly, so a traced run does not count it
        if hashlib.sha256(self.memory.base_bytes(loaded)).digest() != image:
            problems.append("load_base(save_base(b)) is not bit-exact with base_bytes(b)")
        del loaded
        outputs.update(image)
        os.remove(self.path)
        return problems

    def extra_metrics(self) -> dict[str, float]:
        out = {"persist_bytes": float(self.persist_bytes)}
        for op in LATENCY_OPS:
            for n in MEMORY_SIZES:
                if self.samples[(op, n)]:
                    out[f"memory.{op}.ms_p50.n{n}"] = 1e3 * median(
                        cpu for _, cpu in self.samples[(op, n)]
                    )
        return out
