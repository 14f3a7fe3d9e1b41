"""Span tracer for the benchmark's traced runs.

Timers are wrapped, from the benchmark's side, around memseg's public
functions as each calling module sees them (``memseg.episode.retrieve_topk``
is the name the episode loop looks up at call time), so nothing under
``src/`` changes.  Every call records a span (name, start, end, parent
span); counters are taken at the same boundaries from the call's arguments
or result.  Busy time is a span's duration; self time is busy time minus
the time covered by traced child spans.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Holds spans and counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn with a span named ``name`` around every call; ``count``
        is called as count(counts, args, kwargs, result) after the call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def patch(self, module_name: str, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by its traced wrapper until restore()."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, count))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, busy_s, self_s} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


# ---------------------------------------------------------------------------
# counters taken at span boundaries


def _count_scanned(counts, args, kwargs, out):
    counts["memory.retrieve_topk.entries_scanned"] += len(args[0])


def _count_outcome(counts, args, kwargs, out):
    counts[f"memory.insert_or_replace.{out.kind}"] += 1


def _count_kv_tokens(counts, args, kwargs, out):
    _, h, w = args[0].shape
    counts["fusion.fuse.kv_tokens"] += len(args[2]) * h * w


# memory_io's base sizes and the ops whose per-call median it reports
MEMORY_SIZES = (160, 640, 4096)
LATENCY_OPS = ("retrieve_topk", "retrieve_random", "insert_or_replace", "stats", "base_bytes")

# (module whose global name is wrapped, attribute, span name, counter)
INTERNAL_PATCHES = [
    ("memseg.episode", "retrieve_topk", "memory.retrieve_topk", _count_scanned),
    ("memseg.episode", "retrieve_random", "memory.retrieve_random", None),
    ("memseg.episode", "insert_or_replace", "memory.insert_or_replace", _count_outcome),
    ("memseg.episode", "stats", "memory.stats", None),
    ("memseg.episode", "fuse", "fusion.fuse", _count_kv_tokens),
    ("memseg.episode", "encode_stack", "pipeline.encode_stack", None),
    ("memseg.episode", "predict", "pipeline.predict", None),
    ("memseg.episode", "mask_feature", "pipeline.mask_feature", None),
    ("memseg.episode", "encode_prompt", "pipeline.prompt", None),
    ("memseg.episode", "bbox_of", "pipeline.prompt", None),
    ("memseg.episode", "gen_frame", "synth.gen_frame", None),
    ("memseg.episode", "preprocess_stream", "synth.preprocess_stream", None),
    ("memseg.episode", "dice", "metrics.dice", None),
    ("memseg.pipeline", "block_forward", "adapter.block_forward", None),
    ("memseg.pipeline", "iou", "metrics.iou", None),
    ("memseg.fusion", "layer_norm", "kernels.layer_norm", None),
    ("memseg.fusion", "multi_head_attention", "kernels.multi_head_attention", None),
    ("memseg.adapter", "layer_norm", "kernels.layer_norm", None),
    ("memseg.adapter", "multi_head_attention", "kernels.multi_head_attention", None),
    ("memseg.adapter", "conv3d", "kernels.conv3d", None),
    ("memseg.adapter", "layer_norm_vjp", "kernels.vjp", None),
    ("memseg.adapter", "linear_vjp", "kernels.vjp", None),
    ("memseg.adapter", "conv3d_vjp", "kernels.vjp", None),
    ("memseg.adapter", "multi_head_attention_vjp", "kernels.vjp", None),
    ("memseg.adapter", "block_backward", "adapter.block_backward", None),
]

# Span names of the calls the benchmark itself makes (workload.calls keys).
ENTRY_SPANS = {
    "run_episode": ("episode.run_episode", None),
    "grad_check": ("adapter.grad_check", None),
    "retrieve_topk": ("memory.retrieve_topk", _count_scanned),
    "retrieve_random": ("memory.retrieve_random", None),
    "insert_or_replace": ("memory.insert_or_replace", _count_outcome),
    "stats": ("memory.stats", None),
    "base_bytes": ("memory.persist", None),
    "save_base": ("memory.persist", None),
    "load_base": ("memory.persist", None),
}


def install(tracer: Tracer, calls: dict) -> dict:
    """Patch memseg's internal call sites and return the workload's entry
    calls wrapped in spans."""
    for module_name, attr, name, count in INTERNAL_PATCHES:
        tracer.patch(module_name, attr, name, count)
    wrapped = dict(calls)
    for key, fn in calls.items():
        if key in ENTRY_SPANS:
            name, count = ENTRY_SPANS[key]
            wrapped[key] = tracer.wrap(name, fn, count)
    return wrapped


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer value the traced run can report, by metric name."""
    s = tracer.summary()
    c = tracer.counts

    def get(name, field):
        return float(s[name][field]) if name in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for span in (
        "memory.retrieve_topk", "memory.insert_or_replace", "fusion.fuse",
        "adapter.block_forward", "kernels.layer_norm",
        "kernels.multi_head_attention", "kernels.conv3d", "synth.gen_frame",
    ):
        out[f"{span}.calls"] = get(span, "calls")
    for span in (
        "memory.retrieve_topk", "memory.insert_or_replace", "memory.retrieve_random",
        "memory.stats", "memory.persist", "fusion.fuse", "pipeline.mask_feature",
        "pipeline.prompt", "adapter.block_forward", "adapter.block_backward",
        "kernels.layer_norm", "kernels.multi_head_attention", "kernels.conv3d",
        "kernels.vjp", "synth.gen_frame", "synth.preprocess_stream",
        "metrics.dice", "metrics.iou",
    ):
        out[f"{span}.busy_s"] = get(span, "busy_s")
    for span in (
        "fusion.fuse", "pipeline.encode_stack", "pipeline.predict",
        "adapter.block_forward", "adapter.grad_check", "episode.run_episode",
    ):
        out[f"{span}.self_s"] = get(span, "self_s")

    scanned = c["memory.retrieve_topk.entries_scanned"]
    out["memory.retrieve_topk.entries_scanned"] = scanned
    out["memory.retrieve_topk.us_per_entry"] = 1e6 * ratio(
        out["memory.retrieve_topk.busy_s"], scanned
    )
    kinds = {k: c[f"memory.insert_or_replace.{k}"] for k in ("appended", "replaced", "rejected")}
    for k, v in kinds.items():
        out[f"memory.insert_or_replace.{k}"] = v
    out["memory.insert_or_replace.useful_ratio"] = ratio(
        kinds["appended"] + kinds["replaced"], out["memory.insert_or_replace.calls"]
    )
    out["fusion.fuse.kv_tokens"] = c["fusion.fuse.kv_tokens"]
    out["memory.persist.mb_per_s"] = ratio(
        extra.get("persist_bytes", 0.0) / 1e6, out["memory.persist.busy_s"]
    )
    fd = extra.get("fd_forwards", 0.0)
    out["adapter.grad_check.fd_forwards"] = fd
    out["adapter.grad_check.us_per_fd_forward"] = 1e6 * ratio(
        out["adapter.grad_check.self_s"], fd
    )
    out["adapter.grad_check.max_rel_err"] = extra.get("max_rel_err", 0.0)
    out.update({k: v for k, v in extra.items() if k.startswith("trace.")})
    for op in LATENCY_OPS:
        for n in MEMORY_SIZES:
            key = f"memory.{op}.ms_p50.n{n}"
            out[key] = extra.get(key, 0.0)
    return out
