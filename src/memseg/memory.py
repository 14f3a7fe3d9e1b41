"""Confidence-driven memory base.

A bounded store of (mask_feature, positional_encoding, iou_confidence,
image_embedding) tuples with two retrieval policies and a confidence-gated
replacement rule:

* top-K retrieval ranks entries by cosine similarity of image embeddings
  plus the sigmoid-squashed confidence, descending, ties broken by lower
  insertion index;
* replacement into a full base evicts the entry whose mask feature is most
  similar to the incoming one, but only when the incoming confidence is
  strictly higher.

Each row's cosine is computed from that row alone, so identical entries
score the same bits wherever they sit in the base, and tie.  A query is
always a stack: a lone query, such as an insert's mask feature, is a
stack of one, and a ``QueryStack`` holds the rest of a volume's queries
beside it.  A cosine is one (row, query) dot product either way.  A
stack's first read scores every live row against all its queries in one
pass, so each row is read once, and its later reads re-score only the
slots ``_put`` wrote since.

Confidences are stored raw (logit scale); the sigmoid squash is applied
only inside the retrieval score, and replacement compares raw values
(sigmoid is monotone, so either reading agrees).

Retrieval returns slot indices and scores only.  ``tokens_of`` gives the
slots' fusion tokens, which the base keeps from a slot's first call until
an insert writes that slot.  Besides them, ``_put`` resets one more piece
of a slot's derived state, its write mark, which tells stacks to re-score
it.  Both are derived, so files never hold them.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fusion import memory_tokens
from .kernels import sigmoid

MAGIC = b"SMB2"
VERSION = 2
_F8 = np.dtype("<f8")  # the file's float layout, native float64 on little-endian hosts
_SEAL_BYTES = 1 << 20  # squared-row temporaries per block when _seal caches many norms


class MemoryFileError(ValueError):
    """Base class for memory-file persistence errors."""


class BadMagicError(MemoryFileError):
    pass


class VersionMismatchError(MemoryFileError):
    pass


class TruncatedFileError(MemoryFileError):
    pass


class ShapeInconsistencyError(MemoryFileError):
    pass


@dataclass
class MemoryEntry:
    """One entry as offered to insert_or_replace: mask feature, positional
    encoding, raw confidence (logit scale), image embedding, provenance tag."""

    mask_feature: np.ndarray
    positional_encoding: np.ndarray
    y_hat: float
    image_embedding: np.ndarray
    source_tag: str = ""

    def __post_init__(self):
        self.y_hat = float(self.y_hat)
        if not np.isfinite(self.y_hat):
            raise ValueError(f"y_hat must be finite, got {self.y_hat}")


@dataclass
class RetrievalResult:
    """Selected slots and their combined scores, ordered by non-increasing
    score; an empty retrieval has neither."""

    indices: list[int]
    scores: list[float]


@dataclass
class ReplaceOutcome:
    """What an insert did: appended, replaced(index, old_confidence), or
    rejected."""

    kind: str  # appended | replaced | rejected
    index: int | None = None
    old_confidence: float | None = None


class MemoryBase:
    """Bounded store of up to ``capacity`` entries sharing one feature shape
    (C, H, W), kept as struct-of-arrays.  Slot i is row i of
    ``mask_features``, ``positional_encodings`` and ``image_embeddings``
    (each tensor flattened to C*H*W float64 values), ``confidences[i]``
    (raw), ``squashed[i]`` (its cached sigmoid), ``feature_norms[i]``/
    ``embedding_norms[i]`` (the cached L2 norms of its mask feature and
    image embedding) and ``tags[i]``.  Only the first ``len(base)`` rows
    are live; the rest come from ``np.empty`` and take no resident memory
    until written.  Two kinds of per-slot state are derived and never
    saved, and ``_put`` resets both for the slot it writes: ``tokens`` maps
    a slot to its own (1, H*W, C) copy of its fusion tokens, which
    ``tokens_of`` fills and ``_put`` drops, and ``marks[i]`` is the value of
    ``writes``, the base's count of ``_put`` calls, when slot i was last
    written, so a ``QueryStack`` re-scores the slots marked after its last
    read."""

    def __init__(self, capacity: int, feature_shape: tuple[int, int, int]):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        shape = tuple(int(s) for s in feature_shape)
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise ValueError(f"feature_shape must be three positive extents, got {shape}")
        self.capacity = int(capacity)
        self.feature_shape = shape
        rows = (self.capacity, math.prod(shape))
        try:
            self.mask_features, self.positional_encodings, self.image_embeddings = (
                np.empty(rows, _F8) for _ in range(3)
            )
            self.confidences, self.squashed, self.feature_norms, self.embedding_norms = (
                np.empty(self.capacity, _F8) for _ in range(4)
            )
            self.marks = np.zeros(self.capacity, np.int64)
        except (ValueError, MemoryError) as exc:  # numpy refuses the size, or malloc fails
            raise ValueError(
                f"capacity {self.capacity} with feature shape {shape} is too big to allocate"
            ) from exc
        self.tags: list[str] = []
        self.tokens: dict[int, np.ndarray] = {}
        self.writes = 0

    def __len__(self) -> int:
        return len(self.tags)


@dataclass
class MemoryStats:
    count: int
    capacity: int
    min_y_hat: float | None
    max_y_hat: float | None
    mean_y_hat: float | None
    mean_pairwise_similarity: float | None


def new_base(capacity: int, feature_shape: tuple[int, int, int]) -> MemoryBase:
    """Create an empty base. Capacity 0 is legal: retrieval returns empty
    and every insert is rejected."""
    return MemoryBase(capacity, feature_shape)


def _check_entry(base: MemoryBase, entry: MemoryEntry) -> None:
    for name in ("mask_feature", "positional_encoding", "image_embedding"):
        shape = tuple(getattr(entry, name).shape)
        if shape != base.feature_shape:
            raise ValueError(
                f"{name} shape {shape} does not conform to base"
                f" feature_shape {base.feature_shape}"
            )


def _put(base: MemoryBase, i: int, entry: MemoryEntry) -> None:
    """Write entry into slot i; i == len(base) appends."""
    base.mask_features[i] = entry.mask_feature.reshape(-1)
    base.positional_encodings[i] = entry.positional_encoding.reshape(-1)
    base.image_embeddings[i] = entry.image_embedding.reshape(-1)
    base.confidences[i] = entry.y_hat
    base.tags[i : i + 1] = [entry.source_tag]
    base.tokens.pop(i, None)  # the slot's kept tokens are stale
    base.writes += 1
    base.marks[i] = base.writes  # and so are the stacks' cosines of it
    _seal(base, i, i + 1)


def _seal(base: MemoryBase, lo: int, hi: int) -> None:
    """Cache what slots [lo, hi) derive from their rows and confidences
    once those are written: the squashed confidences and both row norms.
    Many slots are normed in blocks of rows whose squares fill about
    _SEAL_BYTES, so sealing a whole loaded base stays in a few MiB."""
    base.squashed[lo:hi] = sigmoid(base.confidences[lo:hi])
    step = max(1, _SEAL_BYTES // (_F8.itemsize * math.prod(base.feature_shape)))
    for rows, norms in ((base.mask_features, base.feature_norms),
                        (base.image_embeddings, base.embedding_norms)):
        for b in range(lo, hi, step):  # an insert's one row is one block
            at = slice(b, min(b + step, hi))
            # sqrt(add.reduce(r**2)) is bit-identical to np.linalg.norm(rows, axis=1)
            norms[at] = np.sqrt(np.add.reduce(rows[at] ** 2, axis=-1))


def _cosine_rows(mat: np.ndarray, norms: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Cosine of each row of mat (whose L2 norms are given) against each
    row of the 2-D query stack, as a (len(mat), len(queries)) array; one
    query is a stack of one.  Each (row, query) dot product is computed
    from that row and query alone, so a row scores the same wherever it
    sits in mat and whatever queries it is scored with; rows or queries
    with norm < 1e-12 score 0."""
    # each query's norm comes from that query alone; it may differ in the
    # last bit from the row norm _seal caches for the same vector
    qn = np.sqrt(np.vecdot(queries, queries))
    mat, norms = mat[:, None, :], norms[:, None]
    ok = (norms >= 1e-12) & (qn >= 1e-12)
    sims = np.divide(np.vecdot(mat, queries), norms * qn, out=np.zeros(ok.shape), where=ok)
    np.minimum(sims, 1.0, out=sims)
    return np.maximum(sims, -1.0, out=sims)


class QueryStack:
    """Query embeddings that are scored against a base together, such as
    the frames of one volume; ``stack[j]`` is the handle of query j that
    ``retrieve_topk`` takes.

    The first read against a base scores all its live image embeddings
    against every query with one (row, query) ``np.vecdot``, so each row
    is read once for the whole stack.  Later reads of the same base
    re-score only the slots whose write mark is newer than the last read:
    the rows appended or replaced since.  Every column is therefore
    bit-equal to ``_cosine_rows`` of the base as it is at that read.  The
    cosines fill a (capacity, queries) array, allocated on first read."""

    def __init__(self, embeddings):
        queries = np.asarray(embeddings, dtype=np.float64)
        self.shape = tuple(queries.shape[1:])
        self.rows = queries.reshape(len(queries), math.prod(self.shape))
        self.base: MemoryBase | None = None
        self.cosines: np.ndarray | None = None
        self.seen = 0  # base.writes at the last read

    def __getitem__(self, j: int) -> Query:
        return Query(self, j)

    def read(self, base: MemoryBase) -> np.ndarray:
        """The (len(base), queries) cosines of the base's live rows now."""
        n = len(base)
        if base is not self.base:
            if self.shape != base.feature_shape:
                raise ValueError(f"query shape {self.shape} does not conform to"
                                 f" base feature_shape {base.feature_shape}")
            self.base, self.cosines = base, np.empty((base.capacity, len(self.rows)))
            stale = slice(0, n)
        elif base.writes > self.seen:
            stale = np.flatnonzero(base.marks[:n] > self.seen)
        else:  # nothing written since the last read
            return self.cosines[:n]
        self.seen = base.writes
        self.cosines[stale] = _cosine_rows(
            base.image_embeddings[stale], base.embedding_norms[stale], self.rows
        )
        return self.cosines[:n]


class Query(NamedTuple):
    """Query j of a stack."""

    stack: QueryStack
    j: int


def _ranked(slots: np.ndarray, scores: np.ndarray, k: int) -> RetrievalResult:
    """The min(k, len(slots)) candidate slots of highest score, ties
    resolved toward the lower slot."""
    # lexsort: primary key -scores ascending (= scores descending), ties by slot
    order = np.lexsort((slots, -scores))[:k]
    return RetrievalResult(indices=slots[order].tolist(), scores=scores[order].tolist())


def retrieve_topk(
    base: MemoryBase, query: np.ndarray | Query, k: int, use_confidence: bool = True
) -> RetrievalResult:
    """Select the min(k, len) entries maximizing cos(E_i, E_new) + sigmoid(y_hat_i).

    ``query`` is a (C, H, W) embedding, scored as a stack of one, or the
    handle of a ``QueryStack``'s query; both give the same bits.
    Descending score order; ties resolved toward the lower insertion
    index.  Never mutates the base.  ``use_confidence=False`` drops the
    squashed-confidence term, ranking by similarity alone: the episode
    passes it for ``retrieval="similarity"``.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not isinstance(query, Query):
        query = QueryStack([query])[0]
    n = len(base)
    scores = query.stack.read(base)[:, query.j]
    if use_confidence:
        scores = scores + base.squashed[:n]
    return _ranked(np.arange(n), scores, k)


def retrieve_random(base: MemoryBase, k: int, rng_seed: int) -> RetrievalResult:
    """Uniform sample of min(k, len) entries without replacement,
    deterministic per seed.  Scores are reported for the sampled entries
    (and the result is ordered by them, ties toward the lower slot as in
    top-K) but play no part in selection."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    n = len(base)
    chosen = np.random.default_rng(rng_seed).choice(n, size=min(k, n), replace=False)
    # no query embedding is involved, so the similarity term is 0 and the
    # reported score is just the squashed confidence
    return _ranked(chosen, base.squashed[chosen], k)


def tokens_of(base: MemoryBase, indices: list[int]) -> np.ndarray:
    """The read-only (k, H*W, C) fusion tokens of live slots ``indices``, in
    that order, bit-equal to ``memory_tokens`` of their rows now.  One
    ``memory_tokens`` call computes those of the slots not yet kept; each
    is kept as its own copy, so a slot's tokens are freed when ``_put``
    drops them.  k = 0 gives (0, H*W, C); a slot outside [0, len(base))
    raises IndexError."""
    miss = [i for i in indices if i not in base.tokens]
    if miss:
        if not all(0 <= i < len(base) for i in miss):
            raise IndexError(f"slots {miss} are not all in [0, {len(base)})")
        shape = (len(miss), *base.feature_shape)
        fresh = memory_tokens(base.mask_features[miss].reshape(shape),
                              base.positional_encodings[miss].reshape(shape))
        base.tokens.update((i, fresh[j : j + 1].copy()) for j, i in enumerate(miss))
    c, h, w = base.feature_shape
    out = np.concatenate([base.tokens[i] for i in indices] or [np.empty((0, h * w, c))])
    out.flags.writeable = False
    return out


def insert_or_replace(base: MemoryBase, new: MemoryEntry) -> ReplaceOutcome:
    """Append below capacity; otherwise replace the stored entry whose mask
    feature is most cosine-similar to the new one, but only if its
    confidence is strictly lower than the new entry's.  Ties of the
    similarities go to the lowest insertion index."""
    _check_entry(base, new)
    n = len(base)
    if base.capacity == 0:
        return ReplaceOutcome(kind="rejected")
    if n < base.capacity:
        _put(base, n, new)
        return ReplaceOutcome(kind="appended", index=n)
    sims = _cosine_rows(base.mask_features, base.feature_norms, new.mask_feature.reshape(1, -1))
    i_star = int(np.argmax(sims[:, 0]))  # argmax takes the first (lowest-index) max
    old_confidence = float(base.confidences[i_star])
    if old_confidence < new.y_hat:
        _put(base, i_star, new)
        return ReplaceOutcome(kind="replaced", index=i_star, old_confidence=old_confidence)
    return ReplaceOutcome(kind="rejected")


def stats(base: MemoryBase) -> MemoryStats:
    """Count/capacity plus confidence moments and the mean pairwise cosine
    similarity of stored image embeddings (None where undefined)."""
    n = len(base)
    if n == 0:
        return MemoryStats(0, base.capacity, None, None, None, None)
    ys = base.confidences[:n]
    mean_sim = None
    if n >= 2:
        # mean off-diagonal of the Gram matrix of unit rows u_i, in O(N*D):
        # (|sum u_i|^2 - sum |u_i|^2) / (N(N-1)); zero rows have u_i = 0
        norms = base.embedding_norms[:n]
        inv = np.divide(1.0, norms, out=np.zeros(n), where=norms >= 1e-12)
        total = inv @ base.image_embeddings[:n]
        mean_sim = float((total @ total - ((norms * inv) ** 2).sum()) / (n * (n - 1)))
    return MemoryStats(
        count=n,
        capacity=base.capacity,
        min_y_hat=float(ys.min()),
        max_y_hat=float(ys.max()),
        mean_y_hat=float(ys.mean()),
        mean_pairwise_similarity=mean_sim,
    )


# ---------------------------------------------------------------------------
# persistence
#
# Little-endian layout, the base's own columns one after another:
#   magic "SMB2" | u32 version=2 | u32 capacity | u32 count | u32 C,H,W
#   | count f64 confidences | count u32 tag lengths | the tags' UTF-8, joined
#   | the F rows | the PE rows | the E rows, each count * C*H*W f64


def _chunks(base: MemoryBase):
    """The memory file in order: header, confidences, tag lengths, tags,
    then views of the live F, PE and E rows."""
    n = len(base)
    raw = [tag.encode("utf-8") for tag in base.tags]
    yield MAGIC + struct.pack("<IIIIII", VERSION, base.capacity, n, *base.feature_shape)
    yield memoryview(base.confidences[:n])
    yield struct.pack(f"<{n}I", *map(len, raw))
    yield b"".join(raw)
    for rows in (base.mask_features, base.positional_encodings, base.image_embeddings):
        yield memoryview(rows[:n])


def base_bytes(base: MemoryBase) -> bytes:
    """Serialized image of the base; also used for byte-level comparisons."""
    return b"".join(_chunks(base))


def save_base(base: MemoryBase, path) -> None:
    """Write the base in the binary memory-file format (bit-exact floats),
    one column per write, so saving holds no file image."""
    with open(path, "wb") as fh:
        fh.writelines(_chunks(base))


class _Reader:
    """Sequential reads from a memory file, checked against its size first
    so a corrupt length field can neither over-read nor over-allocate, and
    against what arrives, so a file that shrinks after it was sized cannot
    leave part of a column unwritten."""

    def __init__(self, fh):
        self.fh, self.left = fh, os.fstat(fh.fileno()).st_size

    def take(self, n: int, what: str, into: np.ndarray | None = None):
        """The next n bytes, or read them straight into the array ``into``."""
        if n > self.left:
            raise TruncatedFileError(
                f"truncated file: needed {n} bytes for {what}, had {self.left}"
            )
        self.left -= n
        if into is None:
            into = self.fh.read(n)
            got = len(into)
        else:
            got = self.fh.readinto(into)
        if got < n:
            raise TruncatedFileError(
                f"truncated file: needed {n} bytes for {what}, read {got} before its end"
            )
        return into


def load_base(path) -> MemoryBase:
    """Read a memory file written by save_base; round-trips bit-exactly.
    Each column is checked against the bytes left and read straight into
    the base, so loading holds no file image, and the derived caches are
    sealed once at the end; it keeps no slot's tokens until ``tokens_of``."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic: expected {MAGIC!r}, got {magic!r}")
        version, capacity, count, c, h, w = struct.unpack("<IIIIII", r.take(24, "header"))
        if version != VERSION:
            raise VersionMismatchError(f"unsupported version {version}, expected {VERSION}")
        if count > capacity:
            raise ShapeInconsistencyError(f"count {count} exceeds capacity {capacity}")
        try:  # a zero extent, or a base too big to allocate
            base = new_base(capacity, (c, h, w))
        except ValueError as exc:
            raise ShapeInconsistencyError(str(exc)) from exc
        r.take(8 * count, "confidences", into=base.confidences[:count])
        lengths = struct.unpack(f"<{count}I", r.take(4 * count, "tag lengths"))
        blob, at = r.take(sum(lengths), "tags"), 0
        for i, n in enumerate(lengths):
            try:
                base.tags.append(str(blob[at : at + n], "utf-8"))
            except UnicodeDecodeError as exc:
                raise MemoryFileError(f"entry {i} tag is not valid UTF-8: {exc.reason}"
                                      f" at byte {exc.start}") from exc
            at += n
        for rows, what in ((base.mask_features, "mask features"),
                           (base.positional_encodings, "positional encodings"),
                           (base.image_embeddings, "image embeddings")):
            r.take(rows[:count].nbytes, what, into=rows[:count])
    if r.left:
        raise ShapeInconsistencyError(f"{r.left} unexpected trailing bytes")
    bad = np.flatnonzero(~np.isfinite(base.confidences[:count]))
    if bad.size:
        i = int(bad[0])
        raise MemoryFileError(f"entry {i} confidence {base.confidences[i]} is not finite")
    _seal(base, 0, count)
    return base
