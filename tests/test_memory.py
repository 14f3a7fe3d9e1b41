"""Tests for the confidence-driven memory base, including the brute-force
retrieval oracle and replacement-monotonicity properties."""

import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memseg import memory
from memseg.fusion import memory_tokens
from memseg.kernels import sigmoid
from memseg.memory import (
    BadMagicError,
    MemoryEntry,
    MemoryFileError,
    QueryStack,
    ShapeInconsistencyError,
    TruncatedFileError,
    VersionMismatchError,
    base_bytes,
    insert_or_replace,
    load_base,
    new_base,
    retrieve_random,
    retrieve_topk,
    save_base,
    stats,
    tokens_of,
)
from memory_oracle import oracle_topk

SHAPE = (2, 2, 2)
NO_TOKENS = (0, SHAPE[1] * SHAPE[2], SHAPE[0])  # an empty retrieval's (0, H*W, C) tokens


def make_entry(rng, y_hat=None, tag="", shape=SHAPE):
    y = float(rng.normal()) if y_hat is None else float(y_hat)
    return MemoryEntry(
        mask_feature=rng.normal(size=shape),
        positional_encoding=rng.normal(size=shape),
        y_hat=y,
        image_embedding=rng.normal(size=shape),
        source_tag=tag,
    )


def fill_base(rng, capacity, count, shape=SHAPE):
    base = new_base(capacity, shape)
    for _ in range(count):
        entry = MemoryEntry(
            rng.normal(size=shape),
            rng.normal(size=shape),
            float(rng.normal()),
            rng.normal(size=shape),
        )
        assert insert_or_replace(base, entry).kind == "appended"
    return base


def base_oracle(base, query, k):
    n = len(base)
    return oracle_topk(base.image_embeddings[:n], base.confidences[:n], query, k)


def rows_tokens(base, indices):
    """memory_tokens of the slots' rows as they are now."""
    shape = (len(indices), *base.feature_shape)
    return memory_tokens(base.mask_features[indices].reshape(shape),
                         base.positional_encodings[indices].reshape(shape))


def slots(base):
    """Every live slot's bytes: the three rows, the confidence and the tag."""
    return [
        (
            base.mask_features[i].tobytes(),
            base.positional_encodings[i].tobytes(),
            base.image_embeddings[i].tobytes(),
            float(base.confidences[i]),
            base.tags[i],
        )
        for i in range(len(base))
    ]


# ---------------------------------------------------------------------------
# construction


def test_new_base_zero_capacity_retrieves_empty():
    base = new_base(0, SHAPE)
    res = retrieve_topk(base, np.ones(SHAPE), 4)
    assert res.indices == [] and res.scores == []
    assert tokens_of(base, res.indices).shape == NO_TOKENS
    assert base.tokens == {}


def test_new_base_default_and_small_capacities():
    assert new_base(640, SHAPE).capacity == 640
    assert new_base(16, SHAPE).capacity == 16
    assert len(new_base(640, SHAPE)) == 0


def test_new_base_rejects_negative_capacity():
    with pytest.raises(ValueError):
        new_base(-1, SHAPE)


# ---------------------------------------------------------------------------
# retrieval


def test_retrieve_constructed_scores():
    # cosines 0.7, 0.4, 1.0 with sigmoid(0)=0.5 -> totals 1.2, 0.9, 1.5
    base = new_base(8, (1, 1, 2))
    query = np.array([1.0, 0.0]).reshape(1, 1, 2)
    for c in (0.7, 0.4, 1.0):
        v = np.array([c, math.sqrt(1.0 - c * c)]).reshape(1, 1, 2)
        insert_or_replace(base, MemoryEntry(v.copy(), v.copy(), 0.0, v.copy()))
    res = retrieve_topk(base, query, 2)
    assert res.indices == [2, 0]
    assert res.scores == pytest.approx([1.5, 1.2], abs=1e-12)


def test_retrieve_k_larger_than_base_returns_all_sorted():
    rng = np.random.default_rng(0)
    base = fill_base(rng, 16, 5)
    res = retrieve_topk(base, rng.normal(size=SHAPE), 50)
    assert len(res.indices) == 5
    assert res.scores == sorted(res.scores, reverse=True)


def test_retrieve_tie_break_lower_index_first():
    rng = np.random.default_rng(1)
    base = new_base(4, SHAPE)
    e = make_entry(rng, y_hat=0.3)
    twin = MemoryEntry(
        e.mask_feature.copy(),
        e.positional_encoding.copy(),
        e.y_hat,
        e.image_embedding.copy(),
    )
    for entry in (e, twin):
        insert_or_replace(base, entry)
    res = retrieve_topk(base, rng.normal(size=SHAPE), 2)
    assert res.indices == [0, 1]


def test_twins_across_the_matrix_vector_tail_tie_to_the_lower_slot():
    """Copies of one entry at slots 0 and 4 of a five-entry base straddle
    the last multiple of four, where a BLAS matrix-vector product would
    start a separate pass.  Each row's dot product is its own, so their
    retrieval scores and replacement similarities are equal and the tie
    goes to slot 0; a query near the twin ranks them first."""
    rng = np.random.default_rng(24)
    shape = (16, 8, 8)
    for _ in range(50):
        base = new_base(5, shape)
        twin = make_entry(rng, y_hat=0.3, shape=shape)
        insert_or_replace(base, twin)
        for _ in range(3):
            insert_or_replace(base, make_entry(rng, shape=shape))
        insert_or_replace(base, twin)
        res = retrieve_topk(base, twin.image_embedding + rng.normal(size=shape), 5)
        assert res.indices[:2] == [0, 4]
        assert res.scores[0] == res.scores[1]
        sims = memory._cosine_rows(base.mask_features, base.feature_norms,
                                   (twin.mask_feature + rng.normal(size=shape)).reshape(1, -1))
        sims = sims[:, 0]
        assert sims[0] == sims[4]
        assert int(np.argmax(sims)) == 0


def test_each_cosine_row_scores_as_that_row_alone():
    """A row's cosine does not depend on the rows beside it, a zero-norm
    row (which scores 0) included, wherever that row sits, nor on the
    queries it is scored with: each column of a stack of queries, a zero
    query among them, is that query's own one-row stack."""
    rng = np.random.default_rng(25)
    for _ in range(200):
        n, d = int(rng.integers(2, 24)), int(rng.integers(1, 200))
        mat = rng.normal(size=(n, d))
        mat[rng.integers(n)] = 0.0
        norms = np.sqrt(np.add.reduce(mat**2, axis=-1))
        vec = rng.normal(size=(1, d))
        sims = memory._cosine_rows(mat, norms, vec)
        assert sims.shape == (n, 1)
        alone = [memory._cosine_rows(mat[i : i + 1], norms[i : i + 1], vec)[0, 0]
                 for i in range(n)]
        assert sims[:, 0].tolist() == alone
        assert (sims[norms == 0] == 0).all()
        vecs = rng.normal(size=(int(rng.integers(1, 9)), d))
        vecs[rng.integers(len(vecs))] = 0.0
        stacked = memory._cosine_rows(mat, norms, vecs)
        assert stacked.T.tolist() == [
            memory._cosine_rows(mat, norms, v[None])[:, 0].tolist() for v in vecs
        ]


def test_retrieve_matches_oracle_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        base = fill_base(rng, 64, n)
        query = rng.normal(size=SHAPE)
        k = int(rng.integers(1, 8))
        assert retrieve_topk(base, query, k).indices == base_oracle(base, query, k)


def test_retrieve_without_confidence_matches_similarity_oracle():
    # confidence term off: ranking collapses to the bare cosine
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        base = fill_base(rng, 64, n)
        query = rng.normal(size=SHAPE)
        k = int(rng.integers(1, 6))
        res = retrieve_topk(base, query, k, use_confidence=False)
        sims = []
        for emb in base.image_embeddings[:n]:
            en, qn = np.linalg.norm(emb), np.linalg.norm(query.ravel())
            sims.append(float(emb @ query.ravel() / (en * qn)))
        want = sorted(range(n), key=lambda i: (-sims[i], i))[: min(k, n)]
        assert res.indices == want
        assert all(-1.0 <= s <= 1.0 for s in res.scores)


def test_retrieve_is_read_only():
    rng = np.random.default_rng(3)
    base = fill_base(rng, 8, 6)
    before = base_bytes(base)
    retrieve_topk(base, rng.normal(size=SHAPE), 3)
    assert base_bytes(base) == before


def test_retrieve_scale_invariant_indices():
    rng = np.random.default_rng(4)
    base = fill_base(rng, 32, 10)
    q = rng.normal(size=SHAPE)
    ref = retrieve_topk(base, q, 4).indices
    for lam in (1e-3, 0.5, 7.0, 1e3):
        assert retrieve_topk(base, lam * q, 4).indices == ref


def test_retrieve_zero_norm_vectors_score_zero_similarity():
    rng = np.random.default_rng(24)
    base = fill_base(rng, 8, 3)
    zero = np.zeros(SHAPE)
    insert_or_replace(base, MemoryEntry(zero, zero, 0.25, zero))
    conf = sigmoid(base.confidences[:4])
    res = retrieve_topk(base, rng.normal(size=SHAPE), 4)
    assert res.scores[res.indices.index(3)] == conf[3]
    # a zero query has no direction: every entry scores its confidence alone
    res = retrieve_topk(base, np.zeros(SHAPE), 4)
    assert res.scores == sorted(conf.tolist(), reverse=True)
    assert res.indices == base_oracle(base, np.zeros(SHAPE), 4)


def test_retrieve_clips_similarity_to_one():
    # q parallel to the stored row: the rounded quotient can exceed 1
    rng = np.random.default_rng(25)
    overshoots = 0
    for _ in range(50):
        v = rng.normal(size=SHAPE)
        q = float(rng.uniform(0.5, 3.0)) * v
        base = new_base(1, SHAPE)
        insert_or_replace(base, MemoryEntry(v, v, 0.0, v))
        # the same operations retrieve_topk runs, without its clip
        sims = base.image_embeddings[:1] @ q.ravel() / (base.embedding_norms[:1] * np.linalg.norm(q))
        raw = float(sims[0])
        overshoots += raw > 1.0
        assert retrieve_topk(base, q, 1, use_confidence=False).scores == [min(raw, 1.0)]
    assert overshoots > 0  # the clip was exercised


def test_retrieved_arrays_survive_replacement_of_their_slot():
    """Tokens a caller holds keep their bits when their slot is replaced,
    and the slot's next tokens are the new rows'."""
    rng = np.random.default_rng(26)
    base = fill_base(rng, 1, 1)
    res = retrieve_topk(base, rng.normal(size=SHAPE), 1)
    held = tokens_of(base, res.indices)
    before = held.tobytes()
    new = make_entry(rng, y_hat=float(base.confidences[0]) + 1.0)
    assert insert_or_replace(base, new).kind == "replaced"
    assert held.tobytes() == before
    assert tokens_of(base, [0]).tobytes() == rows_tokens(base, [0]).tobytes() != before


def test_retrieve_rejects_bad_query_shape():
    base = new_base(4, SHAPE)
    with pytest.raises(ValueError):
        retrieve_topk(base, np.zeros((3, 2, 2)), 1)


def test_retrieve_rejects_nonpositive_k():
    base = new_base(4, SHAPE)
    with pytest.raises(ValueError):
        retrieve_topk(base, np.zeros(SHAPE), 0)


# ---------------------------------------------------------------------------
# query stacks


# ("read", query), ("insert", confidence, entry seed, query it copies or -1),
# ("reload",): save the base and go on with the loaded copy
_stack_ops = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3)),
    st.tuples(st.just("insert"), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1),
              st.integers(-1, 3)),
    st.tuples(st.just("reload")),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(capacity=st.integers(0, 4),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
       queries=st.integers(1, 4), ops=st.lists(_stack_ops, max_size=16))
@example(capacity=1, shape=SHAPE, queries=2,
         ops=[("read", 0), ("insert", 0.0, 1, -1), ("read", 1), ("insert", 3.0, 2, 0),
              ("read", 0), ("insert", -3.0, 3, 1), ("read", 1), ("reload",), ("read", 0)])
def test_stack_reads_equal_lone_queries(tmp_path, capacity, shape, queries, ops):
    """Reads through one query stack, interleaved with appended, replaced
    and rejected inserts and carried over to a saved and loaded copy of the
    base, give what retrieving each query alone gives: the same indices and
    the same repr of every score, with and without the confidence term.
    The last query of four is zero, and inserts may copy a query."""
    rng = np.random.default_rng(queries)
    embeddings = rng.normal(size=(queries, *shape))
    embeddings[3:] = 0.0
    stack = QueryStack(embeddings)
    base = new_base(capacity, shape)
    for op in ops:
        if op[0] == "read":
            j = op[1] % queries
            for use_confidence in (True, False):
                got = retrieve_topk(base, stack[j], max(capacity, 1), use_confidence)
                want = retrieve_topk(base, embeddings[j], max(capacity, 1), use_confidence)
                assert got.indices == want.indices
                assert list(map(repr, got.scores)) == list(map(repr, want.scores))
        elif op[0] == "insert":
            entry = make_entry(np.random.default_rng(op[2]), y_hat=op[1], shape=shape)
            if op[3] >= 0:
                entry.image_embedding = embeddings[op[3] % queries].copy()
            insert_or_replace(base, entry)
        else:
            save_base(base, tmp_path / "stack.smb")
            base = load_base(tmp_path / "stack.smb")


def test_a_stack_rescores_the_slot_an_insert_wrote_between_its_reads():
    """Slot 2 holds the query's opposite, so the first read ranks it last.
    The insert between the reads overwrites it with the query itself and a
    high confidence, so the second read must rank it first: a stack that
    kept slot 2's old cosine would still rank it last."""
    rng = np.random.default_rng(29)
    query = rng.normal(size=SHAPE)
    base = new_base(4, SHAPE)
    for i in range(4):
        e = -query if i == 2 else rng.normal(size=SHAPE)
        insert_or_replace(base, MemoryEntry(rng.normal(size=SHAPE), rng.normal(size=SHAPE), 0.0, e))
    stack = QueryStack([rng.normal(size=SHAPE), query])
    assert retrieve_topk(base, stack[1], 4, use_confidence=False).indices[-1] == 2
    new = MemoryEntry(base.mask_features[2].reshape(SHAPE).copy(), rng.normal(size=SHAPE),
                      5.0, query.copy())
    out = insert_or_replace(base, new)
    assert (out.kind, out.index) == ("replaced", 2)
    for use_confidence in (False, True):
        res = retrieve_topk(base, stack[1], 4, use_confidence)
        assert res.indices[0] == 2
        assert res.scores == retrieve_topk(base, query, 4, use_confidence).scores


# ---------------------------------------------------------------------------
# random retrieval


def test_retrieve_random_deterministic_per_seed():
    rng = np.random.default_rng(5)
    base = fill_base(rng, 16, 9)
    a = retrieve_random(base, 4, rng_seed=123)
    b = retrieve_random(base, 4, rng_seed=123)
    assert a.indices == b.indices and a.scores == b.scores


def test_retrieve_random_full_k_is_permutation():
    rng = np.random.default_rng(6)
    base = fill_base(rng, 16, 7)
    res = retrieve_random(base, 7, rng_seed=9)
    assert sorted(res.indices) == list(range(7))


def test_retrieve_random_uniform_selection_frequency():
    rng = np.random.default_rng(7)
    n, k, trials = 5, 2, 10_000
    base = fill_base(rng, 8, n)
    counts = np.zeros(n)
    for seed in range(trials):
        for i in retrieve_random(base, k, rng_seed=seed).indices:
            counts[i] += 1
    p = k / n
    sigma = math.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) < 3 * sigma)


def test_retrieve_random_scores_non_increasing():
    rng = np.random.default_rng(8)
    base = fill_base(rng, 16, 10)
    res = retrieve_random(base, 6, rng_seed=11)
    assert res.scores == sorted(res.scores, reverse=True)


def test_retrieve_random_ties_go_to_the_lower_slot():
    rng = np.random.default_rng(27)
    base = new_base(8, SHAPE)
    for _ in range(6):
        insert_or_replace(base, make_entry(rng, y_hat=0.25))
    for seed in range(5):
        res = retrieve_random(base, 6, rng_seed=seed)
        assert res.indices == list(range(6))
        assert res.scores == [float(base.squashed[0])] * 6


def test_retrieve_random_empty_base_returns_empty_stacks():
    base = new_base(5, SHAPE)
    res = retrieve_random(base, 3, rng_seed=4)
    assert res.indices == [] and res.scores == []
    assert tokens_of(base, res.indices).shape == NO_TOKENS


def test_retrieved_stacks_hold_the_selected_rows():
    """The retrieved slots' tokens are memory_tokens of their rows, in
    retrieval order, read-only; a second call hands back the kept bits."""
    rng = np.random.default_rng(28)
    base = fill_base(rng, 12, 9)
    for res in (retrieve_topk(base, rng.normal(size=SHAPE), 4), retrieve_random(base, 4, 5)):
        for _ in range(2):
            got = tokens_of(base, res.indices)
            assert got.shape == (4, *NO_TOKENS[1:]) and not got.flags.writeable
            assert got.tobytes() == rows_tokens(base, res.indices).tobytes()


def test_tokens_of_refuses_slots_that_are_not_live():
    base = fill_base(np.random.default_rng(29), 4, 2)
    for bad in ([2], [0, -1]):
        with pytest.raises(IndexError):
            tokens_of(base, bad)
    assert base.tokens == {}


def test_tokens_of_computes_only_the_slots_not_kept(monkeypatch):
    base = fill_base(np.random.default_rng(30), 8, 6)
    calls = []

    def counting(features, encodings):
        calls.append(len(features))
        return memory_tokens(features, encodings)

    monkeypatch.setattr(memory, "memory_tokens", counting)
    tokens_of(base, [3, 1])
    tokens_of(base, [1, 5, 3, 0])
    tokens_of(base, [0, 5])
    tokens_of(base, [])
    assert calls == [2, 2]


# ---------------------------------------------------------------------------
# insert / replace


def test_insert_below_capacity_appends():
    rng = np.random.default_rng(9)
    base = new_base(3, SHAPE)
    out = insert_or_replace(base, make_entry(rng))
    assert out.kind == "appended" and len(base) == 1


def test_replace_when_new_more_confident():
    rng = np.random.default_rng(10)
    base = new_base(2, SHAPE)
    weak = make_entry(rng, y_hat=0.3)
    other = make_entry(rng, y_hat=0.8)
    for entry in (weak, other):
        insert_or_replace(base, entry)
    new = MemoryEntry(
        weak.mask_feature.copy(),  # most similar to the weak entry
        rng.normal(size=SHAPE),
        0.9,
        rng.normal(size=SHAPE),
    )
    out = insert_or_replace(base, new)
    assert out.kind == "replaced"
    assert out.index == 0
    assert out.old_confidence == pytest.approx(0.3)
    assert base.mask_features[0].tobytes() == new.mask_feature.tobytes()
    assert base.positional_encodings[0].tobytes() == new.positional_encoding.tobytes()
    assert base.image_embeddings[0].tobytes() == new.image_embedding.tobytes()
    assert base.confidences[0] == 0.9


def test_reject_when_new_less_confident():
    rng = np.random.default_rng(11)
    base = new_base(2, SHAPE)
    strong = make_entry(rng, y_hat=0.9)
    other = make_entry(rng, y_hat=0.8)
    for entry in (strong, other):
        insert_or_replace(base, entry)
    before = base_bytes(base)
    new = MemoryEntry(
        strong.mask_feature.copy(),
        rng.normal(size=SHAPE),
        0.3,
        rng.normal(size=SHAPE),
    )
    out = insert_or_replace(base, new)
    assert out.kind == "rejected"
    assert base_bytes(base) == before


def test_insert_capacity_zero_always_rejected():
    rng = np.random.default_rng(12)
    base = new_base(0, SHAPE)
    for _ in range(5):
        assert insert_or_replace(base, make_entry(rng)).kind == "rejected"
    assert len(base) == 0
    assert retrieve_topk(base, rng.normal(size=SHAPE), 4).indices == []


def test_replacement_monotonicity_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        cap = int(rng.integers(1, 6))
        base = fill_base(rng, cap, cap)
        for _ in range(20):
            confidences = base.confidences[:cap].copy()
            new = make_entry(rng)
            out = insert_or_replace(base, new)
            assert len(base) <= cap
            if out.kind == "replaced":
                assert new.y_hat > out.old_confidence
                # the confidence in a slot never decreases once full
                assert base.confidences[out.index] > confidences[out.index]


def test_insert_into_full_base_changes_at_most_one_slot():
    rng = np.random.default_rng(23)
    for _ in range(50):
        cap = int(rng.integers(2, 6))
        base = fill_base(rng, cap, cap)
        before = slots(base)
        out = insert_or_replace(base, make_entry(rng))
        after = slots(base)
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        if out.kind == "replaced":
            assert changed == [out.index]
        else:
            assert changed == []


def test_insert_shape_check():
    base = new_base(4, SHAPE)
    rng = np.random.default_rng(14)
    bad = MemoryEntry(
        rng.normal(size=(1, 2, 2)),
        rng.normal(size=(1, 2, 2)),
        0.0,
        rng.normal(size=(1, 2, 2)),
    )
    with pytest.raises(ValueError):
        insert_or_replace(base, bad)


def test_cached_norms_equal_linalg_norm_bitwise():
    rng = np.random.default_rng(27)
    shape = (16, 8, 8)
    base = fill_base(rng, 8, 8, shape)
    for _ in range(20):  # replacements rewrite the cached norms too
        f, pe, e = (rng.normal(size=shape) for _ in range(3))
        insert_or_replace(base, MemoryEntry(f, pe, float(rng.normal(1.0)), e))
    for norms, rows in ((base.feature_norms, base.mask_features),
                        (base.embedding_norms, base.image_embeddings)):
        assert norms.tobytes() == np.linalg.norm(rows, axis=1).tobytes()


def _cosine_model(a, b):
    """Pure-python cosine with the 1e-12 zero-norm rule and the clip."""
    na, nb = math.sqrt(sum(v * v for v in a)), math.sqrt(sum(v * v for v in b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b)) / (na * nb)))


_grid_vectors = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 4),
    inserts=st.lists(st.tuples(_grid_vectors, st.floats(-5.0, 5.0)), max_size=12),
)
def test_insert_sequence_matches_list_model(capacity, inserts):
    # small-integer features make every dot product and norm exact, so the
    # model's cosines equal the base's bit for bit
    shape = (1, 2, 2)
    base = new_base(capacity, shape)
    model: list[tuple[list[int], float]] = []
    for j, (feature, y) in enumerate(inserts):
        f = np.array(feature, dtype=float).reshape(shape)
        out = insert_or_replace(base, MemoryEntry(f, f, y, f, source_tag=str(j)))
        if len(model) < capacity:
            want = "appended"
            model.append((feature, y))
        else:
            sims = [_cosine_model(g, feature) for g, _ in model]
            i_star = sims.index(max(sims))
            want = "replaced" if model[i_star][1] < y else "rejected"
            if want == "replaced":
                assert out.index == i_star and out.old_confidence == model[i_star][1]
                model[i_star] = (feature, y)
        assert out.kind == want
    n = len(model)
    assert len(base) == n
    assert base.mask_features[:n].tolist() == [[float(v) for v in g] for g, _ in model]
    assert base.confidences[:n].tolist() == [y for _, y in model]


_token_ops = st.one_of(
    st.tuples(st.just("insert"), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("tokens"), st.lists(st.integers(0, 7), max_size=5)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(capacity=st.integers(1, 4), ops=st.lists(_token_ops, max_size=16))
@example(capacity=1, ops=[("insert", -1.0, 0), ("tokens", [0]), ("insert", 1.0, 1)])
def test_kept_tokens_follow_every_insert(tmp_path, capacity, ops):
    """Inserts (replacements too, once the small base is full) interleaved
    with tokens_of: after every step each kept entry, and so every
    tokens_of result, is memory_tokens of its slot's live rows; a saved
    and loaded base gives the same tokens."""
    base = new_base(capacity, SHAPE)
    for op in ops:
        if op[0] == "insert":
            insert_or_replace(base, make_entry(np.random.default_rng(op[2]), y_hat=op[1]))
        elif len(base):
            chosen = [i % len(base) for i in op[1]]
            assert tokens_of(base, chosen).tobytes() == rows_tokens(base, chosen).tobytes()
        for i, kept in base.tokens.items():
            assert kept.tobytes() == rows_tokens(base, [i]).tobytes()
    live = list(range(len(base)))
    path = tmp_path / "tokens.smb"
    save_base(base, path)
    loaded = load_base(path)
    assert loaded.tokens == {}
    assert tokens_of(loaded, live).tobytes() == tokens_of(base, live).tobytes()


# ---------------------------------------------------------------------------
# stats


def test_stats_empty():
    s = stats(new_base(4, SHAPE))
    assert s.count == 0 and s.capacity == 4
    assert s.mean_y_hat is None and s.mean_pairwise_similarity is None


def test_stats_single_entry():
    rng = np.random.default_rng(15)
    base = new_base(4, SHAPE)
    insert_or_replace(base, make_entry(rng, y_hat=0.42))
    s = stats(base)
    assert s.mean_y_hat == pytest.approx(0.42)
    assert s.mean_pairwise_similarity is None


def test_stats_matches_gram_oracle_with_zero_row():
    rng = np.random.default_rng(28)
    for n in (2, 3, 17, 64):
        base = fill_base(rng, 64, n - 1)
        zero = np.zeros(SHAPE)
        insert_or_replace(base, MemoryEntry(zero, zero, 0.0, zero))
        emb = base.image_embeddings[:n]
        norms = np.linalg.norm(emb, axis=1)
        unit = np.zeros_like(emb)
        unit[norms >= 1e-12] = emb[norms >= 1e-12] / norms[norms >= 1e-12, None]
        gram = unit @ unit.T
        want = (gram.sum() - np.trace(gram)) / (n * (n - 1))
        assert abs(stats(base).mean_pairwise_similarity - want) <= 1e-12


def test_stats_mean_of_three():
    rng = np.random.default_rng(16)
    base = new_base(4, SHAPE)
    for y in (0.0, 1.0, 2.0):
        insert_or_replace(base, make_entry(rng, y_hat=y))
    s = stats(base)
    assert s.mean_y_hat == pytest.approx(1.0)
    assert s.min_y_hat == 0.0 and s.max_y_hat == 2.0
    assert -1.0 <= s.mean_pairwise_similarity <= 1.0


# ---------------------------------------------------------------------------
# persistence


def test_roundtrip_empty(tmp_path):
    base = new_base(16, SHAPE)
    path = tmp_path / "empty.smb"
    save_base(base, path)
    loaded = load_base(path)
    assert base_bytes(loaded) == base_bytes(base)


def test_roundtrip_large_bit_identical(tmp_path):
    # a load seals all slots at once, in blocks of rows; the count spans
    # several blocks and ends inside one, and slot 130 is a zero row
    shape = (16, 8, 8)
    per_block = memory._SEAL_BYTES // (8 * math.prod(shape))
    count = 600
    assert count > per_block and count % per_block
    rng = np.random.default_rng(17)
    base = new_base(640, shape)
    for i in range(count):
        f, pe, e = (rng.normal(size=shape) for _ in range(3))
        if i == 130:
            f, e = np.zeros(shape), np.zeros(shape)
        y = float(rng.normal(0.0, 30.0))
        insert_or_replace(base, MemoryEntry(f, pe, y, e, "task-3/frame-12" if i == 5 else ""))
    path = tmp_path / "full.smb"
    save_base(base, path)
    assert path.read_bytes() == base_bytes(base)
    loaded = load_base(path)
    assert base_bytes(loaded) == base_bytes(base)
    assert slots(loaded) == slots(base)
    assert loaded.tags[5] == "task-3/frame-12"
    # the caches are recomputed on load, bit for bit with the per-insert ones
    for name in ("squashed", "feature_norms", "embedding_norms"):
        assert getattr(loaded, name)[:count].tobytes() == getattr(base, name)[:count].tobytes()
    assert loaded.feature_norms[130] == loaded.embedding_norms[130] == 0.0


# one- to four-byte UTF-8 characters, so tags differ in length and in width
_tags = st.text(st.sampled_from("a/-\u00e9\u4e2d\U0001f600"), max_size=4)


@settings(max_examples=60, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), capacity=st.integers(0, 8),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)))
@example(data=None, capacity=3, shape=(1, 1, 1))
def test_roundtrip_property(tmp_path, data, capacity, shape):
    if data is None:  # the pinned example: empty, ASCII and multi-byte tags, a zero row
        rows = [(0.0, "", True), (-700.0, "\u00e9\u4e2d", False), (700.0, "ab", False)]
    else:
        rows = data.draw(st.lists(
            st.tuples(st.floats(-700.0, 700.0), _tags, st.booleans()), max_size=capacity))
    rng = np.random.default_rng(capacity)
    base = new_base(capacity, shape)
    for y, tag, zero in rows:
        f, pe, e = (rng.normal(size=shape) for _ in range(3))
        if zero:
            f, e = np.zeros(shape), np.zeros(shape)
        assert insert_or_replace(base, MemoryEntry(f, pe, y, e, tag)).kind == "appended"
    path = tmp_path / "prop.smb"
    save_base(base, path)
    image = base_bytes(base)
    assert path.read_bytes() == image
    loaded = load_base(path)
    assert base_bytes(loaded) == image
    assert loaded.tags == base.tags == [tag for _, tag, _ in rows]
    n = len(rows)
    for name in ("squashed", "feature_norms", "embedding_norms"):
        assert getattr(loaded, name)[:n].tobytes() == getattr(base, name)[:n].tobytes()


def test_load_peak_memory_is_the_base_plus_a_few_mib(tmp_path):
    # buffered reads and the blockwise seal must never amount to holding
    # the file image, which would double the peak
    rng = np.random.default_rng(31)
    base = fill_base(rng, 512, 512, (16, 8, 8))
    path = tmp_path / "peak.smb"
    save_base(base, path)
    arrays = sum(a.nbytes for a in (base.mask_features, base.positional_encodings,
                                    base.image_embeddings, base.confidences, base.squashed,
                                    base.feature_norms, base.embedding_norms))
    assert path.stat().st_size > arrays // 2
    del base
    tracemalloc.start()
    try:
        loaded = load_base(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 512
    assert peak < arrays + (4 << 20)


def test_squashed_confidences_match_vectorised_sigmoid(tmp_path):
    def check(b):
        n = len(b)
        assert b.squashed[:n].tobytes() == sigmoid(b.confidences[:n]).tobytes()

    rng = np.random.default_rng(23)
    base = new_base(40, SHAPE)
    for _ in range(40):
        insert_or_replace(base, make_entry(rng, y_hat=rng.normal(0.0, 30.0)))
    check(base)
    kinds = [insert_or_replace(base, make_entry(rng, y_hat=rng.normal(0.0, 30.0))).kind
             for _ in range(60)]
    assert "replaced" in kinds
    check(base)
    path = tmp_path / "sq.smb"
    save_base(base, path)
    loaded = load_base(path)
    check(loaded)
    assert loaded.squashed[:40].tobytes() == base.squashed[:40].tobytes()


def test_load_errors_report_byte_counts(tmp_path):
    rng = np.random.default_rng(24)
    path = tmp_path / "e.smb"
    save_base(fill_base(rng, 4, 2), path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TruncatedFileError, match="needed 128 bytes for image embeddings, had 118"):
        load_base(path)
    # corrupt tag lengths are summed and checked against the file size
    # before the tags are read; the sum does not wrap at 32 bits
    lengths = 28 + 2 * 8  # header, then the two confidences
    path.write_bytes(data[:lengths] + struct.pack("<I", 0xFFFFFFFF) + data[lengths + 4 :])
    with pytest.raises(TruncatedFileError, match="needed 4294967295 bytes for tags, had 384$"):
        load_base(path)
    path.write_bytes(data[:lengths] + struct.pack("<2I", 0xFFFFFFFF, 0xFFFFFFFF)
                     + data[lengths + 8 :])
    with pytest.raises(TruncatedFileError, match="needed 8589934590 bytes for tags, had 384$"):
        load_base(path)
    path.write_bytes(data + b"\x01" * 3)
    with pytest.raises(ShapeInconsistencyError, match="^3 unexpected trailing bytes$"):
        load_base(path)


def test_load_short_read_is_truncation(tmp_path, monkeypatch):
    # the file shrinks after load_base sized it: the reads come up short
    rng = np.random.default_rng(25)
    path = tmp_path / "shrunk.smb"
    save_base(fill_base(rng, 4, 2), path)
    data = path.read_bytes()
    monkeypatch.setattr(memory.os, "fstat", lambda fd: SimpleNamespace(st_size=len(data)))
    path.write_bytes(data[:-10])
    with pytest.raises(TruncatedFileError,
                       match="needed 128 bytes for image embeddings, read 118 before its end"):
        load_base(path)
    path.write_bytes(data[:20])
    with pytest.raises(TruncatedFileError, match="needed 24 bytes for header, read 16"):
        load_base(path)


@pytest.mark.parametrize("y_hat", [math.nan, math.inf, -math.inf])
def test_load_rejects_nonfinite_confidence(tmp_path, y_hat):
    rng = np.random.default_rng(26)
    path = tmp_path / "y.smb"
    save_base(fill_base(rng, 4, 3), path)
    data = bytearray(path.read_bytes())
    at = 28 + 2 * 8  # the header, then entry 2's confidence
    data[at : at + 8] = struct.pack("<d", y_hat)
    path.write_bytes(bytes(data))
    with pytest.raises(MemoryFileError, match=f"^entry 2 confidence {y_hat} is not finite$"):
        load_base(path)


def test_load_rejects_tag_that_is_not_utf8(tmp_path):
    rng = np.random.default_rng(28)
    base = fill_base(rng, 4, 2)
    base.tags[1] = "ab"
    path = tmp_path / "tag.smb"
    save_base(base, path)
    data = bytearray(path.read_bytes())
    at = 28 + 2 * 8 + 2 * 4 + 1  # header, confidences, tag lengths, then entry 1's "b"
    assert data[at : at + 1] == b"b"
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(MemoryFileError,
                       match="^entry 1 tag is not valid UTF-8: invalid start byte at byte 1$"):
        load_base(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.smb"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagicError, match="bad magic"):
        load_base(path)


def test_load_version_mismatch(tmp_path):
    rng = np.random.default_rng(18)
    base = fill_base(rng, 4, 1)
    path = tmp_path / "v.smb"
    save_base(base, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatchError):
        load_base(path)


@pytest.mark.parametrize("capacity, shape, match", [
    ((1 << 32) - 1, (65535, 65535, 65535),
     r"capacity 4294967295 with feature shape \(65535, 65535, 65535\) is too big"),
    # 512 PiB a column: numpy attempts it, and no address space can map it
    ((1 << 32) - 1, (4096, 64, 64),
     r"capacity 4294967295 with feature shape \(4096, 64, 64\) is too big"),
    (4, (2, 0, 2), r"feature_shape must be three positive extents, got \(2, 0, 2\)"),
], ids=["too-big-to-allocate", "allocation-fails", "zero-extent"])
def test_load_rejects_header_no_base_can_hold(tmp_path, capacity, shape, match):
    path = tmp_path / "h.smb"
    path.write_bytes(b"SMB2" + struct.pack("<6I", 2, capacity, 0, *shape))
    with pytest.raises(ShapeInconsistencyError, match=match):
        load_base(path)


def test_load_refuses_version_1(tmp_path):
    # a version-1 file, one entry of shape (1, 1, 1): its confidence, tag
    # length and tag, then its three rows
    path = tmp_path / "v1.smb"
    path.write_bytes(b"SMB2" + struct.pack("<6I", 1, 1, 1, 1, 1, 1)
                     + struct.pack("<dI", 0.5, 1) + b"a" + bytes(24))
    with pytest.raises(VersionMismatchError, match="^unsupported version 1, expected 2$"):
        load_base(path)


def test_every_strict_prefix_is_truncated_and_any_tail_is_trailing(tmp_path):
    rng = np.random.default_rng(32)
    base = fill_base(rng, 4, 2)
    base.tags[1] = "t\u00e9"
    data = base_bytes(base)
    assert len(data) == 28 + 2 * 8 + 2 * 4 + 3 + 3 * 2 * 8 * math.prod(SHAPE)
    path = tmp_path / "p.smb"
    for end in range(len(data)):
        path.write_bytes(data[:end])
        with pytest.raises(TruncatedFileError):
            load_base(path)
    for extra in (1, 2, 3):
        path.write_bytes(data + b"\x00" * extra)
        with pytest.raises(ShapeInconsistencyError, match=f"^{extra} unexpected trailing bytes$"):
            load_base(path)
    path.write_bytes(data)
    assert base_bytes(load_base(path)) == data


def test_load_truncated(tmp_path):
    rng = np.random.default_rng(19)
    base = fill_base(rng, 4, 2)
    path = tmp_path / "t.smb"
    save_base(base, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(TruncatedFileError):
        load_base(path)


def test_load_shape_inconsistency(tmp_path):
    rng = np.random.default_rng(20)
    base = fill_base(rng, 4, 1)
    path = tmp_path / "s.smb"
    save_base(base, path)
    data = path.read_bytes()
    path.write_bytes(data + b"\x00" * 4)  # trailing garbage
    with pytest.raises(ShapeInconsistencyError):
        load_base(path)


def test_load_count_exceeding_capacity(tmp_path):
    rng = np.random.default_rng(21)
    base = fill_base(rng, 4, 2)
    path = tmp_path / "c.smb"
    save_base(base, path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 1)  # capacity 1 < count 2
    path.write_bytes(bytes(data))
    with pytest.raises(ShapeInconsistencyError):
        load_base(path)
