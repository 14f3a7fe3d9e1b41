"""Brute-force top-K retrieval reference for the memory tests (A1 and
tests/test_memory.py)."""

import math

import numpy as np


def oracle_topk(embeddings, confidences, query, k) -> list[int]:
    """Independent pure-python full sort of cos(E_i, query) + sigmoid(y_hat_i)
    over embedding rows E_i and raw confidences y_hat_i, descending, ties to
    the lower index; a vector with norm < 1e-12 has cosine 0."""
    q = np.ravel(query).tolist()
    qn = math.sqrt(sum(v * v for v in q))
    totals = []
    for row, y in zip(embeddings, map(float, confidences)):
        emb = np.ravel(row).tolist()
        en = math.sqrt(sum(v * v for v in emb))
        if en < 1e-12 or qn < 1e-12:
            s = 0.0
        else:
            s = max(-1.0, min(1.0, sum(a * b for a, b in zip(emb, q)) / (en * qn)))
        conf = 1.0 / (1.0 + math.exp(-y)) if y >= 0 else math.exp(y) / (1.0 + math.exp(y))
        totals.append(s + conf)
    order = sorted(range(len(totals)), key=lambda i: (-totals[i], i))
    return order[:k]
