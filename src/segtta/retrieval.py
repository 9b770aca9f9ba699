"""Nearest-neighbor retrieval from the support store and class relevance weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyStore, ValidationError
from .numerics import DenseFeatureMap, softmax
from .support import SupportStore, TextBank


@dataclass(frozen=True)
class RetrievedSet:
    """Union of per-patch neighbor sets, deduplicated by entry id."""

    entries: np.recarray    # store records (support.row_dtype), ascending entry_id
    classes: tuple          # distinct class ids, ascending

    def __len__(self) -> int:
        return len(self.entries)


# store rows scored per block: retrieval memory is O(n * BLOCK_ROWS) for n
# query rows, whatever the store size
BLOCK_ROWS = 4096


def _nearest_rows(queries: np.ndarray, store: SupportStore, k: int):
    """(query index, store row) pairs of the min(k, size) most similar entries
    of every query row, ordered by query, similarity descending, entry_id
    ascending.

    Each block of store rows is upcast to float64 and scored against all
    queries; only the candidates at or above the running k-th best similarity
    of their query are kept, and one lexsort orders that small set.
    """
    n = queries.shape[0]
    k = min(k, store.size)
    best = np.empty((n, 0))  # running k best similarities per query, unordered
    kth = np.full(n, -np.inf)
    hits = []
    entries = store.entries
    vectors = entries.vector
    for start in range(0, store.size, BLOCK_ROWS):
        block = vectors[start:start + BLOCK_ROWS].astype(np.float64)
        sims = queries @ block.T
        top = sims if sims.shape[1] <= k else np.partition(sims, -k, axis=1)[:, -k:]
        best = np.concatenate([best, top], axis=1)
        if best.shape[1] > k:
            best = np.partition(best, -k, axis=1)[:, -k:]
        if best.shape[1] == k:
            kth = best.min(axis=1)
        hit = np.flatnonzero(sims >= kth[:, None])
        q, col = np.divmod(hit, sims.shape[1])
        hits.append((q, col + start, sims.ravel()[hit]))
    q, row, sim = (np.concatenate(h) for h in zip(*hits))
    keep = sim >= kth[q]
    q, row, sim = q[keep], row[keep], sim[keep]
    order = np.lexsort((entries.entry_id[row], -sim, q))
    q, row = q[order], row[order]
    rank = np.arange(len(q)) - np.searchsorted(q, q)
    return q[rank < k], row[rank < k]


def _check_query(store: SupportStore, k: int) -> None:
    if store.size == 0:
        raise EmptyStore("support store has no entries")
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")


def knn(query: np.ndarray, store: SupportStore, k: int) -> np.recarray:
    """k most cosine-similar entry records to one unit query vector.

    Ties break toward the smaller entry_id; returns min(k, size) entries.
    """
    _check_query(store, k)
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (store.dim,):
        raise DimensionMismatch(f"query shape {q.shape}, store d={store.dim}")
    _, rows = _nearest_rows(q[None, :], store, k)
    return store.entries[rows]


def retrieve_for_image(x: DenseFeatureMap, store: SupportStore, k: int) -> RetrievedSet:
    """Union of the k nearest support entries of every patch of x."""
    _check_query(store, k)
    x = x.normalized()
    if x.dim != store.dim:
        raise DimensionMismatch(f"features d={x.dim}, store d={store.dim}")

    rows = np.unique(_nearest_rows(np.asarray(x.data, dtype=np.float64), store, k)[1])
    entries = store.entries[rows]
    entries = entries[np.argsort(entries.entry_id, kind="stable")]
    return RetrievedSet(entries, tuple(np.unique(entries.class_id).tolist()))


def global_average_feature(x: DenseFeatureMap) -> np.ndarray:
    """Plain mean of the (unit) patch features; deliberately not re-normalized."""
    return np.asarray(x.normalized().data, dtype=np.float64).mean(axis=0)


def class_relevance_weights(x: DenseFeatureMap, bank: TextBank, tau: float) -> np.ndarray:
    """Softmax over text-vs-image-mean similarities; uniform 1.0 weights when
    the bank has no real rows."""
    if bank.fallback:
        return np.ones(bank.num_classes, dtype=np.float64)
    if not bank.usable:
        raise ValidationError("text bank has unmaterialized absent rows")
    if bank.dim != x.dim:
        raise DimensionMismatch(f"features d={x.dim}, text d={bank.dim}")
    g = global_average_feature(x)
    scores = np.asarray(bank.features, dtype=np.float64) @ g
    return softmax(scores, tau)
