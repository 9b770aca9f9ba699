"""Nearest-neighbor retrieval from the support store and class relevance weights."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyStore, NonFiniteInput
from .numerics import DenseFeatureMap, softmax, whole
from .support import SupportStore, TextBank


@dataclass(frozen=True)
class RetrievedSet:
    """Union of per-patch neighbor sets, deduplicated by entry id."""

    entries: np.recarray    # store records (support.row_dtype), ascending entry_id

    @property
    def classes(self) -> tuple:  # distinct class ids, ascending
        return tuple(np.unique(self.entries.class_id).tolist())

    def __len__(self) -> int:
        return len(self.entries)


# store rows scored per block, and about the most bytes of f64 similarities
# one tile of query rows gets against a block (see _tiles): retrieval memory
# is one float64 block and a few tiles, whatever the store size and the
# number of query rows
BLOCK_ROWS = 4096
SCAN_TILE_BYTES = 4 << 20

# scan states a store keeps for resuming (see _nearest_rows); past this
# many, the least recently used is dropped
SCAN_STATES = 64


def _tiles(n: int, block_rows: int):
    """(start, stop) row ranges of n query rows, scored one at a time against
    a block of block_rows store rows.

    A tile has as many rows as SCAN_TILE_BYTES allows, at least one, and a
    multiple of 48 when it has that many: tile edges at multiples of 48 keep
    OpenBLAS's packing of the query side as it is in one call (24-row panels
    on Haswell), so on one BLAS thread each similarity comes out as one GEMM
    over all rows gives it. A last tile of one row joins the tile before it,
    since numpy scores a single row with a matrix-vector product that rounds
    differently. The ranges depend only on n and the block's length, which a
    fresh and a resumed scan give every block alike.
    """
    rows = max(1, SCAN_TILE_BYTES // (8 * block_rows))
    if rows >= 48:
        rows -= rows % 48
    starts = list(range(0, max(n - 1, 1), rows))
    return zip(starts, starts[1:] + [n])


def _scan_block(state, queries: np.ndarray, block: np.ndarray, start: int, k: int):
    """The scan state after one more block of store rows, which start at row
    `start`; the state passed in is left as it was.

    A state is (best, kth, hits): each query's running k best similarities,
    its k-th best (-inf until it has k candidates) and a tuple of
    (query index, store row, similarity) arrays of the hits so far. The block
    is upcast to float64 once and scored against one tile of query rows at a
    time (_tiles), so temporary memory is the upcast block and a few tiles
    whatever the number of queries; every query's state is its own, so
    _scan_tile updates each tile's rows alone.
    """
    best, kth, hits = state
    block = block.astype(np.float64).T
    tiles = [_scan_tile(best[a:b], kth[a:b], queries[a:b] @ block, a, start, k)
             for a, b in _tiles(len(queries), block.shape[1])]
    best, kth, found = zip(*tiles)
    return np.concatenate(best), np.concatenate(kth), hits + found


def _scan_tile(best, kth, sims: np.ndarray, first: int, start: int, k: int):
    """(best, kth, hits) of query rows first, first + 1, ... after their
    (rows, block) similarities sims; hits is one (query index, store row,
    similarity) triple.

    Only a block's hits, the candidates at or above the running k-th best
    similarity of their query, are kept. The running k best come from a
    partition of each block until every query has k candidates, normally
    after the first block; after that only a block's hits can enter them, so
    a lexsort of the k best and the hits of the queries that have hits
    updates them. The k-th value is the one a partition would give, so the
    same hits come out.
    """
    full = best.shape[1] == k
    if not full:
        top = sims if sims.shape[1] <= k else np.partition(sims, -k, axis=1)[:, -k:]
        best = np.concatenate([best, top], axis=1)
        if best.shape[1] > k:
            best = np.partition(best, -k, axis=1)[:, -k:]
        if best.shape[1] == k:
            kth = best.min(axis=1)
    hit = np.flatnonzero(sims >= kth[:, None])
    q, col = np.divmod(hit, sims.shape[1])
    sim = sims.ravel()[hit]
    if full and hit.size:
        # the k best of each query with hits, from its k best and its
        # hits ordered by query, then similarity descending
        touched = q[np.r_[True, q[1:] != q[:-1]]]
        owner = np.concatenate([np.repeat(touched, k), q])
        value = np.concatenate([best[touched].ravel(), sim])
        order = np.lexsort((-value, owner))
        owner = owner[order]
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        best, kth = best.copy(), kth.copy()
        best[touched] = value[order[rank < k]].reshape(-1, k)
        kth[touched] = best[touched, -1]
    return best, kth, (q + first, col + start, sim)


def _settled(state):
    """The state with its hits in one array triple, less those below their
    query's k-th best: the k-th best only rises, so no later block brings
    them back."""
    best, kth, hits = state
    q, row, sim = (np.concatenate(h) for h in zip(*hits))
    keep = sim >= kth[q]
    return best, kth, ((q[keep], row[keep], sim[keep]),)


def _fold(state, queries, vectors, start: int, stop: int, k: int):
    """The state after the blocks of store rows start, start + BLOCK_ROWS,
    ... before stop; start is a multiple of BLOCK_ROWS, and stop one too or
    the end of vectors."""
    for s in range(start, stop, BLOCK_ROWS):
        state = _scan_block(state, queries, vectors[s:s + BLOCK_ROWS], s, k)
    return state


def _nearest_rows(queries: np.ndarray, store: SupportStore, k: int):
    """(query index, store row) pairs of the min(k, size) most similar entries
    of every query row, ordered by query, similarity descending, entry_id
    ascending.

    A left fold of _scan_block over the store's blocks from the empty state;
    one lexsort then orders the surviving hits. The store only appends rows,
    so the state after its last full block is kept on the store (keyed by the
    query rows, k and the block size) and a later call with the same rows
    resumes from it: it scores the blocks after it, the last partial one
    again from its start. Every block then has the rows a fresh scan would
    give it, so the same bits come out.
    """
    n = queries.shape[0]
    size = store.size
    k = min(k, size)
    entries = store.entries
    vectors = entries.vector
    state = (np.empty((n, 0)), np.full(n, -np.inf), ())  # nothing scored yet
    start = 0
    settled = size - size % BLOCK_ROWS  # rows in full blocks
    if settled:
        states = store._scan_states
        key = (hashlib.blake2b(np.ascontiguousarray(queries), digest_size=16).digest(),
               queries.shape, queries.dtype.str, k, BLOCK_ROWS)
        start, state = states.pop(key, (start, state))
        state = _settled(_fold(state, queries, vectors, start, settled, k))
        states[key] = (settled, state)
        start = settled
        if len(states) > SCAN_STATES:
            del states[next(iter(states))]
    _, _, hits = _settled(_fold(state, queries, vectors, start, size, k))
    q, row, sim = hits[0]
    order = np.lexsort((entries.entry_id[row], -sim, q))
    q, row = q[order], row[order]
    rank = np.arange(len(q)) - np.searchsorted(q, q)
    return q[rank < k], row[rank < k]


def _check_query(store: SupportStore, k: int) -> None:
    whole("k", k, 1)
    if store.size == 0:
        raise EmptyStore("support store has no entries")


def knn(query: np.ndarray, store: SupportStore, k: int) -> np.recarray:
    """k most cosine-similar entry records to one unit query vector.

    Ties break toward the smaller entry_id; returns min(k, size) entries.
    k must be an integer >= 1, and a query holding nan or inf raises
    NonFiniteInput.
    """
    _check_query(store, k)
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (store.dim,):
        raise DimensionMismatch(f"query shape {q.shape}, store d={store.dim}")
    if not np.isfinite(q).all():
        raise NonFiniteInput("query holds nan or inf")
    _, rows = _nearest_rows(q[None, :], store, k)
    return store.entries[rows]


def retrieve_for_image(x: DenseFeatureMap, store: SupportStore, k: int) -> RetrievedSet:
    """Union of the k nearest support entries of every patch of x."""
    _check_query(store, k)
    if x.dim != store.dim:
        raise DimensionMismatch(f"features d={x.dim}, store d={store.dim}")

    rows = np.unique(_nearest_rows(x.data, store, k)[1])
    entries = store.entries[rows]
    entries = entries[np.argsort(entries.entry_id, kind="stable")]
    return RetrievedSet(entries)


def global_average_feature(x: DenseFeatureMap) -> np.ndarray:
    """Plain mean of the unit patch features; deliberately not re-normalized."""
    return x.data.mean(axis=0)


def class_relevance_weights(x: DenseFeatureMap, bank: TextBank, tau: float) -> np.ndarray:
    """Softmax over text-vs-image-mean similarities; uniform 1.0 weights when
    the bank has no real rows."""
    if bank.fallback:
        return np.ones(bank.num_classes, dtype=np.float64)
    if bank.dim != x.dim:
        raise DimensionMismatch(f"features d={x.dim}, text d={bank.dim}")
    g = global_average_feature(x)
    scores = np.asarray(bank.features, dtype=np.float64) @ g
    return softmax(scores, tau)
