"""Nearest-neighbor retrieval from the support store and class relevance weights.

Retrieval is exact: each query row gets the k stored entries of highest
cosine similarity, ties broken toward the smaller entry id. A pair's
similarity is the float64 dot product of that pair alone (_rescore), so the
rows returned do not depend on blocks, tiles, the rows a kept answer covers,
the number of query rows scored together or the number of BLAS threads. A
float32 scan with a rounding bound (_query_side) finds the few pairs that
can reach the k best; its temporary memory is a few tiles of
SCAN_TILE_BYTES, whatever the store size and the number of query rows (see
_scan_block, _fold). A repeated query scores only the entries added since
its last call (_nearest_rows).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyStore, NonFiniteInput
from .numerics import DenseFeatureMap, array_of, softmax, whole
from .support import U32, SupportStore, TextBank


@dataclass(frozen=True)
class RetrievedSet:
    """Union of per-patch neighbor sets, deduplicated by entry id."""

    entries: np.recarray    # store records (support.row_dtype), ascending entry_id

    @property
    def classes(self) -> tuple:  # distinct class ids, ascending
        return tuple(np.unique(self.entries.class_id).tolist())

    def __len__(self) -> int:
        return len(self.entries)


# store rows scored per block, and about the most bytes of float32
# similarities one tile of query rows gets against a block (see _tiles), of
# rows one re-scored chunk gathers (see _rescore), or of kept pairs before a
# fold settles them (see _fold): retrieval memory is a few tiles, whatever
# the store size and the number of query rows, but for pairs that tie
BLOCK_ROWS = 4096
SCAN_TILE_BYTES = 4 << 20

# answers a store keeps for repeated queries (see _nearest_rows); past this
# many, the least recently used is dropped. An answer holds 24 bytes for
# each of the k pairs of each query row
KEPT_ANSWERS = 64


class _Scan(NamedTuple):
    """The query side of a scan (see _query_side)."""

    rows: np.ndarray   # (n, d) float32: the query rows times a power of two
    band: np.ndarray   # (n,) float64: kept width below each row's k-th best


def _query_side(queries: np.ndarray, d: int, norm: float) -> _Scan:
    """The query rows q scaled by 2**e and cast to float32, and each row's
    band, for stored rows of norm at most `norm`.

    e depends on the rows and d alone. It makes every scaled entry below
    2**-1 / 2**bit_length(d), so a float32 product of a scaled row with any
    float32 row (norm below sqrt(d) FLT_MAX) stays below FLT_MAX / 2 in
    every partial sum.

    A pair's float32 similarity f and its float64 re-score r (_rescore), in
    the same units, satisfy |f - 2**e r| <= B with
    B = c ||q'|| R + 2**-124 (d + sqrt(d) (1 + R)) + 2**(e - 1020) d + E:
    q' is the scaled row, R = `norm` (the store's, see _commit_rows) and
    c = ((d + 1) u / (1 - (d + 1) u) + u)(1 + u) with u = 2**-24 bounds the
    cast of q' and a float32 dot product in any summation order, FMA
    included. The 2**-124 term bounds underflow in float32, gradual or
    flushed to zero, and the 2**(e - 1020) term in the float64 re-score. E,
    the re-score's rounding, is below 2**-28 c ||q'|| R; the slack 2**-16
    covers it and the rounding of ||q'||, R and B themselves. The band is
    2 B: a pair whose f is below its row's k-th best f less 2 B has k pairs
    whose r is certainly larger.
    """
    n = len(queries)
    if (d + 1) * U32 >= 0.5:  # no float32 bound: every pair scores 0 and is kept
        return _Scan(np.zeros((n, d), np.float32), np.full(n, np.inf))
    top = max(float(queries.max()), -float(queries.min()))
    e = -1 - d.bit_length() - int(np.frexp(top)[1])
    scaled = np.ldexp(queries, e)
    c = ((d + 1) * U32 / (1 - (d + 1) * U32) + U32) * (1 + U32)
    norms = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    floor = 2.0 ** -124 * (d + math.sqrt(d) * (1 + norm)) + math.ldexp(d, e - 1020)
    band = 2 * (1 + 2.0 ** -16) * (c * norm * norms + floor)
    return _Scan(scaled.astype(np.float32), band)


def _floor(kth: np.ndarray, band: np.ndarray) -> np.ndarray:
    """kth - band per query row, rounded down to float32: the least float32
    similarity a row keeps."""
    exact = kth - band
    with np.errstate(over="ignore"):
        floor = exact.astype(np.float32)
    down = floor > exact
    floor[down] = np.nextafter(floor[down], np.float32(-np.inf))
    return floor


def _tiles(n: int, block_rows: int):
    """(start, stop) ranges of n query rows, scored one at a time against a
    block of block_rows store rows: as many rows as keep their float32
    similarities within SCAN_TILE_BYTES, and at least one."""
    rows = max(1, SCAN_TILE_BYTES // (4 * block_rows))
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def _scan_block(state, scan: _Scan, block: np.ndarray, start: int, k: int):
    """The scan state after one more block of store rows, which start at row
    `start`; the state passed in is left as it was.

    A state is (floor, pairs): the least float32 similarity each query row
    keeps (see _floor), None until the scan has scored k store rows, and a
    tuple of (query index, store row, float32 similarity) arrays of the
    pairs kept so far, each at or above its row's floor. The block's float32
    rows are scored as they are stored, against one tile of query rows at a
    time (_tiles), so temporary memory is a few tiles whatever the number of
    queries.

    Until the floor is set, the block is scored as (query rows, block rows):
    if it holds k rows or more, normally the first block, a partition of
    each row's contiguous scores sets the floor; if not, every pair is kept.
    After that the floor stays as it is until _settled raises it from the
    kept pairs, and a block is scored as (block rows, query rows), which
    OpenBLAS computes faster.
    """
    floor, pairs = state
    floors, found = [], []
    for a, b in _tiles(len(scan.rows), len(block)):
        rows = scan.rows[a:b]
        if floor is not None:
            sims = block @ rows.T
            hit = np.flatnonzero(sims >= floor[a:b])
            col, q = np.divmod(hit, b - a)
        else:
            sims = rows @ block.T
            if len(block) >= k:
                floors.append(_floor(np.partition(sims, -k, axis=1)[:, -k], scan.band[a:b]))
                hit = np.flatnonzero(sims >= floors[-1][:, None])
            else:
                hit = np.arange(sims.size)
            q, col = np.divmod(hit, len(block))
        found.append((q + a, col + start, sims.ravel()[hit]))
    if floors:
        floor = np.concatenate(floors)
    return floor, pairs + tuple(found)


def _settled(state, scan: _Scan, k: int):
    """The state with its kept pairs in one array triple. Once k store rows
    have been scored, each query's floor is raised to that of its k-th best
    kept pair, and the pairs below it are dropped: the kept pairs hold each
    query's k best float32 pairs, the floor only rises and the band covers
    every row scored so far, so no later block brings them back. A state is
    settled when its kept pairs grow and at the end of a scan over a store
    of a block or more (_fold).
    """
    floor, pairs = state
    q, row, sim = (np.concatenate(p) for p in zip(*pairs))
    if len(q) < k * len(scan.band):  # no floor, and every pair of fewer than k rows
        return floor, ((q, row, sim),)
    order = np.lexsort((-sim, q))
    rank = np.arange(len(q)) - np.searchsorted(q[order], q[order])
    floor = _floor(sim[order[rank == k - 1]], scan.band)
    keep = sim >= floor[q]
    return floor, ((q[keep], row[keep], sim[keep]),)


def _fold(scan: _Scan, vectors, start: int, k: int):
    """The scan state after the blocks of store rows start, start +
    BLOCK_ROWS, ... to the end of vectors, from the empty state. A state is
    settled once the blocks scored hold k rows but set no floor (k larger
    than a block), and once its kept pairs (20 bytes each) outgrow
    SCAN_TILE_BYTES or twice what the last settling left, so rows that all
    score above an early block's (a store added class by class) cannot make
    them grow with the store; only ties can. Over vectors of a block or
    more it is settled once more at the end, so that only pairs that can
    reach the k best are re-scored; fewer rows are one block, whose floor
    already leaves only those.
    """
    state, limit = (None, ()), SCAN_TILE_BYTES // 20
    for s in range(start, len(vectors), BLOCK_ROWS):
        block = vectors[s:s + BLOCK_ROWS]
        floor, pairs = state = _scan_block(state, scan, block, s, k)
        if ((floor is None and s + len(block) - start >= k)
                or sum(len(q) for q, _, _ in pairs) > limit):
            state = _settled(state, scan, k)
            limit = max(limit, 2 * len(state[1][0][0]))
    return _settled(state, scan, k) if len(vectors) >= BLOCK_ROWS else state


def _rescore(queries: np.ndarray, vectors: np.ndarray, q: np.ndarray,
             row: np.ndarray) -> np.ndarray:
    """The float64 similarity of each (query row, store row) pair: np.dot of
    the float64 store row and the query row, computed as a stacked
    (1, d) @ (d, 1) matmul (the BLAS dot np.dot calls), over chunks of pairs
    whose gathered rows (4d + 8d + 8d bytes a pair) stay within
    SCAN_TILE_BYTES. At d = 1 only the sign of a zero can differ from
    np.dot's."""
    sims = np.empty(len(q))
    step = max(1, SCAN_TILE_BYTES // (20 * queries.shape[1]))
    for a in range(0, len(q), step):
        v = vectors[row[a:a + step]].astype(np.float64)
        sims[a:a + step] = np.matmul(v[:, None, :], queries[q[a:a + step], :, None])[:, 0, 0]
    return sims


def _nearest_rows(queries: np.ndarray, store: SupportStore, k: int):
    """(query index, store row) pairs of the min(k, size) most similar entries
    of every query row, ordered by query, similarity descending, entry_id
    ascending; a pair's similarity is np.dot of the float64 store row and
    the query row (_rescore), whatever the blocks, tiles, kept answer or
    BLAS threads.

    A left fold of _scan_block over the store's blocks from the empty state
    keeps, in float32, every pair that can still reach its query's k best
    (_query_side); those are re-scored in float64 and one lexsort orders
    them. A store of a block or more keeps the answer, (query index, store
    row, similarity) of each query's k best, with the store size it covers,
    keyed by the query rows and k. The store only appends rows, so a later
    call with the same rows and k scans only the rows appended since, from
    the empty state, and ranks its pairs together with the kept ones: each
    query's k best are among its k best of the rows covered and its k best
    of the rows after them, and a pair's similarity is that of the pair
    alone, so the answer is a fresh scan's.
    """
    size = store.size
    kept, start = (), 0
    if size >= BLOCK_ROWS:
        answers = store._kept_answers
        key = (hashlib.blake2b(np.ascontiguousarray(queries), digest_size=16).digest(),
               queries.shape, queries.dtype.str, k)
        start, kept = answers.pop(key, (start, kept))
    entries = store.entries
    vectors = entries.vector
    if start < size:
        scan = _query_side(queries, store.dim, math.sqrt(store._square_bound))
        _, pairs = _fold(scan, vectors, start, k)
        q, row, _ = (np.concatenate(p) for p in zip(*pairs))
        kept += ((q, row, _rescore(queries, vectors, q, row)),)
    q, row, sim = (np.concatenate(p) for p in zip(*kept))
    order = np.lexsort((entries.entry_id[row], -sim, q))
    q, row = q[order], row[order]
    top = np.arange(len(q)) - np.searchsorted(q, q) < k
    if size >= BLOCK_ROWS:
        answers[key] = (size, ((q[top], row[top], sim[order][top]),))
        if len(answers) > KEPT_ANSWERS:
            del answers[next(iter(answers))]
    return q[top], row[top]


def _check_query(store: SupportStore, k: int) -> None:
    whole("k", k, 1)
    if store.size == 0:
        raise EmptyStore("support store has no entries")


def knn(query: np.ndarray, store: SupportStore, k: int) -> np.recarray:
    """k most cosine-similar entry records to one unit query vector.

    Ties break toward the smaller entry_id; returns min(k, size) entries.
    k must be an integer >= 1, and a query that is not a real numeric array
    raises ValidationError; one holding nan or inf, NonFiniteInput.
    """
    _check_query(store, k)
    q = np.asarray(query)
    array_of("query", q, "biuf")
    q = q.astype(np.float64, copy=False)
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
