import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtta import fileio, retrieval, support
from segtta.errors import DimensionMismatch, EmptyStore, NonFiniteInput, ValidationError
from segtta.numerics import LabelMask, softmax
from segtta.retrieval import (
    class_relevance_weights,
    global_average_feature,
    knn,
    retrieve_for_image,
)
from segtta.support import SupportStore, TextBank, add_support_image, row_dtype

from conftest import append_records, feature_map, make_bank, random_store, unit_rows
from oracles import knn_fullsort


FLT_MAX = float(np.finfo(np.float32).max)


def _check_square_bound(store):
    """The store's bound is at least every stored row's squared norm, and
    within the slack SupportStore._commit_rows states: a row whose float32
    square overflows counts as d FLT_MAX**2."""
    d, u = store.dim, support.U32
    top = max(math.fsum(v * v) for v in store.entries.vector.astype(np.float64))
    cap = (d * FLT_MAX ** 2 if top > FLT_MAX else top + 2 * d * 2.0 ** -125) / (1 - d * u) ** 2
    assert top <= store._square_bound <= cap * (1 + 2.0 ** -40)


def basis_store(d=4):
    """One entry per basis direction e_0..e_{d-1}, class i, image i."""
    store = SupportStore.empty(d, d)
    for i in range(d):
        row = np.zeros((1, d))
        row[0, i] = 1.0
        x = feature_map(row, 1, 1)
        add_support_image(store, x, LabelMask(
            np.full((4, 4), i, dtype=np.int64), d), i)
    return store


class TestKnn:
    def test_basis_ranking(self):
        store = basis_store(4)
        q = np.array([0.9, 0.3, 0.1, 0.0])
        got = [e.entry_id for e in knn(q / np.linalg.norm(q), store, 3)]
        assert got == [0, 1, 2]

    def test_tie_breaks_to_smaller_entry_id(self):
        store = SupportStore.empty(2, 2)
        x = feature_map(np.array([[1.0, 0.0]]), 1, 1)
        for i in range(3):
            add_support_image(store, x, LabelMask(
                np.full((4, 4), i % 2, dtype=np.int64), 2), i)
        got = [e.entry_id for e in knn(np.array([1.0, 0.0]), store, 2)]
        assert got == [0, 1]

    def test_k_larger_than_store(self):
        store = basis_store(3)
        got = knn(np.array([1.0, 0.0, 0.0]), store, 10)
        assert len(got) == 3

    def test_guards(self):
        store = SupportStore.empty(2, 2)
        with pytest.raises(EmptyStore):
            knn(np.array([1.0, 0.0]), store, 1)
        full = basis_store(2)
        with pytest.raises(ValidationError):
            knn(np.array([1.0, 0.0]), full, 0)
        with pytest.raises(DimensionMismatch):
            knn(np.array([1.0, 0.0, 0.0]), full, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            knn(np.array([bad, 0.0]), basis_store(2), 1)

    @pytest.mark.parametrize("k", [2.5, "3", None, True, np.float64(2.0)])
    def test_k_must_be_an_integer(self, k):
        store = basis_store(2)
        with pytest.raises(ValidationError):
            knn(np.array([1.0, 0.0]), store, k)
        with pytest.raises(ValidationError):
            retrieve_for_image(feature_map(np.eye(2), 1, 2), store, k)

    def test_numpy_integer_k(self):
        got = knn(np.array([1.0, 0.0, 0.0]), basis_store(3), np.int64(2))
        assert got.entry_id.tolist() == [0, 1]

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 3, 7]))
    @settings(max_examples=25, deadline=None)
    def test_matches_fullsort_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        store = random_store(rng, 4, 6, images=9, grid=2)
        q = unit_rows(rng, 1, 6)[0]
        got = [e.entry_id for e in knn(q, store, k)]
        vectors = [e.vector.astype(np.float64) for e in store.entries]
        ids = [e.entry_id for e in store.entries]
        assert got == knn_fullsort(q, vectors, ids, k)


class TestRetrieveForImage:
    def test_whole_store_when_k_covers_it(self):
        rng = np.random.default_rng(0)
        store = random_store(rng, 3, 6, images=5, grid=2)
        x = feature_map(unit_rows(rng, 4, 6), 2, 2)
        out = retrieve_for_image(x, store, k=99)
        assert [e.entry_id for e in out.entries] == list(range(5))
        assert out.classes == (0, 1, 2)

    def test_union_of_per_patch_neighbors(self):
        store = basis_store(4)
        rows = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        x = feature_map(rows, 1, 2)
        out = retrieve_for_image(x, store, k=1)
        assert [e.entry_id for e in out.entries] == [0, 1]
        assert out.classes == (0, 1)

    def test_dedup_across_patches(self):
        store = basis_store(4)
        rows = np.tile(np.array([[1.0, 0, 0, 0]]), (6, 1))
        x = feature_map(rows, 2, 3)
        out = retrieve_for_image(x, store, k=2)
        assert len(out) == 2  # same two neighbors for every patch

    def test_entries_sorted_by_id(self):
        rng = np.random.default_rng(1)
        store = random_store(rng, 5, 8, images=15, grid=2)
        x = feature_map(unit_rows(rng, 9, 8), 3, 3)
        out = retrieve_for_image(x, store, k=2)
        ids = [e.entry_id for e in out.entries]
        assert ids == sorted(ids)
        assert out.classes == tuple(sorted(set(e.class_id for e in out.entries)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_equals_per_patch_knn_union(self, seed):
        rng = np.random.default_rng(seed)
        store = random_store(rng, 3, 5, images=8, grid=2)
        x = feature_map(unit_rows(rng, 4, 5), 2, 2)
        out = retrieve_for_image(x, store, k=3)
        want = set()
        for row in x.data:
            want.update(e.entry_id for e in knn(row, store, 3))
        assert set(e.entry_id for e in out.entries) == want


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3, 5, 8]),
       st.sampled_from([1, 2, 3, 5, 64]))
@settings(max_examples=60, deadline=None)
def test_blocked_top_k_matches_fullsort_oracle_on_exact_ties(seed, k, block):
    # small-integer vectors make every similarity exact, and drawing entries
    # from a small pool duplicates them, so ties straddle the k-th place and,
    # with tiny blocks, block boundaries; shuffled entry ids make the
    # tie-break depend on ids rather than on row order
    rng = np.random.default_rng(seed)
    C, d = 3, int(rng.integers(1, 4))
    pool = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d))
    M = int(rng.integers(1, 25))
    vectors = pool[rng.integers(0, len(pool), size=M)].astype(np.float32)
    entry_ids = rng.permutation(3 * M)[:M].astype(np.uint64)
    classes = rng.integers(0, C, size=M)
    store = SupportStore.empty(C, d)
    records = np.zeros(M, row_dtype(d))
    records["vector"], records["class_id"], records["entry_id"] = vectors, classes, entry_ids
    append_records(store, records)
    queries = rng.integers(-2, 3, size=(4, d)).astype(np.float64)
    oracle_vectors = [v.astype(np.float64) for v in vectors]
    ids = [int(i) for i in entry_ids]
    with mock.patch.object(retrieval, "BLOCK_ROWS", block):
        # the rows go to the primitive behind retrieve_for_image as they are:
        # a DenseFeatureMap would normalize them and reject the zero rows
        q_index, rows = retrieval._nearest_rows(queries, store, k)
        for i, q in enumerate(queries):
            expect = knn_fullsort(q, oracle_vectors, ids, k)
            assert [e.entry_id for e in knn(q, store, k)] == expect
            assert store.entries.entry_id[rows[q_index == i]].tolist() == expect


@pytest.mark.parametrize("k", [2, 3])
def test_k_best_arriving_in_the_last_block_after_exact_ties(k):
    # blocks of 4 rows. Query 0 scores the first coordinate: for k = 2 the
    # second block ties the running k-th best the first block fixed, and
    # the third brings all of its final k best, with a tie at the k-th
    # place. Query 1 scores the second: the second block ties its running
    # k-th exactly (1 for k = 2, 0 for k = 3), and its 1 is in the final k
    # best, before the first block's 1 by entry id
    a = [0, 1, 2, 3, 2, -1, 2, -3, 5, 4, -2, 4]
    b = [3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    entry_ids = np.array([11, 7, 3, 9, 2, 10, 0, 5, 8, 6, 1, 4], np.uint64)
    vectors = np.array([a, b], np.float32).T
    store = SupportStore.empty(2, 2)
    records = np.zeros(len(a), row_dtype(2))
    records["vector"], records["class_id"], records["entry_id"] = vectors, 0, entry_ids
    append_records(store, records)
    queries = np.eye(2)
    with mock.patch.object(retrieval, "BLOCK_ROWS", 4):
        q_index, rows = retrieval._nearest_rows(queries, store, k)
    ids = [int(i) for i in entry_ids]
    for i, q in enumerate(queries):
        expect = knn_fullsort(q, [v.astype(np.float64) for v in vectors], ids, k)
        assert store.entries.entry_id[rows[q_index == i]].tolist() == expect
    assert set(rows[q_index == 0].tolist()) <= {8, 9, 11}
    assert 4 in rows[q_index == 1]


def _integer_store(rng, d, size, C=3):
    """size entries of small-integer vectors drawn from a small pool, under
    shuffled entry ids: every similarity to an integer query is exact, and
    duplicated vectors tie, so the tie-break depends on ids."""
    pool = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d))
    records = np.zeros(size, row_dtype(d))
    records["vector"] = pool[rng.integers(0, len(pool), size=size)]
    records["class_id"] = rng.integers(0, C, size=size)
    records["entry_id"] = rng.permutation(3 * size)[:size]
    store = SupportStore.empty(C, d)
    append_records(store, records)
    return store


def _oracle(store, queries, k):
    vectors = [v.astype(np.float64) for v in store.entries.vector]
    ids = store.entries.entry_id.tolist()
    return [knn_fullsort(q, vectors, ids, k) for q in queries]


class TestTiledScan:
    """A block is scored against tiles of query rows (retrieval._tiles);
    every query's state is its own, so the tiles change no result."""

    def test_tile_ranges(self):
        with mock.patch.object(retrieval, "SCAN_TILE_BYTES", 4 << 20):
            # 256 rows of float32 similarities against 4096 store rows fill
            # the budget; a last row left over is a tile of its own
            assert retrieval._tiles(1024, 4096) == [(a, a + 256) for a in range(0, 1024, 256)]
            assert retrieval._tiles(257, 4096) == [(0, 256), (256, 257)]
            # one row (knn), 64 rows (a store-100k query) or a short block:
            # one tile
            assert retrieval._tiles(1, 4096) == [(0, 1)]
            assert retrieval._tiles(64, 4096) == [(0, 64)]
            assert retrieval._tiles(1024, 37) == [(0, 1024)]
        with mock.patch.object(retrieval, "SCAN_TILE_BYTES", 2 * 4 * 5):
            assert retrieval._tiles(5, 5) == [(0, 2), (2, 4), (4, 5)]
        with mock.patch.object(retrieval, "SCAN_TILE_BYTES", 1):
            assert retrieval._tiles(2, 5) == [(0, 1), (1, 2)]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tiled_scan_equals_one_tile_and_the_oracle(self, data):
        # integer stores and queries drawn from a three-row pool: exact
        # similarities with ties at the k-th place, and a query row repeated
        # across tile edges meets the same ties in two tiles
        block = data.draw(st.integers(1, 6), label="BLOCK_ROWS")
        tile = data.draw(st.integers(1, 3), label="query rows per tile")
        k = data.draw(st.integers(1, 8), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        d = int(rng.integers(1, 4))
        store = _integer_store(rng, d, int(rng.integers(1, 25)))
        pool = rng.integers(-2, 3, size=(3, d)).astype(np.float64)
        queries = pool[rng.integers(0, 3, size=int(rng.integers(1, 10)))]
        with mock.patch.object(retrieval, "BLOCK_ROWS", block):
            one_tile = retrieval._nearest_rows(queries, _fresh(store), k)
            with mock.patch.object(retrieval, "SCAN_TILE_BYTES", tile * 4 * block):
                q_index, rows = retrieval._nearest_rows(queries, store, k)
        assert np.array_equal(q_index, one_tile[0])
        assert np.array_equal(rows, one_tile[1])
        for i, want in enumerate(_oracle(store, queries, k)):
            assert store.entries.entry_id[rows[q_index == i]].tolist() == want

    def test_scan_resumed_from_a_tiled_state(self, scanned):
        # blocks of 3 store rows, tiles of 2 query rows: 5 query rows make
        # tiles 0-1, 2-3 and 4. The state after the first two blocks is
        # stored while tiled, and the next scan resumes from it
        rng = np.random.default_rng(11)
        store = _integer_store(rng, 2, 7)
        queries = rng.integers(-2, 3, size=(5, 2)).astype(np.float64)
        queries[3] = queries[1]
        with mock.patch.object(retrieval, "BLOCK_ROWS", 3), \
                mock.patch.object(retrieval, "SCAN_TILE_BYTES", 2 * 4 * 3):
            assert retrieval._tiles(5, 3) == [(0, 2), (2, 4), (4, 5)]
            retrieval._nearest_rows(queries, store, 3)
            records = np.array(_integer_store(rng, 2, 5).entries)
            records["entry_id"] += store.next_entry_id
            append_records(store, records)
            scanned.clear()
            q_index, rows = retrieval._nearest_rows(queries, store, 3)
            assert scanned == [(6, 3), (9, 3)]
        with mock.patch.object(retrieval, "BLOCK_ROWS", 3):
            want = retrieval._nearest_rows(queries, _fresh(store), 3)
        assert np.array_equal(q_index, want[0]) and np.array_equal(rows, want[1])
        for i, ids in enumerate(_oracle(store, queries, 3)):
            assert store.entries.entry_id[rows[q_index == i]].tolist() == ids

    def test_scan_memory_is_one_block_and_a_few_tiles(self):
        rng = np.random.default_rng(23)
        n, d, size = 1024, 512, retrieval.BLOCK_ROWS
        records = np.zeros(size, row_dtype(d))
        records["vector"] = unit_rows(rng, size, d)
        records["entry_id"] = np.arange(size)
        store = SupportStore.empty(2, d)
        append_records(store, records)
        queries = unit_rows(rng, n, d)
        tracemalloc.start()
        try:
            retrieval._nearest_rows(queries, store, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Alive at once: the query rows in float32, plus one tile's float32
        # similarities, their partition and, smaller, their hit mask and
        # kept pairs; three budgets leave room for those and the state's
        # floor. The block is scored as stored, with no float64 copy.
        # Scoring all 1024 rows at once holds a 16 MiB similarity matrix
        # and a 16 MiB partition of it
        rows32 = n * d * 4
        bound = rows32 + 3 * retrieval.SCAN_TILE_BYTES
        assert bound < n * size * 4
        assert peak <= bound, (f"peak {peak / 2**20:.1f} MiB over {bound / 2**20:.1f} MiB: "
                               "float32 query rows and three tiles")


def _fresh(store):
    """A store holding the same records, with no scan state."""
    fresh = SupportStore.empty(store.num_classes, store.dim)
    append_records(fresh, np.array(store.entries))
    return fresh


def _axis_rows(rng, n, d):
    """(n, d) rows of +-1 on one axis: unit rows that normalizing, pooling
    and casting to float32 leave exactly as they are."""
    return np.eye(d)[rng.integers(0, d, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))


def _recording_scan(calls):
    """_scan_block, appending the (start, rows) of each block it scores to
    calls."""
    inner = retrieval._scan_block

    def spy(state, queries, block, start, k):
        calls.append((start, len(block)))
        return inner(state, queries, block, start, k)

    return spy


@pytest.fixture
def scanned(monkeypatch):
    """(start, rows) of every block scored, in order."""
    calls = []
    monkeypatch.setattr(retrieval, "_scan_block", _recording_scan(calls))
    return calls


FLT_MAX = float(np.finfo(np.float32).max)


def _hostile_rows(rng, m, d):
    """(m, d) float32 rows of mixed norms: 1e-3 to 1e3, near FLT_MAX in
    every entry's magnitude / sqrt(d), or subnormal; rows (1 - t, t, 0, ...)
    that _TIE_QUERY scores alike but for rounding; then some rows copied
    over others exactly and some one float32 ulp apart from another."""
    rows = unit_rows(rng, m, d)
    kind = rng.integers(0, 5 if d > 1 else 4, size=m)
    rows[kind == 1] *= 10.0 ** rng.uniform(-3, 3, size=(int((kind == 1).sum()), 1))
    rows[kind == 2] = (np.sign(rows[kind == 2]) * FLT_MAX / np.sqrt(d)
                       * rng.uniform(0.5, 1.0, size=(int((kind == 2).sum()), d)))
    rows[kind == 3] *= 1e-40
    t = rng.integers(0, 2 ** 20, size=int((kind == 4).sum())) / 2 ** 20
    rows[kind == 4] = 0.0
    rows[kind == 4, :2] = np.stack([1 - t, t], axis=1)[:, :d]
    rows = rows.astype(np.float32)
    for _ in range(int(rng.integers(0, m + 1))):
        i, j = rng.integers(0, m, size=2)
        rows[j] = rows[i]
        if rng.random() < 0.5:
            e = int(rng.integers(0, d))
            rows[j, e] = np.nextafter(rows[j, e], np.float32(rng.choice([-np.inf, np.inf])))
    return rows


class TestCertifiedScan:
    """Blocks are scored in float32 and the pairs that can still reach a
    query's k best are re-scored in float64 (retrieval._rescore), so a
    similarity is np.dot's, whatever the blocks, tiles or resume point."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_oracle_fresh_and_resumed(self, data):
        block = data.draw(st.integers(1, 8), label="BLOCK_ROWS")
        tile = data.draw(st.integers(1, 3), label="query rows per tile")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        d, M = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        k = data.draw(st.integers(1, M + 1), label="k")
        split = data.draw(st.integers(0, M), label="rows before the first scan")
        records = np.zeros(M, row_dtype(d))
        records["vector"] = _hostile_rows(rng, M, d)
        records["class_id"] = rng.integers(0, 3, size=M)
        records["entry_id"] = rng.permutation(3 * M)[:M]
        # query rows: unit, of any norm, along a stored row, or zero; the
        # first scores the rows (1 - t, t, 0, ...) alike but for rounding
        queries = unit_rows(rng, int(rng.integers(1, 7)), d)
        queries[0, :2] = np.sqrt(0.5) if d > 1 else queries[0, :2]
        queries[0, 2:] = 0.0
        queries[1::4] *= 10.0 ** rng.uniform(-3, 3, size=(len(queries[1::4]), 1))
        stored = records["vector"][rng.integers(0, M, size=len(queries[2::4]))]
        queries[2::4] = stored / np.linalg.norm(stored.astype(np.float64), axis=1,
                                                keepdims=True)
        queries[3::4] = 0.0
        rescored = []
        inner = retrieval._rescore

        def spy(queries, vectors, q, row):
            sims = inner(queries, vectors, q, row)
            rescored.append((queries, vectors, q, row, sims))
            return sims

        store = SupportStore.empty(3, d)
        with mock.patch.object(retrieval, "BLOCK_ROWS", block), \
                mock.patch.object(retrieval, "SCAN_TILE_BYTES", tile * 4 * block), \
                mock.patch.object(retrieval, "_rescore", spy):
            append_records(store, records[:split])
            if split:
                retrieval._nearest_rows(queries, store, k)
            append_records(store, records[split:])
            q_index, rows = retrieval._nearest_rows(queries, store, k)
            fresh = retrieval._nearest_rows(queries, _fresh(store), k)
        assert np.array_equal(q_index, fresh[0]) and np.array_equal(rows, fresh[1])
        for i, want in enumerate(_oracle(store, queries, k)):
            assert store.entries.entry_id[rows[q_index == i]].tolist() == want
        # equal as values is equal bit for bit, but for the sign of a zero:
        # at d = 1 np.dot is one product and the matmul adds it to 0.0
        for queries, vectors, q, row, sims in rescored:
            want = [np.dot(v.astype(np.float64), x) for v, x in zip(vectors[row], queries[q])]
            assert np.array_equal(sims, want)


    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rounding_ties_at_the_kth_place(self, data):
        # rows (1 - t, t, 0, ...) all score 1 / sqrt(2) against the query
        # (1, 1, 0, ...) / sqrt(2) but for rounding, so their float32 scores
        # order them unlike their float64 similarities; only the band keeps
        # every pair that can be in the float64 top k
        block = data.draw(st.integers(1, 8), label="BLOCK_ROWS")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        d, M = int(rng.integers(2, 9)), int(rng.integers(2, 60))
        k = data.draw(st.integers(1, M), label="k")
        t = rng.integers(0, 2 ** 20, size=M) / 2 ** 20
        records = np.zeros(M, row_dtype(d))
        records["vector"][:, 0], records["vector"][:, 1] = 1 - t, t
        records["entry_id"] = rng.permutation(3 * M)[:M]
        queries = np.zeros((1, d))
        queries[0, :2] = np.sqrt(0.5)
        store = SupportStore.empty(3, d)
        with mock.patch.object(retrieval, "BLOCK_ROWS", block):
            append_records(store, records[:M // 2])
            retrieval._nearest_rows(queries, store, k)
            append_records(store, records[M // 2:])
            q_index, rows = retrieval._nearest_rows(queries, store, k)
            fresh = retrieval._nearest_rows(queries, _fresh(store), k)
        assert np.array_equal(rows, fresh[1])
        assert store.entries.entry_id[rows].tolist() == _oracle(store, queries, k)[0]

    @given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0, 3).map(lambda e: 10 ** e),
           noise=st.floats(-6, -3).map(lambda e: 10 ** e),
           k=st.sampled_from([1, 4, 16, 40]), block=st.sampled_from([16, 64, 256]),
           split=st.integers(0, 300))
    # each fails with the band at 0 and at 1e-3 of its width, fresh and
    # resumed; the first two with k past a block
    @example(seed=82, amplitude=200.9, noise=5.15e-05, k=40, block=16, split=82)
    @example(seed=88, amplitude=979.6, noise=1.13e-05, k=40, block=16, split=96)
    @example(seed=86, amplitude=56.23, noise=1.32e-06, k=1, block=256, split=192)
    @example(seed=92, amplitude=497.1, noise=1.81e-06, k=1, block=256, split=62)
    @example(seed=89, amplitude=181.6, noise=2.08e-05, k=4, block=64, split=177)
    @example(seed=96, amplitude=233.2, noise=4.68e-05, k=16, block=16, split=235)
    @settings(max_examples=30, deadline=None)
    def test_cancelling_rows_rank_as_the_oracle(self, seed, amplitude, noise, k, block,
                                                split):
        # the query q has entries +-1/8 (d = 64) and each stored row is
        # amplitude * a_j * sign(q_j) * (-1)**j plus noise, a_j equal in
        # pairs: the large parts cancel pair by pair in the dot with q or
        # -q, so similarities differ by ~noise while float32's rounding of
        # the large parts is ~amplitude * 2**-24. Only a band of about the
        # bound's width keeps the pairs of the float64 top k
        rng = np.random.default_rng(seed)
        M, d = 300, 64
        signs = rng.choice([-1.0, 1.0], size=d)
        queries = np.stack([signs / 8, -signs / 8])
        a = np.repeat(rng.uniform(0.5, 1.0, size=(M, d // 2)), 2, axis=1)
        records = np.zeros(M, row_dtype(d))
        records["vector"] = (amplitude * a * signs * (-1.0) ** np.arange(d)
                             + noise * rng.standard_normal((M, d)))
        records["class_id"] = rng.integers(0, 3, size=M)
        records["entry_id"] = rng.permutation(3 * M)[:M]
        store = SupportStore.empty(3, d)
        with mock.patch.object(retrieval, "BLOCK_ROWS", block):
            append_records(store, records[:split])
            if split:
                retrieval._nearest_rows(queries, store, k)
            append_records(store, records[split:])
            resumed = retrieval._nearest_rows(queries, store, k)
            fresh = retrieval._nearest_rows(queries, _fresh(store), k)
        for i, want in enumerate(_oracle(store, queries, k)):
            for q_index, rows in (resumed, fresh):
                assert store.entries.entry_id[rows[q_index == i]].tolist() == want

    def test_kept_pairs_stay_bounded_when_later_rows_score_higher(self):
        # every row scores above every earlier one, so each block's pairs
        # all clear the floor its predecessors set; the fold settles them
        # once they outgrow SCAN_TILE_BYTES (20 bytes a pair)
        M, block, k, limit = 400, 4, 2, 8
        angles = np.linspace(1.5, 0.0, M)
        records = np.zeros(M, row_dtype(2))
        records["vector"] = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        records["entry_id"] = np.arange(M)
        queries = np.array([[1.0, 0.0], [0.8, 0.6]])
        store = SupportStore.empty(3, 2)
        append_records(store, records)
        kept = []
        inner = retrieval._scan_block

        def spy(state, scan, rows, start, k):
            state = inner(state, scan, rows, start, k)
            kept.append(sum(len(q) for q, _, _ in state[1]))
            return state

        with mock.patch.object(retrieval, "BLOCK_ROWS", block), \
                mock.patch.object(retrieval, "SCAN_TILE_BYTES", 20 * limit), \
                mock.patch.object(retrieval, "_scan_block", spy):
            q_index, rows = retrieval._nearest_rows(queries, store, k)
        assert len(kept) == M // block
        assert max(kept) <= limit + len(queries) * block
        for i, want in enumerate(_oracle(store, queries, k)):
            assert store.entries.entry_id[rows[q_index == i]].tolist() == want

    @pytest.mark.parametrize("scale", [1.0, 1e-42, 1e19, FLT_MAX / 8])
    def test_appends_loads_and_adds_keep_the_square_bound(self, tmp_path, scale):
        # unit rows, subnormal rows, rows whose float32 squares come near
        # FLT_MAX and rows near FLT_MAX / sqrt(d), whose squares overflow:
        # an append, a load and an add each leave a bound on every stored row
        rng = np.random.default_rng(4)
        d = 64
        records = np.zeros(40, row_dtype(d))
        records["vector"] = unit_rows(rng, 40, d) * scale
        records["entry_id"] = np.arange(40)
        store = SupportStore.empty(3, d)
        append_records(store, records[:20])
        _check_square_bound(store)
        store.class_counts[0] = store.size
        fileio.save_store(store, tmp_path / "s.rnss")
        store = fileio.load_store(tmp_path / "s.rnss")
        _check_square_bound(store)
        append_records(store, records[20:])
        _check_square_bound(store)
        add_support_image(store, feature_map(unit_rows(rng, 4, d), 2, 2),
                          LabelMask(np.arange(64).reshape(8, 8) % 3, 3), "more")
        assert store.size == 43
        _check_square_bound(store)

    @pytest.mark.parametrize("u", [support.U32, 0.1, 0.2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_row_is_refused(self, u, bad):
        # at every d: also where (d + 1) u >= 1/2, so retrieval has no float32
        # band, and where d u >= 1, so the bound is inf
        records = np.zeros(4, row_dtype(6))
        records["vector"] = 1.0
        records["vector"][3, 2] = bad
        records["entry_id"] = np.arange(4)
        store = SupportStore.empty(3, 6)
        with mock.patch.object(support, "U32", u):
            append_records(store, records[:2])
            bound = store._square_bound
            with pytest.raises(NonFiniteInput):
                append_records(store, records[2:])
        assert (store.size, store.next_entry_id, store._square_bound) == (2, 2, bound)
        assert bound >= 6.0

    def test_floor_rounds_down_to_float32(self):
        # 1 - 2**-30 rounds up to 1.0 in float32, so the floor is the float
        # below it; at random, a floor is at most kth - band and the next
        # float32 above it is not
        floor = retrieval._floor(np.ones(1, np.float32), np.array([2.0 ** -30]))
        assert floor.dtype == np.float32
        assert floor[0] == np.nextafter(np.float32(1), np.float32(-np.inf))
        rng = np.random.default_rng(13)
        kth = (rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)).astype(np.float32)
        band = np.abs(kth.astype(np.float64)) * 2.0 ** -rng.integers(8, 40, 2000)
        floor = retrieval._floor(kth, band)
        exact = kth - band
        assert (floor.astype(np.float64) <= exact).all()
        assert (np.nextafter(floor, np.float32(np.inf)).astype(np.float64) > exact).all()

    def test_without_a_float32_bound_every_pair_is_rescored(self):
        # a dimension where (d + 1) u >= 1/2 has no float32 bound
        rng = np.random.default_rng(3)
        store = random_store(rng, 3, 6, images=9, grid=2)
        queries = unit_rows(rng, 3, 6)
        pairs = []
        inner = retrieval._rescore

        def spy(queries, vectors, q, row):
            pairs.append(len(q))
            return inner(queries, vectors, q, row)

        with mock.patch.object(retrieval, "U32", 0.1), \
                mock.patch.object(retrieval, "_rescore", spy):
            got = retrieval._nearest_rows(queries, store, 2)
        assert pairs == [3 * store.size]
        want = retrieval._nearest_rows(queries, _fresh(store), 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestResumedScan:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_interleaved_appends_and_queries_match_a_fresh_store(self, data):
        # small-integer vectors from a small pool, axis-aligned images added
        # more than once and integer or axis-aligned queries make every
        # similarity exact and ties that straddle block edges; query sets
        # and k values come back, so most scans after the first resume
        block = data.draw(st.integers(1, 12), label="BLOCK_ROWS")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        C, d = 3, int(rng.integers(1, 4))
        pool = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d)).astype(np.float32)
        # two patches of two classes: each class pools one nonzero row
        halves = np.repeat(np.arange(2), 4)[None].repeat(4, axis=0)
        images = [(feature_map(_axis_rows(rng, 2, d), 1, 2),
                   LabelMask((halves + int(rng.integers(0, C))) % C, C)) for _ in range(2)]
        query_sets = [rng.integers(-2, 3, size=(int(rng.integers(1, 4)), d)).astype(np.float64)
                      for _ in range(2)]
        patch_sets = [_axis_rows(rng, int(rng.integers(1, 4)), d) for _ in range(2)]
        ks = (data.draw(st.integers(1, block), label="k within a block"),
              data.draw(st.integers(block + 1, 2 * block + 2), label="k over a block"))
        store = SupportStore.empty(C, d)
        calls = []
        covered = {}   # rows the kept state of each query rows and k covers

        def on_store(queries, k, fn, *args):
            # a scan starts after the full blocks a kept state of the same
            # query rows and k covers, or at 0, and scores every block with
            # the rows a fresh scan gives it
            calls.clear()
            out = fn(*args)
            size = store.size
            key = (queries.tobytes(), queries.shape, min(k, size))
            start = covered.get(key, 0)
            assert calls == [(s, min(block, size - s)) for s in range(start, size, block)]
            if size >= block:
                covered[key] = size - size % block
            return out

        with mock.patch.object(retrieval, "BLOCK_ROWS", block), \
                mock.patch.object(retrieval, "_scan_block", _recording_scan(calls)):
            for _ in range(data.draw(st.integers(1, 20), label="operations")):
                op = data.draw(st.sampled_from(["rows", "image", "knn", "retrieve"]))
                if op == "rows":
                    m = int(rng.integers(1, 2 * block + 2))
                    records = np.zeros(m, row_dtype(d))
                    records["vector"] = pool[rng.integers(0, len(pool), size=m)]
                    records["class_id"] = rng.integers(0, C, size=m)
                    records["entry_id"] = store.next_entry_id + rng.permutation(2 * m)[:m]
                    append_records(store, records)
                    continue
                if op == "image":
                    x, mask = images[int(rng.integers(0, len(images)))]
                    add_support_image(store, x, mask, int(rng.integers(0, 5)))
                    continue
                if store.size == 0:
                    continue
                k = data.draw(st.sampled_from(ks), label="k")
                rows = (query_sets if op == "knn" else patch_sets)[int(rng.integers(0, 2))]
                fresh = _fresh(store)
                vectors = [v.astype(np.float64) for v in store.entries.vector]
                ids = store.entries.entry_id.tolist()
                want = [knn_fullsort(q, vectors, ids, k) for q in rows]
                if op == "knn":
                    got = on_store(rows[:1], k, knn, rows[0], store, k)
                    assert got.tobytes() == knn(rows[0], fresh, k).tobytes()
                    assert got.entry_id.tolist() == want[0]
                    q_index, got_rows = on_store(rows, k, retrieval._nearest_rows, rows, store, k)
                    fresh_index, fresh_rows = retrieval._nearest_rows(rows, fresh, k)
                    assert np.array_equal(q_index, fresh_index)
                    assert np.array_equal(got_rows, fresh_rows)
                    for i in range(len(rows)):
                        assert store.entries.entry_id[got_rows[q_index == i]].tolist() == want[i]
                else:
                    x = feature_map(rows, 1, len(rows))
                    got = on_store(x.data, k, retrieve_for_image, x, store, k).entries
                    assert got.tobytes() == retrieve_for_image(x, fresh, k).entries.tobytes()
                    assert got.entry_id.tolist() == sorted({i for w in want for i in w})

    def test_growth_across_a_block_boundary_after_caching(self, scanned):
        rng = np.random.default_rng(5)
        store = random_store(rng, 3, 6, images=9, grid=2)   # 9 entries
        rows = unit_rows(rng, 3, 6)
        with mock.patch.object(retrieval, "BLOCK_ROWS", 4):
            first = retrieval._nearest_rows(rows, store, 2)
            assert scanned == [(0, 4), (4, 4), (8, 1)]
            scanned.clear()
            again = retrieval._nearest_rows(rows, store, 2)
            assert scanned == [(8, 1)]   # the partial block, from its start
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
            for i in range(9, 14):       # fills the third block, starts a fourth
                x = feature_map(unit_rows(rng, 4, 6), 2, 2)
                add_support_image(store, x, LabelMask(np.full((8, 8), i % 3), 3), i)
            scanned.clear()
            got = retrieval._nearest_rows(rows, store, 2)
            assert scanned == [(8, 4), (12, 2)]
            want = retrieval._nearest_rows(rows, _fresh(store), 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_state_kept_before_it_has_a_floor(self):
        # k = 5 over blocks of 2: the state kept at 4 rows has scored fewer
        # than k rows, so it has no floor and keeps every pair; the resumed
        # scan sets the floor once its blocks hold 5 rows, before the next
        # block
        rng = np.random.default_rng(10)
        records = np.zeros(9, row_dtype(6))
        records["vector"] = unit_rows(rng, 9, 6)
        records["class_id"] = rng.integers(0, 3, size=9)
        records["entry_id"] = rng.permutation(20)[:9]
        rows = unit_rows(rng, 3, 6)
        store = SupportStore.empty(3, 6)
        scanned = []   # (start, rows, whether the state has a floor) of each block
        inner = retrieval._scan_block

        def spy(state, scan, block, start, k):
            scanned.append((start, len(block), state[0] is not None))
            return inner(state, scan, block, start, k)

        with mock.patch.object(retrieval, "BLOCK_ROWS", 2):
            append_records(store, records[:5])
            retrieval._nearest_rows(rows, store, 5)
            [(covered, (floor, pairs))] = store._scan_states.values()
            assert covered == 4 and floor is None and len(pairs[0][0]) == 4 * len(rows)
            append_records(store, records[5:])
            with mock.patch.object(retrieval, "_scan_block", spy):
                q_index, got = retrieval._nearest_rows(rows, store, 5)
            assert scanned == [(4, 2, False), (6, 2, True), (8, 1, True)]
            want = retrieval._nearest_rows(rows, _fresh(store), 5)
        assert np.array_equal(q_index, want[0]) and np.array_equal(got, want[1])
        vectors = [v.astype(np.float64) for v in store.entries.vector]
        ids = store.entries.entry_id.tolist()
        for i, q in enumerate(rows):
            assert store.entries.entry_id[got[q_index == i]].tolist() == \
                knn_fullsort(q, vectors, ids, 5)

    def test_small_store_keeps_no_state(self):
        rng = np.random.default_rng(6)
        store = random_store(rng, 3, 6, images=5, grid=2)
        with mock.patch.object(retrieval, "BLOCK_ROWS", 8):
            knn(unit_rows(rng, 1, 6)[0], store, 2)
        assert store._scan_states == {}

    def test_loaded_store_starts_with_no_state(self, tmp_path):
        rng = np.random.default_rng(7)
        store = random_store(rng, 3, 6, images=9, grid=2)
        with mock.patch.object(retrieval, "BLOCK_ROWS", 4):
            knn(unit_rows(rng, 1, 6)[0], store, 2)
            assert len(store._scan_states) == 1
            fileio.save_store(store, tmp_path / "s.rnss")
            loaded = fileio.load_store(tmp_path / "s.rnss")
        assert loaded._scan_states == {}
        assert SupportStore.empty(3, 6)._scan_states == {}

    def test_two_stores_never_share_state(self, scanned):
        # same size, same query rows, different vectors: each store's
        # answer is its own, and a first query on the second store scans it
        # from the start
        rng = np.random.default_rng(8)
        a = random_store(rng, 3, 6, images=9, grid=2)
        b = random_store(rng, 3, 6, images=9, grid=2)
        rows = unit_rows(rng, 3, 6)
        with mock.patch.object(retrieval, "BLOCK_ROWS", 4):
            retrieval._nearest_rows(rows, a, 2)
            scanned.clear()
            got = retrieval._nearest_rows(rows, b, 2)
            assert scanned[0] == (0, 4)
            assert a._scan_states is not b._scan_states
            assert a._scan_states.keys() == b._scan_states.keys()
            want = retrieval._nearest_rows(rows, _fresh(b), 2)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_kept_states_stay_bounded(self, scanned):
        # one more query than the store keeps states for: the least recently
        # used one is dropped, the latest one resumes
        rng = np.random.default_rng(9)
        store = random_store(rng, 3, 6, images=3, grid=2)
        queries = unit_rows(rng, retrieval.SCAN_STATES + 1, 6)
        with mock.patch.object(retrieval, "BLOCK_ROWS", 2):
            for q in queries:
                knn(q, store, 1)
            assert len(store._scan_states) == retrieval.SCAN_STATES
            scanned.clear()
            knn(queries[-1], store, 1)
            assert scanned == [(2, 1)]
            scanned.clear()
            knn(queries[0], store, 1)
            assert scanned == [(0, 2), (2, 1)]
            assert len(store._scan_states) == retrieval.SCAN_STATES


class TestRelevanceWeights:
    def test_global_average_not_renormalized(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        g = global_average_feature(feature_map(rows, 1, 2))
        assert np.allclose(g, [0.0, 0.0])
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = global_average_feature(feature_map(rows, 1, 2))
        assert np.allclose(g, [0.5, 0.5])
        assert abs(np.linalg.norm(g) - 1.0) > 0.1

    def test_softmax_of_text_scores(self):
        bank = TextBank(np.eye(3, dtype=np.float32), np.ones(3, dtype=bool))
        rows = np.array([[1.0, 0.0, 0.0]])
        w = class_relevance_weights(feature_map(rows, 1, 1), bank, 0.1)
        want = softmax(np.array([1.0, 0.0, 0.0]), 0.1)
        assert np.abs(w - want).max() < 1e-12
        assert w.argmax() == 0

    def test_fallback_bank_gives_unit_weights(self):
        bank = TextBank(np.zeros((4, 3), np.float32), np.zeros(4, dtype=bool))
        rows = np.array([[1.0, 0.0, 0.0]])
        w = class_relevance_weights(feature_map(rows, 1, 1), bank, 0.1)
        assert np.array_equal(w, np.ones(4))

    def test_unusable_bank_rejected(self):
        # a partial bank is usable as built: its absent row holds the mean
        # text row and is scored like any other; a bank of another feature
        # dimension is the one these weights cannot use
        rng = np.random.default_rng(2)
        bank = make_bank(rng, 3, 4, absent=(0,))
        x = feature_map(unit_rows(rng, 2, 4), 1, 2)
        want = softmax(bank.features.astype(np.float64) @ x.data.mean(axis=0), 0.1)
        assert np.array_equal(class_relevance_weights(x, bank, 0.1), want)
        with pytest.raises(DimensionMismatch):
            class_relevance_weights(x, make_bank(rng, 3, 5), 0.1)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25)
    def test_weights_are_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        bank = make_bank(rng, 5, 6)
        x = feature_map(unit_rows(rng, 4, 6), 2, 2)
        w = class_relevance_weights(x, bank, 0.1)
        assert w.min() > 0
        assert abs(w.sum() - 1.0) < 1e-9
