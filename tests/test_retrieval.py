from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta import retrieval
from segtta.errors import DimensionMismatch, EmptyStore, ValidationError
from segtta.numerics import LabelMask, softmax
from segtta.retrieval import (
    class_relevance_weights,
    global_average_feature,
    knn,
    retrieve_for_image,
)
from segtta.support import SupportStore, TextBank, add_support_image, row_dtype

from conftest import feature_map, make_bank, random_store, unit_rows
from oracles import knn_fullsort


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
    store.append_rows(records)
    queries = rng.integers(-2, 3, size=(4, d)).astype(np.float64)
    oracle_vectors = [v.astype(np.float64) for v in vectors]
    ids = [int(i) for i in entry_ids]
    with mock.patch.object(retrieval, "BLOCK_ROWS", block):
        want = set()
        for q in queries:
            expect = knn_fullsort(q, oracle_vectors, ids, k)
            assert [e.entry_id for e in knn(q, store, k)] == expect
            want.update(expect)
        out = retrieve_for_image(feature_map(queries, 2, 2), store, k)
    got = [e.entry_id for e in out.entries]
    assert got == sorted(want)
    by_id = dict(zip(ids, classes.tolist()))
    assert out.classes == tuple(sorted({by_id[i] for i in got}))


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
        rng = np.random.default_rng(2)
        bank = make_bank(rng, 3, 4, absent=(0,))
        rows = unit_rows(rng, 2, 4)
        with pytest.raises(ValidationError):
            class_relevance_weights(feature_map(rows, 1, 2), bank, 0.1)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25)
    def test_weights_are_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        bank = make_bank(rng, 5, 6)
        x = feature_map(unit_rows(rng, 4, 6), 2, 2)
        w = class_relevance_weights(x, bank, 0.1)
        assert w.min() > 0
        assert abs(w.sum() - 1.0) < 1e-9
