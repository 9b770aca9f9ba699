import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.errors import (
    DimensionMismatch,
    NearZeroRow,
    NoVisualSupport,
    ShapeMismatch,
    ValidationError,
)
from segtta.numerics import LabelMask, PatchLabelMatrix
from segtta.retrieval import knn, retrieve_for_image
from segtta.support import (
    DEFAULT_LAMBDAS,
    MAX_DIM,
    SupportStore,
    TextBank,
    add_support_image,
    aggregate_class_feature,
    attach_text,
    effective_lambdas,
    fuse,
    image_id_hash,
    pool_image_class_features,
    row_dtype,
    substitute_missing_text,
)

from conftest import feature_map, make_bank, random_store, stores_equal, unit_rows

R2 = math.sqrt(2.0) / 2.0


class TestTextBank:
    def test_present_rows_must_be_unit(self):
        feats = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        with pytest.raises(ValidationError):
            TextBank(feats, np.array([True, True]))

    def test_absent_rows_unchecked(self):
        feats = np.array([[5.0, 5.0], [0.0, 1.0]], dtype=np.float32)
        bank = TextBank(feats, np.array([False, True]))
        assert not bank.fallback and not bank.usable

    def test_fallback_flag(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        assert bank.fallback

    def test_substitute_two_basis_rows(self):
        feats = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.float32)
        bank = TextBank(feats, np.array([True, True, False]))
        out = substitute_missing_text(bank)
        assert out.materialized and out.usable
        assert np.allclose(out.features[2], [R2, R2], atol=1e-6)
        # originals untouched
        assert np.array_equal(out.features[:2], feats[:2])

    def test_substitute_all_present_is_identity(self):
        rng = np.random.default_rng(0)
        bank = make_bank(rng, 4, 8)
        out = substitute_missing_text(bank)
        assert out.materialized
        assert np.array_equal(out.features, bank.features)

    def test_substitute_all_absent_keeps_fallback(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        out = substitute_missing_text(bank)
        assert out.materialized and out.fallback
        assert np.array_equal(out.features, bank.features)


class TestImageIdHash:
    def test_int_passthrough(self):
        assert image_id_hash(7) == 7
        assert image_id_hash(2 ** 64 + 5) == 5  # wraps to u64

    def test_string_stable_and_u64(self):
        h = image_id_hash("frame_000123")
        assert h == image_id_hash("frame_000123")
        assert 0 <= h < 2 ** 64
        assert h != image_id_hash("frame_000124")


class TestPooling:
    def test_full_mass_single_class(self):
        x = feature_map(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, 2)
        p = PatchLabelMatrix(np.array([[1.0], [1.0]]), 1, 2)
        out = pool_image_class_features(x, p)
        assert len(out) == 1
        cid, vec = out[0]
        assert cid == 0
        assert np.allclose(vec, [R2, R2], atol=1e-12)

    def test_zero_mass_class_skipped(self):
        x = feature_map(np.array([[1.0, 0.0]]), 1, 1)
        p = PatchLabelMatrix(np.array([[1.0, 0.0]]), 1, 1)
        out = pool_image_class_features(x, p)
        assert [cid for cid, _ in out] == [0]

    def test_against_loop_oracle(self):
        from oracles import pool_classes_loop
        rng = np.random.default_rng(1)
        n, d, C = 24, 8, 4
        x = feature_map(unit_rows(rng, n, d), 4, 6)
        raw = rng.random((n, C)) * (rng.random((n, C)) < 0.5)
        cols = raw.sum(axis=0)
        raw[:, cols > 0] /= cols[cols > 0]
        p = PatchLabelMatrix(raw, 4, 6)
        got = pool_image_class_features(x, p)
        want = pool_classes_loop(x.data, raw)
        assert [c for c, _ in got] == sorted(want)
        for c, vec in got:
            assert np.abs(vec - want[c]).max() < 1e-9


class TestAggregateAndFuse:
    def test_aggregate_two_basis_entries(self):
        store = SupportStore.empty(1, 3)
        for v in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
            x = feature_map(np.array([v]), 1, 1)
            mask = LabelMask(np.zeros((4, 4), dtype=np.int64), 1)
            add_support_image(store, x, mask, len(store.entries))
        agg = aggregate_class_feature(store, 0)
        assert np.allclose(agg, [R2, R2, 0.0], atol=1e-6)

    def test_aggregate_empty_class_raises(self):
        store = SupportStore.empty(2, 3)
        with pytest.raises(NoVisualSupport):
            aggregate_class_feature(store, 1)
        with pytest.raises(ValidationError):
            aggregate_class_feature(store, 5)

    def test_fuse_midpoint(self):
        out = fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert np.allclose(out, [R2, R2], atol=1e-12)

    def test_fuse_endpoints_short_circuit(self):
        t = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert np.array_equal(fuse(t, v, 1.0), t)
        assert np.array_equal(fuse(t, v, 0.0), v)
        # the unused operand is not validated at an endpoint
        junk = np.array([9.0, 9.0])
        assert np.array_equal(fuse(junk, v, 0.0), v)

    def test_fuse_rejects_bad_inputs(self):
        t = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            fuse(t, t, 1.5)
        with pytest.raises(ValidationError):
            fuse(np.array([2.0, 0.0]), t, 0.5)
        with pytest.raises(NearZeroRow):
            fuse(t, -t, 0.5)

    @given(st.floats(0.01, 0.99), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_fuse_unit_output(self, lam, seed):
        rng = np.random.default_rng(seed)
        t, v = unit_rows(rng, 2, 6)
        out = fuse(t, v, lam)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


class TestStore:
    def test_add_updates_counts_and_ids(self):
        rng = np.random.default_rng(2)
        store = random_store(rng, 3, 8, images=6)
        assert store.size == 6
        assert [e.entry_id for e in store.entries] == list(range(6))
        assert store.class_counts.tolist() == [2, 2, 2]
        assert store.visually_supported() == [0, 1, 2]

    def test_accumulator_matches_entry_sum(self):
        rng = np.random.default_rng(3)
        store = random_store(rng, 2, 8, images=8)
        for c in range(2):
            vecs = [e.vector.astype(np.float64) for e in store.entries
                    if e.class_id == c]
            assert np.abs(store.class_accumulators[c] - sum(vecs)).max() < 1e-6

    def test_multi_class_image_adds_one_entry_per_class(self):
        store = SupportStore.empty(2, 2)
        x = feature_map(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, 2)
        data = np.zeros((4, 8), dtype=np.int64)
        data[:, 4:] = 1
        add_support_image(store, x, LabelMask(data, 2), "two")
        assert store.size == 2
        assert sorted(e.class_id for e in store.entries) == [0, 1]
        assert store.entries[0].image_id == store.entries[1].image_id

    def test_entries_are_a_read_only_record_view(self):
        rng = np.random.default_rng(4)
        store = random_store(rng, 3, 5, images=4, grid=2)
        entries = store.entries
        before = entries.copy()
        assert entries.dtype == row_dtype(5) and entries.vector.shape == (4, 5)
        with pytest.raises(ValueError):
            entries.class_id[0] = 2
        with pytest.raises(ValueError):
            entries[0].vector[:] = 0.0
        with pytest.raises(ValueError):
            entries[1]["image_id"] = 7
        assert store.entries.tobytes() == before.tobytes()

    def test_retrieved_and_knn_records_are_store_rows(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 3, 6, images=9, grid=2)
        by_id = {int(e.entry_id): e for e in store.entries}
        x = feature_map(unit_rows(rng, 4, 6), 2, 2)
        retrieved = retrieve_for_image(x, store, k=2)
        assert len(retrieved) > 0
        for e in retrieved.entries:
            assert e.tobytes() == by_id[int(e.entry_id)].tobytes()
        near = knn(x.data[0], store, 3)
        assert len(near) == 3
        for e in near:
            row = by_id[int(e.entry_id)]
            assert (e.class_id, e.image_id) == (row.class_id, row.image_id)
            assert e.vector.tobytes() == row.vector.tobytes()

    def test_dimension_outside_record_range_rejected(self):
        for d in (0, MAX_DIM + 1):
            with pytest.raises(ValidationError):
                SupportStore.empty(3, d)

    def test_dimension_and_shape_guards(self):
        store = SupportStore.empty(2, 4)
        x = feature_map(np.array([[1.0, 0.0]]), 1, 1)
        mask = LabelMask(np.zeros((4, 4), dtype=np.int64), 2)
        with pytest.raises(DimensionMismatch):
            add_support_image(store, x, mask, 0)
        store2 = SupportStore.empty(2, 2)
        bad_res = LabelMask(np.zeros((3, 4), dtype=np.int64), 2)
        with pytest.raises(ShapeMismatch):
            add_support_image(store2, x, bad_res, 0)
        bad_cls = LabelMask(np.zeros((4, 4), dtype=np.int64), 3)
        with pytest.raises(ValidationError):
            add_support_image(store2, x, bad_cls, 0)

    def test_effective_lambdas(self):
        rng = np.random.default_rng(4)
        bank = make_bank(rng, 2, 4)
        store = random_store(rng, 2, 4, images=2, bank=bank)
        assert effective_lambdas(store, bank) == DEFAULT_LAMBDAS
        no_text = substitute_missing_text(
            TextBank(np.zeros((2, 4), np.float32), np.zeros(2, dtype=bool)))
        assert effective_lambdas(store, no_text) == (0.0,)

    @pytest.mark.parametrize("lambdas", [(), (1.5,), (-0.1, 0.0), (np.nan, 0.0)])
    def test_lambdas_outside_unit_interval_rejected(self, lambdas):
        with pytest.raises(ValidationError):
            SupportStore.empty(2, 3, lambdas=lambdas)

    def test_attach_requires_usable_bank(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 3, 4, images=3)
        with pytest.raises(ValidationError):
            attach_text(store, make_bank(rng, 3, 4, absent=(1,)))
        with pytest.raises(DimensionMismatch):
            attach_text(store, make_bank(rng, 3, 5))

    def test_fused_rows(self):
        rng = np.random.default_rng(6)
        bank = make_bank(rng, 2, 8)
        store = random_store(rng, 2, 8, images=4, bank=bank)
        assert list(store.fused) == [0, 1]
        for c, rows in store.fused.items():
            assert rows.shape == (len(DEFAULT_LAMBDAS), 8) and rows.dtype == np.float32
            for lam, vec in zip(DEFAULT_LAMBDAS, rows):
                assert abs(np.linalg.norm(vec.astype(np.float64)) - 1.0) < 1e-5
                want = fuse(bank.features[c].astype(np.float64),
                            aggregate_class_feature(store, c), lam)
                assert np.abs(vec - want).max() < 1e-6

    def test_fused_tracks_new_images(self):
        rng = np.random.default_rng(7)
        bank = make_bank(rng, 2, 8)
        store = random_store(rng, 2, 8, images=2, bank=bank)
        before = {c: store.fused[c].copy() for c in store.fused}
        x = feature_map(unit_rows(rng, 4, 8), 2, 2)
        add_support_image(store, x, LabelMask(
            np.zeros((8, 8), dtype=np.int64), 2), "extra")
        assert not np.array_equal(store.fused[0], before[0])
        assert np.array_equal(store.fused[1], before[1])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_image_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        C, d, n = 3, 6, 5
        images = []
        for i in range(n):
            x = feature_map(unit_rows(rng, 4, d), 2, 2)
            mask = LabelMask(np.full((8, 8), i % C, dtype=np.int64), C)
            images.append((x, mask, f"im{i}"))
        bank = make_bank(rng, C, d)
        a = SupportStore.empty(C, d, text=bank)
        for x, m, iid in images:
            add_support_image(a, x, m, iid)
        b = SupportStore.empty(C, d, text=bank)
        order = rng.permutation(n)
        for j in order:
            add_support_image(b, *images[j])
        # entry lists differ in order; aggregates must agree to fp tolerance
        assert sorted(e.entry_id for e in b.entries) == list(range(n))
        assert np.array_equal(a.class_counts, b.class_counts)
        assert np.abs(a.class_accumulators.astype(np.float64)
                      - b.class_accumulators.astype(np.float64)).max() < 1e-6
        for c in a.fused:
            assert np.abs(a.fused[c].astype(np.float64)
                          - b.fused[c].astype(np.float64)).max() < 1e-6
