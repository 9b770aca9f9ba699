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
from segtta.numerics import (IGNORE_INDEX, DenseFeatureMap, LabelMask, PatchLabelMatrix,
                             downsample_labels)
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
    fuse_grid,
    image_id_hash,
    pool_image_class_features,
    row_dtype,
    substitute_missing_text,
)

from conftest import feature_map, make_bank, random_store, stores_equal, unit_rows
from oracles import fuse, pool_whole_product

R2 = math.sqrt(2.0) / 2.0


class TestTextBank:
    def test_present_rows_must_be_unit(self):
        feats = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        with pytest.raises(ValidationError):
            TextBank(feats, np.array([True, True]))

    def test_absent_rows_unchecked(self):
        # an absent row may hold anything: it is replaced, in a copy
        feats = np.array([[5.0, 5.0], [0.0, 1.0]], dtype=np.float32)
        bank = TextBank(feats, np.array([False, True]))
        assert not bank.fallback
        assert np.array_equal(bank.features, [[0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(feats[0], [5.0, 5.0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25)
    def test_absent_rows_hold_the_unit_mean_of_present_rows(self, seed):
        # d >= 2: in one dimension unit rows are +-1 and their mean can be 0,
        # the case test_present_rows_averaging_to_zero_raise covers
        rng = np.random.default_rng(seed)
        C, d = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        absent = rng.choice(C, size=int(rng.integers(1, C)), replace=False)
        given_feats = make_bank(rng, C, d).features.copy()
        present = np.ones(C, dtype=bool)
        present[absent] = False
        bank = TextBank(given_feats, present)
        mean = given_feats[present].astype(np.float64).mean(axis=0)
        want = (mean / np.linalg.norm(mean)).astype(np.float32)
        assert bank.features.dtype == np.float32
        assert bank.features[present].tobytes() == given_feats[present].tobytes()
        for c in absent:
            assert bank.features[c].tobytes() == want.tobytes()

    def test_present_rows_averaging_to_zero_raise(self):
        feats = np.array([[1, 0], [-1, 0], [0, 0]], dtype=np.float32)
        with pytest.raises(NearZeroRow):
            TextBank(feats, np.array([True, True, False]))

    @pytest.mark.parametrize("features, present", [
        ([[1.0, 0.0]], np.ones(1, dtype=bool)),
        (np.eye(2, dtype=np.float32), np.ones(2, dtype=np.int64))],
        ids=["list-features", "int-flags"])
    def test_features_and_flags_must_be_real_and_bool_arrays(self, features, present):
        with pytest.raises(ValidationError, match="ndarray"):
            TextBank(features, present)

    def test_fallback_flag(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        assert bank.fallback

    def test_substitute_two_basis_rows(self):
        feats = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.float32)
        bank = TextBank(feats, np.array([True, True, False]))
        assert np.allclose(bank.features[2], [R2, R2], atol=1e-6)
        # originals untouched
        assert np.array_equal(bank.features[:2], feats[:2])
        assert substitute_missing_text(bank) is bank

    def test_substitute_all_present_is_identity(self):
        rng = np.random.default_rng(0)
        bank = make_bank(rng, 4, 8)
        given_feats = bank.features
        assert TextBank(given_feats, bank.present).features is given_feats
        assert substitute_missing_text(bank) is bank

    def test_substitute_all_absent_keeps_fallback(self):
        feats = np.zeros((3, 4), np.float32)
        bank = TextBank(feats, np.zeros(3, dtype=bool))
        assert bank.fallback and bank.features is feats
        assert substitute_missing_text(bank) is bank


class TestImageIdHash:
    def test_int_passthrough(self):
        assert image_id_hash(7) == 7
        assert image_id_hash(2 ** 64 + 5) == 5  # wraps to u64

    @pytest.mark.parametrize("image_id", [True, False, np.True_])
    def test_bool_is_no_image_id(self, image_id):
        # True would be filed under image 1, and np.True_ under "True"
        with pytest.raises(ValidationError, match="image id must be an integer"):
            image_id_hash(image_id)
        store = SupportStore.empty(2, 2)
        x = feature_map(np.array([[1.0, 0.0]]), 1, 1)
        with pytest.raises(ValidationError):
            add_support_image(store, x, LabelMask(np.zeros((4, 4), np.int64), 2), image_id)
        assert store.size == 0

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


class TestAddMatchesWholeProduct:
    """An add pools only the classes its mask holds, and its records and
    class_accumulators are byte-equal to pooling every class in one (C, n)
    @ (n, d) product. Fixed seeds rather than hypothesis: OpenBLAS picks its
    kernels by the CPU it runs on."""

    # mask sides, grid sides: divisible, not divisible either way, one
    # pixel a cell
    SHAPES = ((64, 64, 4, 4), (30, 45, 4, 7), (37, 29, 5, 3), (12, 10, 12, 10))

    @staticmethod
    def images(rng, C, d, count):
        """count (features, mask) pairs over SHAPES in turn, of 1-5 held
        classes each (C at most) with ignore pixels, every third image with
        an unlabeled band of cells that get no mass at all."""
        shapes = TestAddMatchesWholeProduct.SHAPES
        for i in range(count):
            H, W, gh, gw = shapes[i % len(shapes)]
            k = min(1 + i % 5, C)
            held = rng.choice(C, size=k, replace=False)
            labels = held[rng.integers(0, k, size=(H, W))]
            labels[rng.random((H, W)) < 0.2] = IGNORE_INDEX
            if i % 3 == 0:
                labels[:H // 3] = IGNORE_INDEX
            labels.flat[-k:] = held  # every held class keeps a pixel
            yield DenseFeatureMap(rng.standard_normal((gh * gw, d)), gh, gw, H, W), \
                LabelMask(labels, C)

    @pytest.mark.parametrize("C, d", [(1, 16), (2, 16), (30, 64), (150, 512)])
    def test_records_and_accumulators(self, C, d):
        store = SupportStore.empty(C, d)
        classes, vectors = [], []
        accumulators = np.zeros((C, d), np.float32)
        for i, (x, mask) in enumerate(self.images(np.random.default_rng(C), C, d, 20)):
            add_support_image(store, x, mask, i)
            p = downsample_labels(mask, x.grid_h, x.grid_w)
            for c, v in sorted(pool_whole_product(x.data, p.data).items()):
                classes.append(c)
                vectors.append(v.astype(np.float32))
                accumulators[c] += vectors[-1]
        assert store.entries.class_id.tolist() == classes
        assert store.entries.vector.tobytes() == np.array(vectors).tobytes()
        assert store.class_accumulators.tobytes() == accumulators.tobytes()
        assert store.class_counts.tolist() == np.bincount(classes, minlength=C).tolist()

    @pytest.mark.parametrize("C, d", [(1, 16), (2, 16), (30, 64), (150, 512)])
    def test_pooled_rows_are_the_whole_products_rows(self, C, d):
        # float64 bits too, a property of the BLAS kernels rather than a
        # promise of BLAS: a product over a subset of columns rounds each row
        # as the whole product does (held on OpenBLAS 0.3.31, x86-64). One
        # class of C > 1 must not go through the matrix-vector kernel, whose
        # sums round differently from the GEMM's
        for x, mask in self.images(np.random.default_rng(C + 1), C, d, 20):
            p = downsample_labels(mask, x.grid_h, x.grid_w)
            want = pool_whole_product(x.data, p.data)
            got = pool_image_class_features(x, p)
            assert [c for c, _ in got] == sorted(want)
            for c, v in got:
                assert v.tobytes() == want[c].tobytes()


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
        out = fuse_grid(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), [0.5])
        assert out.shape == (1, 2)
        assert np.allclose(out, [[R2, R2]], atol=1e-12)

    def test_fuse_endpoints_short_circuit(self):
        t = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert np.array_equal(fuse_grid(t[None], v[None], [1.0, 0.0]), [t, v])
        # the unused operand is not read at an endpoint
        junk = np.array([9.0, 9.0])
        assert np.array_equal(fuse_grid(junk[None], v[None], [0.0]), [v])

    def test_fuse_rejects_bad_inputs(self):
        # lambdas outside [0, 1] and rows that are not unit are rejected where
        # they enter: test_lambdas_outside_unit_interval_rejected (SupportStore)
        # and TestTextBank.test_present_rows_must_be_unit
        t = np.array([1.0, 0.0])
        with pytest.raises(NearZeroRow):
            fuse_grid(t[None], -t[None], [0.5])

    @given(st.floats(0.01, 0.99), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_fuse_unit_output(self, lam, seed):
        rng = np.random.default_rng(seed)
        t, v = unit_rows(rng, 2, 6)
        out = fuse_grid(t[None], v[None], [lam])
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-9

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_fuse_grid_matches_per_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        K, d = int(rng.integers(0, 6)), int(rng.integers(2, 9))   # d=1 rows may be opposite
        t, v = unit_rows(rng, K, d), unit_rows(rng, K, d)
        lams = [1.0, *rng.random(int(rng.integers(0, 5))).tolist(), 0.0]
        rng.shuffle(lams)
        out = fuse_grid(t.astype(np.float32), v, lams)
        want = [fuse(t[k].astype(np.float32), v[k], lam)
                for k in range(K) for lam in lams]
        assert out.shape == (K * len(lams), d)
        assert out.tobytes() == np.array(want).reshape(-1, d).tobytes()


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

    @pytest.mark.parametrize("num_classes, dim", [
        (-1, 4), (0, 4), (2 ** 32, 4), (2.5, 4), ("3", 4), (True, 4), (np.float64(3), 4),
        (None, 4), (3, -2), (3, 4.0), (3, "4"), (3, np.True_)])
    def test_class_count_and_dimension_must_be_whole_and_in_range(self, num_classes, dim):
        with pytest.raises(ValidationError):
            SupportStore.empty(num_classes, dim)

    def test_numpy_integer_sizes_are_read_as_ints(self):
        store = SupportStore.empty(np.int64(3), np.uint16(4))
        assert (store.num_classes, store.dim) == (3, 4)
        assert type(store.num_classes) is int and type(store.dim) is int

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
        no_text = TextBank(np.zeros((2, 4), np.float32), np.zeros(2, dtype=bool))
        assert effective_lambdas(store, no_text) == (0.0,)

    @pytest.mark.parametrize("lambdas", [(), (1.5,), (-0.1, 0.0), (np.nan, 0.0)])
    def test_lambdas_outside_unit_interval_rejected(self, lambdas):
        with pytest.raises(ValidationError):
            SupportStore.empty(2, 3, lambdas=lambdas)

    @pytest.mark.parametrize("lambdas", [0.5, None, 1])
    def test_lambdas_must_be_a_collection(self, lambdas):
        with pytest.raises(ValidationError, match="must be a collection"):
            SupportStore.empty(2, 3, lambdas=lambdas)
        with pytest.raises(ValidationError, match="must be a collection"):
            SupportStore(2, 3, lambdas=lambdas)

    @pytest.mark.parametrize("lam", ["a", None, True, np.True_])
    def test_lambdas_must_be_real_numbers(self, lam):
        with pytest.raises(ValidationError, match="mixing coefficient must be a real"):
            SupportStore.empty(2, 3, lambdas=(0.5, lam))

    @pytest.mark.parametrize("field, value", [
        ("class_accumulators", np.zeros(5)), ("class_counts", np.zeros(2)),
        ("text", "x"), ("next_entry_id", -5)])
    def test_constructor_takes_only_sizes_and_lambdas(self, field, value):
        with pytest.raises(TypeError, match=field):
            SupportStore(2, 2, **{field: value})

    def test_attach_requires_usable_bank(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 3, 4, images=3)
        with pytest.raises(DimensionMismatch):
            attach_text(store, make_bank(rng, 3, 5))
        with pytest.raises(DimensionMismatch):
            attach_text(store, make_bank(rng, 2, 4))

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
