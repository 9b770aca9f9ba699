import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta import inference
from segtta.adapter import AdapterModel, TrainConfig, fit_batches, query_batches
from segtta.errors import (
    DimensionMismatch,
    EmptyRegion,
    NonFiniteInput,
    NumericalError,
    ShapeMismatch,
    ValidationError,
)
from segtta.inference import (
    RegionSet,
    region_pool,
    segment,
    zero_shot_segment,
)
from segtta.numerics import (
    IGNORE_INDEX,
    DenseFeatureMap,
    ProbMap,
    softmax,
)
from segtta.support import SupportStore, TextBank

from conftest import feature_map, make_bank, random_store, unit_rows
from oracles import argmax_scan, bilinear_direct, region_pool_loop


class TestRegionSet:
    def test_validates_id_range(self):
        with pytest.raises(ValidationError):
            RegionSet(np.array([[0, 3]]), region_count=2)
        with pytest.raises(ShapeMismatch):
            RegionSet(np.zeros(4, dtype=np.int64), region_count=1)

    def test_from_grid_plain(self):
        grid = np.array([[0, 1], [1, 2]])
        rs = RegionSet.from_grid(grid)
        assert rs.region_count == 3
        assert np.array_equal(rs.assignments, grid)

    def test_from_grid_ignore_becomes_extra_region(self):
        grid = np.array([[0, IGNORE_INDEX], [1, IGNORE_INDEX]])
        rs = RegionSet.from_grid(grid)
        assert rs.region_count == 3
        assert rs.assignments[0, 1] == 2 and rs.assignments[1, 1] == 2


class TestZeroShotPredict:
    def test_matches_matmul_softmax_oracle(self):
        rng = np.random.default_rng(0)
        bank = make_bank(rng, 4, 6)
        x = feature_map(unit_rows(rng, 6, 6), 2, 3)
        p = zero_shot_segment(x, bank, 0.1).low_res
        want = softmax(x.data @ bank.features.astype(np.float64).T, 0.1)
        assert np.abs(p.data - want).max() < 1e-12

    def test_tau_invariant_argmax(self):
        rng = np.random.default_rng(1)
        bank = make_bank(rng, 5, 8)
        x = feature_map(unit_rows(rng, 9, 8), 3, 3)
        a = zero_shot_segment(x, bank, 0.1).low_res.data.argmax(axis=1)
        b = zero_shot_segment(x, bank, 3.0).low_res.data.argmax(axis=1)
        assert np.array_equal(a, b)

    def test_fallback_bank_rejected(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        rng = np.random.default_rng(2)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        with pytest.raises(ValidationError):
            zero_shot_segment(x, bank, 0.1)

    def test_text_weights_reproduce_zero_shot_at_unit_tau(self):
        rng = np.random.default_rng(3)
        bank = make_bank(rng, 4, 6)
        x = feature_map(unit_rows(rng, 6, 6), 2, 3)
        model = AdapterModel(bank.features.astype(np.float64), np.zeros(4))
        a = model.probs(x.data)
        b = zero_shot_segment(x, bank, 1.0).low_res
        assert np.abs(a - b.data).max() < 1e-12


class TestRegionPool:
    def test_whole_image_single_region(self):
        rng = np.random.default_rng(4)
        rows = unit_rows(rng, 4, 6)
        x = feature_map(rows, 2, 2)
        rs = RegionSet(np.zeros((8, 8), dtype=np.int64), 1)
        pooled = region_pool(x, rs)
        mean = rows.mean(axis=0)
        assert np.abs(pooled[0] - mean / np.linalg.norm(mean)).max() < 1e-12

    def test_cell_aligned_regions_pick_cell_features(self):
        rng = np.random.default_rng(5)
        rows = unit_rows(rng, 4, 6)
        x = feature_map(rows, 2, 2, cell_pixels=4)
        assign = np.repeat(np.repeat(np.arange(4).reshape(2, 2), 4, 0), 4, 1)
        pooled = region_pool(x, RegionSet(assign, 4))
        assert np.abs(pooled - rows).max() < 1e-9

    def test_matches_loop_oracle_unaligned(self):
        from oracles import region_pool_loop
        rng = np.random.default_rng(6)
        rows = unit_rows(rng, 6, 5)
        x = feature_map(rows, 2, 3, cell_pixels=4)  # 8 x 12 image
        assign = rng.integers(0, 3, size=(8, 12)).astype(np.int64)
        assign[0, 0] = 0
        assign[0, 1] = 1
        assign[0, 2] = 2
        pooled = region_pool(x, RegionSet(assign, 3))
        want = region_pool_loop(rows, assign, 2, 3, 3)
        assert np.abs(pooled - want).max() < 1e-9

    def test_declared_pixelless_region_raises(self):
        rng = np.random.default_rng(7)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        rs = RegionSet(np.zeros((8, 8), dtype=np.int64), 2)  # region 1 owns nothing
        with pytest.raises(EmptyRegion):
            region_pool(x, rs)

    def test_resolution_mismatch(self):
        rng = np.random.default_rng(8)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        rs = RegionSet(np.zeros((4, 4), dtype=np.int64), 1)
        with pytest.raises(ShapeMismatch):
            region_pool(x, rs)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_are_unit(self, seed):
        rng = np.random.default_rng(seed)
        x = feature_map(unit_rows(rng, 9, 6), 3, 3, cell_pixels=3)
        assign = rng.integers(0, 2, size=(9, 9)).astype(np.int64)
        assign[0, 0], assign[-1, -1] = 0, 1
        pooled = region_pool(x, RegionSet(assign, 2))
        assert np.abs(np.linalg.norm(pooled, axis=1) - 1.0).max() < 1e-9


class TestSegment:
    def test_patch_mode_shapes(self):
        rng = np.random.default_rng(9)
        bank = make_bank(rng, 3, 6)
        res = zero_shot_segment(feature_map(unit_rows(rng, 4, 6), 2, 2), bank, 0.1)
        assert res.mode == "patch"
        assert res.low_res.data.shape == (4, 3)
        assert res.full_res_labels.shape == (8, 8)
        assert res.full_res_labels.data.max() < 3

    def test_empty_store_equals_zero_shot(self):
        rng = np.random.default_rng(10)
        C, d = 4, 8
        bank = make_bank(rng, C, d)
        store = SupportStore.empty(C, d, text=bank)
        x = feature_map(unit_rows(rng, 9, d), 3, 3)
        via_segment = segment(store, x, bank)
        direct = zero_shot_segment(x, bank, TrainConfig().tau)
        assert via_segment.low_res.data.tobytes() == direct.low_res.data.tobytes()
        assert np.array_equal(via_segment.full_res_labels.data,
                              direct.full_res_labels.data)

    def test_given_probe_decodes_like_its_own_fit(self):
        rng = np.random.default_rng(13)
        C, d = 4, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=2, grid=2)
        xs = [feature_map(unit_rows(rng, 4, d), 2, 2),
              feature_map(unit_rows(rng, 6, d), 2, 3),
              feature_map(bank.features[3] + 0.05 * rng.standard_normal((4, d)), 2, 2)]
        cfg = TrainConfig(steps=25)
        assign = np.zeros((8, 8), dtype=np.int64)
        assign[4:] = 1
        for unsupported in ((), (0, 1)):
            models = fit_batches(query_batches(store, xs, bank, unsupported, cfg), cfg)
            for x, m in zip(xs, models):
                regions = RegionSet(assign, 2) if x.grid_w == 2 else None
                a = segment(store, x, bank, regions, unsupported, cfg)
                b = segment(store, x, bank, regions, unsupported, cfg, model=m)
                assert a.mode == b.mode
                assert a.low_res.data.tobytes() == b.low_res.data.tobytes()
                assert a.full_res_labels.data.tobytes() == b.full_res_labels.data.tobytes()

    @staticmethod
    def probe_case(seed=14):
        rng = np.random.default_rng(seed)
        C, d = 4, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=2, grid=2)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        return rng, store, x, bank, (C, d)

    @pytest.mark.parametrize("shape, error", [
        ((4, 7), DimensionMismatch),    # another d
        ((4, 5), DimensionMismatch),
        ((5, 6), ShapeMismatch),        # C + 1 classes
        ((3, 6), ShapeMismatch),
        ((2, 4, 6), ShapeMismatch),     # a stack of probes
    ])
    def test_given_probe_of_another_shape_is_rejected(self, shape, error):
        rng, store, x, bank, _ = self.probe_case()
        model = AdapterModel(rng.standard_normal(shape), rng.standard_normal(shape[:-1]))
        with pytest.raises(error):
            segment(store, x, bank, model=model)

    @pytest.mark.parametrize("where", ["weights", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_given_non_finite_probe_is_rejected(self, where, value):
        rng, store, x, bank, (C, d) = self.probe_case()
        model = AdapterModel(rng.standard_normal((C, d)), rng.standard_normal(C))
        getattr(model, where)[1] = value
        with pytest.raises(NonFiniteInput):
            segment(store, x, bank, model=model)
        assignments = np.zeros((x.image_h, x.image_w), dtype=np.int64)
        with pytest.raises(NonFiniteInput):
            segment(store, x, bank, RegionSet(assignments, 1), model=model)

    def test_region_mode_paints_constant_regions(self):
        rng = np.random.default_rng(11)
        C, d = 3, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=6, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        assign = np.zeros((8, 8), dtype=np.int64)
        assign[:, 4:] = 1
        res = segment(store, x, bank, regions=RegionSet(assign, 2),
                      config=TrainConfig(steps=20))
        assert res.mode == "region"
        labels = res.full_res_labels.data
        assert len(np.unique(labels[:, :4])) == 1
        assert len(np.unique(labels[:, 4:])) == 1

    def test_declared_but_unused_regions_are_dropped(self):
        rng = np.random.default_rng(12)
        bank = make_bank(rng, 3, 6)
        x = feature_map(unit_rows(rng, 4, 6), 2, 2)
        assign = np.zeros((8, 8), dtype=np.int64)
        assign[4:] = 3  # ids 1 and 2 own no pixels
        res = zero_shot_segment(x, bank, 0.1, regions=RegionSet(assign, 5))
        assert res.mode == "region"
        assert res.full_res_labels.data.shape == (8, 8)
        # regions 0 and 3 pooled as a two-region partition, then text-classified
        pooled = region_pool_loop(x.data, (assign == 3).astype(np.int64), 2, 2, 2)
        want = softmax(pooled @ bank.features.astype(np.float64).T, 0.1).argmax(axis=1)
        assert want[0] != want[1]
        assert (res.full_res_labels.data[:4] == want[0]).all()
        assert (res.full_res_labels.data[4:] == want[1]).all()

    def test_aligned_regions_match_patch_argmax(self):
        # one region per grid cell -> region argmax equals patch argmax
        rng = np.random.default_rng(13)
        bank = make_bank(rng, 4, 6)
        rows = unit_rows(rng, 4, 6)
        x = feature_map(rows, 2, 2, cell_pixels=4)
        assign = np.repeat(np.repeat(np.arange(4).reshape(2, 2), 4, 0), 4, 1)
        res = zero_shot_segment(x, bank, 0.1, regions=RegionSet(assign, 4))
        patch_labels = res.low_res.data.argmax(axis=1)  # patch probabilities
        painted = res.full_res_labels.data
        for cell in range(4):
            block = painted[assign == cell]
            assert (block == patch_labels[cell]).all()


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_at_the_boundary(self, bad):
        # the constructor is the boundary: segment and zero_shot_segment only
        # ever see maps that passed it
        rows = unit_rows(np.random.default_rng(20), 9, 6)
        rows[4, 2] = bad
        with pytest.raises(NonFiniteInput) as err:
            DenseFeatureMap(rows, 3, 3, 12, 12)
        assert isinstance(err.value, NumericalError)  # CLI exit 4


class TestBandedDecode:
    """Patch decode upsamples and argmaxes a band of rows at a time; its
    labels must equal the full-volume oracle wherever the bands fall."""

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["adapted", "zero-shot"]),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_labels_match_full_volume_oracle(self, seed, path, ties):
        rng = np.random.default_rng(seed)
        gh, gw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        C, d = int(rng.integers(2, 6)), 8
        H = int(rng.integers(gh, 5 * gh + 4))
        W = int(rng.integers(gw, 5 * gw + 4))
        bank = make_bank(rng, C, d)
        rows = unit_rows(rng, gh * gw, d)
        if ties:
            # text lives in the first half of the dims; patches in the second
            # half score 0 against every class, so their zero-shot rows are
            # exactly uniform, and a duplicated text row makes class `dup`
            # tie exactly with class 0 everywhere
            bank.features[:, d // 2:] = 0.0
            bank.features[:] /= np.linalg.norm(bank.features, axis=1, keepdims=True)
            dup = C - 1
            bank.features[dup] = bank.features[0]
            flat = rng.random(gh * gw) < 0.5
            flat[0] = True
            rows[flat] = 0.0
            rows[flat, d // 2:] = unit_rows(rng, int(flat.sum()), d - d // 2)
        x = DenseFeatureMap(rows, gh, gw, H, W)
        # a budget of band_rows rows plus less than one more row: every band
        # height 1..H occurs, and the last band is ragged unless it divides H
        band_rows = int(rng.integers(1, H + 1))
        row_bytes = W * C * 8
        budget = band_rows * row_bytes + int(rng.integers(0, row_bytes))
        with mock.patch.object(inference, "DECODE_BAND_BYTES", budget):
            if path == "adapted":
                store = random_store(rng, C, d, images=C + 1, grid=2, bank=bank)
                res = segment(store, x, bank, config=TrainConfig(steps=3))
            else:
                res = zero_shot_segment(x, bank, 0.1)
        # the direct oracle rounds differently from the separable blend, but
        # an exact tie stays exact in both (tied classes see identical
        # inputs) and random probabilities leave no margins near 1e-16
        volume = bilinear_direct(res.low_res.data.reshape(gh, gw, C), H, W)
        labels = res.full_res_labels.data
        assert labels.dtype == np.int64 and labels.shape == (H, W)
        assert labels.tobytes() == argmax_scan(volume).tobytes()
        if ties and path == "zero-shot":
            assert not (labels == dup).any()

    def test_uniform_probabilities_resolve_to_class_zero(self):
        x = feature_map(unit_rows(np.random.default_rng(21), 12, 4), 3, 4)
        probs = ProbMap(np.full((12, 5), 0.2), 3, 4)
        with mock.patch.object(inference, "DECODE_BAND_BYTES", 1):
            res = inference._decode(x, lambda rows: probs.data, None)
        assert (res.full_res_labels.data == 0).all()

    def test_peak_memory_is_a_few_bands(self):
        rng = np.random.default_rng(22)
        C, H, W = 150, 256, 256
        probs = ProbMap(softmax(rng.standard_normal((32 * 32, C)), 1.0), 32, 32)
        x = feature_map(unit_rows(rng, 32 * 32, 4), 32, 32, cell_pixels=8)
        tracemalloc.start()
        try:
            res = inference._decode(x, lambda rows: probs.data, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        volume = H * W * C * 8  # 75 MiB of f64, what an unbanded decode holds
        # Alive at once: the (H, W) int64 labels, plus the arrays of one
        # band's horizontal blend (two gathered source bands, their two
        # weighted copies and the sum). A 256-pixel row at C=150 is 300 KiB,
        # so a band is 3 rows and each of those arrays fits the budget; six
        # budgets leave room for the small index and weight arrays.
        bound = res.full_res_labels.data.nbytes + 6 * inference.DECODE_BAND_BYTES
        assert bound < volume / 10
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB"
