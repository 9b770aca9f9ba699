import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.adapter import AdapterModel, TrainConfig
from segtta.errors import EmptyRegion, ShapeMismatch, ValidationError
from segtta.inference import (
    RegionSet,
    adapted_predict,
    region_pool,
    segment,
    zero_shot_predict,
    zero_shot_segment,
)
from segtta.numerics import IGNORE_INDEX, softmax
from segtta.support import SupportStore, TextBank

from conftest import feature_map, make_bank, random_store, unit_rows
from oracles import region_pool_loop


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
        p = zero_shot_predict(x, bank, 0.1)
        want = softmax(x.data @ bank.features.astype(np.float64).T, 0.1)
        assert np.abs(p.data - want).max() < 1e-12

    def test_tau_invariant_argmax(self):
        rng = np.random.default_rng(1)
        bank = make_bank(rng, 5, 8)
        x = feature_map(unit_rows(rng, 9, 8), 3, 3)
        a = zero_shot_predict(x, bank, 0.1).data.argmax(axis=1)
        b = zero_shot_predict(x, bank, 3.0).data.argmax(axis=1)
        assert np.array_equal(a, b)

    def test_fallback_bank_rejected(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        rng = np.random.default_rng(2)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        with pytest.raises(ValidationError):
            zero_shot_predict(x, bank, 0.1)

    def test_text_weights_reproduce_zero_shot_at_unit_tau(self):
        rng = np.random.default_rng(3)
        bank = make_bank(rng, 4, 6)
        x = feature_map(unit_rows(rng, 6, 6), 2, 3)
        model = AdapterModel(bank.features.astype(np.float64), np.zeros(4))
        a = adapted_predict(model, x)
        b = zero_shot_predict(x, bank, 1.0)
        assert np.abs(a.data - b.data).max() < 1e-12


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
        patch_labels = zero_shot_predict(x, bank, 0.1).data.argmax(axis=1)
        painted = res.full_res_labels.data
        for cell in range(4):
            block = painted[assign == cell]
            assert (block == patch_labels[cell]).all()
