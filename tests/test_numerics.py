import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtta import numerics
from segtta.errors import EmptyMask, NearZeroRow, ShapeMismatch, ValidationError
from segtta.numerics import (
    IGNORE_INDEX,
    MAX_IMAGE_PIXELS,
    DenseFeatureMap,
    LabelMask,
    ProbMap,
    argmax_map,
    downsample_labels,
    l2_normalize_rows,
    resample_cells,
    softmax,
    unit,
    upsample_probs,
)

from oracles import (
    argmax_scan,
    bilinear_direct,
    downsample_count_loop,
    normalize_rows_loop,
    softmax_direct,
)


class TestNormalize:
    def test_three_four_row(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_identity(self):
        out = l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_random_matrix_against_loop(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 16))
        out = l2_normalize_rows(m)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-6
        assert np.abs(out - normalize_rows_loop(m)).max() < 1e-12

    def test_zero_row_raises(self):
        with pytest.raises(NearZeroRow):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_vector_helper(self):
        v = unit(np.array([0.0, 2.0]))
        assert np.allclose(v, [0.0, 1.0])
        with pytest.raises(NearZeroRow):
            unit(np.zeros(3))

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_finite_rows_normalize_like_unscaled(self, scale):
        # the squared norm of these rows overflows; they must still come out
        # as the unit rows of the unscaled data, and the other rows unchanged
        m = np.random.default_rng(3).standard_normal((6, 8))
        big = m.copy()
        big[::2] *= scale
        want = l2_normalize_rows(m)
        out = l2_normalize_rows(big)
        assert out[1::2].tobytes() == want[1::2].tobytes()
        ulps = 4 * np.finfo(np.float64).eps  # entries of unit rows are <= 1
        assert np.abs(out - want).max() <= ulps
        for row, ref in zip(big, want):
            assert np.abs(unit(row) - ref).max() <= ulps


class TestDenseFeatureMap:
    """A map holds unit float64 rows from the moment it is built."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_raw_rows_are_stored_normalized(self, dtype):
        rng = np.random.default_rng(4)
        rows = (rng.standard_normal((6, 5)) * rng.uniform(0.1, 9.0, (6, 1))).astype(dtype)
        x = DenseFeatureMap(rows, 2, 3, 8, 12)
        assert x.data.dtype == np.float64
        assert x.data.tobytes() == l2_normalize_rows(rows).tobytes()

    def test_zero_row_raises_at_construction(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NearZeroRow):
            DenseFeatureMap(rows, 1, 2, 4, 4)

    def test_image_pixels_are_bounded(self):
        rows = np.ones((1, 3))
        assert DenseFeatureMap(rows, 1, 1, MAX_IMAGE_PIXELS, 1).image_h == MAX_IMAGE_PIXELS
        for h, w in ((MAX_IMAGE_PIXELS + 1, 1), (1 << 13, (1 << 13) + 1), (10 ** 9, 10 ** 9),
                     (2 ** 63, 2 ** 63)):
            with pytest.raises(ShapeMismatch, match="pixels"):
                DenseFeatureMap(rows, 1, 1, h, w)

    @pytest.mark.parametrize("data", [
        [[3.0, 4.0]], np.array([[3.0, 4.0]], dtype=object), np.array([[3.0 + 1j, 4.0]]),
        np.array([["3", "4"]])], ids=["list", "object", "complex", "str"])
    def test_data_must_be_a_real_numeric_array(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="real numeric"):
                DenseFeatureMap(data, 1, 1, 4, 4)

    def test_integer_data_is_read_as_real(self):
        x = DenseFeatureMap(np.array([[3, 4]]), 1, 1, 4, 4)
        assert x.data.tolist() == [[0.6, 0.8]]

    @pytest.mark.parametrize("field, value", [
        ("grid_h", 2.0), ("grid_h", True), ("grid_w", np.True_), ("image_h", "8"),
        ("image_w", np.float64(8))])
    def test_sizes_must_be_integers(self, field, value):
        sizes = dict(grid_h=2, grid_w=1, image_h=8, image_w=8)
        sizes[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            DenseFeatureMap(np.ones((2, 3)), **sizes)


class TestLabelMask:
    @pytest.mark.parametrize("data", [np.full((2, 2), 0.5), np.zeros((2, 2), dtype=bool),
                                      [[0, 1]]], ids=["float", "bool", "list"])
    def test_labels_must_be_an_integer_array(self, data):
        with pytest.raises(ValidationError, match="integer ndarray"):
            LabelMask(data, 2)

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 2.5), ("num_classes", np.True_), ("ignore_index", 1.0),
        ("ignore_index", "x")])
    def test_class_count_and_ignore_index_must_be_integers(self, field, value):
        kw = {"num_classes": 2, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            LabelMask(np.zeros((2, 2), dtype=np.int64), **kw)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.zeros(3), 1.0), np.full(3, 1 / 3), atol=1e-12)

    def test_ln2_case(self):
        out = softmax(np.array([math.log(2.0), 0.0]), 1.0)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_random_against_direct(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(10)
        assert np.abs(softmax(v, 0.1) - softmax_direct(v, 0.1)).max() < 1e-9

    def test_bad_temperature(self):
        with pytest.raises(ValidationError):
            softmax(np.zeros(3), 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_nonfinite_temperature(self, tau):
        with pytest.raises(ValidationError):
            softmax(np.zeros(3), tau)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-30, 30))
    def test_shift_invariance(self, vals, shift):
        v = np.array(vals)
        a = softmax(v, 0.7)
        b = softmax(v + shift, 0.7)
        assert np.abs(a - b).max() < 1e-9

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
           st.floats(0.01, 10.0))
    @example(vals=[-2.220446049250313e-16, 0.0], tau=5.0)
    def test_argmax_tau_invariant(self, vals, tau):
        # softmax cannot reorder logits, but rounding can merge near-ties.
        # The top logit becomes z = 0, e = 1 exactly. Another logit with gap
        # g to the top becomes z = fl(v/t) - fl(max/t), off from -g/t by at
        # most eps * max|v| / t. exp adds a few eps of relative error, and the
        # shared division is correctly rounded, hence monotone: that logit's
        # output stays strictly below the top's once g / t exceeds about
        # 4 eps * (max|v| / t + 1), i.e. g > 4 eps * (max|v| + t). The margin
        # takes 16x that, with t = max(tau, 1). Beyond it the top logit wins
        # at both temperatures; within it the winner may move between logits
        # that rounding merged (v = [-2.2e-16, 0] gives exactly [0.5, 0.5] at
        # tau 5, argmax 0, and argmax 1 at tau 1).
        v = np.array(vals)
        margin = 64 * np.finfo(np.float64).eps * (np.abs(v).max() + max(tau, 1.0))
        winners = [int(np.argmax(softmax(v, t))) for t in (tau, 1.0)]
        top_two = np.sort(v)[-2:]
        if top_two[1] - top_two[0] > margin:
            assert winners[0] == winners[1]
        for i in winners:
            assert v[i] >= v.max() - margin


class TestDownsampleLabels:
    def test_uniform_single_class(self):
        mask = LabelMask(np.zeros((4, 4), dtype=np.int64), num_classes=1)
        p = downsample_labels(mask, 2, 2)
        assert np.allclose(p.data[:, 0], 0.25)

    def test_two_columns_one_cell(self):
        data = np.array([[0, 1], [0, 1]], dtype=np.int64)
        p = downsample_labels(LabelMask(data, num_classes=2), 1, 1)
        assert np.allclose(p.data, [[1.0, 1.0]])

    def test_random_against_pixel_count_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 3, size=(16, 16)).astype(np.int64)
        p = downsample_labels(LabelMask(data, num_classes=3), 4, 4)
        want = downsample_count_loop(data, 4, 4, 3, IGNORE_INDEX)
        assert np.abs(p.data - want).max() < 1e-12

    def test_ignore_pixels_carry_no_mass(self):
        data = np.full((4, 4), IGNORE_INDEX, dtype=np.int64)
        data[0, 0] = 0
        p = downsample_labels(LabelMask(data, num_classes=2), 2, 2)
        assert p.data[:, 0].sum() == pytest.approx(1.0)
        assert p.data[:, 1].sum() == 0.0

    def test_all_ignore_raises(self):
        data = np.full((4, 4), IGNORE_INDEX, dtype=np.int64)
        with pytest.raises(EmptyMask):
            downsample_labels(LabelMask(data, num_classes=2), 2, 2)

    def test_grid_larger_than_mask_raises(self):
        mask = LabelMask(np.zeros((2, 2), dtype=np.int64), num_classes=1)
        with pytest.raises(ShapeMismatch):
            downsample_labels(mask, 4, 4)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_present_columns_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        H = int(rng.integers(4, 17))
        W = int(rng.integers(4, 17))
        C = int(rng.integers(1, 5))
        data = rng.integers(0, C, size=(H, W)).astype(np.int64)
        gh = int(rng.integers(1, H + 1))
        gw = int(rng.integers(1, W + 1))
        p = downsample_labels(LabelMask(data, num_classes=C), gh, gw)
        present = np.array([(data == c).any() for c in range(C)])
        sums = p.data.sum(axis=0)
        assert np.abs(sums[present] - 1.0).max() < 1e-6
        assert (sums[~present] == 0.0).all()


class TestDownsampleShapes:
    """Masks of several shapes, interleaved, must each be counted on their
    own cell geometry."""

    # (H, W, grid_h, grid_w): sides the grid does not divide, one pixel a
    # cell, one cell, and pairs that differ only in H, W or a grid side
    SHAPES = ((30, 45, 4, 7), (45, 30, 7, 4), (17, 5, 3, 5), (16, 16, 4, 4),
              (16, 16, 16, 16), (7, 9, 1, 1), (31, 45, 4, 7), (30, 45, 4, 6))

    @pytest.mark.parametrize("ignore", [-1, IGNORE_INDEX, 2])
    def test_interleaved_shapes_against_pixel_count_oracle(self, ignore):
        rng = np.random.default_rng(ignore + 7)
        C = 5
        for i in range(3 * len(self.SHAPES)):
            H, W, gh, gw = self.SHAPES[i % len(self.SHAPES)]
            data = rng.integers(0, C, size=(H, W))
            data[rng.random((H, W)) < 0.3] = ignore
            data[0, 0] = (ignore + 1) % C  # at least one labeled pixel
            p = downsample_labels(LabelMask(data, C, ignore_index=ignore), gh, gw)
            want = downsample_count_loop(data, gh, gw, C, ignore)
            assert p.data.shape == (gh * gw, C)
            assert np.abs(p.data - want).max() < 1e-12
            if 0 <= ignore < C:
                assert (p.data[:, ignore] == 0.0).all()

    def test_label_dtypes_count_alike(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 4, size=(30, 45))
        data[rng.random(data.shape) < 0.2] = IGNORE_INDEX
        want = downsample_labels(LabelMask(data, 4), 4, 7).data
        for dtype in (np.uint16, np.uint64, np.int32):
            got = downsample_labels(LabelMask(data.astype(dtype), 4), 4, 7).data
            assert got.tobytes() == want.tobytes()


class TestUpsampleProbs:
    def test_constant_map(self):
        p = ProbMap(np.full((4, 3), 1 / 3), 2, 2)
        out = upsample_probs(p, 8, 8)
        assert np.abs(out - 1 / 3).max() < 1e-12

    def test_identity_size(self):
        rng = np.random.default_rng(3)
        rows = softmax(rng.standard_normal((6, 4)), 1.0)
        p = ProbMap(rows, 2, 3)
        out = upsample_probs(p, 2, 3)
        assert np.abs(out.reshape(6, 4) - rows).max() < 1e-12

    def test_one_by_two_to_one_by_four(self):
        p = ProbMap(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, 2)
        out = upsample_probs(p, 1, 4)
        want = np.array([[1.0, 0.0], [0.75, 0.25], [0.25, 0.75], [0.0, 1.0]])
        assert np.abs(out[0] - want).max() < 1e-12

    def test_random_against_direct_oracle(self):
        rng = np.random.default_rng(4)
        rows = softmax(rng.standard_normal((12, 5)), 1.0)
        p = ProbMap(rows, 3, 4)
        out = upsample_probs(p, 7, 9)
        want = bilinear_direct(rows.reshape(3, 4, 5), 7, 9)
        assert np.abs(out - want).max() < 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_row_stochastic_preserved(self, seed):
        rng = np.random.default_rng(seed)
        gh = int(rng.integers(1, 5))
        gw = int(rng.integers(1, 5))
        C = int(rng.integers(2, 5))
        rows = softmax(rng.standard_normal((gh * gw, C)), 1.0)
        H = int(rng.integers(gh, 4 * gh + 1))
        W = int(rng.integers(gw, 4 * gw + 1))
        out = upsample_probs(ProbMap(rows, gh, gw), H, W)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert out.min() >= -1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_row_range_is_rows_of_full_call(self, seed):
        rng = np.random.default_rng(seed)
        gh, gw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        C = int(rng.integers(1, 6))
        H = int(rng.integers(gh, 5 * gh + 4))
        W = int(rng.integers(gw, 5 * gw + 4))
        p = ProbMap(softmax(rng.standard_normal((gh * gw, C)), 1.0), gh, gw)
        start = int(rng.integers(0, H))
        stop = int(rng.integers(start + 1, H + 1))
        full = upsample_probs(p, H, W)
        band = upsample_probs(p, H, W, rows=(start, stop))
        assert band.shape == (stop - start, W, C)
        assert band.tobytes() == full[start:stop].tobytes()
        assert upsample_probs(p, H, W, rows=(0, H)).tobytes() == full.tobytes()

    def test_row_range_outside_image_rejected(self):
        p = ProbMap(np.full((4, 2), 0.5), 2, 2)
        for rows in ((0, 0), (3, 2), (-1, 2), (0, 9)):
            with pytest.raises(ShapeMismatch):
                upsample_probs(p, 8, 8, rows=rows)


    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_columns_are_columns_of_full_call(self, seed):
        rng = np.random.default_rng(seed)
        gh, gw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        C = int(rng.integers(1, 6))
        H, W = int(rng.integers(1, 5 * gh + 4)), int(rng.integers(1, 5 * gw + 4))
        p = ProbMap(softmax(rng.standard_normal((gh * gw, C)), 1.0), gh, gw)
        start = int(rng.integers(0, H))
        stop = int(rng.integers(start + 1, H + 1))
        cols = np.sort(rng.choice(W, size=int(rng.integers(0, W + 1)), replace=False))
        full = upsample_probs(p, H, W)
        got = upsample_probs(p, H, W, rows=(start, stop), cols=cols)
        assert got.shape == (stop - start, len(cols), C)
        assert got.tobytes() == full[start:stop][:, cols].tobytes()

    def test_columns_outside_image_rejected(self):
        p = ProbMap(np.full((4, 2), 0.5), 2, 2)
        for cols in ([8], [-1], [[0, 1]], [0.5], np.array([1, 9])):
            with pytest.raises(ShapeMismatch):
                upsample_probs(p, 8, 8, cols=np.asarray(cols))

    @given(st.integers(1, 12), st.integers(1, 40))
    def test_resample_cells_are_runs_of_one_source_pair(self, n_src, n_dst):
        cell, lo, hi = resample_cells(n_src, n_dst)
        want_lo, want_hi, _ = numerics._linear_resample_weights(n_src, n_dst)
        assert np.array_equal(lo[cell], want_lo) and np.array_equal(hi[cell], want_hi)
        assert cell[0] == 0 and set(np.diff(cell).tolist()) <= {0, 1}
        assert len(set(zip(lo.tolist(), hi.tolist()))) == len(lo)


def _labels(grid):
    return argmax_map(grid, np.empty(grid.shape[:2], dtype=np.int64))


class TestArgmaxMap:
    def test_one_hot(self):
        grid = np.zeros((2, 2, 3))
        grid[..., 2] = 1.0
        assert (_labels(grid) == 2).all()

    def test_tie_breaks_low(self):
        grid = np.full((3, 3, 4), 0.25)
        assert (_labels(grid) == 0).all()

    def test_random_against_scan(self):
        rng = np.random.default_rng(5)
        grid = rng.standard_normal((6, 7, 4))
        assert np.array_equal(_labels(grid), argmax_scan(grid))

    def test_writes_into_out_rows(self):
        rng = np.random.default_rng(6)
        grid = rng.standard_normal((5, 4, 3))
        labels = np.full((8, 4), -1, dtype=np.int64)
        got = argmax_map(grid, out=labels[2:7])
        assert np.shares_memory(got, labels)
        assert np.array_equal(labels[2:7], argmax_scan(grid))
        assert (labels[:2] == -1).all() and (labels[7:] == -1).all()
