import copy
import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtta.adapter import (
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    AdapterModel,
    Gradients,
    TrainConfig,
    TrainingBatch,
    _stack,
    adam_step,
    assemble_batch,
    fit_batches,
    fused_support_loss,
    pseudo_label_loss,
    pseudo_visual_class_features,
    query_batches,
    total_loss,
    train_adapter,
    visual_support_loss,
    weighted_cross_entropy,
)
import segtta.adapter as adapter
from segtta.errors import DimensionMismatch, NonFiniteGradient, ShapeMismatch, ValidationError
from segtta.inference import segment
from segtta.numerics import LabelMask, softmax
from segtta.retrieval import RetrievedSet, retrieve_for_image
from segtta.support import (
    DEFAULT_LAMBDAS,
    SupportStore,
    TextBank,
    add_support_image,
    aggregate_class_feature,
    attach_text,
    fused_rows,
)

from conftest import feature_map, make_bank, random_store, stores_equal, unit_rows
from oracles import (
    fd_gradients,
    fuse,
    max_relative_error,
    pseudo_features_loop,
    pseudo_kl_loop,
    pseudo_label_distribution,
    weighted_ce_loop,
)

CFG = TrainConfig()


def random_ce_batch(rng, m, C, d):
    vecs = unit_rows(rng, m, d)
    labels = rng.integers(0, C, size=m)
    weights = rng.random(m) + 0.1
    return vecs, labels, weights


def random_model(rng, C, d, scale=0.5):
    return AdapterModel(scale * rng.standard_normal((C, d)),
                        scale * rng.standard_normal(C))


class TestCrossEntropyLosses:
    def test_single_uniform_item_is_log_c(self):
        model = AdapterModel.zeros(5, 3)
        vecs = np.array([[1.0, 0.0, 0.0]])
        loss, _ = visual_support_loss(model, vecs, np.array([2]), np.ones(1))
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_zero_weight_items_are_inert(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 4, 6)
        vecs, labels, _ = random_ce_batch(rng, 8, 4, 6)
        loss, grads = weighted_cross_entropy(model, vecs, labels, np.zeros(8))
        assert loss == 0.0
        assert np.abs(grads.weights).max() == 0.0
        assert np.abs(grads.bias).max() == 0.0

    def test_empty_batch(self):
        model = AdapterModel.zeros(3, 4)
        loss, grads = weighted_cross_entropy(
            model, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros(0))
        assert loss == 0.0 and np.abs(grads.weights).max() == 0.0

    def test_twelve_uniform_items(self):
        # 2 classes x 6 interpolation points, zero model over 5 classes
        model = AdapterModel.zeros(5, 4)
        rng = np.random.default_rng(1)
        vecs = unit_rows(rng, 12, 4)
        labels = np.repeat([0, 1], 6)
        loss, _ = fused_support_loss(model, vecs, labels, np.ones(12))
        assert loss == pytest.approx(12.0 * math.log(5.0), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 4, 5)
        vecs, labels, weights = random_ce_batch(rng, 20, 4, 5)
        _, grads = weighted_cross_entropy(model, vecs, labels, weights)

        def loss_of(w, b):
            l, _ = weighted_cross_entropy(AdapterModel(w, b), vecs, labels, weights)
            return l

        dw, db = fd_gradients(loss_of, model.weights, model.bias)
        assert max_relative_error(grads.weights, dw) < 1e-4
        assert max_relative_error(grads.bias, db) < 1e-4

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_loss_linear_in_weight_scale(self, seed, alpha):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 3, 4)
        vecs, labels, weights = random_ce_batch(rng, 6, 3, 4)
        base, _ = weighted_cross_entropy(model, vecs, labels, weights)
        scaled, _ = weighted_cross_entropy(model, vecs, labels, alpha * weights)
        assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)


class TestPseudoLoss:
    def test_zero_when_target_matches_model(self):
        model = AdapterModel.zeros(4, 3)
        vecs = unit_rows(np.random.default_rng(3), 5, 3)
        targets = np.full((5, 4), 0.25)
        loss, grads = pseudo_label_loss(model, vecs, targets, np.ones(5))
        assert abs(loss) < 1e-12
        assert np.abs(grads.weights).max() < 1e-12

    def test_zero_at_exact_match_nonuniform(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 4)
        vecs = unit_rows(rng, 4, 4)
        targets = model.probs(vecs)
        loss, _ = pseudo_label_loss(model, vecs, targets, rng.random(4) + 0.1)
        assert abs(loss) < 1e-12

    def test_positive_otherwise(self):
        model = AdapterModel.zeros(3, 2)
        targets = np.array([[0.8, 0.1, 0.1]])
        loss, _ = pseudo_label_loss(model, np.array([[1.0, 0.0]]), targets,
                                    np.ones(1))
        assert loss > 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 5, 4)
        vecs = unit_rows(rng, 12, 4)
        targets = softmax(rng.standard_normal((12, 5)), 1.0)
        weights = rng.random(12) + 0.1
        _, grads = pseudo_label_loss(model, vecs, targets, weights)

        def loss_of(w, b):
            l, _ = pseudo_label_loss(AdapterModel(w, b), vecs, targets, weights)
            return l

        dw, db = fd_gradients(loss_of, model.weights, model.bias)
        assert max_relative_error(grads.weights, dw) < 1e-4
        assert max_relative_error(grads.bias, db) < 1e-4


class TestOneTargetMatrix:
    """CE items are pseudo items whose target is 1 at the label: both take
    one path, so they agree byte for byte."""

    @staticmethod
    def same_bytes(a, b):
        (la, ga), (lb, gb) = a, b
        return (np.asarray(la).tobytes() == np.asarray(lb).tobytes()
                and ga.packed.tobytes() == gb.packed.tobytes())

    def test_one_hot_targets_are_cross_entropy(self):
        rng = np.random.default_rng(43)
        C, d, m = 6, 5, 9
        model = random_model(rng, C, d, scale=2.0)
        vecs, labels, weights = random_ce_batch(rng, m, C, d)
        one_hot = np.eye(C)[labels]
        assert self.same_bytes(pseudo_label_loss(model, vecs, one_hot, weights),
                               weighted_cross_entropy(model, vecs, labels, weights))

    def test_one_hot_targets_are_cross_entropy_in_a_padded_stack(self):
        rng = np.random.default_rng(44)
        C, d = 6, 5
        queries = [random_ce_batch(rng, m, C, d) for m in (4, 9, 1)]
        vecs, labels, weights = (pad_items(list(a)) for a in zip(*queries))
        model = AdapterModel(2.0 * rng.standard_normal((3, C, d)),
                             rng.standard_normal((3, C)))
        assert self.same_bytes(pseudo_label_loss(model, vecs, np.eye(C)[labels], weights),
                               weighted_cross_entropy(model, vecs, labels, weights))


class TestMismatchedItems:
    """Items that do not fit the probe or each other raise a SegttaError,
    not numpy's ValueError."""

    C, d = 3, 4

    def call(self, loss, model, x, y, w):
        if loss == "total":
            C, d = self.C, x.shape[-1]
            empty = (np.zeros((0, d)), np.zeros(0, np.int64), np.zeros(0))
            return total_loss(model, TrainingBatch(x, y, w, *empty, np.zeros((0, d)),
                                                   np.zeros((0, C)), np.zeros(0), C), CFG)
        return loss(model, x, y, w)

    @pytest.mark.parametrize("loss", [weighted_cross_entropy, "total"])
    def test_probe_of_another_d(self, loss):
        with pytest.raises(DimensionMismatch):
            self.call(loss, AdapterModel.zeros(self.C, self.d + 1), np.zeros((2, self.d)),
                      np.array([0, 1]), np.ones(2))

    def test_probe_of_another_d_over_pseudo_items(self):
        with pytest.raises(DimensionMismatch):
            pseudo_label_loss(AdapterModel.zeros(self.C, self.d + 1), np.zeros((2, self.d)),
                              np.full((2, self.C), 1.0 / self.C), np.ones(2))

    @pytest.mark.parametrize("loss", [weighted_cross_entropy, "total"])
    def test_labels_and_items_of_other_lengths(self, loss):
        with pytest.raises(ShapeMismatch):
            self.call(loss, AdapterModel.zeros(self.C, self.d), np.zeros((3, self.d)),
                      np.array([0, 1]), np.ones(3))

    @pytest.mark.parametrize("loss", [weighted_cross_entropy, "total"])
    def test_weights_and_labels_of_other_lengths(self, loss):
        with pytest.raises(ShapeMismatch):
            self.call(loss, AdapterModel.zeros(self.C, self.d), np.zeros((2, self.d)),
                      np.array([0, 1]), np.ones(3))

    @pytest.mark.parametrize("targets", [(2, 4), (2,), (3, 3)])
    def test_targets_that_are_not_m_by_c(self, targets):
        with pytest.raises(ShapeMismatch):
            pseudo_label_loss(AdapterModel.zeros(self.C, self.d), np.zeros((2, self.d)),
                              np.full(targets, 0.25), np.ones(2))

    def test_groups_of_two_d(self):
        C, d = self.C, self.d
        with pytest.raises(DimensionMismatch):
            total_loss(AdapterModel.zeros(C, d), TrainingBatch(
                np.zeros((2, d)), np.array([0, 1]), np.ones(2),
                np.zeros((2, d + 1)), np.array([0, 1]), np.ones(2),
                np.zeros((0, d)), np.zeros((0, C)), np.zeros(0), C), CFG)

    def test_labels_that_are_not_integers(self):
        with pytest.raises(ValidationError):
            weighted_cross_entropy(AdapterModel.zeros(self.C, self.d), np.zeros((2, self.d)),
                                   np.array([0.0, 1.5]), np.ones(2))

    def test_stacked_labels_of_another_query_count(self):
        with pytest.raises(ShapeMismatch):
            weighted_cross_entropy(
                AdapterModel(np.zeros((2, self.C, self.d)), np.zeros((2, self.C))),
                np.zeros((2, 3, self.d)), np.zeros((3, 3), np.int64), np.ones((2, 3)))


def pad_items(arrays):
    """Stack per-query item arrays, padding each to the longest with zeros."""
    out = np.zeros((len(arrays), max(len(a) for a in arrays)) + arrays[0].shape[1:],
                   dtype=arrays[0].dtype)
    for o, a in zip(out, arrays):
        o[:len(a)] = a
    return out


def close_to_oracle(loss, grads, want):
    w_loss, w_dw, w_db = want
    return (abs(loss - w_loss) <= 1e-12 * max(1.0, abs(w_loss))
            and np.allclose(grads.weights, w_dw, rtol=1e-12, atol=1e-12)
            and np.allclose(grads.bias, w_db, rtol=1e-12, atol=1e-12))


class TestLossOracles:
    """Both losses, one query or a padded (Q, m) stack, against per-item loops."""

    @staticmethod
    def items(rng, m, C, d):
        vecs, labels, weights = random_ce_batch(rng, m, C, d)
        targets = softmax(2.0 * rng.standard_normal((m, C)), 1.0)
        targets[:, rng.integers(0, C)] = 0.0   # a zero target, skipped by KL
        targets /= targets.sum(axis=1, keepdims=True)
        return vecs, labels, weights, targets

    @given(seed=st.integers(0, 2 ** 31 - 1), C=st.integers(2, 6), d=st.integers(1, 6),
           m=st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_one_query(self, seed, C, d, m):
        rng = np.random.default_rng(seed)
        model = random_model(rng, C, d)
        vecs, labels, weights, targets = self.items(rng, m, C, d)
        loss, grads = weighted_cross_entropy(model, vecs, labels, weights)
        assert close_to_oracle(loss, grads, weighted_ce_loop(
            model.weights, model.bias, vecs, labels, weights))
        loss, grads = pseudo_label_loss(model, vecs, targets, weights)
        assert close_to_oracle(loss, grads, pseudo_kl_loop(
            model.weights, model.bias, vecs, targets, weights))

    @given(seed=st.integers(0, 2 ** 31 - 1), C=st.integers(2, 6), d=st.integers(1, 6),
           sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4))
    @example(seed=0, C=3, d=2, sizes=[0, 0])
    @settings(max_examples=30, deadline=None)
    def test_padded_stack(self, seed, C, d, sizes):
        rng = np.random.default_rng(seed)
        models = [random_model(rng, C, d) for _ in sizes]
        stack = AdapterModel(np.stack([m.weights for m in models]),
                             np.stack([m.bias for m in models]))
        queries = [self.items(rng, m, C, d) for m in sizes]
        vecs, labels, weights, targets = (pad_items(list(a)) for a in zip(*queries))
        ce = weighted_cross_entropy(stack, vecs, labels, weights)
        kl = pseudo_label_loss(stack, vecs, targets, weights)
        for q, (model, (v, y, w, t)) in enumerate(zip(models, queries)):
            for (loss, grads), oracle, target in ((ce, weighted_ce_loop, y),
                                                  (kl, pseudo_kl_loop, t)):
                assert close_to_oracle(
                    loss[q], Gradients(grads.weights[q], grads.bias[q]),
                    oracle(model.weights, model.bias, v, target, w))


class TestTotalLoss:
    def build(self, rng, C=4, d=6):
        store = random_store(rng, C, d, images=C * 2, grid=2,
                             bank=make_bank(rng, C, d))
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        retrieved = retrieve_for_image(x, store, k=2)
        weights = np.abs(rng.random(C)) + 0.1
        pseudo = [(0, unit_rows(rng, 1, d)[0])]
        return store, assemble_batch(store, retrieved, weights, pseudo,
                                     store.text, CFG)

    def test_composition(self):
        rng = np.random.default_rng(6)
        store, batch = self.build(rng)
        model = random_model(rng, 4, 6)
        tot, (lv, lf, lp), _ = total_loss(model, batch, CFG)
        assert tot == pytest.approx(lv + CFG.beta_f * lf + CFG.beta_p * lp,
                                    abs=1e-9)
        assert lv > 0 and lf > 0 and lp > 0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        store, batch = self.build(rng, C=3, d=4)
        model = random_model(rng, 3, 4)
        _, _, grads = total_loss(model, batch, CFG)

        def loss_of(w, b):
            t, _, _ = total_loss(AdapterModel(w, b), batch, CFG)
            return t

        dw, db = fd_gradients(loss_of, model.weights, model.bias)
        assert max_relative_error(grads.weights, dw) < 1e-4
        assert max_relative_error(grads.bias, db) < 1e-4

    def test_groups_without_items_are_not_computed(self, monkeypatch):
        rng = np.random.default_rng(8)
        _, batch = self.build(rng)
        batch.pseudo_x, batch.pseudo_t, batch.pseudo_w = (
            np.zeros((0, 6)), np.zeros((0, 4)), np.zeros(0))
        model = random_model(rng, 4, 6)
        want_total, (want_lv, want_lf, _), want = total_loss(model, batch, CFG)

        class NoEmptyProducts:
            """numpy, but a matrix product over zero items fails: computing a
            group's logits, gradients or loss takes one."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, *args, **kwargs):
                if 0 in a.shape[-2:] + b.shape[-2:]:
                    raise AssertionError("a group without items was computed")
                return np.matmul(a, b, *args, **kwargs)
        monkeypatch.setattr("segtta.adapter.np", NoEmptyProducts())
        tot, (lv, lf, lp), grads = total_loss(model, batch, CFG)
        assert (tot, lv, lf, lp) == (want_total, want_lv, want_lf, 0.0)
        assert np.array_equal(grads.weights, want.weights)
        assert np.array_equal(grads.bias, want.bias)

    @staticmethod
    def composed(model, batch, config):
        """gv + beta_f * gf + beta_p * gp from the public group losses."""
        gv, gf, gp = (loss(model, x, y, w)[1] for loss, x, y, w in (
            (visual_support_loss, batch.visual_x, batch.visual_y, batch.visual_w),
            (fused_support_loss, batch.fused_x, batch.fused_y, batch.fused_w),
            (pseudo_label_loss, batch.pseudo_x, batch.pseudo_t, batch.pseudo_w)))
        return [a + config.beta_f * b + config.beta_p * c
                for a, b, c in ((gv.weights, gf.weights, gp.weights),
                                (gv.bias, gf.bias, gp.bias))]

    def test_three_padded_groups_compose_byte_for_byte(self):
        # one log-softmax over all the columns of a stack: a column of one
        # group leaking into another's reductions would move bits
        cfg = TrainConfig(steps=3, k=2)
        batch = _stack(TestFitBatches.padded_batches(cfg))
        rng = np.random.default_rng(40)
        model = AdapterModel(rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 5)))
        _, _, grads = total_loss(model, batch, cfg)
        weights, bias = self.composed(model, batch, cfg)
        assert grads.weights.tobytes() == weights.tobytes()
        assert grads.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("widths", [(1, 5, 3), (4, 1, 6), (3, 7, 1), (1, 1, 1)])
    @pytest.mark.parametrize("queries", [(), (2,)])
    def test_a_group_one_item_wide_composes_byte_for_byte(self, widths, queries):
        # a buffer one column wide sums its classes in another order than a
        # column of a wider one does
        rng = np.random.default_rng(41)
        C, d = 12, 5
        mv, mf, mp = widths
        batch = TrainingBatch(
            rng.standard_normal(queries + (mv, d)), rng.integers(0, C, queries + (mv,)),
            rng.random(queries + (mv,)) + 0.1,
            rng.standard_normal(queries + (mf, d)), rng.integers(0, C, queries + (mf,)),
            rng.random(queries + (mf,)) + 0.1,
            rng.standard_normal(queries + (mp, d)),
            softmax(3.0 * rng.standard_normal(queries + (mp, C)), 1.0),
            rng.random(queries + (mp,)) + 0.1, C)
        model = AdapterModel(3.0 * rng.standard_normal(queries + (C, d)),
                             rng.standard_normal(queries + (C,)))
        _, _, grads = total_loss(model, batch, CFG)
        weights, bias = self.composed(model, batch, CFG)
        assert grads.weights.tobytes() == weights.tobytes()
        assert grads.bias.tobytes() == bias.tobytes()


class TestProbeLayout:
    def test_constructor_copies_into_one_packed_array(self):
        rng = np.random.default_rng(39)
        w, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
        want_w, want_b = w.copy(), b.copy()
        model = AdapterModel(w, b)
        assert model.packed.shape == (3, 4 + 1) and model.packed.flags.c_contiguous
        assert model.packed.dtype == np.float64
        assert np.shares_memory(model.weights, model.packed)
        assert np.shares_memory(model.bias, model.packed)
        # row c is [w_c | b_c]: the bias is column d
        assert np.array_equal(model.packed, np.column_stack([want_w, want_b]))
        assert np.array_equal(model.packed[:, 4], want_b)
        w += 1.0
        b += 1.0
        assert np.array_equal(model.weights, want_w) and np.array_equal(model.bias, want_b)

    def test_stacked_probes_are_rows_of_one_array(self):
        rng = np.random.default_rng(42)
        w, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3))
        for cls in (AdapterModel, Gradients):
            model = cls(w, b)
            assert model.packed.shape == (2, 3, 5)
            assert np.array_equal(model.packed, np.concatenate([w, b[..., None]], axis=-1))
        state = AdamState(w, 2.0 * w, b, 2.0 * b)
        assert np.array_equal(state.v.packed, 2.0 * state.m.packed)

    @pytest.mark.parametrize("weights, bias", [
        ((3, 4), (5,)),      # bias of another C
        ((3, 4), (3, 1)),    # bias of two axes
        ((3, 4), ()),        # a scalar bias would broadcast
        ((3, 4), (4,)),      # bias as long as d
        ((4,), (4,)),        # weights of one axis
        ((), ()),
        ((2, 3, 4), (3,)),   # stacked weights, one probe's bias
        ((2, 3, 4), (2, 4)),
    ])
    @pytest.mark.parametrize("cls", [AdapterModel, Gradients])
    def test_weights_and_bias_of_other_shapes_are_rejected(self, cls, weights, bias):
        with pytest.raises(ShapeMismatch):
            cls(np.zeros(weights), np.zeros(bias))

    def test_adam_moments_of_other_shapes_are_rejected(self):
        w, b = np.zeros((3, 4)), np.zeros(3)
        with pytest.raises(ShapeMismatch):
            AdamState(w, w, b, np.zeros(5))
        with pytest.raises(ShapeMismatch):
            AdamState(w, np.zeros(4), b, b)


class TestAdamStep:
    def test_zero_gradient_is_noop(self):
        model = AdapterModel(np.ones((2, 3)), np.ones(2))
        state = AdamState.zeros(2, 3)
        adam_step(model, Gradients.zeros(2, 3), state, CFG, 0)
        assert np.array_equal(model.weights, np.ones((2, 3)))
        assert np.array_equal(model.bias, np.ones(2))

    def test_first_step_closed_form(self):
        g = 0.37
        model = AdapterModel(np.zeros((1, 1)), np.zeros(1))
        state = AdamState.zeros(1, 1)
        adam_step(model, Gradients(np.zeros((1, 1)), np.array([g])), state, CFG, 0)
        want = -CFG.learning_rate * g / (abs(g) + ADAM_EPSILON)
        assert model.bias[0] == pytest.approx(want, abs=1e-15)
        # epsilon placement variants coincide to fp noise at this scale
        variant = -CFG.learning_rate * g / (
            abs(g) + ADAM_EPSILON / math.sqrt(1.0 - ADAM_BETA2))
        assert model.bias[0] == pytest.approx(variant, abs=1e-6)

    def test_quadratic_convergence(self):
        # f(b) = 0.5*(b - 0.5)^2, minimized over the single bias parameter
        target = 0.5
        model = AdapterModel(np.zeros((1, 1)), np.zeros(1))
        state = AdamState.zeros(1, 1)
        losses = []
        for s in range(100):
            b = model.bias[0]
            losses.append(0.5 * (b - target) ** 2)
            g = Gradients(np.zeros((1, 1)), np.array([b - target]))
            adam_step(model, g, state, CFG, s)
        assert abs(model.bias[0] - target) < 1e-3
        descent = np.diff(losses[:30])
        assert (descent < 0).all()

    def test_nonfinite_gradient_rejected(self):
        model = AdapterModel.zeros(1, 2)
        state = AdamState.zeros(1, 2)
        bad = Gradients(np.array([[np.nan, 0.0]]), np.zeros(1))
        with pytest.raises(NonFiniteGradient):
            adam_step(model, bad, state, CFG, 0)


class TestPseudoFeatures:
    def test_empty_missing_set(self):
        rng = np.random.default_rng(8)
        bank = make_bank(rng, 3, 4)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        assert pseudo_visual_class_features(x, bank, 0.1, set()) == []

    def test_all_patches_one_class(self):
        bank = TextBank(np.eye(3, dtype=np.float32), np.ones(3, dtype=bool))
        rows = np.array([[0.9, 0.3, 0.0], [0.8, 0.0, 0.3]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        x = feature_map(rows, 1, 2)
        out = pseudo_visual_class_features(x, bank, 0.1, {0, 2})
        assert [c for c, _ in out] == [0]
        mean = rows.mean(axis=0)
        assert np.abs(out[0][1] - mean / np.linalg.norm(mean)).max() < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        bank = make_bank(rng, 5, 8)
        x = feature_map(unit_rows(rng, 12, 8), 3, 4)
        got = pseudo_visual_class_features(x, bank, 0.1, {1, 2, 4})
        want = pseudo_features_loop(x.data,
                                    bank.features.astype(np.float64), [1, 2, 4])
        assert [c for c, _ in got] == [c for c, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.abs(a - b).max() < 1e-9

    def test_tau_does_not_change_assignment(self):
        rng = np.random.default_rng(10)
        bank = make_bank(rng, 4, 6)
        x = feature_map(unit_rows(rng, 6, 6), 2, 3)
        a = pseudo_visual_class_features(x, bank, 0.1, {0, 1, 2, 3})
        b = pseudo_visual_class_features(x, bank, 7.0, {0, 1, 2, 3})
        assert [c for c, _ in a] == [c for c, _ in b]
        for (_, va), (_, vb) in zip(a, b):
            assert np.array_equal(va, vb)

    def test_fallback_bank_yields_nothing(self):
        bank = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        rng = np.random.default_rng(11)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        assert pseudo_visual_class_features(x, bank, 0.1, {0}) == []

    def test_out_of_range_class_rejected(self):
        rng = np.random.default_rng(12)
        no_text = TextBank(np.zeros((3, 4), np.float32), np.zeros(3, dtype=bool))
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        for bank in (make_bank(rng, 3, 4), no_text):
            for c in (5, -1):
                with pytest.raises(ValidationError):
                    pseudo_visual_class_features(x, bank, 0.1, {c})


def pseudo_target(vec, bank):
    """assemble_batch's pseudo target for one pseudo feature vec, on a store
    whose lambda grid (0.0,) makes vec itself the item."""
    store = SupportStore.empty(bank.num_classes, bank.dim, lambdas=(0.0,))
    batch = assemble_batch(store, RetrievedSet(store.entries), np.ones(bank.num_classes),
                           [(0, vec)], bank, CFG)
    assert batch.pseudo_x.tobytes() == np.asarray(vec, np.float64)[None].tobytes()
    return batch.pseudo_t[0]


class TestPseudoDistribution:
    def test_peaked_at_matching_orthonormal_row(self):
        bank = TextBank(np.eye(4, dtype=np.float32), np.ones(4, dtype=bool))
        p = pseudo_target(np.eye(4)[1], bank)
        want = softmax(np.eye(4)[1], 0.1)
        assert np.abs(p - want).max() < 1e-12
        assert p.argmax() == 1
        assert p[1] == pytest.approx(math.exp(10) / (math.exp(10) + 3), rel=1e-9)

    def test_uniform_when_dots_equal(self):
        feats = np.eye(3, dtype=np.float32)
        bank = TextBank(feats, np.ones(3, dtype=bool))
        v = np.ones(3) / math.sqrt(3.0)
        p = pseudo_target(v, bank)
        assert np.abs(p - 1 / 3).max() < 1e-12

    def test_single_class(self):
        bank = TextBank(np.array([[1.0, 0.0]], dtype=np.float32),
                        np.ones(1, dtype=bool))
        p = pseudo_target(np.array([0.0, 1.0]), bank)
        assert np.array_equal(p, [1.0])


class TestAssembleBatch:
    def test_group_sizes_full_support(self):
        rng = np.random.default_rng(13)
        C, d = 4, 6
        store = random_store(rng, C, d, images=8, grid=2,
                             bank=make_bank(rng, C, d))
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        retrieved = retrieve_for_image(x, store, k=2)
        w = np.ones(C)
        batch = assemble_batch(store, retrieved, w, [], store.text, CFG)
        assert len(batch.visual_y) == len(retrieved)
        assert len(batch.fused_y) == len(retrieved.classes) * len(DEFAULT_LAMBDAS)
        assert len(batch.pseudo_w) == 0
        assert not batch.is_empty

    def test_empty_retrieval_empties_two_groups(self):
        rng = np.random.default_rng(14)
        C, d = 3, 4
        store = random_store(rng, C, d, images=3, grid=2,
                             bank=make_bank(rng, C, d))
        pseudo = [(1, unit_rows(rng, 1, d)[0])]
        batch = assemble_batch(store, RetrievedSet(store.entries[:0]), np.ones(C),
                               pseudo, store.text, CFG)
        assert len(batch.visual_y) == 0 and len(batch.fused_y) == 0
        assert len(batch.pseudo_w) == len(DEFAULT_LAMBDAS)
        assert not batch.is_empty

    def test_items_match_direct_enumeration(self):
        rng = np.random.default_rng(15)
        C, d = 5, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=10, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        retrieved = retrieve_for_image(x, store, k=3)
        w = rng.random(C) + 0.1
        pseudo = [(2, unit_rows(rng, 1, d)[0]), (4, unit_rows(rng, 1, d)[0])]
        # a bank without real rows fuses on the pure-visual grid
        no_text = TextBank(np.zeros((C, d), np.float32), np.zeros(C, dtype=bool))
        for bank, lams in ((bank, DEFAULT_LAMBDAS), (no_text, (0.0,))):
            batch = assemble_batch(store, retrieved, w, pseudo, bank, CFG)

            want_visual = sorted((e.class_id, tuple(e.vector.astype(np.float64)))
                                 for e in retrieved.entries)
            got_visual = sorted(zip(batch.visual_y.tolist(),
                                    map(tuple, batch.visual_x)))
            assert got_visual == want_visual
            assert np.array_equal(batch.visual_w, w[batch.visual_y])

            i = 0
            for c in retrieved.classes:
                v = aggregate_class_feature(store, c)
                for lam in lams:
                    f = fuse(bank.features[c].astype(np.float64), v, lam)
                    assert batch.fused_y[i] == c
                    assert batch.fused_w[i] == w[c]
                    assert batch.fused_x[i].tobytes() == \
                        f.astype(np.float32).astype(np.float64).tobytes()
                    i += 1
            assert i == len(batch.fused_y)

            i = 0
            for c, pv in pseudo:
                for lam in lams:
                    f = fuse(bank.features[c].astype(np.float64), pv, lam)
                    assert batch.pseudo_x[i].tobytes() == f.tobytes()
                    assert batch.pseudo_t[i].tobytes() == pseudo_label_distribution(
                        f, bank.features, CFG.tau).tobytes()
                    assert batch.pseudo_w[i] == w[c]
                    i += 1
            assert i == len(batch.pseudo_w)

    def test_weight_shape_guard(self):
        rng = np.random.default_rng(16)
        store = random_store(rng, 3, 4, images=3, grid=2,
                             bank=make_bank(rng, 3, 4))
        with pytest.raises(ValidationError):
            assemble_batch(store, RetrievedSet(store.entries[:0]), np.ones(2), [],
                           store.text, CFG)


def two_cluster_world(rng, d=8, per_class=6, spread=0.05):
    """Two well-separated unit clusters around orthogonal anchors."""
    anchors = np.zeros((2, d))
    anchors[0, 0] = 1.0
    anchors[1, 1] = 1.0

    def sample(c, n):
        pts = anchors[c] + spread * rng.standard_normal((n, d))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)

    return anchors, sample


class TestTrainAdapter:
    def test_empty_store_no_missing_returns_sentinel(self):
        rng = np.random.default_rng(17)
        bank = make_bank(rng, 3, 4)
        store = SupportStore.empty(3, 4, text=bank)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        assert train_adapter(store, x, bank, unsupported=(), config=CFG) is None

    def test_separable_clusters_reach_full_accuracy(self):
        rng = np.random.default_rng(18)
        d = 8
        anchors, sample = two_cluster_world(rng, d)
        bank = TextBank(anchors.astype(np.float32), np.ones(2, dtype=bool))
        store = SupportStore.empty(2, d, text=bank)
        for c in range(2):
            for i in range(3):
                x = feature_map(sample(c, 4), 2, 2)
                add_support_image(store, x, LabelMask(
                    np.full((8, 8), c, dtype=np.int64), 2), f"{c}_{i}")
        held = np.vstack([sample(0, 16), sample(1, 16)])
        truth = np.repeat([0, 1], 16)
        query = feature_map(held[:16], 4, 4)
        cfg = TrainConfig(steps=200)
        model = train_adapter(store, query, bank, config=cfg)
        assert model is not None
        pred = model.probs(held).argmax(axis=1)
        assert (pred == truth).all()

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(19)
        C, d = 4, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=8, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        cfg = TrainConfig(steps=50)
        a = train_adapter(store, x, bank, config=cfg)
        b = train_adapter(store, x, bank, config=cfg)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_zero_model_predicts_uniform(self):
        model = AdapterModel.zeros(5, 3)
        rng = np.random.default_rng(20)
        p = model.probs(unit_rows(rng, 1, 3))[0]
        assert np.abs(p - 0.2).max() < 1e-12

    def test_history_one_record_per_step(self):
        rng = np.random.default_rng(21)
        C, d = 3, 4
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=3, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        hist = []
        cfg = TrainConfig(steps=25)
        train_adapter(store, x, bank, config=cfg, history=hist)
        assert [h.step for h in hist] == list(range(25))
        assert all(np.isfinite(h.total) for h in hist)

    def test_unsupported_classes_leave_retrieval(self):
        rng = np.random.default_rng(22)
        C, d = 3, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=6, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        cfg = TrainConfig(steps=5)
        model = train_adapter(store, x, bank, unsupported={0}, config=cfg)
        assert model is not None
        # class 0 only enters through the pseudo branch; its support entries
        # and fused rows must not appear among the CE items
        retrieved = retrieve_for_image(x, store, cfg.k)
        assert 0 in {e.class_id for e in retrieved.entries}
        kept = retrieved.entries[retrieved.entries.class_id != 0]
        batch = assemble_batch(store, RetrievedSet(kept), np.ones(C), [], bank, cfg)
        assert 0 not in set(batch.visual_y.tolist())
        assert 0 not in set(batch.fused_y.tolist())

    @pytest.mark.parametrize("bad", [["a"], ["1"], [1.5], [np.float64(1.0)], [True], 1])
    def test_unsupported_classes_must_be_integer_ids(self, bad):
        rng = np.random.default_rng(26)
        C, d = 3, 6
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=3, grid=2, bank=bank)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        cfg = TrainConfig(steps=3)
        want = train_adapter(store, x, bank, unsupported={1}, config=cfg)
        assert same_probe(train_adapter(store, x, bank, unsupported=np.array([1]),
                                        config=cfg), want)
        with pytest.raises(ValidationError):
            segment(store, x, bank, unsupported=bad, config=cfg)
        with pytest.raises(ValidationError):
            pseudo_visual_class_features(x, bank, cfg.tau, bad)

    def test_store_is_only_read(self):
        rng = np.random.default_rng(23)
        C, d = 3, 6
        bank = make_bank(rng, C, d)
        other = make_bank(rng, C, d, absent=(1,))
        store = random_store(rng, C, d, images=6, grid=2, bank=bank)
        before = copy.deepcopy(store)
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        segment(store, x, other, config=TrainConfig(steps=5))
        assert store.text is bank
        assert stores_equal(store, before, exact=True)

    def test_fused_rows_come_from_the_passed_bank(self):
        rng = np.random.default_rng(24)
        C, d = 3, 6
        store = random_store(rng, C, d, images=6, grid=2, bank=make_bank(rng, C, d))
        x = feature_map(unit_rows(rng, 4, d), 2, 2)
        retrieved = retrieve_for_image(x, store, CFG.k)
        other = make_bank(rng, C, d)
        batch = assemble_batch(store, retrieved, np.ones(C), [], other, CFG)
        want = np.concatenate([fused_rows(store, other, [c]) for c in retrieved.classes])
        assert batch.fused_x.tobytes() == want.astype(np.float64).tobytes()
        # a bank without real rows fuses on the pure-visual grid: one row per class
        no_text = TextBank(np.zeros((C, d), np.float32), np.zeros(C, dtype=bool))
        batch = assemble_batch(store, retrieved, np.ones(C), [], no_text, CFG)
        assert batch.fused_y.tolist() == list(retrieved.classes)

    def test_bank_shape_must_match_store(self):
        rng = np.random.default_rng(25)
        store = random_store(rng, 3, 4, images=3, grid=2)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        with pytest.raises(DimensionMismatch):
            train_adapter(store, x, make_bank(rng, 4, 4), config=CFG)
        with pytest.raises(DimensionMismatch):
            train_adapter(store, x, make_bank(rng, 3, 5), config=CFG)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(steps=0)
        with pytest.raises(ValidationError):
            TrainConfig(tau=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(beta_p=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "tau", "beta_f", "beta_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValidationError):
            TrainConfig(k=k)

    @pytest.mark.parametrize("field, value", [
        ("steps", 3.5), ("k", 2.5), ("k", np.float64(2.0)), ("steps", True),
        ("k", False), ("steps", "7")])
    def test_non_integer_steps_and_k_rejected(self, field, value):
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "tau", "beta_f", "beta_p"])
    @pytest.mark.parametrize("value", ["0.1", None, True, 0.5j])
    def test_non_real_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    def test_numpy_integer_steps_and_k_accepted(self):
        rng = np.random.default_rng(32)
        store = random_store(rng, 3, 4, images=3, grid=2)
        x = feature_map(unit_rows(rng, 4, 4), 2, 2)
        bank = make_bank(rng, 3, 4)
        got = train_adapter(store, x, bank, config=TrainConfig(steps=np.int64(5),
                                                               k=np.int32(2)))
        assert same_probe(got, train_adapter(store, x, bank,
                                             config=TrainConfig(steps=5, k=2)))


def near_text_rows(rng, bank, c, n):
    """n patch rows whose text argmax is class c (noise only for a fallback
    bank's zero rows)."""
    return bank.features[c] + 0.05 * rng.standard_normal((n, bank.dim))


def same_probe(got, want) -> bool:
    """Bit for bit, or within 1e-12 where padding moved a BLAS sum."""
    return all(a.shape == b.shape and (a.tobytes() == b.tobytes()
                                       or np.abs(a - b).max() <= 1e-12)
               for a, b in ((got.weights, want.weights), (got.bias, want.bias)))


class TestTrainAdapters:
    """One Adam loop over stacked probes, fit_batches over query_batches,
    gives each query the probe that train_adapter fits for it alone."""

    @given(seed=st.integers(0, 2 ** 31 - 1), C=st.integers(2, 5), d=st.integers(2, 8),
           images=st.integers(0, 8), unsupported=st.sets(st.integers(0, 4)),
           fallback=st.booleans(),
           queries=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                                      st.none() | st.integers(0, 4)),
                            min_size=1, max_size=5))
    @example(seed=0, C=3, d=4, images=1, unsupported={0}, fallback=False,
             queries=[(2, 2, 1), (2, 2, 0), (1, 2, None)])
    # visual groups of unequal widths, so one is padded: a bias gradient
    # that sums to exactly 0 alone must sum to 0 padded, or Adam moves the
    # probes ~4e-10 apart
    @example(seed=55678, C=3, d=7, images=8, unsupported=set(), fallback=True,
             queries=[(1, 2, None), (1, 2, None)])
    @settings(max_examples=40, deadline=None)
    def test_each_probe_is_its_own_fit(self, seed, C, d, images, unsupported,
                                       fallback, queries):
        rng = np.random.default_rng(seed)
        bank = make_bank(rng, C, d, absent=range(C) if fallback else ())
        store = random_store(rng, C, d, images=images, grid=2)
        unsupported = {c for c in unsupported if c < C}
        xs = [feature_map(unit_rows(rng, h * w, d) if near is None
                          else near_text_rows(rng, bank, near % C, h * w), h, w)
              for h, w, near in queries]
        cfg = TrainConfig(steps=30)
        models = fit_batches(query_batches(store, xs, bank, unsupported, cfg), cfg)
        assert len(models) == len(xs)
        for x, got in zip(xs, models):
            want = train_adapter(store, x, bank, unsupported, cfg)
            assert (got is None) == (want is None)
            assert want is None or same_probe(got, want)

    def test_query_without_items_beside_trained_ones(self):
        # the store holds only class 0, which is unsupported: a query whose
        # patches all point at class 1 has no item, one at class 0 gets
        # pseudo items, one with mixed patches gets some
        rng = np.random.default_rng(26)
        C, d = 3, 4
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=1, grid=2)
        xs = [feature_map(near_text_rows(rng, bank, 1, 4), 2, 2),
              feature_map(near_text_rows(rng, bank, 0, 4), 2, 2),
              feature_map(np.vstack([near_text_rows(rng, bank, 0, 3),
                                     near_text_rows(rng, bank, 2, 3)]), 2, 3)]
        cfg = TrainConfig(steps=30)
        hist = []
        models = fit_batches(query_batches(store, xs, bank, {0}, cfg), cfg, history=hist)
        assert models[0] is None and models[1] is not None and models[2] is not None
        assert [h.step for h in hist] == list(range(cfg.steps))
        assert all(h.total.shape == (2,) for h in hist)
        for x, got in zip(xs[1:], models[1:]):
            assert same_probe(got, train_adapter(store, x, bank, {0}, cfg))

    @pytest.mark.parametrize("images, unsupported, empty", [
        (4, (), "pseudo"),            # every class has support: no pseudo items
        (0, (0, 1, 2), "visual"),     # empty store: no visual or fused items
    ])
    def test_a_group_without_items_in_every_query(self, images, unsupported, empty):
        rng = np.random.default_rng(28)
        C, d = 3, 4
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=images, grid=2)
        xs = [feature_map(np.vstack([near_text_rows(rng, bank, c, 2),
                                     unit_rows(rng, 2 * n, d)]), 2, n + 1)
              for c, n in ((0, 1), (1, 2), (2, 1))]
        cfg = TrainConfig(steps=30)
        hist = []
        models = fit_batches(query_batches(store, xs, bank, unsupported, cfg), cfg,
                             history=hist)
        assert all(np.array_equal(getattr(h, empty), np.zeros(len(xs))) for h in hist)
        assert all(np.all(h.total > 0) for h in hist)
        for x, got in zip(xs, models):
            assert got is not None
            assert same_probe(got, train_adapter(store, x, bank, unsupported, cfg))

    def test_no_queries(self):
        rng = np.random.default_rng(27)
        store = random_store(rng, 3, 4, images=3, grid=2)
        assert fit_batches(query_batches(store, [], make_bank(rng, 3, 4))) == []


def near_probe(got, want, config) -> bool:
    """same_probe, or as near as Adam lets a padded sum's rounding drift.

    Where one fit sums a gradient component to exactly 0 and the padded fit
    to a few ulp (classes that balance at the zero init, as a fallback
    bank's uniform weights can), Adam moves that parameter by about
    lr * g / eps per step instead of 0. Bound: |g| <= 1e-14 on every step."""
    bound = config.steps * config.learning_rate * 1e-14 / ADAM_EPSILON
    return same_probe(got, want) or all(
        a.shape == b.shape and np.abs(a - b).max() <= bound
        for a, b in ((got.weights, want.weights), (got.bias, want.bias)))


class TestFitBatches:
    """Batches of several stores and banks fitted in one Adam loop: each
    probe is, up to rounding, the one train_adapter fits for its query,
    store and bank."""

    @given(seed=st.integers(0, 2 ** 31 - 1), C=st.integers(2, 5), d=st.integers(2, 8),
           images=st.integers(0, 6), unsupported=st.sets(st.integers(0, 4)),
           queries=st.integers(1, 4))
    @example(seed=0, C=3, d=4, images=2, unsupported={1}, queries=3)
    # the fallback probe's bias gradient is exactly 0 for one class at the
    # zero init when fitted alone, ~1.7e-16 when padded: the probes end
    # ~5e-10 apart
    @example(seed=0, C=5, d=3, images=5, unsupported=set(), queries=1)
    @settings(max_examples=25, deadline=None)
    def test_real_and_fallback_banks_in_one_fit(self, seed, C, d, images, unsupported,
                                                queries):
        rng = np.random.default_rng(seed)
        bank = make_bank(rng, C, d)
        fallback = make_bank(rng, C, d, absent=range(C))
        store = random_store(rng, C, d, images=images, grid=2)
        unsupported = {c for c in unsupported if c < C}
        xs = [feature_map(near_text_rows(rng, bank, q % C, 4), 2, 2)
              for q in range(queries)]
        cfg = TrainConfig(steps=30)
        pairs = [(store, bank), (store, fallback)]
        models = fit_batches([b for s, k in pairs
                              for b in query_batches(s, xs, k, unsupported, cfg)], cfg)
        assert len(models) == 2 * len(xs)
        for (s, k), got_models in zip(pairs, (models[:queries], models[queries:])):
            for x, got in zip(xs, got_models):
                want = train_adapter(s, x, k, unsupported, cfg)
                assert (got is None) == (want is None)
                assert want is None or near_probe(got, want, cfg)

    def test_history_covers_the_trained_batches(self):
        rng = np.random.default_rng(29)
        C, d = 3, 4
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=0, grid=2)
        xs = [feature_map(near_text_rows(rng, bank, c, 4), 2, 2) for c in range(C)]
        cfg = TrainConfig(steps=5)
        no_text = make_bank(rng, C, d, absent=range(C))
        # on an empty store, a real bank gives pseudo items and a fallback
        # bank nothing at all
        batches = (query_batches(store, xs, bank, range(C), cfg)
                   + query_batches(store, xs, no_text, range(C), cfg))
        hist = []
        models = fit_batches(batches, cfg, history=hist)
        assert [m is None for m in models] == [False] * C + [True] * C
        assert len(hist) == cfg.steps and all(h.total.shape == (C,) for h in hist)

    @staticmethod
    def padded_batches(cfg):
        """Three queries with visual, fused and pseudo items, each group of
        unequal widths across them, so that every group is padded."""
        rng = np.random.default_rng(38)
        C, d = 5, 4
        bank = make_bank(rng, C, d)
        store = random_store(rng, C, d, images=10, grid=2)
        xs = [feature_map(np.vstack([near_text_rows(rng, bank, c, 2) for c in near]),
                          2, len(near))
              for near in ((0, 2), (0, 1, 3), (1, 2, 3, 4))]
        batches = query_batches(store, xs, bank, {0, 1}, cfg)
        for group in ("visual_w", "fused_w", "pseudo_w"):
            widths = [getattr(b, group).size for b in batches]
            assert min(widths) > 0 and len(set(widths)) > 1, (group, widths)
        return batches

    def test_packed_loop_is_the_public_arithmetic(self):
        cfg = TrainConfig(steps=25, k=2)
        batches = self.padded_batches(cfg)
        got = fit_batches(batches, cfg)
        # the same fit by a loop of public total_loss and adam_step, which
        # build new buffers and gradients on every step
        batch = _stack(batches)
        Q, C, d = len(batches), batch.num_classes, batch.visual_x.shape[-1]
        model = AdapterModel(np.zeros((Q, C, d)), np.zeros((Q, C)))
        state = AdamState(np.zeros((Q, C, d)), np.zeros((Q, C, d)), np.zeros((Q, C)),
                          np.zeros((Q, C)))
        for s in range(cfg.steps):
            _, _, grads = total_loss(model, batch, cfg)
            adam_step(model, grads, state, cfg, s)
        # and a fit that computes its losses for a history
        recorded = fit_batches(batches, cfg, history=[])
        for q, (probe, again) in enumerate(zip(got, recorded)):
            assert probe.weights.tobytes() == model.weights[q].tobytes()
            assert probe.bias.tobytes() == model.bias[q].tobytes()
            assert again.packed.tobytes() == probe.packed.tobytes()

    def test_losses_only_for_a_history(self, monkeypatch):
        cfg = TrainConfig(steps=4, k=2)
        batches = self.padded_batches(cfg)
        want = fit_batches(batches, cfg, history=[])

        def not_called(*args):
            raise AssertionError("a loss was computed without a history")
        monkeypatch.setattr("segtta.adapter._dot", not_called)
        for probe, again in zip(want, fit_batches(batches, cfg)):
            assert again.packed.tobytes() == probe.packed.tobytes()
        with pytest.raises(AssertionError):
            fit_batches(batches, cfg, history=[])

    def test_one_exp_per_step_and_log_only_over_the_sum_row(self, monkeypatch):
        cfg = TrainConfig(steps=4, k=2)
        batches = self.padded_batches(cfg)
        batch = _stack(batches)
        Q, C = len(batches), batch.num_classes
        mp = batch.pseudo_w.shape[-1]
        M = batch.visual_w.shape[-1] + batch.fused_w.shape[-1] + mp
        calls = {"exp": [], "log": []}

        class Counting:
            """numpy, but exp and log record the shape of each input."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(a, *args, **kwargs):
                calls["exp"].append(a.shape)
                return np.exp(a, *args, **kwargs)

            @staticmethod
            def log(a, *args, **kwargs):
                calls["log"].append(a.shape)
                return np.log(a, *args, **kwargs)
        monkeypatch.setattr("segtta.adapter.np", Counting())
        fit_batches(batches, cfg)
        assert calls == {"exp": [(C, Q, M)] * cfg.steps, "log": []}
        calls["exp"].clear()
        fit_batches(batches, cfg, history=[])
        # the pseudo targets' entropy once per fit, then each step's sum row
        assert calls == {"exp": [(C, Q, M)] * cfg.steps,
                         "log": [(Q, mp, C)] + [(1, Q, M)] * cfg.steps}

    def test_probes_are_c_contiguous(self):
        # each probe is its own (C, d + 1) copy of its row of the stack, not
        # a view that keeps the whole stack alive
        cfg = TrainConfig(steps=3, k=2)
        batches = self.padded_batches(cfg)
        probes = fit_batches(batches, cfg)
        for probe in probes:
            assert probe.packed.shape == (5, 4 + 1) and probe.packed.flags.c_contiguous
            assert probe.packed.flags.owndata
            assert probe.weights.shape == (5, 4) and probe.bias.shape == (5,)
            assert np.shares_memory(probe.weights, probe.packed)
            assert np.shares_memory(probe.bias, probe.packed)
            assert np.array_equal(probe.packed[:, 4], probe.bias)
        assert not any(np.shares_memory(a.packed, b.packed)
                       for a, b in zip(probes, probes[1:]))

    def test_batches_of_other_sizes_are_rejected(self):
        rng = np.random.default_rng(30)
        batches = []
        for C, d in ((3, 4), (3, 5)):
            bank = make_bank(rng, C, d)
            store = random_store(rng, C, d, images=2, grid=2)
            batches += query_batches(store, [feature_map(unit_rows(rng, 4, d), 2, 2)],
                                     bank, (), CFG)
        with pytest.raises(ValidationError):
            fit_batches(batches, TrainConfig(steps=2))

    def test_groups_that_disagree_within_a_batch_are_rejected(self):
        # padded as they were, such batches broadcast or misalign their rows
        cfg = TrainConfig(steps=2, k=2)
        a, b = self.padded_batches(cfg)[:2]
        short_w = replace(a, visual_w=a.visual_w[:-1])
        short_x = replace(a, visual_x=a.visual_x[:-1], visual_y=a.visual_y[:-1])
        with pytest.raises(ShapeMismatch):
            fit_batches([short_w, short_x], cfg)
        with pytest.raises(DimensionMismatch):
            fit_batches([a, replace(b, fused_x=b.fused_x[:, :1])], cfg)


# whether fits may use a second thread here: not under `taskset -c 0`
TWO_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) >= 2


def random_batch(rng, C, d, widths):
    """A one-query TrainingBatch of unit items, with mv, mf and mp items."""
    mv, mf, mp = widths
    return TrainingBatch(
        unit_rows(rng, mv, d), rng.integers(0, C, mv), rng.random(mv) + 0.1,
        unit_rows(rng, mf, d), rng.integers(0, C, mf), rng.random(mf) + 0.1,
        unit_rows(rng, mp, d), softmax(3.0 * rng.standard_normal((mp, C)), 1.0),
        rng.random(mp) + 0.1, C)


@pytest.fixture
def lanes(monkeypatch):
    """Every fit qualifies for a second thread by size (LANE_MIN_TERMS 0);
    the list of the _Lanes that fits start."""
    started = []

    class Counted(adapter._Lane):
        def __init__(self):
            super().__init__()
            started.append(self)
    monkeypatch.setattr(adapter, "_Lane", Counted)
    monkeypatch.setattr(adapter, "LANE_MIN_TERMS", 0)
    return started


class TestLane:
    """A fit large enough, without a history, runs its widest group and half
    of Adam's class rows on a second thread when the process may use two
    CPUs; its probes are the bits of the serial fit. CI runs this class a
    second time under `taskset -c 0`, where every fit stays serial. C is 12
    where a group is one item wide: numpy sums 8 or more classes of a
    contiguous column pairwise, fewer in row order."""

    CFG = TrainConfig(steps=12, learning_rate=0.05)

    def serial_and_lane(self, lanes, batches, config=CFG):
        with pytest.MonkeyPatch.context() as serial:
            serial.setattr(adapter, "LANE_MIN_TERMS", math.inf)
            want = fit_batches(batches, config)
        assert lanes == []
        got = fit_batches(batches, config)
        assert len(lanes) == TWO_CPUS
        assert all(not lane._thread.is_alive() for lane in lanes)
        return got, want

    @pytest.mark.parametrize("widths", [
        (6, 11, 0), (9, 4, 0), (0, 5, 7),                 # two groups
        (5, 9, 4), (8, 3, 6), (3, 4, 12),                 # three, each the widest
        (1, 7, 3), (6, 1, 0), (4, 5, 1), (1, 1, 0), (1, 1, 1),   # a group one item wide
    ])
    def test_one_query_fits_the_serial_bits(self, lanes, widths):
        rng = np.random.default_rng(sum(widths))
        got, want = self.serial_and_lane(lanes, [random_batch(rng, 12, 5, widths)])
        assert got[0].packed.tobytes() == want[0].packed.tobytes()

    @pytest.mark.parametrize("widths", [
        [(6, 11, 0), (3, 14, 0), (8, 2, 0)],
        [(5, 9, 4), (7, 2, 0), (0, 6, 9)],
        [(1, 6, 2), (1, 3, 5)],
        [(4, 1, 1), (2, 1, 1), (0, 1, 0)],
    ])
    def test_a_stack_fits_the_serial_bits(self, lanes, widths):
        rng = np.random.default_rng(len(widths))
        batches = [random_batch(rng, 12, 4, w) for w in widths]
        got, want = self.serial_and_lane(lanes, batches)
        for a, b in zip(got, want):
            assert a.packed.tobytes() == b.packed.tobytes()

    def test_pipeline_batches_fit_the_serial_bits(self, lanes):
        cfg = TrainConfig(steps=25, k=2)
        got, want = self.serial_and_lane(lanes, TestFitBatches.padded_batches(cfg), cfg)
        for a, b in zip(got, want):
            assert a.packed.tobytes() == b.packed.tobytes()

    def test_concurrent_fits_under_a_short_switch_interval(self, lanes):
        # four callers, each with its lane, on two CPUs, switching threads
        # every microsecond: a column written by the wrong thread, or a
        # step that read a buffer before its lane finished, moves bits
        rng = np.random.default_rng(8)
        batches = [[random_batch(rng, 6, 4, w)] for w in
                   ((5, 9, 4), (8, 3, 6), (1, 7, 3), (6, 11, 0))]
        with pytest.MonkeyPatch.context() as serial:
            serial.setattr(adapter, "LANE_MIN_TERMS", math.inf)
            want = [fit_batches(b, self.CFG)[0].packed.tobytes() for b in batches]
        got = [None] * len(batches)

        def fit(i):
            got[i] = fit_batches(batches[i], self.CFG)[0].packed.tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=fit, args=(i,)) for i in range(len(batches))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want
        assert len(lanes) == len(batches) * TWO_CPUS

    def test_one_group_or_a_history_stays_serial(self, lanes):
        rng = np.random.default_rng(3)
        fit_batches([random_batch(rng, 5, 4, (0, 9, 0))], self.CFG)
        history = []
        fit_batches([random_batch(rng, 5, 4, (4, 9, 3))], self.CFG, history)
        assert lanes == [] and len(history) == self.CFG.steps

    def test_one_cpu_starts_no_thread(self, lanes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        before = threading.active_count()
        rng = np.random.default_rng(4)
        fit_batches([random_batch(rng, 5, 4, (4, 9, 3))], self.CFG)
        assert lanes == [] and threading.active_count() == before

    def test_an_error_in_the_lane_reaches_the_caller(self, lanes):
        error = RuntimeError("raised on the second thread")
        chains = adapter._chains

        def failing(model, groups, betas):
            if threading.current_thread() is not threading.main_thread():
                raise error
            chains(model, groups, betas)
        rng = np.random.default_rng(5)
        batches = [random_batch(rng, 5, 4, (4, 9, 3))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adapter, "_chains", failing)
            if TWO_CPUS:
                with pytest.raises(RuntimeError) as raised:
                    fit_batches(batches, self.CFG)
                assert raised.value is error
            else:
                fit_batches(batches, self.CFG)
        assert all(not lane._thread.is_alive() for lane in lanes)
        # the next fit starts a lane of its own, and fits the serial bits
        lanes.clear()
        got, want = self.serial_and_lane(lanes, batches)
        assert got[0].packed.tobytes() == want[0].packed.tobytes()

    def test_the_lane_runs_in_the_callers_errstate(self):
        lane = adapter._Lane()
        seen, here = [], []
        error = ValueError("raised on the second thread")

        def fail():
            raise error
        try:
            with np.errstate(over="raise", under="ignore"):
                lane.run(lambda: seen.append(np.geterr()), lambda: None)
            with pytest.raises(ValueError) as raised:
                lane.run(fail, lambda: here.append(1))
            assert raised.value is error and here == [1]
        finally:
            lane.close()
        assert seen[0]["over"] == "raise" and seen[0]["under"] == "ignore"
        assert not lane._thread.is_alive()

    def test_overflow_in_a_lane_fit_is_a_nonfinite_gradient(self, lanes):
        # nine equal fused items of norm 1e308 and label 0: at the zero init
        # their class-0 gradients sum to -7.2e308, so the gradient GEMM of
        # the widest group, on the second thread, overflows
        rng = np.random.default_rng(6)
        batch = replace(random_batch(rng, 5, 4, (3, 9, 2)),
                        fused_x=np.tile([1e308, 0.0, 0.0, 0.0], (9, 1)),
                        fused_y=np.zeros(9, np.int64), fused_w=np.ones(9))
        with pytest.raises(NonFiniteGradient):
            fit_batches([batch], self.CFG)
        assert len(lanes) == TWO_CPUS

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_a_forked_child_fits_again(self, lanes):
        rng = np.random.default_rng(7)
        batches = [random_batch(rng, 5, 4, (4, 9, 3))]
        (want,) = fit_batches(batches, self.CFG)
        pid = os.fork()
        if pid == 0:   # the child: fit again, and leave without pytest's teardown
            code = 1
            try:
                (got,) = fit_batches(batches, self.CFG)
                code = 0 if got.packed.tobytes() == want.packed.tobytes() else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's fit hung")
        assert os.waitstatus_to_exitcode(status) == 0
        assert len(lanes) == TWO_CPUS
