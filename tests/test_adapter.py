import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.adapter import (
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    AdapterModel,
    Gradients,
    TrainConfig,
    adam_step,
    assemble_batch,
    fused_support_loss,
    pseudo_label_distribution,
    pseudo_label_loss,
    pseudo_visual_class_features,
    total_loss,
    train_adapter,
    visual_support_loss,
    weighted_cross_entropy,
)
from segtta.errors import DimensionMismatch, NonFiniteGradient, ValidationError
from segtta.inference import segment
from segtta.numerics import LabelMask, softmax
from segtta.retrieval import retrieve_for_image
from segtta.support import (
    DEFAULT_LAMBDAS,
    SupportStore,
    TextBank,
    add_support_image,
    aggregate_class_feature,
    attach_text,
    fuse,
    fused_rows,
    substitute_missing_text,
)

from conftest import feature_map, make_bank, random_store, stores_equal, unit_rows
from oracles import fd_gradients, max_relative_error, pseudo_features_loop

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


class TestPseudoDistribution:
    def test_peaked_at_matching_orthonormal_row(self):
        bank = TextBank(np.eye(4, dtype=np.float32), np.ones(4, dtype=bool))
        p = pseudo_label_distribution(np.eye(4)[1], bank, 0.1)
        want = softmax(np.eye(4)[1], 0.1)
        assert np.abs(p - want).max() < 1e-12
        assert p.argmax() == 1
        assert p[1] == pytest.approx(math.exp(10) / (math.exp(10) + 3), rel=1e-9)

    def test_uniform_when_dots_equal(self):
        feats = np.eye(3, dtype=np.float32)
        bank = TextBank(feats, np.ones(3, dtype=bool))
        v = np.ones(3) / math.sqrt(3.0)
        p = pseudo_label_distribution(v, bank, 0.1)
        assert np.abs(p - 1 / 3).max() < 1e-12

    def test_single_class(self):
        bank = TextBank(np.array([[1.0, 0.0]], dtype=np.float32),
                        np.ones(1, dtype=bool))
        p = pseudo_label_distribution(np.array([0.0, 1.0]), bank, 0.1)
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
        from segtta.retrieval import RetrievedSet
        pseudo = [(1, unit_rows(rng, 1, d)[0])]
        batch = assemble_batch(store, RetrievedSet(store.entries[:0], ()), np.ones(C),
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
        no_text = TextBank(np.zeros((C, d), np.float32), np.zeros(C, dtype=bool),
                           materialized=True)
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
                    assert batch.pseudo_t[i].tobytes() == \
                        pseudo_label_distribution(f, bank, CFG.tau).tobytes()
                    assert batch.pseudo_w[i] == w[c]
                    i += 1
            assert i == len(batch.pseudo_w)

    def test_weight_shape_guard(self):
        rng = np.random.default_rng(16)
        store = random_store(rng, 3, 4, images=3, grid=2,
                             bank=make_bank(rng, 3, 4))
        from segtta.retrieval import RetrievedSet
        with pytest.raises(ValidationError):
            assemble_batch(store, RetrievedSet(store.entries[:0], ()), np.ones(2), [],
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
        from segtta.retrieval import RetrievedSet
        kept = retrieved.entries[retrieved.entries.class_id != 0]
        batch = assemble_batch(
            store, RetrievedSet(kept, tuple(sorted({int(e.class_id) for e in kept}))),
            np.ones(C), [], bank, cfg)
        assert 0 not in set(batch.visual_y.tolist())
        assert 0 not in set(batch.fused_y.tolist())

    def test_store_is_only_read(self):
        rng = np.random.default_rng(23)
        C, d = 3, 6
        bank = make_bank(rng, C, d)
        other = substitute_missing_text(make_bank(rng, C, d, absent=(1,)))
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
        want = np.concatenate([fused_rows(store, other, c) for c in retrieved.classes])
        assert batch.fused_x.tobytes() == want.astype(np.float64).tobytes()
        # a bank without real rows fuses on the pure-visual grid: one row per class
        no_text = TextBank(np.zeros((C, d), np.float32), np.zeros(C, dtype=bool),
                           materialized=True)
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
