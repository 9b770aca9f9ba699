import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import segtta
from segtta.adapter import TrainConfig
from segtta.errors import InfeasibleSeparation, ShapeMismatch, ValidationError
from segtta.harness import (
    SynthConfig,
    _bank_with_text_drops,
    _no_text_bank,
    build_store,
    compute_miou,
    evaluate_queries,
    evaluate_zero_shot,
    generate_world,
    run_sweep,
    select_support,
)
from segtta.inference import segment
from segtta.numerics import IGNORE_INDEX, LabelMask
from segtta.support import TextBank

from oracles import miou_loop

FAST = TrainConfig(steps=40)


def small_cfg(**kw):
    base = dict(seed=0, num_classes=3, dim=8, grid_h=4, grid_w=4,
                images_per_class=3, query_images=2, cell_pixels=4)
    base.update(kw)
    return SynthConfig(**base)


@pytest.fixture
def no_cooccurrence(monkeypatch):
    """Worlds whose support images each show one class."""
    monkeypatch.setattr(segtta.harness, "CO_OCCUR", 0.0)


class TestComputeMiou:
    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 1]])
        rep = compute_miou([gt], [gt], 3)
        assert rep.mean_iou == 1.0
        assert np.allclose(rep.per_class_iou, 1.0)

    def test_disjoint_single_class_maps(self):
        pred = np.zeros((2, 2), dtype=np.int64)
        gt = np.ones((2, 2), dtype=np.int64)
        rep = compute_miou([pred], [gt], 2)
        assert rep.mean_iou == 0.0

    def test_hand_counted_confusion(self):
        # class 0: TP=4 FP=2 FN=2 -> 0.5; class 1: TP=6 FP=2 FN=2 -> 0.6
        gt = np.array([0] * 6 + [1] * 8 + [IGNORE_INDEX] * 2).reshape(4, 4)
        pred = np.array([0] * 4 + [1] * 2 + [1] * 6 + [0] * 2 + [0, 1]).reshape(4, 4)
        rep = compute_miou([pred], [gt], 2)
        assert rep.per_class_iou[0] == pytest.approx(0.5)
        assert rep.per_class_iou[1] == pytest.approx(0.6)
        assert rep.mean_iou == pytest.approx(0.55)

    def test_ignore_pixels_never_count(self):
        gt = np.array([[0, IGNORE_INDEX], [1, IGNORE_INDEX]])
        pred = np.array([[0, 1], [1, 0]])  # wrong only at ignore pixels
        assert compute_miou([pred], [gt], 2).mean_iou == 1.0

    def test_absent_classes_out_of_mean(self):
        gt = np.zeros((2, 2), dtype=np.int64)
        rep = compute_miou([gt], [gt], 5)
        assert rep.evaluated.tolist() == [True, False, False, False, False]
        assert np.isnan(rep.per_class_iou[1:]).all()
        assert rep.mean_iou == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        preds, gts = [], []
        for _ in range(4):
            gts.append(rng.integers(0, 4, size=(6, 5)).astype(np.int64))
            preds.append(rng.integers(0, 4, size=(6, 5)).astype(np.int64))
            gts[-1][rng.random((6, 5)) < 0.1] = IGNORE_INDEX
        rep = compute_miou(preds, gts, 4)
        ious, mean = miou_loop(preds, gts, 4, IGNORE_INDEX)
        assert rep.mean_iou == pytest.approx(mean, abs=1e-12)
        for c, v in ious.items():
            assert rep.per_class_iou[c] == pytest.approx(v, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        gts = [rng.integers(0, 3, size=(4, 4)).astype(np.int64) for _ in range(5)]
        preds = [rng.integers(0, 3, size=(4, 4)).astype(np.int64) for _ in range(5)]
        a = compute_miou(preds, gts, 3).mean_iou
        order = rng.permutation(5)
        b = compute_miou([preds[i] for i in order], [gts[i] for i in order], 3).mean_iou
        assert a == b

    def test_mean_is_mean_of_evaluated(self):
        rng = np.random.default_rng(2)
        gt = rng.integers(0, 4, size=(8, 8)).astype(np.int64)
        pred = rng.integers(0, 4, size=(8, 8)).astype(np.int64)
        rep = compute_miou([pred], [gt], 6)
        assert rep.mean_iou == pytest.approx(
            rep.per_class_iou[rep.evaluated].mean(), abs=1e-9)

    def test_guards(self):
        with pytest.raises(ShapeMismatch):
            compute_miou([np.zeros((2, 2), np.int64)], [np.zeros((2, 3), np.int64)], 2)
        with pytest.raises(ValidationError):
            compute_miou([np.full((2, 2), 9, np.int64)],
                         [np.zeros((2, 2), np.int64)], 2)

    @pytest.mark.parametrize("pred, gt", [
        ([[-1, 1]], [[1, 1]]),                   # was counted as class 2
        ([[0.7, 1.0]], [[0, 1]]),                # was cut to label 0
        ([[0, 1]], [[0.0, 1.0]]),
        ([[0, 1]], [[-2, 1]]),                   # numpy's ValueError escaped
        ([[0, 3]], [[0, 1]]),
    ])
    def test_labels_must_be_integers_in_range(self, pred, gt):
        with pytest.raises(ValidationError):
            compute_miou([np.array(pred)], [np.array(gt)], 3)

    def test_pred_at_ignore_pixels_is_not_checked(self):
        pred = np.array([[0, -1, 7]])
        gt = np.array([[0, IGNORE_INDEX, IGNORE_INDEX]])
        assert compute_miou([pred], [gt], 3).mean_iou == 1.0

    @pytest.mark.parametrize("kw", [dict(num_classes=2.5), dict(ignore_index=True),
                                    dict(ignore_index=0.5)])
    def test_class_count_and_ignore_index_must_be_integers(self, kw):
        z = np.zeros((2, 2), np.int64)
        with pytest.raises(ValidationError, match="must be an integer"):
            compute_miou([z], [z], **{"num_classes": 2, **kw})

    def test_label_mask_inputs(self):
        gt = LabelMask(np.zeros((2, 2), dtype=np.int64), 2)
        assert compute_miou([gt], [gt], 2).mean_iou == 1.0


class TestGenerateWorld:
    def test_orthogonal_two_class_geometry(self):
        world = generate_world(small_cfg(num_classes=2, dim=2,
                                         cluster_separation=np.pi / 2))
        dots = world.centroids @ world.centroids.T
        assert abs(dots[0, 1]) < 1e-9
        assert np.allclose(np.diag(dots), 1.0)

    def test_separation_lower_bound_holds(self):
        cfg = small_cfg(num_classes=5, dim=16, cluster_separation=np.pi / 4)
        world = generate_world(cfg)
        dots = world.centroids @ world.centroids.T
        off = dots[~np.eye(5, dtype=bool)]
        assert (off <= np.cos(np.pi / 4) + 1e-9).all()

    def test_infeasible_separation(self):
        with pytest.raises(InfeasibleSeparation):
            generate_world(small_cfg(num_classes=8, dim=2,
                                     cluster_separation=np.pi / 2))

    def test_rejection_sampling_holds_a_block_of_the_gram(self, monkeypatch):
        # 2000 unit vectors in 16-d always hold a pair closer than 45
        # degrees; the check holds blocks of 32 rows of a sample's gram,
        # never the whole (2000, 2000) one
        monkeypatch.setattr(segtta.harness, "GRAM_BLOCK_ELEMENTS", 1 << 16)
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleSeparation):
                generate_world(small_cfg(num_classes=2000, dim=16, images_per_class=0,
                                         query_images=0, cluster_separation=np.pi / 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8 / 4

    @pytest.mark.parametrize("seed", range(4))
    def test_a_blocked_gram_check_places_the_same_centroids(self, monkeypatch, seed):
        def centroids():
            try:
                return generate_world(small_cfg(seed=seed, num_classes=40, dim=16,
                                                cluster_separation=np.pi / 4)).centroids
            except InfeasibleSeparation:
                return None

        whole_gram = centroids()
        monkeypatch.setattr(segtta.harness, "GRAM_BLOCK_ELEMENTS", 6 * 40)
        blocked = centroids()
        assert (whole_gram is None and blocked is None
                or whole_gram.tobytes() == blocked.tobytes())

    def test_image_over_the_pixel_bound_is_refused(self):
        # refused before a world allocates the image's features: 16000 x 16000
        # pixels at 4 a cell
        with pytest.raises(ShapeMismatch, match="pixels"):
            SynthConfig(grid_h=4000, grid_w=4000)
        with pytest.raises(ShapeMismatch, match="pixels"):
            SynthConfig(grid_h=2, grid_w=2, cell_pixels=1 << 13)
        SynthConfig(grid_h=2048, grid_w=2048)   # 8192 x 8192, the bound itself

    def test_noiseless_aligned_world_is_perfectly_zero_shot(self):
        cfg = small_cfg(feature_noise=0.0, text_misalignment=0.0,
                        num_classes=4, dim=8, query_images=3)
        world = generate_world(cfg)
        assert evaluate_zero_shot(world, world.bank, 0.1) == 1.0

    def test_deterministic(self):
        a = generate_world(small_cfg(seed=77))
        b = generate_world(small_cfg(seed=77))
        assert a.bank.features.tobytes() == b.bank.features.tobytes()
        for sa, sb in zip(a.support, b.support):
            assert sa.features.data.tobytes() == sb.features.data.tobytes()
            assert np.array_equal(sa.mask.data, sb.mask.data)
        for qa, qb in zip(a.queries, b.queries):
            assert qa.features.data.tobytes() == qb.features.data.tobytes()

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(seed=0, fraction_without_text=1.5)

    @pytest.mark.parametrize("field", ["num_classes", "dim", "grid_h", "grid_w",
                                       "cell_pixels"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValidationError):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("cluster_separation", math.inf), ("cluster_separation", -math.inf),
        ("cluster_separation", math.nan), ("text_misalignment", math.inf),
        ("text_misalignment", math.nan), ("feature_noise", math.inf),
        ("feature_noise", math.nan), ("feature_noise", -0.1), ("query_images", -1),
        ("seed", -1)])
    def test_non_finite_or_negative_world_parameters_rejected(self, field, value):
        with pytest.raises(ValidationError):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("dim", "8"), ("images_per_class", 2.5), ("grid_h", 2.0), ("seed", np.True_),
        ("fraction_without_text", None), ("feature_noise", "0.1"),
        ("cluster_separation", -1.0)])
    def test_world_parameters_must_be_numbers_of_their_kind(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SynthConfig(**{field: value})

    def test_visual_drop_removes_support(self):
        cfg = small_cfg(num_classes=4, fraction_without_visual=0.5)
        world = generate_world(cfg)
        dropped = set(world.visual_drop_order[:2])
        assert world.visual_dropped == frozenset(dropped)
        present = {c for s in world.support for c in s.classes}
        assert present.isdisjoint(dropped)

    def test_text_drop_fills_bank_rows(self):
        cfg = small_cfg(num_classes=4, fraction_without_text=0.5)
        world = generate_world(cfg)
        bank = world.bank
        assert bank.present.sum() == 2
        mean = bank.features[bank.present].astype(np.float64).mean(axis=0)
        want = (mean / np.linalg.norm(mean)).astype(np.float32)
        for row in bank.features[~bank.present]:
            assert row.tobytes() == want.tobytes()


class TestSelectSupport:
    @pytest.mark.usefixtures("no_cooccurrence")
    def test_budget_without_cooccurrence(self):
        cfg = small_cfg(num_classes=3, images_per_class=5)
        world = generate_world(cfg)
        picked = select_support(world, 2)
        counts = np.zeros(3, dtype=int)
        for s in picked:
            for c in s.classes:
                counts[c] += 1
        assert counts.tolist() == [2, 2, 2]

    @pytest.mark.usefixtures("no_cooccurrence")
    def test_budget_caps_at_pool(self):
        cfg = small_cfg(num_classes=2, images_per_class=3)
        world = generate_world(cfg)
        picked = select_support(world, 10)
        assert len(picked) == 6

    @pytest.mark.usefixtures("no_cooccurrence")
    def test_budget_beyond_the_float_range_is_whole(self):
        world = generate_world(small_cfg(num_classes=2, images_per_class=3))
        assert select_support(world, 10 ** 400) == select_support(world, 3)

    def test_zero_budget(self):
        world = generate_world(small_cfg())
        assert select_support(world, 0) == []

    @pytest.mark.parametrize("budget", ["a", 1.5, np.True_, None])
    def test_budget_must_be_a_whole_number(self, budget):
        world = generate_world(small_cfg())
        with pytest.raises(ValidationError, match="whole number"):
            select_support(world, budget)

    def test_deterministic(self):
        world = generate_world(small_cfg(images_per_class=4))
        a = [s.image_id for s in select_support(world, 2)]
        b = [s.image_id for s in select_support(world, 2)]
        assert a == b


class TestBuildStore:
    @pytest.mark.usefixtures("no_cooccurrence")
    def test_excluded_classes_contribute_nothing(self):
        cfg = small_cfg(num_classes=3)
        world = generate_world(cfg)
        store = build_store(world.support, 3, cfg.dim, excluded_classes=(1,))
        assert store.class_counts[1] == 0
        assert store.class_counts[0] > 0 and store.class_counts[2] > 0

    @pytest.mark.usefixtures("no_cooccurrence")
    def test_full_exclusion_gives_empty_store(self):
        cfg = small_cfg(num_classes=2)
        world = generate_world(cfg)
        store = build_store(world.support, 2, cfg.dim, excluded_classes=(0, 1))
        assert store.size == 0

    @pytest.mark.parametrize("excluded", [["a"], [1.5], [3], [True]])
    def test_excluded_classes_must_be_class_ids(self, excluded):
        world = generate_world(small_cfg(num_classes=3))
        with pytest.raises(ValidationError, match="class id"):
            build_store(world.support, 3, 8, excluded_classes=excluded)

    def test_lambdas_outside_unit_interval_rejected(self):
        cfg = small_cfg(num_classes=2)
        world = generate_world(cfg)
        with pytest.raises(ValidationError):
            build_store(world.support, 2, cfg.dim, lambdas=(1.5,))


class TestSweep:
    def test_rows_structure_and_determinism(self):
        world = generate_world(small_cfg(query_images=2))
        rows = run_sweep(world, "support_size", [1, 2], config=FAST)
        again = run_sweep(world, "support_size", [1, 2], config=FAST)
        assert [r["support_size"] for r in rows] == [1, 2]
        for r, r2 in zip(rows, again):
            assert set(r) == {"support_size", "zero_shot_miou", "rns_miou",
                              "rns_without_text_miou"}
            assert r == r2
            assert np.isfinite(r["rns_miou"])

    def test_axis_validation(self):
        world = generate_world(small_cfg())
        with pytest.raises(ValidationError):
            run_sweep(world, "bogus_axis", [1])

    @pytest.mark.parametrize("axis, points, budget", [
        ("support_size", [1, -3], None), ("support_size", [2.7], None),
        ("support_size", [float("nan")], None), ("support_size", [True], None),
        ("visual_drop_fraction", [0.0], -1), ("text_drop_fraction", [0.0], 1.5)])
    def test_support_sizes_and_budget_must_be_whole_numbers(self, monkeypatch, axis,
                                                            points, budget):
        world = generate_world(small_cfg())
        monkeypatch.setattr("segtta.harness.select_support", None)  # no work starts
        with pytest.raises(ValidationError):
            run_sweep(world, axis, points, config=FAST, budget=budget)

    def test_whole_float_support_size_is_that_count(self):
        world = generate_world(small_cfg(query_images=1))
        (row,) = run_sweep(world, "support_size", [2.0], config=FAST)
        (want,) = run_sweep(world, "support_size", [2], config=FAST)
        assert row == want

    def test_visual_drop_limit(self):
        world = generate_world(small_cfg(query_images=2))
        (row,) = run_sweep(world, "visual_drop_fraction", [1.0], config=FAST)
        # no visual support anywhere: text-driven variants still score,
        # the text-free variant has nothing at all to work with
        assert np.isfinite(row["zero_shot_miou"])
        assert np.isfinite(row["rns_miou"])
        assert np.isnan(row["rns_without_text_miou"])

    def test_text_drop_limit(self):
        world = generate_world(small_cfg(query_images=2))
        (row,) = run_sweep(world, "text_drop_fraction", [1.0], config=FAST)
        assert np.isnan(row["zero_shot_miou"])
        assert np.isfinite(row["rns_miou"])
        assert np.isfinite(row["rns_without_text_miou"])


class TestSweepFit:
    """A sweep point fits the with-text and without-text probes in one loop
    and scores each as evaluate_queries scores its own."""

    @pytest.mark.parametrize("axis, points", [
        ("support_size", [0, 1, 3]),
        ("visual_drop_fraction", [0.0, 0.5, 1.0]),
        ("text_drop_fraction", [0.0, 0.5, 1.0]),
    ])
    def test_rows_equal_per_point_evaluations(self, axis, points):
        C, d, budget = 4, 8, 2
        world = generate_world(small_cfg(seed=4, num_classes=C, dim=d, query_images=3,
                                         fraction_without_visual=0.25))
        rows = run_sweep(world, axis, points, config=FAST, budget=budget)
        sizes = []
        for point, row in zip(points, rows, strict=True):
            dropped, bank, b = set(world.visual_dropped), world.bank, budget
            if axis == "support_size":
                b = point
            elif axis == "visual_drop_fraction":
                dropped |= set(world.visual_drop_order[:round(point * C)])
            else:
                bank = _bank_with_text_drops(world, point)
            store = build_store(select_support(world, b), C, d, FAST.lambdas,
                                excluded_classes=dropped)
            sizes.append(store.size)
            np.testing.assert_equal(row, {
                axis: point,
                "zero_shot_miou": evaluate_zero_shot(world, bank, FAST.tau),
                "rns_miou": evaluate_queries(world, store, bank, dropped, FAST),
                "rns_without_text_miou": evaluate_queries(world, store,
                                                          _no_text_bank(C, d),
                                                          dropped, FAST)})
        if axis != "text_drop_fraction":
            assert sizes[0] == 0 or sizes[-1] == 0   # an empty store is covered

    def test_decode_order(self, monkeypatch):
        # per point: the queries with text in query order, then those without
        import segtta.harness
        world = generate_world(small_cfg(query_images=3))
        index = {id(q.features): i for i, q in enumerate(world.queries)}
        calls = []
        inner = segtta.harness.segment

        def recorded(store, x, bank, *args, **kwargs):
            calls.append((store.size, bank.fallback, index[id(x)]))
            return inner(store, x, bank, *args, **kwargs)

        monkeypatch.setattr(segtta.harness, "segment", recorded)
        run_sweep(world, "support_size", [1, 2], config=FAST)
        sizes = [build_store(select_support(world, b), 3, 8).size for b in (1, 2)]
        assert sizes[0] != sizes[1]
        assert calls == [(size, fallback, i) for size in sizes
                         for fallback in (False, True) for i in range(3)]

    def test_one_retrieval_per_query_and_point(self, monkeypatch):
        # the with-text and no-text fits share the store and the classes
        # left out, so each query is retrieved for once per point; an empty
        # store retrieves nothing
        import segtta.adapter
        calls = []
        inner = segtta.adapter.retrieve_for_image
        monkeypatch.setattr(segtta.adapter, "retrieve_for_image",
                            lambda x, store, k: calls.append(store.size) or inner(x, store, k))
        world = generate_world(small_cfg(query_images=3))
        run_sweep(world, "support_size", [0, 1, 2], config=FAST)
        sizes = [build_store(select_support(world, b), 3, 8).size for b in (1, 2)]
        assert calls == [size for size in sizes for _ in range(3)]

    @pytest.mark.parametrize("axis", ["visual_drop_fraction", "text_drop_fraction"])
    @pytest.mark.parametrize("point", [-0.2, 1.2, float("nan")])
    def test_drop_fractions_outside_unit_interval_rejected(self, axis, point):
        world = generate_world(small_cfg())
        with pytest.raises(ValidationError):
            run_sweep(world, axis, [0.5, point], config=FAST)

    @pytest.mark.parametrize("axis", ["visual_drop_fraction", "text_drop_fraction"])
    @pytest.mark.parametrize("point", ["a", None, True])
    def test_drop_fractions_must_be_real_numbers(self, axis, point):
        world = generate_world(small_cfg())
        with pytest.raises(ValidationError, match="must be a real number"):
            run_sweep(world, axis, [0.5, point], config=FAST)


def run_sweep_script(*flags):
    """Run scripts/run_sweep.py on a tiny world; returns the process."""
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(segtta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(repo / "scripts" / "run_sweep.py"),
                           "--classes", "3", "--images-per-class", "2", "--queries", "1",
                           "--budget", "1", *flags],
                          env=env, capture_output=True, text=True, timeout=120)


class TestSweepScript:
    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-3"), ("--seeds", "x"),
        ("--steps", "0"), ("--steps", "-3"), ("--points", "1,x")])
    def test_malformed_flags_are_usage_errors(self, flag, value):
        proc = run_sweep_script(flag, value)
        assert proc.returncode == 2
        assert f"error: argument {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_points_with_every_axis_is_a_usage_error(self):
        proc = run_sweep_script("--axis", "all", "--points", "1,2")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: ")
        assert "run_sweep.py: error: --points requires a single --axis" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("axis", ["visual_drop_fraction", "text_drop_fraction"])
    def test_drop_fraction_outside_unit_interval_exits_3(self, axis):
        proc = run_sweep_script("--axis", axis, "--points", "0,-0.2", "--seeds", "1",
                                "--steps", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "[0, 1]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags", [
        ("--axis", "support_size", "--points", "-3"),
        ("--axis", "support_size", "--points", "1,2.7"),
        ("--axis", "visual_drop_fraction", "--points", "0", "--budget", "-1")])
    def test_bad_support_size_or_budget_exits_3(self, flags):
        proc = run_sweep_script(*flags, "--seeds", "1", "--steps", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "whole number" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_support_size_beyond_the_float_range_exits_3(self, digits):
        # int() refuses more than 4300 digits, and float() makes both inf
        proc = run_sweep_script("--axis", "support_size", "--points", "1," + "9" * digits,
                                "--seeds", "1", "--steps", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "whole number" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, value", [("--separation", "inf"),
                                             ("--misalignment", "nan"), ("--queries", "-1")])
    def test_bad_world_parameters_exit_3(self, flag, value):
        proc = run_sweep_script(flag, value, "--seeds", "1", "--steps", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_sweep_runs(self):
        proc = run_sweep_script("--axis", "support_size", "--points", "1", "--seeds", "1",
                                "--steps", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split("\t") == [
            "support_size", "zero_shot_miou", "rns_miou", "rns_without_text_miou"]


class TestEvaluate:
    def test_adapted_beats_or_matches_chance(self):
        cfg = small_cfg(num_classes=3, dim=8, query_images=2)
        world = generate_world(cfg)
        store = build_store(select_support(world, 2), 3, cfg.dim, bank=world.bank)
        miou = evaluate_queries(world, store, world.bank, config=FAST)
        assert np.isfinite(miou) and 0.0 <= miou <= 1.0

    def test_scores_the_labels_of_per_query_segments(self):
        world = generate_world(small_cfg(seed=5, num_classes=5, query_images=4,
                                         fraction_without_visual=0.4))
        store = build_store(world.support, 5, 8, FAST.lambdas,
                            excluded_classes=world.visual_dropped)
        no_text = TextBank(np.zeros((5, 8), np.float32), np.zeros(5, dtype=bool))
        unsupported = sorted(world.visual_dropped)
        for bank in (world.bank, no_text):
            preds = [segment(store, q.features, bank, unsupported=unsupported,
                             config=FAST).full_res_labels for q in world.queries]
            want = compute_miou(preds, [q.gt for q in world.queries], 5).mean_iou
            assert evaluate_queries(world, store, bank, world.visual_dropped,
                                    FAST) == want

    def test_queries_without_items_are_assembled_once(self, monkeypatch):
        import segtta.adapter
        calls = []
        assemble = segtta.adapter.assemble_batch
        monkeypatch.setattr(segtta.adapter, "assemble_batch",
                            lambda *a, **k: calls.append(1) or assemble(*a, **k))
        world = generate_world(small_cfg(query_images=3))
        store = build_store([], 3, 8, FAST.lambdas)
        want = compute_miou([segment(store, q.features, world.bank, config=FAST)
                             .full_res_labels for q in world.queries],
                            [q.gt for q in world.queries], 3).mean_iou
        calls.clear()
        assert evaluate_queries(world, store, world.bank, config=FAST) == want
        assert len(calls) == 3

    @pytest.mark.parametrize("unsupported", [5, None, [1.5]])
    def test_unsupported_must_be_class_ids(self, unsupported):
        world = generate_world(small_cfg())
        store = build_store(select_support(world, 1), 3, 8, FAST.lambdas)
        with pytest.raises(ValidationError):
            evaluate_queries(world, store, world.bank, unsupported, FAST)

    def test_empty_store_no_text_is_nan(self):
        cfg = small_cfg()
        world = generate_world(cfg)
        bank = _no_text_bank(cfg.num_classes, cfg.dim)
        store = build_store([], cfg.num_classes, cfg.dim, bank=bank)
        assert np.isnan(evaluate_queries(world, store, bank, config=FAST))
