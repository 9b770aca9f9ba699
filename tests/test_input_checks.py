"""Hostile scalars at each integer or real parameter of the value types,
the configs, run_sweep, select_support, compute_miou, knn and softmax: each
call returns or raises a SegttaError, with no numpy warning on the way. Then
values of the wrong type or dtype at other public calls, each refused with
ValidationError where it enters. Last, arguments of the wrong kind or not
fitting one another at add_support_image, segment, zero_shot_segment,
query_batches, fit_batches and train_adapter, with the same rule as the
scalars."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtta.adapter import AdapterModel, TrainConfig, fit_batches, query_batches, train_adapter
from segtta.errors import SegttaError, ValidationError
from segtta.fileio import write_mask
from segtta.harness import SynthConfig, compute_miou, generate_world, run_sweep, select_support
from segtta.inference import RegionSet, segment, zero_shot_segment
from segtta.numerics import DenseFeatureMap, LabelMask, downsample_labels, softmax
from segtta.retrieval import knn
from segtta.support import SupportStore, TextBank, add_support_image, row_dtype

from conftest import append_records

HOSTILE = [True, np.True_, 2.0, 2.5, "2", None, math.nan, math.inf, -1, np.int64(2),
           np.float32(0.5)]

WORLD = generate_world(SynthConfig(num_classes=2, dim=4, grid_h=2, grid_w=2,
                                   images_per_class=1, query_images=1, cell_pixels=2))
FIT = TrainConfig(steps=1)
LABELS = np.zeros((4, 4), dtype=np.int64)
STORE = SupportStore.empty(2, 2)
append_records(STORE, np.array([(0, 0, 0, [1.0, 0.0])], row_dtype(2)))


def _with(name: str, defaults: dict, build):
    """One target per key of defaults: build(**defaults) with that key
    replaced by the hostile value."""
    return [(f"{name}.{key}", lambda v, key=key: build(**{**defaults, key: v}))
            for key in defaults]


def _sweep(axis, point=None, budget=None):
    return run_sweep(WORLD, axis, [point], config=FIT, budget=budget)


TARGETS = [
    *_with("DenseFeatureMap", dict(grid_h=2, grid_w=2, image_h=8, image_w=8),
           lambda **kw: DenseFeatureMap(np.ones((4, 3)), **kw)),
    *_with("LabelMask", dict(num_classes=2, ignore_index=255),
           lambda **kw: LabelMask(LABELS, **kw)),
    *_with("TextBank", dict(features=np.eye(2, dtype=np.float32),
                            present=np.ones(2, dtype=bool)), TextBank),
    *_with("RegionSet", dict(assignments=LABELS, region_count=1), RegionSet),
    *_with("SupportStore.empty", dict(num_classes=2, dim=2, lambdas=0.5),
           lambda lambdas, **kw: SupportStore.empty(lambdas=(0.5, lambdas), **kw)),
    *_with("TrainConfig", {f: getattr(TrainConfig(), f) for f in
                           ("steps", "learning_rate", "k", "tau", "beta_f", "beta_p")},
           TrainConfig),
    *_with("SynthConfig", {f: getattr(SynthConfig(), f)
                           for f in SynthConfig.__dataclass_fields__}, SynthConfig),
    ("run_sweep.support_size", lambda v: _sweep("support_size", v)),
    ("run_sweep.visual_drop_fraction", lambda v: _sweep("visual_drop_fraction", v)),
    ("run_sweep.text_drop_fraction", lambda v: _sweep("text_drop_fraction", v)),
    ("run_sweep.budget", lambda v: _sweep("visual_drop_fraction", 0.0, v)),
    ("select_support.budget", lambda v: select_support(WORLD, v)),
    *_with("compute_miou", dict(num_classes=2, ignore_index=255),
           lambda **kw: compute_miou([LABELS], [LABELS], **kw)),
    ("knn.k", lambda v: knn(np.array([1.0, 0.0]), STORE, v)),
    ("softmax.tau", lambda v: softmax(np.zeros(3), v)),
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(TARGETS),
       st.one_of(st.sampled_from(HOSTILE), st.integers(-3, 10), st.floats(), st.booleans(),
                 st.text(max_size=2)))
def test_hostile_scalars_return_or_raise_a_segtta_error(target, value):
    _, call = target
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except SegttaError:
            pass


X = DenseFeatureMap(np.ones((4, 2)), 2, 2, 8, 8)
BANK = TextBank(np.eye(2, dtype=np.float32), np.ones(2, dtype=bool))

# (name, call given a temporary directory): each was written as label 0, cut to
# an integer or let a numpy or Python error escape
WRONG_KIND = [
    ("write_mask.fraction", lambda tmp: write_mask(tmp / "m.rnsm", np.array([[0.5, 1.0]]))),
    ("write_mask.nan", lambda tmp: write_mask(tmp / "m.rnsm", np.array([[np.nan, 1.0]]))),
    ("RegionSet.from_grid", lambda tmp: RegionSet.from_grid(np.array([[0.0, 1.5]]))),
    ("segment.model", lambda tmp: segment(STORE, X, BANK, model="x")),
    ("zero_shot_segment.regions", lambda tmp: zero_shot_segment(X, BANK, 1.0, regions=[[0]])),
    ("knn.query", lambda tmp: knn("abc", STORE, 1)),
    ("segment.store", lambda tmp: segment("abc", X, BANK)),
    ("segment.x", lambda tmp: segment(STORE, "abc", BANK)),
    ("segment.bank", lambda tmp: segment(STORE, X, "abc")),
    ("zero_shot_segment.bank", lambda tmp: zero_shot_segment(X, None, 1.0)),
    ("add_support_image.mask",
     lambda tmp: add_support_image(SupportStore.empty(2, 2), X, np.zeros((8, 8), np.int64), 1)),
    ("downsample_labels.grid_h", lambda tmp: downsample_labels(LabelMask(LABELS, 2), 2.0, 2)),
    ("compute_miou.lengths", lambda tmp: compute_miou([LABELS], [LABELS, LABELS], 2)),
    ("compute_miou.preds", lambda tmp: compute_miou(None, None, 2)),
    ("generate_world.cfg", lambda tmp: generate_world("x")),
    ("run_sweep.world", lambda tmp: run_sweep("w", "support_size", [1])),
    ("run_sweep.config", lambda tmp: run_sweep(WORLD, "support_size", [1], config="c")),
    ("run_sweep.points", lambda tmp: run_sweep(WORLD, "support_size", None)),
    ("run_sweep.axis", lambda tmp: run_sweep(WORLD, np.array(["a", "b"]), [1])),
    ("select_support.world", lambda tmp: select_support("w", 1)),
    ("train_adapter.store", lambda tmp: train_adapter("s", X, BANK)),
    # an empty store and a text-free bank retrieve and score nothing, so
    # this was an empty fit of the store's d
    ("train_adapter.x_dim", lambda tmp: train_adapter(
        SupportStore.empty(2, 2), DenseFeatureMap(np.ones((4, 3)), 2, 2, 8, 8),
        TextBank(np.zeros((2, 2), np.float32), np.zeros(2, bool)))),
]


@pytest.mark.parametrize("call", [c for _, c in WRONG_KIND], ids=[n for n, _ in WRONG_KIND])
def test_wrong_kinds_are_refused_where_they_enter(call, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(tmp_path)
    assert not (tmp_path / "m.rnsm").exists()


def _batch(**fields):
    """A one-query TrainingBatch of the fit below, some fields replaced."""
    return replace(BATCH, **fields)


MASK = LabelMask(np.broadcast_to(np.arange(8) // 4, (8, 8)).copy(), 2)   # left | right
FIT_STORE = add_support_image(SupportStore.empty(2, 2), DenseFeatureMap(
    np.array([[1.0, 0.0], [0.0, 1.0]] * 2), 2, 2, 8, 8), MASK, 0)
((BATCH,),) = query_batches(FIT_STORE, [X], [BANK], config=FIT)
REGIONS = RegionSet(np.zeros((8, 8), np.int64), 1)

# each entry point with candidates for each argument: the first is valid,
# the others of the wrong kind, or of the right kind but not fitting the rest
# (another C, d or resolution, an empty store, a fallback bank, non-finite
# items)
ARGUMENTS = {
    "store": [FIT_STORE, SupportStore.empty(2, 2), SupportStore.empty(3, 2),
              SupportStore.empty(2, 3), None, "abc", np.ones((2, 2))],
    "x": [X, DenseFeatureMap(np.ones((4, 3)), 2, 2, 8, 8),
          DenseFeatureMap(np.ones((1, 2)), 1, 1, 3, 5), None, np.ones((4, 2))],
    "xs": [[X], [], [X, DenseFeatureMap(np.ones((1, 2)), 1, 1, 3, 5)],
           [DenseFeatureMap(np.ones((4, 3)), 2, 2, 8, 8)], [None], None, X, "abc"],
    "bank": [BANK, TextBank(np.zeros((2, 2), np.float32), np.zeros(2, bool)),
             TextBank(np.eye(3, dtype=np.float32), np.ones(3, bool)),
             TextBank(np.eye(2, 3, dtype=np.float32), np.ones(2, bool)), None, "abc"],
    "banks": [[BANK], [], [BANK, TextBank(np.zeros((2, 2), np.float32), np.zeros(2, bool))],
              [TextBank(np.eye(3, dtype=np.float32), np.ones(3, bool))], [None], None, BANK],
    "mask": [MASK, LabelMask(np.zeros((8, 8), np.int64), 3),
             LabelMask(np.zeros((4, 4), np.int64), 2),
             LabelMask(np.full((8, 8), 255), 2, 255), np.zeros((8, 8), np.int64), None],
    "image_id": [1, "img", True, None, 2.5, -1],
    "tau": [1.0, 0.0, -1.0, math.nan, math.inf, "1", True, 1e-300],
    "regions": [None, REGIONS, RegionSet(np.zeros((4, 4), np.int64), 1), [[0]]],
    "unsupported": [(), [0, 1], [2], "abc", [0.5], None],
    "config": [FIT, TrainConfig(steps=2, beta_p=0.0), "abc", None],
    "model": [None, AdapterModel.zeros(2, 2), AdapterModel.zeros(3, 2), "abc"],
    "batches": [[BATCH], [BATCH, _batch(visual_w=BATCH.visual_w[:0], visual_x=BATCH.visual_x[:0],
                                        visual_y=BATCH.visual_y[:0])],
                [], [_batch(visual_x=np.full_like(BATCH.visual_x, np.inf))],
                [_batch(fused_w=np.full_like(BATCH.fused_w, np.nan))],
                [_batch(visual_y=BATCH.visual_y + 2)],
                [_batch(visual_y=BATCH.visual_y.astype(float))],
                [_batch(visual_w=BATCH.visual_w[:-1])],
                [BATCH, _batch(num_classes=3)], [BATCH, _batch(fused_x=BATCH.fused_x[:, :1])],
                [None], "abc", None],
    "history": [None, [], "abc"],
}
CALLS = {
    "add_support_image": (add_support_image, ("store", "x", "mask", "image_id")),
    "segment": (segment, ("store", "x", "bank", "regions", "unsupported", "config", "model")),
    "zero_shot_segment": (zero_shot_segment, ("x", "bank", "tau", "regions")),
    "fit_batches": (fit_batches, ("batches", "config", "history")),
    "query_batches": (query_batches, ("store", "xs", "banks", "unsupported", "config")),
    "train_adapter": (train_adapter, ("store", "x", "bank", "unsupported", "config", "history")),
}


def _calls():
    """(entry point, one candidate per argument) for any entry point."""
    return st.sampled_from(sorted(CALLS)).flatmap(lambda name: st.tuples(
        st.just(name), st.tuples(*(st.sampled_from(ARGUMENTS[p]) for p in CALLS[name][1]))))


@settings(max_examples=300, deadline=None)
@given(_calls())
# finite items or weights so large that a step overflows (at 1e154 the fit
# returns): fit_batches reports them as NonFiniteGradient
@example(("fit_batches", ([_batch(visual_x=BATCH.visual_x * 1e200)], FIT, None)))
@example(("fit_batches", ([_batch(visual_x=BATCH.visual_x * 1e300)], FIT, [])))
@example(("fit_batches", ([_batch(visual_w=BATCH.visual_w * 1e200)], FIT, [])))
@example(("fit_batches", ([_batch(visual_w=BATCH.visual_w * 1e300)], FIT, None)))
@example(("train_adapter", ("abc", X, BANK, (), FIT, None)))
@example(("train_adapter", (FIT_STORE, X, BANK, (), FIT, "abc")))
@example(("query_batches", (FIT_STORE, [X], [BANK, BANK], [1], FIT)))
@example(("query_batches", (FIT_STORE, None, [BANK], (), FIT)))
def test_pipeline_calls_return_or_raise_a_segtta_error(call):
    name, args = call
    function = CALLS[name][0]
    args = copy.deepcopy(args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            function(*args)
        except SegttaError:
            pass
