"""Per-image linear probe: batch assembly, losses, Adam, training loop.

The probe is a linear map R^d -> R^C trained from zero init on three item
groups: retrieved support vectors (cross-entropy), text/visual interpolations
per retrieved class (weighted cross-entropy), and interpolations built from
pseudo-pooled query features for classes lacking visual support (weighted KL
against their text-similarity distribution). All training math is float64.

The losses and adam_step take one probe, or Q probes stacked on a leading
query axis (a (Q, C, d) model over (Q, m, d) items), and do each query's
arithmetic as a call for that query alone would. A probe, its gradients
and its Adam moments are each one array of rows [w_c | b_c] (see _Packed),
so a step scales, sums, checks and updates a gradient in one pass. Each
item carries a trailing 1 (see _Items), so one GEMM per group computes its
logits with the bias added, and one more its weight and bias gradients.
fit_batches fits the probes of many queries in one loop over a stack. All
the items of a fit share one logits buffer and one matrix of targets, a
CE item's target being 1 at its label, so each step computes the logit
gradients of every item, CE and KL alike, from one exp, and it computes
the losses only for a history.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, NonFiniteGradient, NonFiniteInput, ShapeMismatch,
                     ValidationError)
from .numerics import DenseFeatureMap, instance_of, real, softmax, unit, whole
from .retrieval import RetrievedSet, class_relevance_weights, retrieve_for_image
from .support import (
    DEFAULT_LAMBDAS,
    SupportStore,
    TextBank,
    check_text_bank,
    effective_lambdas,
    fuse_grid,
    fused_rows,
)

# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# A fit whose GEMM pass over its items takes at least this many
# multiply-adds, Q * C * (d + 1) * M, may run a group on a second thread
# (_Items.splits); below it, the hand-off costs about what the thread saves
LANE_MIN_TERMS = 1 << 24


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 700
    learning_rate: float = 0.02
    k: int = 4
    tau: float = 0.1
    beta_f: float = 1.5
    beta_p: float = 0.2
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS

    def __post_init__(self):
        whole("steps", self.steps, 1)
        whole("k", self.k, 1)
        real("learning_rate", self.learning_rate, 0, above=True)
        real("tau", self.tau, 0, above=True)
        real("beta_f", self.beta_f, 0)
        real("beta_p", self.beta_p, 0)


class _Packed:
    """(*lead, C, d) weights and (*lead, C) bias as views of one array,
    `packed`, of shape (*lead, C, d + 1): row c is [w_c | b_c], so the
    weights are its first d columns and the bias its column d. A GEMM by
    items that end in a 1 adds the bias as it sums the weights (see
    _Items), and element-wise arithmetic on a gradient or an update takes
    one pass over `packed`. The constructor copies weights and bias into a
    new float64 such array."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        weights, bias = np.asarray(weights), np.asarray(bias)
        if weights.ndim < 2 or bias.shape != weights.shape[:-1]:
            raise ShapeMismatch(f"weights {weights.shape} and bias {bias.shape} are not "
                                "(..., C, d) and (..., C)")
        d = weights.shape[-1]
        self.packed = np.empty(weights.shape[:-1] + (d + 1,))
        self.weights, self.bias = self.packed[..., :d], self.packed[..., d]
        self.weights[...] = weights
        self.bias[...] = bias

    @classmethod
    def zeros(cls, num_classes: int, dim: int):
        return cls(np.zeros((num_classes, dim)), np.zeros(num_classes))


class AdapterModel(_Packed):
    """The linear probe: (C, d) weights and (C,) bias, or (Q, C, d) and
    (Q, C) for a stack of Q probes."""

    @property
    def num_classes(self) -> int:
        return self.weights.shape[-2]

    def logits(self, vecs: np.ndarray) -> np.ndarray:
        return np.asarray(vecs, dtype=np.float64) @ self.weights.T + self.bias

    def probs(self, vecs: np.ndarray) -> np.ndarray:
        return softmax(self.logits(vecs), 1.0)


class Gradients(_Packed):
    """A loss's gradients with respect to a probe's weights and bias."""


class AdamState:
    """Adam's first and second moments, m and v, each laid out as the probe
    (see _Packed), and two scratch arrays of that layout. `lane`, a _Lane
    that fit_batches may set, makes adam_step update half of the class
    rows on its thread."""

    def __init__(self, m_weights, v_weights, m_bias, v_bias):
        self.m, self.v = _Packed(m_weights, m_bias), _Packed(v_weights, v_bias)
        self.step, self.denom = np.empty_like(self.m.packed), np.empty_like(self.m.packed)
        self.lane = None

    @classmethod
    def zeros(cls, num_classes: int, dim: int) -> "AdamState":
        weights, bias = np.zeros((num_classes, dim)), np.zeros(num_classes)
        return cls(weights, weights, bias, bias)


@dataclass(frozen=True)
class StepRecord:
    step: int
    total: float
    visual: float
    fused: float
    pseudo: float


@dataclass
class TrainingBatch:
    """Frozen item groups for one adaptation run (all float64).

    A stacked batch (_stack) puts a leading query axis on every array.
    """

    visual_x: np.ndarray   # (mv, d)
    visual_y: np.ndarray   # (mv,) int
    visual_w: np.ndarray   # (mv,)
    fused_x: np.ndarray
    fused_y: np.ndarray
    fused_w: np.ndarray
    pseudo_x: np.ndarray   # (mp, d)
    pseudo_t: np.ndarray   # (mp, C) target distributions
    pseudo_w: np.ndarray
    num_classes: int

    @property
    def is_empty(self) -> bool:
        return (self.visual_w.size + self.fused_w.size + self.pseudo_w.size) == 0


class _Columns(NamedTuple):
    """Class-major views of some item columns of an _Items: its shifted
    logits z and exponentials e, (C, *lead, m); its max and sum row, weight
    row w, (1, *lead, m); T * w; and the columns one item wide whose classes
    are summed apart (see _Items)."""
    z: np.ndarray
    e: np.ndarray
    row: np.ndarray
    w: np.ndarray
    tw: np.ndarray
    single: list


class _Group(NamedTuple):
    """One item group of an _Items: its index (0 visual, 1 fused, 2
    pseudo), its items with a ones column, x1 (*lead, m, d + 1), and x1's
    transpose, its (*lead, C, m) views of the logits and of the
    exponentials (then dlogits) for the GEMMs, its gradients and its
    class-major columns."""
    index: int
    x1: np.ndarray
    x1t: np.ndarray
    logits: np.ndarray
    dlogits: np.ndarray
    grads: Gradients
    cols: _Columns


class _Items:
    """The items of one fit, of one query or a stack, and what every step
    reuses, so a step allocates and derives little.

    All M items share one class-major logits buffer, (C, *lead, M): (C, M)
    for one query, (C, Q, M) for a stack, the query axis inside the class
    axis. The visual, fused and pseudo groups are its column ranges [0, mv),
    [mv, mv + mf) and [mv + mf, M), and each group's GEMMs write and read
    its columns as a (*lead, C, m) view. A step reduces over axis 0. numpy
    reduces a short contiguous axis one row at a time, so the per-item max
    and class sums, and the scaling by w / sum, each walk C rows of Q * M
    items, not Q * C rows of M items. Every reduction of a step runs down
    one item column or along one group's columns, so each group rounds as
    it would in a buffer of its own, with one exception that `single`
    mends: numpy sums the classes of a query's contiguous (C, 1) column
    pairwise, not row by row. So the classes of each group one item wide
    are summed from a contiguous (*lead, C, 1) copy, also when that group
    is the whole buffer.

    Each group keeps its float64 items with a ones column appended, x1 of
    shape (..., m, d + 1), and x1's C-contiguous transpose x1t. So its
    logits are one plain GEMM, packed @ x1t, with the bias in it, and its
    gradients another, dlogits @ x1, whose column d sums the bias gradient.

    Every item has a weight w and a target distribution over the classes:
    1 at a CE item's label, a pseudo item's text distribution. Both losses
    are w * (sum_c t log t - sum_c t log softmax(z)), and their gradient in
    z is w * (softmax(z) - t) for targets that sum to 1. So the items keep
    one class-major target matrix T, (C, *lead, M), T * w and the weight row
    w, (1, *lead, M), and a step computes every item's dlogits from one exp:
    exp(z - max) * (w / sum) - T * w. Also kept once: one Gradients per
    group and, if `losses`, the targets' sum_c t log t. A step computes the
    losses only if `losses`.

    Given a `lane` (a _Lane, see fit_batches), a step runs the widest
    group's chain on the lane's thread and the other groups' on the calling
    one: each chain is a group's logits GEMM, the softmax sums and dlogits
    over its own columns, its gradient GEMM and beta. No reduction crosses
    a group's columns, and a group one item wide is summed apart either
    way, so each group's gradients are the bits of the shared step; the sum
    over groups runs after both threads are done, in group order.
    """

    def __init__(self, num_classes: int, visual=None, fused=None, pseudo=None,
                 losses: bool = True):
        C, self.losses = num_classes, losses
        groups = [None if g is None else (np.asarray(g[0], np.float64), np.asarray(g[1]),
                                          np.asarray(g[2], np.float64))
                  for g in (visual, fused, pseudo)]
        x0 = next(g[0] for g in groups if g is not None)
        if x0.ndim < 2:
            raise ShapeMismatch(f"items {x0.shape} are not (..., m, d)")
        lead, d = x0.shape[:-2], x0.shape[-1]
        for i, g in enumerate(groups):
            if g is not None:
                _check_group(g, lead, d, (C,) if i == 2 else ())
        widths = [0 if g is None else g[2].shape[-1] for g in groups]
        mv, mf, mp = widths
        M = sum(widths)
        cols = [slice(0, mv), slice(mv, mv + mf), slice(mv + mf, M)]
        self.probe_shape = lead + (C, d)
        # multiply-adds of one GEMM pass over every item
        self.terms = math.prod(lead) * C * (d + 1) * M
        self.logits, self.exp = np.empty((C,) + lead + (M,)), np.empty((C,) + lead + (M,))
        self.row = np.empty((1,) + lead + (M,))   # each item's max, then its class sum
        self.zero = np.zeros(lead)[()]
        self.single = [c for c, m in zip(cols, widths) if m == 1]

        targets = np.zeros((C,) + lead + (M,))
        n = mv + mf
        if n:
            labels = np.concatenate([g[1] for g in groups[:2] if g is not None], axis=-1)
            if labels.size and not np.issubdtype(labels.dtype, np.integer):
                raise ValidationError(f"item labels of dtype {labels.dtype} are not integers")
            if labels.size and (labels.min() < 0 or labels.max() >= C):
                raise ValidationError(f"item labels outside [0, {C})")
            targets[..., :n] = labels == np.arange(C).reshape((C,) + (1,) * labels.ndim)
        if mp:
            pseudo_t = groups[2][1].astype(np.float64, copy=False)
            targets[..., n:] = np.moveaxis(pseudo_t, -1, 0)
        self.w = np.concatenate([g[2] for g in groups if g is not None], axis=-1)[None]
        if not all(np.isfinite(a).all()
                   for a in [targets, self.w] + [g[0] for g in groups if g is not None]):
            raise NonFiniteInput("training items, targets or weights hold nan or inf")
        self.tw = targets * self.w
        self.all = _Columns(self.logits, self.exp, self.row, self.w, self.tw, self.single)
        logits, exp = np.moveaxis(self.logits, 0, -2), np.moveaxis(self.exp, 0, -2)
        self.groups = []
        for i, (g, c, m) in enumerate(zip(groups, cols, widths)):
            if m:
                x1 = np.concatenate([g[0], np.ones(g[0].shape[:-1] + (1,))], axis=-1)
                self.groups.append(_Group(
                    i, x1, np.ascontiguousarray(x1.swapaxes(-1, -2)), logits[..., c],
                    exp[..., c], Gradients(np.zeros(lead + (C, d)), np.zeros(lead + (C,))),
                    _Columns(*(a[..., c] for a in self.all[:5]),
                             [slice(None)] if m == 1 else [])))
        # the groups of a lane step on the lane's thread (the widest) and on
        # the calling one (the others)
        wide = max(self.groups, key=lambda g: g.x1.shape[-2], default=None)
        self.shares = ([wide], [g for g in self.groups if g is not wide])
        self.lane = None   # a _Lane, set by fit_batches if `splits`
        if losses:
            # sum_c t log t: 0 for a CE item, the negated entropy of a pseudo
            # item's targets
            self.targets, self.neg_entropy = targets, np.zeros((1,) + lead + (M,))
            if mp:
                t = pseudo_t
                self.neg_entropy[0, ..., n:] = np.where(t > 0, t * np.log(
                    np.where(t > 0, t, 1.0)), 0.0).sum(axis=-1)
            self.rows = [(i, g[2][..., None, :], c)
                         for i, (g, c, m) in enumerate(zip(groups, cols, widths)) if m]

    @classmethod
    def of(cls, batch: TrainingBatch, losses: bool = True) -> "_Items":
        return cls(batch.num_classes, *_groups(batch), losses=losses)

    @property
    def splits(self) -> bool:
        """Whether a step may run on two threads: the fit computes no losses,
        has two groups or more and does LANE_MIN_TERMS multiply-adds or more
        in one GEMM pass over its items."""
        return not self.losses and len(self.groups) >= 2 and self.terms >= LANE_MIN_TERMS

    def step(self, model: AdapterModel, betas=(1.0, 1.0, 1.0)):
        """(total, (lv, lf, lp), grads) at `model`, the group losses weighted
        by `betas` in the total and the gradients summed gv + beta_f * gf +
        beta_p * gp, in that order, in the first group's arrays. The losses
        are None unless self.losses; a group without items adds nothing."""
        if model.weights.shape != self.probe_shape:
            error = (DimensionMismatch if model.weights.shape[-1] != self.probe_shape[-1]
                     else ShapeMismatch)
            raise error(f"probe weights {model.weights.shape}, expected {self.probe_shape}")
        losses = (None, (None, None, None))
        if self.lane is not None:
            there, here = self.shares
            self.lane.run(partial(_chains, model, there, betas),
                          partial(_chains, model, here, betas))
        else:
            for g in self.groups:
                np.matmul(model.packed, g.x1t, out=g.logits)
            _softmax_sums(self.all)
            if self.losses:
                losses = self._losses(betas)
            _dlogits(self.all)
            for g in self.groups:
                _gradients(g, betas)
        if not self.groups:
            return (*losses, Gradients(np.zeros_like(model.weights), np.zeros_like(model.bias)))
        grads = self.groups[0].grads
        for g in self.groups[1:]:
            grads.packed += g.grads.packed
        return (*losses, grads)

    def _losses(self, betas):
        """The weighted total and the group losses, from the shifted logits
        in self.logits (which it overwrites) and the class sums in self.row:
        sum_c t log t - sum_c t (z - log sum) per item, weighted and summed
        per group. A CE item's loss is exactly log sum - (z_y - max), its
        other terms being zeros."""
        z, cross = self.logits, np.log(self.row)
        z -= cross
        z *= self.targets
        _class_sum(z, cross, self.single)
        item = np.subtract(self.neg_entropy, cross, out=cross)[0]
        losses = [self.zero] * 3
        for i, w_row, c in self.rows:
            losses[i] = _dot(w_row, item[..., c])
        lv, lf, lp = losses
        return lv + betas[1] * lf + betas[2] * lp, (lv, lf, lp)


def _class_sum(a, out, single) -> None:
    """out = a summed over classes (axis 0), the columns in `single` from a
    contiguous copy, so each group sums in the order of a buffer of its
    own."""
    np.add.reduce(a, axis=0, keepdims=True, out=out)
    for c in single:
        column = np.ascontiguousarray(np.moveaxis(a[..., c], 0, -2))
        out[..., c] = np.moveaxis(np.add.reduce(column, axis=-2, keepdims=True), -2, 0)


def _softmax_sums(c: _Columns) -> None:
    """Shift each column of c.z by its max over classes, exponentiate it
    into c.e and sum that over classes into c.row."""
    z, row = c.z, c.row
    z -= np.maximum.reduce(z, axis=0, keepdims=True, out=row)
    _class_sum(np.exp(z, out=c.e), row, c.single)


def _dlogits(c: _Columns) -> None:
    """c.e = exp(z - max) * (w / sum) - T * w: the logit gradients."""
    e = c.e
    e *= np.divide(c.w, c.row, out=c.row)
    e -= c.tw


def _gradients(g: _Group, betas) -> None:
    """A group's gradients from its dlogits, scaled by its beta."""
    np.matmul(g.dlogits, g.x1, out=g.grads.packed)
    if betas[g.index] != 1.0:
        g.grads.packed *= betas[g.index]


def _chains(model: AdapterModel, groups, betas) -> None:
    """Each group's chain, a step over its own columns only: its logits
    GEMM, softmax sums, dlogits and scaled gradients."""
    for g in groups:
        np.matmul(model.packed, g.x1t, out=g.logits)
        _softmax_sums(g.cols)
        _dlogits(g.cols)
        _gradients(g, betas)


@contextmanager
def _second_thread(wanted: bool):
    """A _Lane, closed on leaving, if wanted and the process may run on two
    CPUs or more (os.sched_getaffinity, which `taskset` sets); else None,
    and no thread starts."""
    if not wanted or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1) < 2:
        yield None
        return
    lane = _Lane()
    try:
        yield lane
    finally:
        lane.close()


class _Lane:
    """A second thread for one fit, which runs one call at a time for the
    thread that made it (see run). Between calls it blocks on a queue and
    uses no CPU. close() ends it, so a process forked after a fit holds no
    lane that its own fits could wait on."""

    def __init__(self):
        self._calls, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name="segtta-lane", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for context, fn in iter(self._calls.get, None):
            try:
                context.run(fn)
            except BaseException as error:   # handed to the caller, who raises it
                self._done.put(error)
            else:
                self._done.put(None)

    def run(self, there, here) -> None:
        """there() on the lane's thread, in a copy of the caller's contextvars
        context (numpy's errstate is context-local), while here() runs on
        the calling thread; returns once both have returned, and raises in
        the caller what there() raised."""
        self._calls.put((contextvars.copy_context(), there))
        try:
            here()
        finally:
            error = self._done.get()
            if error is not None:
                raise error

    def close(self) -> None:
        self._calls.put(None)
        self._thread.join()


def _groups(batch: TrainingBatch):
    """The batch's visual, fused and pseudo groups: (items, labels or
    targets, weights) each."""
    return ((batch.visual_x, batch.visual_y, batch.visual_w),
            (batch.fused_x, batch.fused_y, batch.fused_w),
            (batch.pseudo_x, batch.pseudo_t, batch.pseudo_w))


def _check_group(group, lead, d, target):
    """ShapeMismatch unless a group's items, labels or targets and weights
    are (*lead, m, d), (*lead, m, *target) and (*lead, m); DimensionMismatch
    if its items have another d."""
    x, y, w = group
    if x.ndim >= 2 and x.shape[:-2] == lead and x.shape[-1] != d:
        raise DimensionMismatch(f"items of d = {x.shape[-1]} and of d = {d} in one fit")
    m = x.shape[-2] if x.ndim >= 2 else None
    if x.shape != lead + (m, d) or y.shape != lead + (m,) + target or w.shape != lead + (m,):
        raise ShapeMismatch(f"items {x.shape}, {'targets' if target else 'labels'} "
                            f"{y.shape} and weights {w.shape} do not agree")


def _dot(row: np.ndarray, b: np.ndarray):
    """row @ b over the item axis, row (..., 1, m): a float for one query,
    (Q,) for a stack. A (1, m) @ (m, 1) matmul is the BLAS dot a 1-d `@`
    makes."""
    return np.matmul(row, b[..., :, None])[..., 0, 0][()]


def weighted_cross_entropy(model: AdapterModel, vecs: np.ndarray, labels: np.ndarray,
                           weights: np.ndarray):
    """Sum of per-item weighted CE between softmax(model(v)) and the label.

    One query: a (C, d) model, (m, d) vecs, (m,) labels and weights give a
    float loss and (C, d)/(C,) gradients. Stacked: a leading query axis on
    the model and all items gives (Q,) losses. No items (m = 0) give a zero
    loss and zero gradients.
    """
    items = _Items(model.num_classes, visual=(vecs, labels, weights))
    _, (loss, _, _), grads = items.step(model)
    return loss, grads


# CE over retrieved support entries and over the text/visual interpolations
# of the retrieved classes, both weighted by class relevance
visual_support_loss = weighted_cross_entropy
fused_support_loss = weighted_cross_entropy


def pseudo_label_loss(model: AdapterModel, vecs: np.ndarray, targets: np.ndarray,
                      weights: np.ndarray):
    """Sum of weighted KL(target || softmax(model(v))), for one query or a
    stack (as weighted_cross_entropy); targets are (m, C) or (Q, m, C).

    Includes the target entropy term, so the loss is exactly zero when the
    model reproduces the target. With one-hot targets it gives the losses
    and gradients of weighted_cross_entropy byte for byte: CE is KL against
    a target whose entropy is 0.
    """
    items = _Items(model.num_classes, pseudo=(vecs, targets, weights))
    _, (_, _, loss), grads = items.step(model)
    return loss, grads


def total_loss(model: AdapterModel, batch: TrainingBatch | _Items, config: TrainConfig):
    """Combined objective: L = L_visual + beta_f * L_fused + beta_p * L_pseudo.

    For one query or a stacked batch: a TrainingBatch, or the _Items that a
    fit builds once from its stacked batch, whose losses read None unless
    it was built to compute them. One softmax runs over all the items, and
    their logit gradients are one expression of their targets (see _Items);
    each group has its own logits and gradient GEMMs. A group without items
    is not computed: its loss is zero and it adds nothing to the gradients.
    Returns (total, (lv, lf, lp), gradients).
    """
    items = batch if isinstance(batch, _Items) else _Items.of(batch)
    return items.step(model, (1.0, config.beta_f, config.beta_p))


def _adam(g, m, v, param, step, denom, learning_rate: float, c1: float, c2: float):
    """Adam's arithmetic on one array of parameters, in place; step and
    denom are scratch arrays of its shape.

    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    param -= lr (m / c1) / (sqrt(v / c2) + eps), in that order
    """
    np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    m *= ADAM_BETA1
    m += step
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    step *= g
    v *= ADAM_BETA2
    v += step
    np.divide(m, c1, out=step)
    step *= learning_rate
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    step /= denom
    param -= step


def adam_step(model: AdapterModel, grads: Gradients, state: AdamState,
              config: TrainConfig, step_index: int) -> tuple[AdapterModel, AdamState]:
    """One bias-corrected Adam update, in place, of one probe or a stack:
    one pass over the packed arrays updates the weights and the bias
    together. step_index counts from 0.
    """
    if not np.isfinite(grads.packed).all():
        raise NonFiniteGradient("gradient contains nan or inf")
    t = step_index + 1
    arrays = (grads.packed, state.m.packed, state.v.packed, model.packed, state.step,
              state.denom)
    scalars = (config.learning_rate, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
    if state.lane is None:
        _adam(*arrays, *scalars)
        return model, state
    # element-wise, so two halves of the class rows give the same bits
    half = model.packed.shape[-2] // 2
    state.lane.run(partial(_adam, *(a[..., half:, :] for a in arrays), *scalars),
                   partial(_adam, *(a[..., :half, :] for a in arrays), *scalars))
    return model, state


def _class_ids(values, num_classes: int) -> list[int]:
    """The distinct class ids in values, ascending, as Python ints. Each must
    be an integer in [0, num_classes): a bool, float or string raises
    ValidationError, as does values that is not a collection."""
    try:
        values = list(values)
    except TypeError:
        raise ValidationError(f"class ids must be a collection, got {values!r}") from None
    return sorted(set(whole("class id", c, 0, num_classes - 1) for c in values))


def pseudo_visual_class_features(x: DenseFeatureMap, bank: TextBank, tau: float,
                                 missing) -> list[tuple[int, np.ndarray]]:
    """Pooled query features for visually unsupported classes.

    Patches are hard-assigned to their most text-similar class; each requested
    class present in that assignment yields the unit mean of its patches.
    Returns (class_id, unit float64 vector) ordered by class id.
    """
    missing = _class_ids(missing, bank.num_classes)
    if not missing or bank.fallback:
        return []
    scores = x.data @ np.asarray(bank.features, dtype=np.float64).T
    assign = np.argmax(scores, axis=1)  # temperature-invariant, ties -> lowest id
    out = []
    for c in missing:
        picked = assign == c
        if picked.any():
            out.append((c, unit(x.data[picked].mean(axis=0))))
    return out


def assemble_batch(store: SupportStore, retrieved: RetrievedSet, weights: np.ndarray,
                   pseudo_features, bank: TextBank, config: TrainConfig) -> TrainingBatch:
    """Stack the three item groups into fixed arrays.

    Fused items cover the retrieved classes, pseudo items the supplied
    (class, vector) pairs; both fuse with `bank` and expand over its effective
    lambda grid in order, classes ascending.
    """
    C, d = store.num_classes, store.dim
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (C,):
        raise ValidationError(f"weights shape {weights.shape}, expected ({C},)")
    lams = effective_lambdas(store, bank)

    # content-canonical order: makes the stacked arrays identical for any
    # store built from the same image multiset, whatever the insertion order.
    # Keys, most significant first: class, vector bytes (one void scalar per
    # row, compared as bytes), image id, entry id
    e = retrieved.entries
    vector_bytes = np.ascontiguousarray(e.vector).view(f"V{4 * d}").ravel()
    ordered = e[np.lexsort((e.entry_id, e.image_id, vector_bytes, e.class_id))]
    visual_x = ordered.vector.astype(np.float64).reshape(-1, d)
    visual_y = ordered.class_id.astype(np.int64)
    visual_w = weights[visual_y]

    fused_x = fused_rows(store, bank, retrieved.classes).astype(np.float64)
    fused_y = np.repeat(np.array(retrieved.classes, dtype=np.int64), len(lams))
    fused_w = weights[fused_y]

    pseudo_classes = np.array([c for c, _ in pseudo_features], dtype=np.int64)
    pseudo_v = np.array([v for _, v in pseudo_features], dtype=np.float64).reshape(-1, d)
    pseudo_x = fuse_grid(bank.features[pseudo_classes], pseudo_v, lams)
    # text @ f for each row f: a stacked gemv, which rounds as one row's
    # (C, d) @ (d,) does; a pseudo_x @ text.T GEMM would not
    text = np.asarray(bank.features, dtype=np.float64)
    pseudo_t = softmax(np.matmul(text, pseudo_x[:, :, None])[..., 0], config.tau)
    pseudo_w = weights[np.repeat(pseudo_classes, len(lams))]

    return TrainingBatch(visual_x, visual_y, visual_w, fused_x, fused_y, fused_w,
                         pseudo_x, pseudo_t, pseudo_w, num_classes=C)


def _retrieved(store: SupportStore, x: DenseFeatureMap, unsupported: list,
               config: TrainConfig) -> RetrievedSet:
    """The entries retrieved for one query, less those of unsupported
    classes; none from an empty store."""
    if store.size == 0:
        return RetrievedSet(store.entries)
    retrieved = retrieve_for_image(x, store, config.k)
    if unsupported:
        e = retrieved.entries
        retrieved = RetrievedSet(e[~np.isin(e.class_id, unsupported)])
    return retrieved


def _query_batch(store: SupportStore, x: DenseFeatureMap, retrieved: RetrievedSet,
                 bank: TextBank, unsupported: list, config: TrainConfig) -> TrainingBatch:
    """Assemble one query's training items from its retrieved entries."""
    # a fallback bank gives uniform weights and no pseudo items
    weights = class_relevance_weights(x, bank, config.tau)
    pseudo = pseudo_visual_class_features(x, bank, config.tau, unsupported)
    return assemble_batch(store, retrieved, weights, pseudo, bank, config)


def _stack(batches: list) -> TrainingBatch:
    """The batches of Q queries as one, with a leading query axis. Each
    group is padded to its longest query with zero rows of zero weight (and
    label 0, target 0), which add nothing to a loss or a gradient."""
    if len({(b.num_classes, b.visual_x.shape[-1]) for b in batches}) > 1:
        raise ValidationError("batches fitted together must share C and d")
    C, d = batches[0].num_classes, batches[0].visual_x.shape[-1]
    for b in batches:
        for i, group in enumerate(_groups(b)):
            _check_group(group, (), d, (C,) if i == 2 else ())

    def pad(arrays):
        out = np.zeros((len(arrays), max(len(a) for a in arrays)) + arrays[0].shape[1:],
                       dtype=arrays[0].dtype)
        for o, a in zip(out, arrays):
            o[:len(a)] = a
        return out

    groups = [f.name for f in fields(TrainingBatch) if f.name != "num_classes"]
    return TrainingBatch(*(pad([getattr(b, g) for b in batches]) for g in groups),
                         num_classes=batches[0].num_classes)


def query_batches(store: SupportStore, xs, bank: TextBank, unsupported=(),
                  config: TrainConfig = TrainConfig()) -> list:
    """The TrainingBatch of each query image in xs, in order, for a fit on
    store and bank; fit_batches fits them.

    `unsupported` classes are treated as having no visual support even if
    the store holds entries for them. The store is only read; `bank` is the
    sole text input.
    """
    (batches,) = _bank_batches(store, xs, [bank], unsupported, config)
    return batches


def _bank_batches(store: SupportStore, xs, banks, unsupported, config: TrainConfig) -> list:
    """query_batches(store, xs, bank, unsupported, config) for each bank in
    banks, in order, from one retrieval per query: what a query retrieves
    depends on the store and `unsupported`, not on the bank."""
    instance_of("config", config, TrainConfig)
    for bank in banks:
        check_text_bank(store, bank)
    unsupported = _class_ids(unsupported, store.num_classes)
    retrieved = [_retrieved(store, x, unsupported, config) for x in xs]
    return [[_query_batch(store, x, r, bank, unsupported, config)
             for x, r in zip(xs, retrieved)] for bank in banks]


def fit_batches(batches: list, config: TrainConfig = TrainConfig(),
                history: list | None = None) -> list:
    """Fit one probe per TrainingBatch, all in one Adam loop over a stack of
    probes, gradients and Adam moments allocated once.

    The batches may come from different stores and banks if they share C
    and d. Returns one entry per batch, in order: its own AdapterModel, or
    None for an empty batch (no retrieved entry, fused class or pseudo
    feature), for which callers fall back to the text-only classifier.
    history, if given, gets one StepRecord per step whose losses are arrays
    over the non-empty batches; without it no step computes a loss, only
    the gradients. batches must be a list of TrainingBatch and history a
    list (ValidationError); nan or inf in a batch raises NonFiniteInput,
    and a step that overflows or computes a nan (finite items or weights
    too large, e.g. 1e200) raises NonFiniteGradient.

    A large fit without a history runs part of each step on a second
    thread, if the process may use two CPUs, with the same bits as on one:
    the widest item group (see _Items) and half of Adam's class rows.

    Each probe is its batch's fit alone, except that padding to another
    batch's width can round a gradient sum differently (~1e-16). Where that
    sum is exactly 0 alone, as when classes balance at the zero init, Adam
    turns the difference into a step of lr * g / eps: ~1e-9 apart.
    """
    instance_of("batches", batches, list)
    for b in batches:
        instance_of("batch", b, TrainingBatch)
    instance_of("config", config, TrainConfig)
    if history is not None:
        instance_of("history", history, list)
    trained = [i for i, b in enumerate(batches) if not b.is_empty]
    models = [None] * len(batches)
    if not trained:
        return models

    batch = _stack([batches[i] for i in trained])
    Q, C, d = len(trained), batch.num_classes, batch.visual_x.shape[-1]
    weights, bias = np.zeros((Q, C, d)), np.zeros((Q, C))
    fit, state = AdapterModel(weights, bias), AdamState(weights, weights, bias, bias)
    items = _Items.of(batch, losses=history is not None)
    try:
        with np.errstate(over="raise", invalid="raise"), _second_thread(items.splits) as lane:
            items.lane = state.lane = lane
            for s in range(config.steps):
                tot, losses, grads = total_loss(fit, items, config)
                if history is not None:
                    history.append(StepRecord(s, tot, *losses))
                adam_step(fit, grads, state, config, s)
    except FloatingPointError as error:
        raise NonFiniteGradient(f"a fit step overflowed: {error}") from error
    for j, i in enumerate(trained):
        models[i] = AdapterModel(fit.weights[j], fit.bias[j])
    return models


def train_adapter(store: SupportStore, x: DenseFeatureMap, bank: TextBank,
                  unsupported=(), config: TrainConfig = TrainConfig(),
                  history: list | None = None) -> AdapterModel | None:
    """Fit the linear probe for one query image: fit_batches on its
    query_batches. None means no training item (see fit_batches).

    history, if given, gets one StepRecord of float losses per step.
    """
    records = None if history is None else []
    (model,) = fit_batches(query_batches(store, [x], bank, unsupported, config), config,
                           records)
    if history is not None:
        history.extend(StepRecord(r.step, *(float(v[0]) for v in
                                            (r.total, r.visual, r.fused, r.pseudo)))
                       for r in records)
    return model
