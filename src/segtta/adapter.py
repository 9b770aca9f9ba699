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
the items of a fit share one logits buffer, so each step runs one
log-softmax over all of them, and it computes the losses only for a
history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch, ValidationError
from .numerics import DenseFeatureMap, softmax, unit
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
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.steps, self.k)):
            raise ValidationError("steps and k must be integers")
        reals = (self.learning_rate, self.tau, self.beta_f, self.beta_p)
        if not all(math.isfinite(v) for v in reals):
            raise ValidationError("learning_rate, tau, beta_f and beta_p must be finite")
        if self.steps < 1 or self.k < 1 or self.learning_rate <= 0 or self.tau <= 0:
            raise ValidationError("steps >= 1, k >= 1, learning_rate > 0, tau > 0 required")
        if self.beta_f < 0 or self.beta_p < 0:
            raise ValidationError("loss coefficients must be >= 0")


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
    (see _Packed), and two scratch arrays of that layout."""

    def __init__(self, m_weights, v_weights, m_bias, v_bias):
        self.m, self.v = _Packed(m_weights, m_bias), _Packed(v_weights, v_bias)
        self.step, self.denom = np.empty_like(self.m.packed), np.empty_like(self.m.packed)

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


class _Items:
    """The items of one fit, of one query or a stack, and what every step
    reuses, so a step allocates and derives little.

    All M items share one class-major logits buffer, (C, M) or (Q, C, M):
    the visual, fused and pseudo groups are its column ranges [0, mv),
    [mv, mv + mf) and [mv + mf, M). numpy reduces a short contiguous axis
    one row at a time, so the per-item max and log-sum-exp over C run faster
    down columns of items than along rows of classes. Every reduction of a
    step runs down one item column or along one group's columns, so each
    group rounds as it would in a buffer of its own, with one exception that
    `single` mends: a buffer one column wide sums its classes pairwise, not
    row by row.

    Each group keeps its float64 items with a ones column appended, x1 of
    shape (..., m, d + 1), and x1's C-contiguous transpose x1t. So its
    logits are one plain GEMM, packed @ x1t, with the bias in it, and its
    gradients another, dlogits @ x1, whose column d sums the bias gradient.
    Also kept once: the flat position of each CE item's label logit, the
    class-major pseudo targets and their entropy, and one Gradients per
    group. A step computes the losses only if `losses`.
    """

    def __init__(self, num_classes: int, visual=None, fused=None, pseudo=None,
                 losses: bool = True):
        C, self.losses = num_classes, losses
        groups = [None if g is None else (np.asarray(g[0], np.float64), np.asarray(g[1]),
                                          np.asarray(g[2], np.float64))
                  for g in (visual, fused, pseudo)]
        x0 = next(g[0] for g in groups if g is not None)
        lead, d = x0.shape[:-2], x0.shape[-1]
        widths = [0 if g is None else g[2].shape[-1] for g in groups]
        mv, mf, mp = widths
        M = sum(widths)
        cols = [slice(0, mv), slice(mv, mv + mf), slice(mv + mf, M)]
        self.logits, self.exp = np.empty(lead + (C, M)), np.empty(lead + (C, M))
        self.row = np.empty(lead + (1, M))   # each item's max, then its log-sum-exp
        self.zero = np.zeros(lead)[()]
        # per group with items: its index, items with a ones column, their
        # transpose, its columns of logits and of exponentials (then
        # dlogits), and its gradients
        self.groups = []
        for i, (g, c, m) in enumerate(zip(groups, cols, widths)):
            if m:
                x1 = np.concatenate([g[0], np.ones(g[0].shape[:-1] + (1,))], axis=-1)
                self.groups.append((i, x1, np.ascontiguousarray(x1.swapaxes(-1, -2)),
                                    self.logits[..., c], self.exp[..., c],
                                    Gradients(np.zeros(lead + (C, d)), np.zeros(lead + (C,)))))
        self.single = [(self.exp[..., c], self.row[..., c])
                       for c, m in zip(cols, widths) if m == 1 and M > 1]

        self.ce = self.kl = None
        self.picks = []   # per CE group with items: index, label positions, weights
        if mv + mf:
            ce = [(i, g) for i, (g, m) in enumerate(zip(groups[:2], widths)) if m]
            labels = np.concatenate([g[1] for _, g in ce], axis=-1)
            if labels.size and (labels.min() < 0 or labels.max() >= C):
                raise ValidationError(f"item labels outside [0, {C})")
            w = np.concatenate([g[2] for _, g in ce], axis=-1)
            # item i of query q reads logit (q, y, i): q*C*M + y*M + i
            n = mv + mf
            queries = np.arange(math.prod(lead))[:, None]
            label_at = ((queries * C + labels.reshape(queries.size, n)) * M
                        + np.arange(n)).reshape(lead + (n,))
            self.ce = (self.exp[..., :n], w[..., None, :], label_at, w)
            self.picks = [(i, label_at[..., cols[i]], g[2][..., None, :]) for i, g in ce]
        if mp:
            _, targets, w = groups[2]
            targets = targets.astype(np.float64, copy=False)
            entropy = np.where(targets > 0, targets * np.log(
                np.where(targets > 0, targets, 1.0)), 0.0).sum(axis=-1)
            self.kl = (self.logits[..., cols[2]], self.exp[..., cols[2]],
                       np.ascontiguousarray(targets.swapaxes(-1, -2)), w[..., None, :],
                       entropy, np.empty(lead + (mp,)))

    @classmethod
    def of(cls, batch: TrainingBatch, losses: bool = True) -> "_Items":
        return cls(batch.num_classes, (batch.visual_x, batch.visual_y, batch.visual_w),
                   (batch.fused_x, batch.fused_y, batch.fused_w),
                   (batch.pseudo_x, batch.pseudo_t, batch.pseudo_w), losses)

    def step(self, model: AdapterModel, betas=(1.0, 1.0, 1.0)):
        """(total, (lv, lf, lp), grads) at `model`, the group losses weighted
        by `betas` in the total and the gradients summed gv + beta_f * gf +
        beta_p * gp, in that order, in the first group's arrays. The losses
        are None unless self.losses; a group without items adds nothing."""
        z = self.logits
        for _, _, x1t, logits, _, _ in self.groups:
            np.matmul(model.packed, x1t, out=logits)
        # log_softmax over classes, every column at once
        z -= np.maximum.reduce(z, axis=-2, keepdims=True, out=self.row)
        lse = np.add.reduce(np.exp(z, out=self.exp), axis=-2, keepdims=True, out=self.row)
        for e, r in self.single:
            np.add.reduce(e, axis=-2, keepdims=True, out=r)
        z -= np.log(lse, out=lse)
        losses = self._losses(betas) if self.losses else (None, (None, None, None))

        np.exp(z, out=self.exp)
        if self.ce is not None:
            dlogits, w_row, label_at, w = self.ce
            dlogits *= w_row
            self.exp.reshape(-1)[label_at] -= w
        if self.kl is not None:
            _, dlogits, targets, w_row, _, _ = self.kl
            dlogits -= targets
            dlogits *= w_row
        grads = None
        for i, x1, _, _, dlogits, g in self.groups:
            np.matmul(dlogits, x1, out=g.packed)
            if betas[i] != 1.0:
                g.packed *= betas[i]
            if grads is None:
                grads = g
            else:
                grads.packed += g.packed
        if grads is None:
            grads = Gradients(np.zeros_like(model.weights), np.zeros_like(model.bias))
        return (*losses, grads)

    def _losses(self, betas):
        """The weighted total and the group losses, read from the log-probs
        in self.logits: CE is -log p of each item's label, KL adds the
        target entropy."""
        losses = [self.zero] * 3
        for i, label_at, w_row in self.picks:
            picked = self.logits.reshape(-1)[label_at]
            losses[i] = _dot(w_row, np.negative(picked, out=picked))
        if self.kl is not None:
            logq, scratch, targets, w_row, entropy, cross = self.kl
            np.add.reduce(np.multiply(targets, logq, out=scratch), axis=-2, out=cross)
            losses[2] = _dot(w_row, np.subtract(entropy, cross, out=cross))
        lv, lf, lp = losses
        return lv + betas[1] * lf + betas[2] * lp, (lv, lf, lp)


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
    model reproduces the target.
    """
    items = _Items(model.num_classes, pseudo=(vecs, targets, weights))
    _, (_, _, loss), grads = items.step(model)
    return loss, grads


def total_loss(model: AdapterModel, batch: TrainingBatch | _Items, config: TrainConfig):
    """Combined objective: L = L_visual + beta_f * L_fused + beta_p * L_pseudo.

    For one query or a stacked batch: a TrainingBatch, or the _Items that a
    fit builds once from its stacked batch, whose losses read None unless
    it was built to compute them. One log-softmax runs over all the items;
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
    _adam(grads.packed, state.m.packed, state.v.packed, model.packed, state.step,
          state.denom, config.learning_rate, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
    return model, state


def pseudo_visual_class_features(x: DenseFeatureMap, bank: TextBank, tau: float,
                                 missing) -> list[tuple[int, np.ndarray]]:
    """Pooled query features for visually unsupported classes.

    Patches are hard-assigned to their most text-similar class; each requested
    class present in that assignment yields the unit mean of its patches.
    Returns (class_id, unit float64 vector) ordered by class id.
    """
    missing = sorted(set(int(c) for c in missing))
    if any(c < 0 or c >= bank.num_classes for c in missing):
        raise ValidationError("class id outside bank range")
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


def _query_batch(store: SupportStore, x: DenseFeatureMap, bank: TextBank,
                 unsupported: set, config: TrainConfig) -> TrainingBatch:
    """Retrieve for one query and assemble its training items."""
    if store.size > 0:
        retrieved = retrieve_for_image(x, store, config.k)
        if unsupported:
            e = retrieved.entries
            kept = e[~np.isin(e.class_id, list(unsupported))]
            retrieved = RetrievedSet(kept)
    else:
        retrieved = RetrievedSet(store.entries)

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
    check_text_bank(store, bank)
    unsupported = set(int(c) for c in unsupported)
    return [_query_batch(store, x, bank, unsupported, config) for x in xs]


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
    the gradients.

    Each probe is its batch's fit alone, except that padding to another
    batch's width can round a gradient sum differently (~1e-16). Where that
    sum is exactly 0 alone, as when classes balance at the zero init, Adam
    turns the difference into a step of lr * g / eps: ~1e-9 apart.
    """
    trained = [i for i, b in enumerate(batches) if not b.is_empty]
    models = [None] * len(batches)
    if not trained:
        return models

    batch = _stack([batches[i] for i in trained])
    Q, C, d = len(trained), batch.num_classes, batch.visual_x.shape[-1]
    weights, bias = np.zeros((Q, C, d)), np.zeros((Q, C))
    fit, state = AdapterModel(weights, bias), AdamState(weights, weights, bias, bias)
    items = _Items.of(batch, losses=history is not None)
    for s in range(config.steps):
        tot, losses, grads = total_loss(fit, items, config)
        if history is not None:
            history.append(StepRecord(s, tot, *losses))
        adam_step(fit, grads, state, config, s)
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
