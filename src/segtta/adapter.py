"""Per-image linear probe: batch assembly, losses, Adam, training loop.

The probe is a linear map R^d -> R^C trained from zero init on three item
groups: retrieved support vectors (cross-entropy), text/visual interpolations
per retrieved class (weighted cross-entropy), and interpolations built from
pseudo-pooled query features for classes lacking visual support (weighted KL
against their text-similarity distribution). All training math is float64.

The losses and adam_step take one probe, or Q probes stacked on a leading
query axis (a (Q, C, d) model over (Q, m, d) items), and do each query's
arithmetic as a call for that query alone would. A probe, its gradients
and its Adam moments are each one array, weights then bias (see _Packed),
so a step scales, sums, checks and updates a gradient in one pass.
fit_batches fits the probes of many queries in one loop over a stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteGradient, ValidationError
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
    `packed`, of shape (*lead, C*d + C): per probe its weights, row by row,
    then its bias. Within a probe both views are C-contiguous, so every
    GEMM sees plain matrices, and element-wise arithmetic on a gradient or
    an update takes one pass over `packed`. The constructor copies weights
    and bias into a new float64 such array."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        weights = np.asarray(weights)
        *lead, C, d = weights.shape
        self.packed = np.empty((*lead, C * d + C))
        self.weights = self.packed[..., :C * d].reshape(weights.shape)
        self.bias = self.packed[..., C * d:]
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


class _Buffers:
    """What one item group reuses on every step of a fit, so a step
    allocates and derives little: the float64 items, their transpose and
    their weights as a row; logits, exponentials, per-item values and the
    gradient; and what the fixed items determine: the flat position of each
    CE item's label logit, or the pseudo targets and their entropy.

    Logits are class-major, (C, m) or (Q, C, m): numpy reduces a short
    contiguous axis one row at a time, so the per-item max and log-sum-exp
    over C run faster down columns of items than along rows of classes."""

    def __init__(self, vecs, weights, num_classes: int, labels=None, targets=None):
        self.x = np.asarray(vecs, np.float64)
        self.x_t = self.x.swapaxes(-1, -2)
        self.w = np.asarray(weights, np.float64)
        self.w_row = self.w[..., None, :]   # scales each item's column of logits
        lead, (m, d), C = self.x.shape[:-2], self.x.shape[-2:], num_classes
        self.logits = np.empty(lead + (C, m))
        self.exp = np.empty(lead + (C, m))
        self.row = np.empty(lead + (1, m))   # each item's max, then its log-sum-exp
        self.grads = Gradients(np.zeros(lead + (C, d)), np.zeros(lead + (C,)))
        if labels is not None:
            labels = np.asarray(labels)
            if labels.size and (labels.min() < 0 or labels.max() >= C):
                raise ValidationError(f"item labels outside [0, {C})")
            # item i of query q reads logit (q, y, i): q*C*m + y*m + i
            queries = np.arange(math.prod(lead))[:, None]
            self.label_at = ((queries * C + labels.reshape(queries.size, m)) * m
                             + np.arange(m)).ravel()
        if targets is not None:
            targets = np.asarray(targets, np.float64)
            self.targets = np.ascontiguousarray(targets.swapaxes(-1, -2))
            self.cross = np.empty(lead + (m,))
            self.entropy = np.where(targets > 0, targets * np.log(
                np.where(targets > 0, targets, 1.0)), 0.0).sum(axis=-1)

    def gradients(self, dlogits: np.ndarray) -> Gradients:
        np.matmul(dlogits, self.x, out=self.grads.weights)
        np.add.reduce(dlogits, axis=-1, out=self.grads.bias)
        return self.grads


def _log_probs(model: AdapterModel, work: _Buffers) -> np.ndarray:
    """log_softmax(W @ x^T + b) over classes, class-major in work.logits."""
    z = np.matmul(model.weights, work.x_t, out=work.logits)
    z += model.bias[..., :, None]
    z -= np.maximum.reduce(z, axis=-2, keepdims=True, out=work.row)
    lse = np.add.reduce(np.exp(z, out=work.exp), axis=-2, keepdims=True, out=work.row)
    z -= np.log(lse, out=lse)
    return z


def _dot(row: np.ndarray, b: np.ndarray):
    """row @ b over the item axis, row (..., 1, m): a float for one query,
    (Q,) for a stack. A (1, m) @ (m, 1) matmul is the BLAS dot a 1-d `@`
    makes."""
    return np.matmul(row, b[..., :, None])[..., 0, 0][()]


def weighted_cross_entropy(model: AdapterModel, vecs: np.ndarray, labels: np.ndarray,
                           weights: np.ndarray, work: _Buffers | None = None):
    """Sum of per-item weighted CE between softmax(model(v)) and the label.

    One query: a (C, d) model, (m, d) vecs, (m,) labels and weights give a
    float loss and (C, d)/(C,) gradients. Stacked: a leading query axis on
    the model and all items gives (Q,) losses. `work`, buffers built for
    these items, is reused across steps and read in place of the items;
    None builds them. No items (m = 0) give a zero loss and zero gradients.
    """
    work = work or _Buffers(vecs, weights, model.num_classes, labels=labels)
    logp = _log_probs(model, work)
    picked = logp.reshape(-1)[work.label_at]
    loss = _dot(work.w_row, np.negative(picked, out=picked).reshape(work.w.shape))
    dlogits = np.exp(logp, out=work.exp)
    dlogits *= work.w_row
    dlogits.reshape(-1)[work.label_at] -= work.w.reshape(-1)
    return loss, work.gradients(dlogits)


# CE over retrieved support entries and over the text/visual interpolations
# of the retrieved classes, both weighted by class relevance
visual_support_loss = weighted_cross_entropy
fused_support_loss = weighted_cross_entropy


def pseudo_label_loss(model: AdapterModel, vecs: np.ndarray, targets: np.ndarray,
                      weights: np.ndarray, work: _Buffers | None = None):
    """Sum of weighted KL(target || softmax(model(v))), for one query or a
    stack (as weighted_cross_entropy); targets are (m, C) or (Q, m, C).

    Includes the target entropy term, so the loss is exactly zero when the
    model reproduces the target.
    """
    work = work or _Buffers(vecs, weights, model.num_classes, targets=targets)
    logq = _log_probs(model, work)
    cross = np.add.reduce(np.multiply(work.targets, logq, out=work.exp), axis=-2,
                          out=work.cross)
    loss = _dot(work.w_row, np.subtract(work.entropy, cross, out=cross))
    dlogits = np.exp(logq, out=work.exp)
    dlogits -= work.targets
    dlogits *= work.w_row
    return loss, work.gradients(dlogits)


def total_loss(model: AdapterModel, batch: TrainingBatch, config: TrainConfig,
               work: tuple | None = None):
    """Combined objective: L = L_visual + beta_f * L_fused + beta_p * L_pseudo.

    For one query or a stacked batch; `work`, the visual, fused and pseudo
    groups' buffers, is reused across steps. A group without items is not
    computed: its loss is zero and it adds nothing to the gradients.
    Scaling and summing the groups' gradients take one pass each over their
    packed arrays.
    """
    groups = ((visual_support_loss, batch.visual_x, batch.visual_y, batch.visual_w, 1.0),
              (fused_support_loss, batch.fused_x, batch.fused_y, batch.fused_w, config.beta_f),
              (pseudo_label_loss, batch.pseudo_x, batch.pseudo_t, batch.pseudo_w,
               config.beta_p))
    zero = np.zeros(model.bias.shape[:-1])[()]
    losses, grads = [], None
    for (loss_of, x, y, w, beta), buffers in zip(groups, work or (None,) * 3):
        if w.shape[-1] == 0:
            losses.append(zero)
            continue
        loss, g = loss_of(model, x, y, w, buffers)
        losses.append(loss)
        # gv + beta_f * gf + beta_p * gp, added in that order, in the
        # first computed group's arrays
        if beta != 1.0:
            g.packed *= beta
        if grads is None:
            grads = g
        else:
            grads.packed += g.packed
    if grads is None:
        grads = Gradients(np.zeros_like(model.weights), np.zeros_like(model.bias))
    lv, lf, lp = losses
    return lv + config.beta_f * lf + config.beta_p * lp, (lv, lf, lp), grads


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
    over the non-empty batches.

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
    work = (_Buffers(batch.visual_x, batch.visual_w, C, labels=batch.visual_y),
            _Buffers(batch.fused_x, batch.fused_w, C, labels=batch.fused_y),
            _Buffers(batch.pseudo_x, batch.pseudo_w, C, targets=batch.pseudo_t))
    for s in range(config.steps):
        tot, (lv, lf, lp), grads = total_loss(fit, batch, config, work)
        if history is not None:
            history.append(StepRecord(s, tot, lv, lf, lp))
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
