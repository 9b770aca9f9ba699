"""Per-image linear probe: batch assembly, losses, Adam, training loop.

The probe is a linear map R^d -> R^C trained from zero init on three item
groups: retrieved support vectors (cross-entropy), text/visual interpolations
per retrieved class (weighted cross-entropy), and interpolations built from
pseudo-pooled query features for classes lacking visual support (weighted KL
against their text-similarity distribution). All training math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradient, ValidationError
from .numerics import DenseFeatureMap, log_softmax, softmax, unit
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
        if self.steps < 1 or self.learning_rate <= 0 or self.tau <= 0:
            raise ValidationError("steps >= 1, learning_rate > 0, tau > 0 required")
        if self.beta_f < 0 or self.beta_p < 0:
            raise ValidationError("loss coefficients must be >= 0")


@dataclass
class AdapterModel:
    weights: np.ndarray  # (C, d)
    bias: np.ndarray     # (C,)

    @classmethod
    def zeros(cls, num_classes: int, dim: int) -> "AdapterModel":
        return cls(np.zeros((num_classes, dim)), np.zeros(num_classes))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, vecs: np.ndarray) -> np.ndarray:
        return np.asarray(vecs, dtype=np.float64) @ self.weights.T + self.bias

    def probs(self, vecs: np.ndarray) -> np.ndarray:
        return softmax(self.logits(vecs), 1.0)


@dataclass
class Gradients:
    weights: np.ndarray
    bias: np.ndarray

    @classmethod
    def zeros(cls, num_classes: int, dim: int) -> "Gradients":
        return cls(np.zeros((num_classes, dim)), np.zeros(num_classes))


@dataclass
class AdamState:
    m_weights: np.ndarray
    v_weights: np.ndarray
    m_bias: np.ndarray
    v_bias: np.ndarray

    @classmethod
    def zeros(cls, num_classes: int, dim: int) -> "AdamState":
        return cls(np.zeros((num_classes, dim)), np.zeros((num_classes, dim)),
                   np.zeros(num_classes), np.zeros(num_classes))


@dataclass(frozen=True)
class StepRecord:
    step: int
    total: float
    visual: float
    fused: float
    pseudo: float


@dataclass
class TrainingBatch:
    """Frozen item groups for one adaptation run (all float64)."""

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
        return (len(self.visual_y) + len(self.fused_y) + len(self.pseudo_w)) == 0


def weighted_cross_entropy(model: AdapterModel, vecs: np.ndarray, labels: np.ndarray,
                           weights: np.ndarray) -> tuple[float, Gradients]:
    """Sum of per-item weighted CE between softmax(model(v)) and the label."""
    m = len(labels)
    if m == 0:
        return 0.0, Gradients.zeros(*model.weights.shape)
    logp = log_softmax(model.logits(vecs))
    rows = np.arange(m)
    loss = float(weights @ (-logp[rows, labels]))
    dlogits = np.exp(logp) * weights[:, None]
    dlogits[rows, labels] -= weights
    return loss, Gradients(dlogits.T @ vecs, dlogits.sum(axis=0))


# CE over retrieved support entries and over the text/visual interpolations
# of the retrieved classes, both weighted by class relevance
visual_support_loss = weighted_cross_entropy
fused_support_loss = weighted_cross_entropy


def pseudo_label_loss(model: AdapterModel, vecs: np.ndarray, targets: np.ndarray,
                      weights: np.ndarray) -> tuple[float, Gradients]:
    """Sum of weighted KL(target || softmax(model(v))).

    Includes the target entropy term, so the loss is exactly zero when the
    model reproduces the target.
    """
    m = len(weights)
    if m == 0:
        return 0.0, Gradients.zeros(*model.weights.shape)
    logq = log_softmax(model.logits(vecs))
    t = np.asarray(targets, dtype=np.float64)
    ent = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0).sum(axis=1)
    kl = ent - (t * logq).sum(axis=1)
    loss = float(weights @ kl)
    dlogits = (np.exp(logq) - t) * weights[:, None]
    return loss, Gradients(dlogits.T @ vecs, dlogits.sum(axis=0))


def total_loss(model: AdapterModel, batch: TrainingBatch,
               config: TrainConfig) -> tuple[float, tuple[float, float, float], Gradients]:
    """Combined objective: L = L_visual + beta_f * L_fused + beta_p * L_pseudo."""
    lv, gv = visual_support_loss(model, batch.visual_x, batch.visual_y, batch.visual_w)
    lf, gf = fused_support_loss(model, batch.fused_x, batch.fused_y, batch.fused_w)
    lp, gp = pseudo_label_loss(model, batch.pseudo_x, batch.pseudo_t, batch.pseudo_w)
    total = lv + config.beta_f * lf + config.beta_p * lp
    grads = Gradients(
        gv.weights + config.beta_f * gf.weights + config.beta_p * gp.weights,
        gv.bias + config.beta_f * gf.bias + config.beta_p * gp.bias,
    )
    return total, (lv, lf, lp), grads


def adam_step(model: AdapterModel, grads: Gradients, state: AdamState,
              config: TrainConfig, step_index: int) -> tuple[AdapterModel, AdamState]:
    """One bias-corrected Adam update, in place. step_index counts from 0."""
    if not (np.isfinite(grads.weights).all() and np.isfinite(grads.bias).all()):
        raise NonFiniteGradient("gradient contains nan or inf")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t = step_index + 1
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for g, m, v, param in (
        (grads.weights, state.m_weights, state.v_weights, model.weights),
        (grads.bias, state.m_bias, state.v_bias, model.bias),
    ):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        param -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
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
    if not bank.usable:
        raise ValidationError("text bank has unmaterialized absent rows")
    x = x.normalized()
    scores = x.data @ np.asarray(bank.features, dtype=np.float64).T
    assign = np.argmax(scores, axis=1)  # temperature-invariant, ties -> lowest id
    out = []
    for c in missing:
        picked = assign == c
        if picked.any():
            out.append((c, unit(x.data[picked].mean(axis=0))))
    return out


def pseudo_label_distribution(vec: np.ndarray, bank: TextBank, tau: float) -> np.ndarray:
    """Text-similarity softmax target for one (fused) vector."""
    scores = np.asarray(bank.features, dtype=np.float64) @ np.asarray(vec, dtype=np.float64)
    return softmax(scores, tau)


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
    # store built from the same image multiset, whatever the insertion order
    e = retrieved.entries
    # each vector's bytes as one void scalar: tolist() gives v.tobytes() per row
    vector_bytes = np.ascontiguousarray(e.vector).view(f"V{4 * d}").ravel()
    keys = list(zip(e.class_id.tolist(), vector_bytes.tolist(),
                    e.image_id.tolist(), e.entry_id.tolist()))
    ordered = e[sorted(range(len(keys)), key=keys.__getitem__)]
    visual_x = ordered.vector.astype(np.float64).reshape(-1, d)
    visual_y = ordered.class_id.astype(np.int64)
    visual_w = weights[visual_y]

    fused_x = np.array([fused_rows(store, bank, c) for c in retrieved.classes],
                       dtype=np.float64).reshape(-1, d)
    fused_y = np.repeat(np.array(retrieved.classes, dtype=np.int64), len(lams))
    fused_w = weights[fused_y]

    pseudo_x = np.array([fuse_grid(bank.features[c].astype(np.float64), v, lams)
                         for c, v in pseudo_features], dtype=np.float64).reshape(-1, d)
    pseudo_t = np.array([pseudo_label_distribution(f, bank, config.tau)
                         for f in pseudo_x]).reshape(-1, C)
    pseudo_classes = np.array([c for c, _ in pseudo_features], dtype=np.int64)
    pseudo_w = weights[np.repeat(pseudo_classes, len(lams))]

    return TrainingBatch(visual_x, visual_y, visual_w, fused_x, fused_y, fused_w,
                         pseudo_x, pseudo_t, pseudo_w, num_classes=C)


def train_adapter(store: SupportStore, x: DenseFeatureMap, bank: TextBank,
                  unsupported=(), config: TrainConfig = TrainConfig(),
                  history: list | None = None) -> AdapterModel | None:
    """Fit the linear probe for one query image.

    Returns None when no training item can be built (empty retrieval, no
    fused classes, no pseudo features); callers then fall back to the
    text-only classifier. `unsupported` classes are treated as having no
    visual support even if the store holds entries for them. The store is
    only read; `bank` is the sole text input.
    """
    check_text_bank(store, bank)
    x = x.normalized()
    unsupported = set(int(c) for c in unsupported)

    if store.size > 0:
        retrieved = retrieve_for_image(x, store, config.k)
        if unsupported:
            e = retrieved.entries
            kept = e[~np.isin(e.class_id, list(unsupported))]
            retrieved = RetrievedSet(kept, tuple(np.unique(kept.class_id).tolist()))
    else:
        retrieved = RetrievedSet(store.entries, ())

    # a fallback bank gives uniform weights and no pseudo items
    weights = class_relevance_weights(x, bank, config.tau)
    pseudo = pseudo_visual_class_features(x, bank, config.tau, unsupported)

    batch = assemble_batch(store, retrieved, weights, pseudo, bank, config)
    if batch.is_empty:
        return None

    model = AdapterModel.zeros(store.num_classes, store.dim)
    state = AdamState.zeros(store.num_classes, store.dim)
    for s in range(config.steps):
        tot, (lv, lf, lp), grads = total_loss(model, batch, config)
        if history is not None:
            history.append(StepRecord(s, tot, lv, lf, lp))
        adam_step(model, grads, state, config, s)
    return model
