"""Synthetic feature worlds, mIoU scoring, and sweep runners.

Worlds place class centroids on the unit sphere at a controlled minimum
pairwise angle, emit block-structured masks whose patch features are noisy
copies of the centroids, and derive text features by rotating each centroid
in a random plane. Everything is seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import TrainConfig
from .errors import InfeasibleSeparation, ShapeMismatch, ValidationError
from .inference import segment, zero_shot_segment
from .numerics import IGNORE_INDEX, DenseFeatureMap, LabelMask, l2_normalize_rows, unit
from .support import (
    DEFAULT_LAMBDAS,
    SupportStore,
    TextBank,
    add_support_image,
    attach_text,
    substitute_missing_text,
)

SWEEP_AXES = ("support_size", "visual_drop_fraction", "text_drop_fraction")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_classes: int = 6
    dim: int = 16
    cluster_separation: float = math.pi / 4
    feature_noise: float = 0.15
    text_misalignment: float = 0.3
    grid_h: int = 8
    grid_w: int = 8
    images_per_class: int = 3
    fraction_without_visual: float = 0.0
    fraction_without_text: float = 0.0
    # plumbing knobs beyond the required surface
    cell_pixels: int = 4
    query_images: int = 4
    co_occur: float = 0.25

    def __post_init__(self):
        if not (0.0 <= self.fraction_without_visual <= 1.0
                and 0.0 <= self.fraction_without_text <= 1.0):
            raise ValidationError("fractions must lie in [0, 1]")
        if self.images_per_class < 0:
            raise ValidationError("images_per_class must be >= 0")


@dataclass(frozen=True)
class SupportSample:
    features: DenseFeatureMap
    mask: LabelMask
    image_id: str
    classes: tuple


@dataclass(frozen=True)
class QuerySample:
    features: DenseFeatureMap
    gt: LabelMask


@dataclass
class World:
    config: SynthConfig
    centroids: np.ndarray       # (C, d) float64 unit rows
    bank: TextBank              # drops already applied, not yet materialized
    support: list               # SupportSample pool
    support_by_class: dict      # class id -> indices into support
    queries: list
    visual_dropped: frozenset
    visual_drop_order: tuple
    text_drop_order: tuple

    @property
    def num_classes(self) -> int:
        return self.config.num_classes


def _class_centroids(rng, C: int, d: int, separation: float) -> np.ndarray:
    """Unit centroids with min pairwise angle >= separation.

    Right angles use an orthonormal frame, acute angles an exact equiangular
    construction (cos^2(alpha) mixing of a shared axis with per-class
    orthonormal directions), anything else rejection sampling.
    """
    cos_sep = math.cos(separation)
    if separation <= 1e-12:
        return l2_normalize_rows(rng.standard_normal((C, d)))
    if abs(cos_sep) < 1e-12:
        if C > d:
            raise InfeasibleSeparation(f"{C} orthogonal centroids in dim {d}")
        return _orthonormal(rng, d, C).T
    if cos_sep > 0 and C + 1 <= d:
        q = _orthonormal(rng, d, C + 1)
        alpha = math.acos(math.sqrt(cos_sep))
        return math.cos(alpha) * q[:, 0][None, :] + math.sin(alpha) * q[:, 1:].T
    for _ in range(200):
        cand = l2_normalize_rows(rng.standard_normal((C, d)))
        gram = cand @ cand.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= cos_sep + 1e-12:
            return cand
    raise InfeasibleSeparation(
        f"no {C}-centroid layout at separation {separation} in dim {d}")


def _orthonormal(rng, d: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def _rotate_rows(rng, rows: np.ndarray, angle: float) -> np.ndarray:
    """Rotate each unit row by `angle` inside a random plane through it."""
    out = np.empty_like(rows)
    for i, mu in enumerate(rows):
        g = rng.standard_normal(rows.shape[1])
        u = unit(g - (g @ mu) * mu)
        out[i] = math.cos(angle) * mu + math.sin(angle) * u
    return out


def _block_mask_cells(classes, grid_h: int, grid_w: int) -> np.ndarray:
    """Split grid rows into contiguous bands, one per class."""
    k = len(classes)
    base, rem = divmod(grid_h, k)
    cells = np.empty((grid_h, grid_w), dtype=np.int64)
    r = 0
    for i, c in enumerate(classes):
        rows = base + (1 if i < rem else 0)
        cells[r:r + rows] = c
        r += rows
    return cells


def _render_image(rng, cfg: SynthConfig, centroids: np.ndarray, classes):
    cells = _block_mask_cells(classes, cfg.grid_h, cfg.grid_w)
    flat = cells.ravel()
    feats = centroids[flat] + cfg.feature_noise * rng.standard_normal(
        (flat.size, centroids.shape[1]))
    feats = l2_normalize_rows(feats)
    cp = cfg.cell_pixels
    pixels = np.repeat(np.repeat(cells, cp, axis=0), cp, axis=1)
    H, W = cfg.grid_h * cp, cfg.grid_w * cp
    x = DenseFeatureMap(feats, cfg.grid_h, cfg.grid_w, H, W, row_normalized=True)
    return x, LabelMask(pixels, num_classes=cfg.num_classes)


def generate_world(cfg: SynthConfig) -> World:
    rng = np.random.default_rng(cfg.seed)
    C = cfg.num_classes
    centroids = _class_centroids(rng, C, cfg.dim, cfg.cluster_separation)
    text = _rotate_rows(rng, centroids, cfg.text_misalignment)

    text_drop_order = tuple(int(c) for c in rng.permutation(C))
    visual_drop_order = tuple(int(c) for c in rng.permutation(C))
    n_text = round(cfg.fraction_without_text * C)
    present = np.ones(C, dtype=bool)
    present[list(text_drop_order[:n_text])] = False
    feats32 = text.astype(np.float32)
    feats32[~present] = 0.0
    names = tuple(f"class_{c}" for c in range(C))
    bank = TextBank(feats32, present, names)

    n_vis = round(cfg.fraction_without_visual * C)
    visual_dropped = frozenset(visual_drop_order[:n_vis])

    support, by_class = [], {}
    visual_classes = [c for c in range(C) if c not in visual_dropped]
    for c in visual_classes:
        by_class[c] = []
        for b in range(cfg.images_per_class):
            classes = [c]
            if len(visual_classes) > 1 and rng.random() < cfg.co_occur:
                others = [o for o in visual_classes if o != c]
                classes.append(int(rng.choice(others)))
            x, mask = _render_image(rng, cfg, centroids, classes)
            by_class[c].append(len(support))
            support.append(SupportSample(x, mask, f"s{len(support):04d}",
                                         tuple(classes)))

    queries = []
    for _ in range(cfg.query_images):
        n_cls = int(rng.integers(2, min(4, C) + 1)) if C > 1 else 1
        q_classes = [int(c) for c in rng.choice(C, size=n_cls, replace=False)]
        x, gt = _render_image(rng, cfg, centroids, q_classes)
        queries.append(QuerySample(x, gt))

    return World(cfg, centroids, bank, support, by_class, queries,
                 visual_dropped, visual_drop_order, text_drop_order)


def select_support(world: World, budget: int) -> list:
    """Budgeted draw from the pool: walk classes in a seeded random order,
    skipping any class already covered `budget` times by earlier picks
    (co-occurring classes count toward coverage)."""
    if budget <= 0:
        return []
    rng = np.random.default_rng((world.config.seed, 7919))
    counts = np.zeros(world.num_classes, dtype=np.int64)
    chosen, chosen_set = [], set()
    for c in rng.permutation(world.num_classes):
        c = int(c)
        if counts[c] >= budget:
            continue
        for idx in world.support_by_class.get(c, []):
            if counts[c] >= budget:
                break
            if idx in chosen_set:
                continue
            chosen.append(idx)
            chosen_set.add(idx)
            for cc in world.support[idx].classes:
                counts[cc] += 1
    return [world.support[i] for i in chosen]


def build_store(samples, num_classes: int, dim: int,
                lambdas=DEFAULT_LAMBDAS, bank: TextBank | None = None,
                excluded_classes=()) -> SupportStore:
    """Pool samples into a fresh store; annotations of excluded classes are
    relabeled to ignore so they contribute nothing."""
    excluded = set(int(c) for c in excluded_classes)
    store = SupportStore.empty(num_classes, dim, tuple(lambdas))
    for s in samples:
        mask = s.mask
        if excluded:
            data = mask.data.copy()
            drop = np.isin(data, list(excluded))
            if drop.all():
                continue
            data[drop] = mask.ignore_index
            mask = LabelMask(data, num_classes, mask.ignore_index)
        add_support_image(store, s.features, mask, s.image_id)
    if bank is not None:
        attach_text(store, bank)
    return store


@dataclass(frozen=True)
class IoUReport:
    per_class_iou: np.ndarray  # (C,) float64, NaN where the class never occurs
    evaluated: np.ndarray      # (C,) bool
    mean_iou: float


def compute_miou(preds, gts, num_classes: int,
                 ignore_index: int = IGNORE_INDEX) -> IoUReport:
    """Globally accumulated per-class IoU; ignore pixels never count, classes
    with zero union are left out of the mean."""
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred, gt in zip(preds, gts, strict=True):
        p = pred.data if isinstance(pred, LabelMask) else np.asarray(pred)
        g = gt.data if isinstance(gt, LabelMask) else np.asarray(gt)
        if p.shape != g.shape:
            raise ShapeMismatch(f"pred {p.shape} vs gt {g.shape}")
        valid = g != ignore_index
        gi = g[valid].astype(np.int64)
        pi = p[valid].astype(np.int64)
        if gi.size and (gi.max() >= num_classes or pi.max() >= num_classes):
            raise ValidationError("labels outside [0, C)")
        conf += np.bincount(gi * num_classes + pi,
                            minlength=num_classes * num_classes
                            ).reshape(num_classes, num_classes)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    union = tp + fp + fn
    evaluated = union > 0
    iou = np.full(num_classes, np.nan)
    iou[evaluated] = tp[evaluated] / union[evaluated]
    mean = float(iou[evaluated].mean()) if evaluated.any() else float("nan")
    return IoUReport(iou, evaluated, mean)


def evaluate_queries(world: World, store: SupportStore, bank: TextBank,
                     unsupported=(), config: TrainConfig = TrainConfig()) -> float:
    """Adapted mIoU of the store+bank pair over the world's queries."""
    if store.size == 0 and bank.fallback:
        return float("nan")
    preds = [segment(store, q.features, bank, unsupported=sorted(unsupported),
                     config=config).full_res_labels for q in world.queries]
    return compute_miou(preds, [q.gt for q in world.queries],
                        world.num_classes).mean_iou


def evaluate_zero_shot(world: World, bank: TextBank, tau: float) -> float:
    if bank.fallback:
        return float("nan")
    preds = [zero_shot_segment(q.features, bank, tau).full_res_labels
             for q in world.queries]
    return compute_miou(preds, [q.gt for q in world.queries],
                        world.num_classes).mean_iou


def _bank_with_text_drops(world: World, fraction: float) -> TextBank:
    n = round(fraction * world.num_classes)
    present = world.bank.present.copy()
    present[list(world.text_drop_order[:n])] = False
    feats = np.array(world.bank.features, copy=True)
    feats[~present] = 0.0
    return TextBank(feats, present, world.bank.class_names)


def _no_text_bank(num_classes: int, dim: int) -> TextBank:
    return TextBank(np.zeros((num_classes, dim), np.float32),
                    np.zeros(num_classes, dtype=bool), materialized=True)


def run_sweep(world: World, axis: str, points,
              config: TrainConfig = TrainConfig(),
              budget: int | None = None) -> list:
    """Evaluate zero-shot, adapted, and adapted-without-text along one axis.

    Returns one dict per point: {axis, zero_shot_miou, rns_miou,
    rns_without_text_miou}. Unavailable methods score NaN.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}")
    cfg = world.config
    budget = budget if budget is not None else cfg.images_per_class
    rows = []
    for point in points:
        dropped = set(world.visual_dropped)
        bank_raw = world.bank
        if axis == "support_size":
            samples = select_support(world, int(point))
        elif axis == "visual_drop_fraction":
            dropped |= set(world.visual_drop_order[: round(point * cfg.num_classes)])
            samples = select_support(world, budget)
        else:
            bank_raw = _bank_with_text_drops(world, point)
            samples = select_support(world, budget)

        bank = substitute_missing_text(bank_raw)
        no_text = _no_text_bank(cfg.num_classes, cfg.dim)
        store = build_store(samples, cfg.num_classes, cfg.dim, config.lambdas,
                            excluded_classes=dropped)
        rows.append({
            axis: point,
            "zero_shot_miou": evaluate_zero_shot(world, bank, config.tau),
            "rns_miou": evaluate_queries(world, store, bank, dropped, config),
            "rns_without_text_miou": evaluate_queries(world, store, no_text,
                                                      dropped, config),
        })
    return rows


def format_sweep_table(rows) -> str:
    """Tab-separated table, one row per axis point."""
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = ["\t".join(cols)]
    for r in rows:
        lines.append("\t".join(
            f"{r[c]:.6f}" if isinstance(r[c], float) else str(r[c]) for c in cols))
    return "\n".join(lines)
