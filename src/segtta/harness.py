"""Synthetic feature worlds, mIoU scoring, and sweep runners.

Worlds place class centroids on the unit sphere at a controlled minimum
pairwise angle, emit block-structured masks whose patch features are noisy
copies of the centroids, and derive text features by rotating each centroid
in a random plane. Everything is seed-deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .adapter import TrainConfig, fit_batches, query_batches
from .errors import InfeasibleSeparation, ShapeMismatch, ValidationError
from .inference import segment, zero_shot_segment
from .numerics import (IGNORE_INDEX, MAX_IMAGE_PIXELS, DenseFeatureMap, LabelMask, array_of,
                       class_ids, instance_of, l2_normalize_rows, listed, real, unit, whole)
from .support import (
    DEFAULT_LAMBDAS,
    SupportStore,
    TextBank,
    add_support_image,
    attach_text,
)

SWEEP_AXES = ("support_size", "visual_drop_fraction", "text_drop_fraction")

# chance that a support image of one class also shows a second one
CO_OCCUR = 0.25

# most elements of one block of the centroid gram that _class_centroids
# checks at a time: 32 MB of float64, the whole gram up to C = 2048
GRAM_BLOCK_ELEMENTS = 1 << 22

# most elements num_classes x dim of the centroids: 128 MiB of float64, so
# that a world of no images at the bound, whose centroid construction holds
# a few such arrays at once, fits a 2 GB address space
MAX_CENTROID_ELEMENTS = 1 << 24


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

    def __post_init__(self):
        for name, *bounds in (("seed", 0), ("num_classes", 1), ("dim", 1),
                              ("grid_h", 1), ("grid_w", 1), ("images_per_class", 0),
                              ("cell_pixels", 1), ("query_images", 0)):
            whole(name, getattr(self, name), *bounds)
        for name, *bounds in (("cluster_separation", 0), ("feature_noise", 0),
                              ("text_misalignment",), ("fraction_without_visual", 0, 1),
                              ("fraction_without_text", 0, 1)):
            real(name, getattr(self, name), *bounds)
        # refused before _class_centroids samples them
        if int(self.num_classes) * int(self.dim) > MAX_CENTROID_ELEMENTS:
            raise ValidationError(f"num_classes x dim = {self.num_classes} x {self.dim}: "
                                  f"over {MAX_CENTROID_ELEMENTS} centroid elements")
        # refused before _render_image allocates an image's features
        side_h = int(self.grid_h) * int(self.cell_pixels)
        side_w = int(self.grid_w) * int(self.cell_pixels)
        if side_h * side_w > MAX_IMAGE_PIXELS:
            raise ShapeMismatch(f"image {side_h}x{side_w} ({self.grid_h}x{self.grid_w} cells "
                                f"of {self.cell_pixels} pixels): over {MAX_IMAGE_PIXELS} pixels")


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
    bank: TextBank              # drops already applied
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
    orthonormal directions), anything else rejection sampling. A sample's
    gram is checked in blocks of rows up to the first that breaks the
    separation, so a check holds about GRAM_BLOCK_ELEMENTS of it whatever
    C; a gram of at most that many elements is one block, the product of
    the whole sample with itself.
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
    rows = max(1, GRAM_BLOCK_ELEMENTS // C)
    for _ in range(200):
        cand = l2_normalize_rows(rng.standard_normal((C, d)))
        if all(_separated(cand, start, min(start + rows, C), cos_sep)
               for start in range(0, C, rows)):
            return cand
    raise InfeasibleSeparation(
        f"no {C}-centroid layout at separation {separation} in dim {d}")


def _separated(cand: np.ndarray, start: int, stop: int, cos_sep: float) -> bool:
    """Whether rows start..stop-1 of the unit rows cand have a cosine of
    at most cos_sep with every other row."""
    gram = cand[start:stop] @ cand.T
    gram[np.arange(stop - start), np.arange(start, stop)] = -1.0
    return gram.max() <= cos_sep + 1e-12


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
    cp = cfg.cell_pixels
    pixels = np.repeat(np.repeat(cells, cp, axis=0), cp, axis=1)
    H, W = cfg.grid_h * cp, cfg.grid_w * cp
    x = DenseFeatureMap(feats, cfg.grid_h, cfg.grid_w, H, W)
    return x, LabelMask(pixels, num_classes=cfg.num_classes)


def generate_world(cfg: SynthConfig) -> World:
    instance_of("cfg", cfg, SynthConfig)
    rng = np.random.default_rng(cfg.seed)
    C = cfg.num_classes
    centroids = _class_centroids(rng, C, cfg.dim, cfg.cluster_separation)
    text = _rotate_rows(rng, centroids, cfg.text_misalignment)

    text_drop_order = tuple(int(c) for c in rng.permutation(C))
    visual_drop_order = tuple(int(c) for c in rng.permutation(C))
    n_text = round(cfg.fraction_without_text * C)
    present = np.ones(C, dtype=bool)
    present[list(text_drop_order[:n_text])] = False
    bank = TextBank(text.astype(np.float32), present)

    n_vis = round(cfg.fraction_without_visual * C)
    visual_dropped = frozenset(visual_drop_order[:n_vis])

    support, by_class = [], {}
    visual_classes = [c for c in range(C) if c not in visual_dropped]
    for c in visual_classes:
        by_class[c] = []
        for b in range(cfg.images_per_class):
            classes = [c]
            if len(visual_classes) > 1 and rng.random() < CO_OCCUR:
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
    skipping any class already covered `budget` (a whole number >= 0) times
    by earlier picks (co-occurring classes count toward coverage)."""
    instance_of("world", world, World)
    budget = _support_count("budget", budget)
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
    store = SupportStore.empty(num_classes, dim, lambdas)
    excluded = class_ids(excluded_classes, store.num_classes)
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
    with zero union are left out of the mean. preds and gts are collections
    of one label map per image, as many of each (else ShapeMismatch); the
    labels must be integer arrays (or LabelMasks), in [0, C) wherever gt is
    not ignore_index; otherwise ValidationError."""
    whole("num_classes", num_classes, 1)
    whole("ignore_index", ignore_index, -math.inf)
    preds, gts = listed("predictions", preds), listed("ground truths", gts)
    if len(preds) != len(gts):
        raise ShapeMismatch(f"{len(preds)} predictions for {len(gts)} ground truths")
    # per class: pixels labelled right, predicted, and in the ground truth,
    # so memory grows with C, not C^2
    tp, predicted, actual = (np.zeros(num_classes, dtype=np.int64) for _ in range(3))
    for pred, gt in zip(preds, gts):
        p = pred.data if isinstance(pred, LabelMask) else np.asarray(pred)
        g = gt.data if isinstance(gt, LabelMask) else np.asarray(gt)
        array_of("predicted labels", p, "iu")
        array_of("ground-truth labels", g, "iu")
        if p.shape != g.shape:
            raise ShapeMismatch(f"pred {p.shape} vs gt {g.shape}")
        valid = g != ignore_index
        gi = g[valid].astype(np.int64)
        pi = p[valid].astype(np.int64)
        if gi.size and (min(gi.min(), pi.min()) < 0
                        or max(gi.max(), pi.max()) >= num_classes):
            raise ValidationError(f"labels outside [0, {num_classes}) where gt is not ignore")
        tp += np.bincount(gi[gi == pi], minlength=num_classes)
        predicted += np.bincount(pi, minlength=num_classes)
        actual += np.bincount(gi, minlength=num_classes)
    tp = tp.astype(np.float64)
    fp = predicted - tp
    fn = actual - tp
    union = tp + fp + fn
    evaluated = union > 0
    iou = np.full(num_classes, np.nan)
    iou[evaluated] = tp[evaluated] / union[evaluated]
    mean = float(iou[evaluated].mean()) if evaluated.any() else float("nan")
    return IoUReport(iou, evaluated, mean)


def evaluate_queries(world: World, store: SupportStore, bank: TextBank,
                     unsupported=(), config: TrainConfig = TrainConfig()) -> float:
    """Adapted mIoU of the store+bank pair over the world's queries, whose
    probes are fitted together (see _adapted_mious)."""
    (miou,) = _adapted_mious(world, store, [bank], unsupported, config)
    return miou


def _adapted_mious(world: World, store: SupportStore, banks, unsupported,
                   config: TrainConfig) -> list:
    """Adapted mIoU over the world's queries for each bank, fused with the
    store with `unsupported` classes left out; NaN where the store is empty
    and the bank a fallback, so nothing can be learned.

    Each query is retrieved for once, whatever the number of banks
    (adapter.query_batches). The probes of every query of every bank are
    fitted in one Adam loop (fit_batches). Then each bank's queries are
    decoded in query order, bank after bank; a query without training items
    is segmented zero-shot, as segment would, without fitting again.
    """
    xs = [q.features for q in world.queries]
    learnable = [store.size > 0 or not bank.fallback for bank in banks]
    batches = query_batches(store, xs, [b for b, ok in zip(banks, learnable) if ok],
                            unsupported, config)
    fitted = iter(fit_batches([b for group in batches for b in group], config))
    mious = []
    for bank, ok in zip(banks, learnable):
        if not ok:
            mious.append(float("nan"))
            continue
        models = [next(fitted) for _ in xs]
        preds = [(zero_shot_segment(x, bank, config.tau) if m is None else
                  segment(store, x, bank, config=config, model=m)
                  ).full_res_labels for x, m in zip(xs, models)]
        mious.append(compute_miou(preds, [q.gt for q in world.queries],
                                  world.num_classes).mean_iou)
    return mious


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
    return TextBank(world.bank.features, present)


def _no_text_bank(num_classes: int, dim: int) -> TextBank:
    return TextBank(np.zeros((num_classes, dim), np.float32),
                    np.zeros(num_classes, dtype=bool))


def _support_count(what: str, value) -> int:
    """A support size or budget: a whole number >= 0 (2.0 too, no bool), as an int."""
    # an int is whole without the float tests, which overflow past 1e308
    integral = isinstance(value, numbers.Integral)
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not (value >= 0 and (integral or math.isfinite(value) and value == int(value)))):
        raise ValidationError(f"{what} must be a whole number >= 0, got {value!r}")
    return int(value)


def run_sweep(world: World, axis: str, points,
              config: TrainConfig = TrainConfig(),
              budget: int | None = None) -> list:
    """Evaluate zero-shot, adapted, and adapted-without-text along one axis.

    Returns one dict per point: {axis, zero_shot_miou, rns_miou,
    rns_without_text_miou}. Unavailable methods score NaN. A point fits the
    probes with and without text in one Adam loop (see fit_batches for how
    padding can move a probe's last bits), one loop per point, so a caller
    that sweeps one point at a time gets the same fits as one that sweeps
    many. world must be a World, points a collection and config a
    TrainConfig; drop fractions must lie in [0, 1], and support sizes and
    budget be whole numbers >= 0.
    """
    instance_of("world", world, World)
    instance_of("config", config, TrainConfig)
    if not isinstance(axis, str) or axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}")
    points = listed("points", points)
    for p in points:
        if axis == "support_size":
            _support_count("support_size point", p)
        else:
            real(f"{axis} point", p, 0, 1)
    cfg = world.config
    budget = _support_count("budget", budget) if budget is not None else cfg.images_per_class
    rows = []
    for point in points:
        dropped = set(world.visual_dropped)
        bank = world.bank
        if axis == "support_size":
            samples = select_support(world, point)
        elif axis == "visual_drop_fraction":
            dropped |= set(world.visual_drop_order[: round(point * cfg.num_classes)])
            samples = select_support(world, budget)
        else:
            bank = _bank_with_text_drops(world, point)
            samples = select_support(world, budget)

        no_text = _no_text_bank(cfg.num_classes, cfg.dim)
        store = build_store(samples, cfg.num_classes, cfg.dim, config.lambdas,
                            excluded_classes=dropped)
        zero_shot = evaluate_zero_shot(world, bank, config.tau)
        rns, rns_without_text = _adapted_mious(world, store, [bank, no_text], dropped,
                                               config)
        rows.append({axis: point, "zero_shot_miou": zero_shot, "rns_miou": rns,
                     "rns_without_text_miou": rns_without_text})
    return rows
