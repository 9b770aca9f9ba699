"""Query-time prediction: zero-shot and adapted classification, patch-level
upsampling, and region-pooled decoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, ShapeMismatch, ValidationError
from .numerics import (
    IGNORE_INDEX,
    DenseFeatureMap,
    LabelMask,
    ProbMap,
    argmax_map,
    downsample_labels,
    l2_normalize_rows,
    softmax,
    upsample_probs,
)
from .adapter import AdapterModel, TrainConfig, train_adapter
from .support import SupportStore, TextBank


@dataclass(frozen=True)
class RegionSet:
    """Pixel partition of an image into region_count regions."""

    assignments: np.ndarray  # (H, W) int, values in [0, region_count)
    region_count: int

    def __post_init__(self):
        if self.assignments.ndim != 2:
            raise ShapeMismatch("region assignments must be 2-d")
        if self.assignments.size:
            lo, hi = int(self.assignments.min()), int(self.assignments.max())
            if lo < 0 or hi >= self.region_count:
                raise ValidationError("region ids outside [0, region_count)")

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "RegionSet":
        """Build from a raw id grid; pixels carrying IGNORE_INDEX become one
        extra region so the result is a full partition."""
        grid = np.asarray(grid)
        out = grid.astype(np.int64)
        masked = grid == IGNORE_INDEX
        count = int(grid[~masked].max()) + 1 if (~masked).any() else 0
        if masked.any():
            out[masked] = count
            count += 1
        return cls(out, count)


@dataclass(frozen=True)
class SegmentationResult:
    low_res: ProbMap          # patch-grid class probabilities
    full_res_labels: LabelMask
    mode: str                 # "patch" or "region"


def zero_shot_predict(x: DenseFeatureMap, bank: TextBank, tau: float) -> ProbMap:
    """Temperature softmax over patch/text cosine similarities."""
    if bank.fallback:
        raise ValidationError("zero-shot needs at least one real text feature")
    if not bank.usable:
        raise ValidationError("text bank has unmaterialized absent rows")
    x = x.normalized()
    if x.dim != bank.dim:
        raise DimensionMismatch(f"features d={x.dim}, text d={bank.dim}")
    scores = x.data @ np.asarray(bank.features, dtype=np.float64).T
    return ProbMap(softmax(scores, tau), x.grid_h, x.grid_w)


def adapted_predict(model: AdapterModel, x: DenseFeatureMap) -> ProbMap:
    """Probe probabilities per patch (softmax at unit temperature)."""
    x = x.normalized()
    if x.dim != model.weights.shape[1]:
        raise DimensionMismatch("feature/model dimensionality mismatch")
    return ProbMap(model.probs(x.data), x.grid_h, x.grid_w)


def region_pool(x: DenseFeatureMap, regions: RegionSet) -> np.ndarray:
    """Area-weighted pooling of patch features per region.

    Region indicators are downsampled to the patch grid by cell-area
    fraction, L1-normalized per region, applied to the features, and the
    pooled rows unit-normalized. Raises EmptyRegion if a region gets no mass.
    """
    x = x.normalized()
    H, W = regions.assignments.shape
    if (H, W) != (x.image_h, x.image_w):
        raise ShapeMismatch("region map resolution != feature map image resolution")
    mask = LabelMask(regions.assignments, num_classes=regions.region_count,
                     ignore_index=-1)
    p = downsample_labels(mask, x.grid_h, x.grid_w)
    mass = p.data.sum(axis=0)
    if np.any(mass <= 0):
        raise EmptyRegion(f"regions without grid mass: {np.nonzero(mass <= 0)[0].tolist()}")
    pooled = p.data.T @ x.data  # (R, d)
    return l2_normalize_rows(pooled)


def zero_shot_segment(x: DenseFeatureMap, bank: TextBank, tau: float,
                      regions: RegionSet | None = None) -> SegmentationResult:
    """Text-only segmentation; the exact path adapted inference falls back to."""
    probs = zero_shot_predict(x, bank, tau)
    classify = lambda mat: softmax(mat @ np.asarray(bank.features, np.float64).T, tau)
    return _decode(x, probs, classify, regions)


def segment(store: SupportStore, x: DenseFeatureMap, bank: TextBank,
            regions: RegionSet | None = None, unsupported=(),
            config: TrainConfig = TrainConfig()) -> SegmentationResult:
    """Full pipeline for one query: adapt the probe, classify, decode.

    When no training items exist the result is exactly zero_shot_segment.
    """
    model = train_adapter(store, x, bank, unsupported=unsupported, config=config)
    if model is None:
        return zero_shot_segment(x, bank, config.tau, regions)
    probs = adapted_predict(model, x)
    classify = lambda mat: softmax(mat @ model.weights.T + model.bias, 1.0)
    return _decode(x, probs, classify, regions)


def _decode(x: DenseFeatureMap, probs: ProbMap, classify, regions: RegionSet | None):
    """Shared decoding: bilinear upsample + argmax, or region pooling + paint.

    classify maps (m, d) unit rows to (m, C) probabilities with whichever
    classifier produced `probs`.
    """
    if regions is None:
        grid = upsample_probs(probs, x.image_h, x.image_w)
        return SegmentationResult(probs, argmax_map(grid, probs.num_classes), "patch")
    # declared regions that own no pixels are dropped: pool over the present
    # ids renumbered 0..n-1 and paint back through the same renumbering
    present, inverse = np.unique(regions.assignments, return_inverse=True)
    inverse = inverse.reshape(regions.assignments.shape)  # 1-d on some numpy versions
    pooled = region_pool(x, RegionSet(inverse, len(present)))
    labels = np.argmax(classify(pooled), axis=1)[inverse]
    return SegmentationResult(probs, LabelMask(labels, num_classes=probs.num_classes),
                              "region")
