"""Query-time prediction: one classifier (the text softmax or the adapted
probe) decoded by patch-level upsampling or region pooling."""

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

# patch decode upsamples and argmaxes about this many bytes of f64
# probabilities at a time (at least one output row per band)
DECODE_BAND_BYTES = 1 << 20


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


def region_pool(x: DenseFeatureMap, regions: RegionSet) -> np.ndarray:
    """Area-weighted pooling of patch features per region.

    Region indicators are downsampled to the patch grid by cell-area
    fraction, L1-normalized per region, applied to the features, and the
    pooled rows unit-normalized. Raises EmptyRegion if a region gets no mass.
    """
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
    """Text-only segmentation: a temperature softmax over patch (or region)
    and text cosine similarities. The exact path adapted inference falls
    back to."""
    if bank.fallback:
        raise ValidationError("zero-shot needs at least one real text feature")
    if x.dim != bank.dim:
        raise DimensionMismatch(f"features d={x.dim}, text d={bank.dim}")
    text = np.asarray(bank.features, dtype=np.float64)
    return _decode(x, lambda rows: softmax(rows @ text.T, tau), regions)


def segment(store: SupportStore, x: DenseFeatureMap, bank: TextBank,
            regions: RegionSet | None = None, unsupported=(),
            config: TrainConfig = TrainConfig(),
            model: AdapterModel | None = None) -> SegmentationResult:
    """Full pipeline for one query: adapt the probe, classify, decode.

    model, a probe already fitted for x (see adapter.fit_batches), is
    decoded as it is; None fits one. When no training items exist the result
    is exactly zero_shot_segment.
    """
    if model is None:
        model = train_adapter(store, x, bank, unsupported=unsupported, config=config)
    if model is None:
        return zero_shot_segment(x, bank, config.tau, regions)
    return _decode(x, model.probs, regions)


def _decode(x: DenseFeatureMap, classify, regions: RegionSet | None):
    """Shared decoding: bilinear upsample + argmax, or region pooling + paint.

    classify maps (m, d) unit rows to (m, C) probabilities. It scores the
    patches, which give low_res, and in region mode the pooled regions.
    Patch mode works one band of output rows at a time, so it never holds the
    full (H, W, C) volume; labels are those of the full volume, bit for bit.
    """
    probs = ProbMap(classify(x.data), x.grid_h, x.grid_w)
    if regions is None:
        H, W, C = x.image_h, x.image_w, probs.num_classes
        labels = np.empty((H, W), dtype=np.int64)
        band = max(1, DECODE_BAND_BYTES // (W * C * 8))
        for start in range(0, H, band):
            stop = min(start + band, H)
            argmax_map(upsample_probs(probs, H, W, rows=(start, stop)),
                       out=labels[start:stop])
        return SegmentationResult(probs, LabelMask(labels, num_classes=C), "patch")
    # declared regions that own no pixels are dropped: pool over the present
    # ids renumbered 0..n-1 and paint back through the same renumbering
    present, inverse = np.unique(regions.assignments, return_inverse=True)
    inverse = inverse.reshape(regions.assignments.shape)  # 1-d on some numpy versions
    pooled = region_pool(x, RegionSet(inverse, len(present)))
    labels = np.argmax(classify(pooled), axis=1)[inverse]
    return SegmentationResult(probs, LabelMask(labels, num_classes=probs.num_classes),
                              "region")
