"""Query-time prediction: one classifier (the text softmax or the adapted
probe) decoded by patch-level upsampling or region pooling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyRegion,
    NonFiniteInput,
    ShapeMismatch,
    ValidationError,
)
from .numerics import (
    IGNORE_INDEX,
    DenseFeatureMap,
    LabelMask,
    ProbMap,
    argmax_map,
    array_of,
    downsample_labels,
    instance_of,
    l2_normalize_rows,
    proven_winners,
    resample_cells,
    softmax,
    upsample_probs,
    whole,
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
        array_of("region assignments", self.assignments, "iu")
        whole("region_count", self.region_count)
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
        array_of("region grid", grid, "iu")
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
    instance_of("x", x, DenseFeatureMap)
    instance_of("bank", bank, TextBank)
    _check_regions(regions)
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
    decoded as it is, once it is checked to be one finite (C, d) probe over
    the store's classes and x's dimension; None fits one. When no training
    items exist the result is exactly zero_shot_segment.
    """
    instance_of("store", store, SupportStore)
    instance_of("x", x, DenseFeatureMap)
    instance_of("bank", bank, TextBank)
    _check_regions(regions)
    if model is None:
        model = train_adapter(store, x, bank, unsupported=unsupported, config=config)
    else:
        _check_probe(model, store.num_classes, x.dim)
    if model is None:
        return zero_shot_segment(x, bank, config.tau, regions)
    return _decode(x, model.probs, regions)


def _check_regions(regions) -> None:
    if regions is not None and not isinstance(regions, RegionSet):
        raise ValidationError(f"regions must be a RegionSet or None, got "
                              f"{type(regions).__name__}")


def _check_probe(model, num_classes: int, dim: int) -> None:
    if not isinstance(model, AdapterModel):
        raise ValidationError(f"model must be an AdapterModel or None, got "
                              f"{type(model).__name__}")
    shape = model.weights.shape
    if len(shape) != 2:
        raise ShapeMismatch(f"probe weights {shape}: expected one (C, d) probe")
    if shape[1] != dim:
        raise DimensionMismatch(f"probe d={shape[1]}, features d={dim}")
    if shape[0] != num_classes:
        raise ShapeMismatch(f"probe of {shape[0]} classes, store of {num_classes}")
    if not np.isfinite(model.packed).all():
        raise NonFiniteInput("probe contains nan or inf")


def _decode(x: DenseFeatureMap, classify, regions: RegionSet | None):
    """Shared decoding: bilinear upsample + argmax, or region pooling + paint.

    classify maps (m, d) unit rows to (m, C) probabilities. It scores the
    patches, which give low_res, and in region mode the pooled regions.
    Patch mode labels are those of the full (H, W, C) volume, bit for bit
    (see _paint_labels).
    """
    probs = ProbMap(classify(x.data), x.grid_h, x.grid_w)
    if regions is None:
        labels = np.empty((x.image_h, x.image_w), dtype=np.int64)
        _paint_labels(probs, labels)
        return SegmentationResult(probs, LabelMask(labels, num_classes=probs.num_classes),
                                  "patch")
    # declared regions that own no pixels are dropped: pool over the present
    # ids renumbered 0..n-1 and paint back through the same renumbering
    present, inverse = np.unique(regions.assignments, return_inverse=True)
    inverse = inverse.reshape(regions.assignments.shape)  # 1-d on some numpy versions
    pooled = region_pool(x, RegionSet(inverse, len(present)))
    labels = np.argmax(classify(pooled), axis=1)[inverse]
    return SegmentationResult(probs, LabelMask(labels, num_classes=probs.num_classes),
                              "region")


def _paint_labels(probs: ProbMap, labels: np.ndarray) -> None:
    """Write argmax_map(upsample_probs(probs, H, W)) into the (H, W) labels,
    bit for bit, without holding the (H, W, C) volume.

    An image whose volume fits in one band of DECODE_BAND_BYTES is decoded
    in one call. A larger one is decoded one row of cells at a time (the
    pixels that blend the same pair of source rows, see
    numerics.resample_cells): a cell whose corner probabilities prove its
    winner (numerics.proven_winners) is painted with it, and the columns of
    the other cells are upsampled and argmaxed in bands of about
    DECODE_BAND_BYTES, with the operations of the full call. A map whose
    class changes at every patch proves few cells and costs about what a
    banded decode of every pixel does.
    """
    H, W = labels.shape
    C = probs.num_classes
    if max(1, DECODE_BAND_BYTES // (W * C * 8)) >= H:
        argmax_map(upsample_probs(probs, H, W), out=labels)
        return
    row_cell, row_lo, row_hi = resample_cells(probs.grid_h, H)
    col_cell, col_lo, col_hi = resample_cells(probs.grid_w, W)
    edges = np.searchsorted(row_cell, np.arange(len(row_lo) + 1))
    for r, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        won = proven_winners(probs, (row_lo[r], row_hi[r]), col_lo, col_hi)[col_cell]
        labels[start:stop] = won
        cols = np.flatnonzero(won < 0)
        if not cols.size:
            continue
        band = max(1, DECODE_BAND_BYTES // (max(cols.size, probs.grid_w) * C * 8))
        for a in range(start, stop, band):
            b = min(a + band, stop)
            out = np.empty((b - a, cols.size), dtype=np.int64)
            labels[a:b, cols] = argmax_map(
                upsample_probs(probs, H, W, rows=(a, b), cols=cols), out=out)
