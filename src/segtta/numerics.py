"""Grid and matrix primitives shared by the whole pipeline.

Conventions: patch grids are row-major (n = grid_h * grid_w rows), class
probability matrices are (n, C) and row-stochastic, label masks are (H, W)
integer arrays with 65535 reserved as the ignore value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMask,
    NearZeroRow,
    NonFiniteInput,
    ShapeMismatch,
    ValidationError,
)

IGNORE_INDEX = 65535

NORM_EPS = 1e-12

# most pixels (image_h * image_w) a feature map may describe: 8192 x 8192
MAX_IMAGE_PIXELS = 1 << 26


def whole(what: str, value, lo=0, hi=math.inf) -> int:
    """value as an int in [lo, hi]. With real, the one rule for what is an
    integer or real argument: a bool (numpy's too), a value that is not a
    numbers.Integral, or one out of range, raises ValidationError."""
    # exact ints and floats skip the numbers ABC test: it costs ~20 type tests
    if type(value) is not int and (isinstance(value, (bool, np.bool_))
                                   or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValidationError(f"{what} {value} outside [{lo}, {hi}]")
    return int(value)


def real(what: str, value, lo=-math.inf, hi=math.inf, above=False) -> float:
    """value as a finite float in [lo, hi], or (lo, hi] with above. A bool
    (numpy's too), a value that is not a numbers.Real, nan, inf, or a value
    out of range, raises ValidationError."""
    if type(value) is not float and (isinstance(value, (bool, np.bool_))
                                     or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (lo < x if above else lo <= x) and x <= hi):
        raise ValidationError(f"{what} {value!r} outside {'(' if above else '['}"
                              f"{lo:g}, {hi:g}]")
    return x


def listed(what: str, values) -> list:
    """values, a collection, as a list; a value that cannot be iterated
    raises ValidationError."""
    try:
        return list(values)
    except TypeError:
        raise ValidationError(f"{what} must be a collection, got {values!r}") from None


def class_ids(values, num_classes: int) -> list[int]:
    """The distinct class ids in values, ascending, as Python ints. Each must
    be an integer in [0, num_classes): a bool, float or string raises
    ValidationError, as does values that is not a collection."""
    return sorted(set(whole("class id", c, 0, num_classes - 1)
                      for c in listed("class ids", values)))


def array_of(what: str, value, kinds: str) -> None:
    """value must be an ndarray of dtype kind "biuf" (real numeric), "iu"
    (integer) or "b" (bool); a list or another kind raises ValidationError."""
    if not isinstance(value, np.ndarray) or value.dtype.kind not in kinds:
        got = value.dtype if isinstance(value, np.ndarray) else type(value).__name__
        name = {"biuf": "a real numeric", "iu": "an integer", "b": "a bool"}[kinds]
        raise ValidationError(f"{what} must be {name} ndarray, got {got}")


def instance_of(what: str, value, cls: type) -> None:
    """value must be a cls; anything else raises ValidationError."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class DenseFeatureMap:
    """Patch features for one image: (n, d) rows over a non-empty h x w
    grid, stored as unit float64 rows (l2_normalize_rows).

    image_h / image_w record the pixel resolution (MAX_IMAGE_PIXELS at most)
    the grid was extracted from; they drive mask downsampling and probability
    upsampling. Data that is not a real numeric ndarray, or a size that is not
    an integer, raises ValidationError; nan or inf data, NonFiniteInput.
    """

    data: np.ndarray
    grid_h: int
    grid_w: int
    image_h: int
    image_w: int

    def __post_init__(self):
        # a list has no ndim, an object array no isfinite, and complex data
        # would lose its imaginary part in the float64 cast
        array_of("feature data", self.data, "biuf")
        for name in ("grid_h", "grid_w", "image_h", "image_w"):
            whole(name, getattr(self, name))
        if self.data.ndim != 2:
            raise ShapeMismatch(f"feature data must be 2-d, got {self.data.ndim}-d")
        if self.data.shape[0] != self.grid_h * self.grid_w:
            raise ShapeMismatch(
                f"{self.data.shape[0]} rows != grid {self.grid_h}x{self.grid_w}"
            )
        if self.grid_h < 1 or self.grid_w < 1:
            raise ShapeMismatch(f"empty patch grid {self.grid_h}x{self.grid_w}")
        if self.grid_h > self.image_h or self.grid_w > self.image_w:
            raise ShapeMismatch("patch grid larger than image")
        if int(self.image_h) * int(self.image_w) > MAX_IMAGE_PIXELS:
            raise ShapeMismatch(f"image {self.image_h}x{self.image_w}: "
                                f"over {MAX_IMAGE_PIXELS} pixels")
        if not np.isfinite(self.data).all():
            raise NonFiniteInput("feature data holds nan or inf")
        object.__setattr__(self, "data", l2_normalize_rows(self.data))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelMask:
    """(H, W) integer class map; ignore_index marks unlabeled pixels."""

    data: np.ndarray
    num_classes: int
    ignore_index: int = IGNORE_INDEX

    def __post_init__(self):
        array_of("mask labels", self.data, "iu")
        whole("num_classes", self.num_classes, 1)
        whole("ignore_index", self.ignore_index, -math.inf)
        if self.data.ndim != 2:
            raise ShapeMismatch(f"mask must be 2-d, got {self.data.ndim}-d")
        vals = self.data[self.data != self.ignore_index]
        if vals.size and (int(vals.min()) < 0 or int(vals.max()) >= self.num_classes):
            raise ValidationError(
                f"mask labels outside [0, {self.num_classes}) and not ignore"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class PatchLabelMatrix:
    """(n, C) soft assignment of patches to classes; columns sum to 1 or 0."""

    data: np.ndarray
    grid_h: int
    grid_w: int


@dataclass(frozen=True)
class ProbMap:
    """(n, C) row-stochastic class probabilities on a patch grid."""

    data: np.ndarray
    grid_h: int
    grid_w: int

    @property
    def num_classes(self) -> int:
        return self.data.shape[1]


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm. Raises NearZeroRow below NORM_EPS.

    A row whose norm overflows is first divided by its largest magnitude;
    every other row is normalized as it is."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch("l2_normalize_rows expects a matrix")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=1)
    huge = np.isinf(norms)
    if huge.any():
        m = m.copy()
        m[huge] /= np.abs(m[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(m[huge], axis=1)
    if (norms < NORM_EPS).any():
        raise NearZeroRow(f"row norm below {NORM_EPS}")
    return m / norms[:, None]


def unit(v: np.ndarray) -> np.ndarray:
    """Unit-normalize one vector; one whose norm overflows goes through
    l2_normalize_rows."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        n = math.sqrt(v.dot(v))  # np.linalg.norm's own 1-d formula
    if math.isinf(n):
        return l2_normalize_rows(v[None])[0]
    if n < NORM_EPS:
        raise NearZeroRow(f"vector norm {n} below {NORM_EPS}")
    return v / n


def softmax(scores: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis, stabilized by max subtraction.

    The division by tau makes a fresh array; the max subtraction, exp and
    division by the sum then run in place on it. These are the operations of
    z = scores / tau; e = exp(z - max(z)); e / sum(e), in that order, so the
    bits are theirs, and scores is never written."""
    tau = real("temperature", tau, 0, above=True)
    z = np.asarray(scores, dtype=np.float64) / tau
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _cell_index(n_pixels: int, n_cells: int) -> np.ndarray:
    # pixel y falls in cell floor(y * h / H); exact in integer arithmetic
    return (np.arange(n_pixels, dtype=np.int64) * n_cells) // n_pixels


def downsample_labels(mask: LabelMask, grid_h: int, grid_w: int) -> PatchLabelMatrix:
    """Area-fraction downsampling of a pixel mask onto a patch grid.

    Each cell gets the fraction of its pixels carrying each class (ignore
    pixels contribute no mass), then every class column is L1-normalized so
    a class distributes one unit of weight across the grid.

    The cell geometry is built per call from the two axes alone, H + W + n
    elements and no (H, W) index array, and the labeled pixels are counted
    in one bincount of (cell, class) keys.
    """
    grid_h, grid_w = whole("grid_h", grid_h), whole("grid_w", grid_w)
    H, W = mask.shape
    if grid_h > H or grid_w > W or grid_h <= 0 or grid_w <= 0:
        raise ShapeMismatch(f"grid {grid_h}x{grid_w} invalid for mask {H}x{W}")
    C = mask.num_classes
    n = grid_h * grid_w
    rows, cols = _cell_index(H, grid_h), _cell_index(W, grid_w)
    # a cell's pixel count is its row band's size times its column band's
    sizes = np.outer(np.bincount(rows, minlength=grid_h),
                     np.bincount(cols, minlength=grid_w)).reshape(n, 1)
    # one (cell, class) key per labeled pixel; int64, as uint64 labels would
    # promote the sum to float64
    key = (rows * (grid_w * C))[:, None] + mask.data.astype(np.int64, copy=False)
    key += cols * C
    key = key[mask.data != mask.ignore_index]
    if not key.size:
        raise EmptyMask("mask is entirely ignore")
    # integer counts over integer sizes divide in float64, as if cast first
    frac = np.bincount(key, minlength=n * C).reshape(n, C) / sizes
    colsum = frac.sum(axis=0)
    frac /= np.where(colsum > 0, colsum, 1.0)  # an empty column holds zeros
    return PatchLabelMatrix(frac, grid_h, grid_w)


def _linear_resample_weights(n_src: int, n_dst: int, start: int = 0,
                             stop: int | None = None):
    """Source index pairs and blend weights for 1-d bilinear resampling of
    destination samples start..stop-1 (default: all n_dst).

    Destination samples sit at pixel centers; source coordinates outside the
    grid clamp to the border (both neighbor indices collapse there, so any
    convex weight reproduces the edge value).

    The clamp is np.clip's maximum then minimum, run in place on the fresh
    int64 index arrays: np.clip gives the same integers at about three times
    the call overhead.
    """
    dst = np.arange(start, n_dst if stop is None else stop, dtype=np.float64)
    s = (dst + 0.5) * (n_src / n_dst) - 0.5
    lo = np.floor(s).astype(np.int64)
    w1 = s - lo
    hi = lo + 1
    for i in (lo, hi):
        np.maximum(i, 0, out=i)
        np.minimum(i, n_src - 1, out=i)
    return lo, hi, w1


def upsample_probs(p: ProbMap, out_h: int, out_w: int,
                   rows: tuple[int, int] | None = None, cols=None) -> np.ndarray:
    """Bilinear upsampling of patch probabilities to (out_h, out_w, C).

    Separable, pixel-center aligned. Convex per-pixel blending keeps every
    output row a probability distribution.

    rows=(start, stop) computes only output rows start..stop-1 of that
    volume, as a (stop - start, out_w, C) band, and cols, a 1-d array of
    output column indices, only those columns of it, as a
    (stop - start, len(cols), C) volume. Both blends are elementwise, so the
    result is bit-identical to the same rows and columns of the full call,
    and a caller can decode an image band by band in O(band x out_w x C)
    memory.

    Each axis blend grid[lo] * (1 - w) + grid[hi] * w scales the two gathers
    in place and adds the second into the first: the products and the sum
    of the allocating form, in its order, with three fewer temporaries. The
    gathers are fresh copies, so p.data is never written.
    """
    if out_h <= 0 or out_w <= 0:
        raise ShapeMismatch("output size must be positive")
    start, stop = (0, out_h) if rows is None else rows
    if not 0 <= start < stop <= out_h:
        raise ShapeMismatch(f"row range [{start}, {stop}) outside [0, {out_h})")
    grid = np.asarray(p.data, dtype=np.float64).reshape(p.grid_h, p.grid_w, -1)

    lo, hi, w = _linear_resample_weights(p.grid_h, out_h, start, stop)
    grid = _blend(grid[lo], grid[hi], w[:, None, None])
    lo, hi, w = _linear_resample_weights(p.grid_w, out_w)
    if cols is not None:
        cols = np.asarray(cols)
        if cols.ndim != 1 or cols.dtype.kind not in "iu" or (
                cols.size and not 0 <= cols.min() <= cols.max() < out_w):
            raise ShapeMismatch(f"cols must be 1-d integer indices in [0, {out_w})")
        lo, hi, w = lo[cols], hi[cols], w[cols]
    return _blend(grid[:, lo], grid[:, hi], w[None, :, None])


def _blend(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a * (1 - w) + b * w, written into a (b is scaled too): a and b are
    fresh gathers the caller gives up."""
    a *= 1.0 - w
    b *= w
    a += b
    return a


def resample_cells(n_src: int, n_dst: int):
    """(cell, lo, hi): the cells of 1-d bilinear resampling of n_src samples
    to n_dst. Destination sample i blends source samples lo[cell[i]] and
    hi[cell[i]]; the cells are the runs of samples that blend the same pair,
    numbered from 0 in destination order."""
    lo, hi, _ = _linear_resample_weights(n_src, n_dst)
    new = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    return np.cumsum(new) - 1, lo[new], hi[new]


# Bounds for proven_winners. Each blend of upsample_probs computes
# fl(fl(a * fl(1 - w)) + fl(b * w)) with 0 <= w <= 1 and a, b >= 0. With
# u = 2**-53, each product and the sum carry a relative factor within
# [1 - u, 1 + u], and a product that underflows an absolute error of at most
# 2**-1075; the real a * (1 - w) + b * w lies between a and b. Two such
# blends put every pixel value of a class in a cell within
# [m (1 - u)**6 - 2**-1072, M (1 + u)**6 + 2**-1072] for the smallest and
# largest of its four corner probabilities m and M. The upper bound
# fl(fl(M * (1 + 2**-49)) + 2**-1070) is at least the upper end: for a normal
# M, M (1 + 16 u) (1 - u) exceeds M (1 + u)**6 by more than 9 u M >= 2**-1072;
# below 2**-1022 the product rounds to at least M, and adding the floor,
# exactly or within 2**-1075, adds more than 2**-1071. The lower bound
# fl(fl(m * (1 - 2**-49)) - 2**-1070) mirrors it.
BLEND_SLACK = 2.0 ** -49
BLEND_FLOOR = 2.0 ** -1070


def proven_winners(p: ProbMap, row_pair: tuple[int, int], col_lo: np.ndarray,
                   col_hi: np.ndarray) -> np.ndarray:
    """For each cell k of source rows row_pair and source columns col_lo[k],
    col_hi[k] (see resample_cells): the class whose upsample_probs value
    beats every other class's at every pixel of the cell, or -1 where the
    corner bounds do not prove one.

    p holds nonnegative probabilities. A class whose largest value can be
    below another class's smallest can neither win nor tie in the cell; a
    cell left with one class has a winner, and argmax_map gives it too.
    """
    grid = np.asarray(p.data, dtype=np.float64).reshape(p.grid_h, p.grid_w, -1)
    a, b = grid[row_pair[0]], grid[row_pair[1]]
    top, bottom = np.maximum(a, b), np.minimum(a, b)
    top = np.maximum(top[col_lo], top[col_hi]) * (1.0 + BLEND_SLACK) + BLEND_FLOOR
    bottom = np.minimum(bottom[col_lo], bottom[col_hi]) * (1.0 - BLEND_SLACK) - BLEND_FLOOR
    best = bottom.argmax(axis=1)
    floor = bottom.max(axis=1, keepdims=True)
    # a nan compares false, so a cell holding one proves nothing
    alone = (top < floor).sum(axis=1) == top.shape[1] - 1
    return np.where(alone, best, -1)


def argmax_map(grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of an (h, W, C) probability volume; ties -> lowest id.

    grid is a whole image or a band of its rows (see upsample_probs). The
    (h, W) int64 labels are written into out, e.g. the matching rows of a
    preallocated label array, which is returned.
    """
    if grid.ndim != 3:
        raise ShapeMismatch("expected (h, W, C) volume")
    return np.argmax(grid, axis=-1, out=out)
