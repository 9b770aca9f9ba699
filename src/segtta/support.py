"""Support memory: pooled class vectors from annotated images plus text features.

Persistent vector state (entry records, per-class accumulators, text rows) is kept
in float32 to match the on-disk formats exactly. Arithmetic runs in float64
and rounds once on storage; the one float32 operation, adding an entry vector
to its class accumulator, rounds exactly as that float64 sum would. The store
is purely visual memory: fused text/visual rows are built per query from
whichever bank is being fused.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, NearZeroRow, NonFiniteInput, NoVisualSupport,
                     ShapeMismatch, ValidationError)
from .numerics import (NORM_EPS, DenseFeatureMap, LabelMask, PatchLabelMatrix, array_of,
                       downsample_labels, instance_of, real, unit, whole)

# interpolation mixes between text (lam=1) and pooled visual (lam=0) features
DEFAULT_LAMBDAS: tuple[float, ...] = (0.9, 0.8, 0.6, 0.4, 0.2, 0.0)

UNIT_TOL = 1e-4

U32 = 2.0 ** -24  # float32's unit roundoff


@dataclass(frozen=True)
class TextBank:
    """Per-class text embeddings; present marks the classes with a real row.

    When some rows are present but not all, the absent rows of a copy of
    features are filled with the unit mean of the present rows, so every row
    can be consumed downstream. A bank with no row present (fallback) or every
    row present is kept as given.
    """

    features: np.ndarray  # (C, d) float32
    present: np.ndarray   # (C,) bool

    def __post_init__(self):
        array_of("text features", self.features, "biuf")
        array_of("text presence flags", self.present, "b")
        if self.features.ndim != 2 or self.present.shape != (self.features.shape[0],):
            raise ShapeMismatch("text bank features (C, d) with (C,) presence flags")
        if self.fallback:
            return
        feats = np.asarray(self.features, dtype=np.float64)[self.present]
        if np.any(np.abs(np.linalg.norm(feats, axis=1) - 1.0) > UNIT_TOL):
            raise ValidationError("present text rows must be unit-norm")
        if self.present.all():
            return
        filled = np.array(self.features, dtype=np.float32, copy=True)
        filled[~self.present] = unit(feats.mean(axis=0)).astype(np.float32)
        object.__setattr__(self, "features", filled)

    @property
    def num_classes(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def fallback(self) -> bool:
        """True when no class has a real text feature."""
        return not bool(self.present.any())


def substitute_missing_text(bank: TextBank) -> TextBank:
    """The bank itself: a TextBank fills its absent rows when it is built."""
    return bank


def image_id_hash(image_id) -> int:
    """Map an image identifier (int or str) to an unsigned 64-bit int. A bool
    (numpy's too) is no image id: it raises ValidationError, as numerics.whole
    does."""
    if isinstance(image_id, (int, np.integer, np.bool_)):
        return whole("image id", image_id, -math.inf) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(image_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# the largest feature dimension whose entry record numpy can describe: a
# structured dtype's itemsize must fit a C int
MAX_DIM = (np.iinfo(np.int32).max - 20) // 4


# class ids are u32 in an entry record, and the class count is a u32 in RNSS
MAX_CLASSES = np.iinfo(np.uint32).max


def row_dtype(d: int) -> np.dtype:
    """One packed RNSS entry record: class id, entry id, image id, vector.
    The store holds its rows in this layout, in memory as on disk."""
    return np.dtype([("class_id", "<u4"), ("entry_id", "<u8"), ("image_id", "<u8"),
                     ("vector", "<f4", (d,))])


@dataclass
class SupportStore:
    """Accumulated support vectors and per-class running sums.

    Rows are RNSS entry records (row_dtype) in one buffer with geometric
    spare capacity, so appending writes only the new rows; `entries` is a
    read-only record view of the filled part. Rows are append-only: a stored
    row keeps its index and its bytes. Retrieval relies on that: a store of
    a block or more keeps, in `_kept_answers`, the answer of each recent set
    of query rows and k with the size it covers, and a repeat scores only
    the rows appended since (see retrieval._nearest_rows). A new or loaded
    store keeps no answer. Every row enters through _reserve_rows and
    _commit_rows, which checks the rows and keeps `_square_bound`, a bound
    on their largest squared norm, for retrieval's float32 band.
    class_accumulators[c] is the float32 running sum of entry vectors for c.
    text is an optional default bank; nothing derived from it is cached.
    """

    num_classes: int
    dim: int
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    class_accumulators: np.ndarray = field(init=False)
    class_counts: np.ndarray = field(init=False)
    text: TextBank | None = field(init=False, default=None)
    next_entry_id: int = field(init=False, default=0)

    def __post_init__(self):
        try:
            lambdas = tuple(self.lambdas)
        except TypeError:
            raise ValidationError("mixing coefficients must be a collection, "
                                  f"got {self.lambdas!r}") from None
        self.lambdas = tuple(real("mixing coefficient", lam, 0, 1) for lam in lambdas)
        if not self.lambdas:
            raise ValidationError("mixing coefficients must not be empty")
        self.dim = whole("feature dimension", self.dim, 1, MAX_DIM)
        self.num_classes = whole("class count", self.num_classes, 1, MAX_CLASSES)
        self.class_accumulators = np.zeros((self.num_classes, self.dim), np.float32)
        self.class_counts = np.zeros(self.num_classes, np.int64)
        self._size = 0
        self._rows = np.empty(0, row_dtype(self.dim))
        self._kept_answers = {}
        self._square_bound = 0.0

    @classmethod
    def empty(cls, num_classes: int, dim: int,
              lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
              text: TextBank | None = None) -> "SupportStore":
        store = cls(num_classes=num_classes, dim=dim, lambdas=lambdas)
        if text is not None:
            attach_text(store, text)
        return store

    @property
    def size(self) -> int:
        return self._size

    @property
    def entries(self) -> np.recarray:
        """The size stored records, read-only: entries.vector is (size, d)
        float32, entries.class_id, .entry_id and .image_id are (size,)."""
        view = self._rows[:self._size].view(np.recarray)
        view.flags.writeable = False
        return view

    def _reserve_rows(self, n: int) -> np.ndarray:
        """The next n rows of the row buffer, writable and not yet part of
        the store: fill them, then _commit_rows. Capacity grows geometrically,
        to 1.5x the rows then in use, so appends copy each row O(1) times
        amortized; spare rows stay unwritten until used."""
        end = self._size + n
        if end > len(self._rows):
            new = np.empty(max(16, end + end // 2), self._rows.dtype)
            # as bytes: numpy copies structured rows field by field, ~1.5x slower
            new[:self._size].view(np.uint8)[:] = self._rows[:self._size].view(np.uint8)
            self._rows = new
        return self._rows[self._size:end]

    def _commit_rows(self, n: int, next_entry_id: int) -> None:
        """Make the n reserved rows part of the store; the next fresh entry
        id becomes at least next_entry_id (one past the rows' largest).

        One float32 pass over the rows' squared norms, a stacked dot product
        per row, checks them (nan or inf raises NonFiniteInput and commits
        nothing) and folds them into _square_bound. A row's exact square S and
        computed one S' satisfy
        S <= (S' + d 2**-125) / (1 - d u) <= (S + 2 d 2**-125) / (1 - d u)**2,
        u = U32, in any summation order, FMA and underflow (gradual or flushed
        to zero) included. A finite row whose square overflows counts as
        d FLT_MAX**2, which bounds every float32 row; for d u >= 1 the bound
        is inf.
        """
        v = self._rows["vector"][self._size:self._size + n]
        with np.errstate(over="ignore"):  # a square past FLT_MAX is handled below
            top = float(np.matmul(v[:, None, :], v[:, :, None]).max(initial=0))
        if not math.isfinite(top):  # nan or inf in a row, or a square past FLT_MAX
            if not np.isfinite(v).all():
                raise NonFiniteInput("entry vectors hold nan or inf")
            top = self.dim * float(np.finfo(np.float32).max) ** 2
        relative = 1 - self.dim * U32
        bound = (top + self.dim * 2.0 ** -125) / relative if relative > 0 else math.inf
        self._square_bound = max(self._square_bound, bound)
        self._size += n
        self.next_entry_id = max(self.next_entry_id, next_entry_id)

    def visually_supported(self) -> list[int]:
        return [c for c in range(self.num_classes) if self.class_counts[c] > 0]

    @property
    def fused(self) -> dict:
        """class_id -> fused rows of every supported class, built from the
        attached bank; {} without one."""
        if self.text is None:
            return {}
        classes = self.visually_supported()
        rows = fused_rows(self, self.text, classes).reshape(len(classes), -1, self.dim)
        return dict(zip(classes, rows))


def effective_lambdas(store: SupportStore, bank: TextBank) -> tuple[float, ...]:
    """Interpolation grid in effect when fusing with `bank`; collapses to
    pure-visual (0.0,) when the bank has no real rows."""
    return (0.0,) if bank.fallback else store.lambdas


def pool_image_class_features(x: DenseFeatureMap,
                              p: PatchLabelMatrix) -> list[tuple[int, np.ndarray]]:
    """Assignment-weighted pooling of patch features into per-class vectors.

    Returns (class_id, unit float64 vector) for every class with positive
    mass in p, ordered by class id. Only those k columns are pooled, in one
    (k, n) @ (n, d) product, so an image costs O(k n d), not O(C n d).
    BLAS does not promise that a product over a subset of columns rounds
    each row as the whole (C, n) @ (n, d) product does; on OpenBLAS 0.3.31
    (x86-64) every row tested had the same float64 bits, so the records an
    add stores were byte-equal to pooling every class. A one-row product
    runs BLAS's matrix-vector kernel, whose sums there round differently,
    so one class of C > 1 is pooled as two rows.
    """
    if p.data.shape[0] != x.n:
        raise ShapeMismatch("assignment rows != patch count")
    data = np.asarray(p.data, dtype=np.float64)
    present = np.nonzero(p.data.sum(axis=0) > 0)[0]
    cols = present.repeat(2) if len(present) == 1 < data.shape[1] else present
    pooled = data[:, cols].T @ x.data  # (k, d), or (2, d) for one class
    return [(int(c), unit(v)) for c, v in zip(present, pooled)]


def add_support_image(store: SupportStore, x: DenseFeatureMap, mask: LabelMask,
                      image_id) -> SupportStore:
    """Pool one annotated image into the store; updates entries, accumulators
    and counts."""
    instance_of("store", store, SupportStore)
    instance_of("x", x, DenseFeatureMap)
    instance_of("mask", mask, LabelMask)
    if x.dim != store.dim:
        raise DimensionMismatch(f"features d={x.dim}, store d={store.dim}")
    if mask.num_classes != store.num_classes:
        raise ValidationError("mask class space != store class space")
    if mask.shape != (x.image_h, x.image_w):
        raise ShapeMismatch("mask resolution != feature map image resolution")

    p = downsample_labels(mask, x.grid_h, x.grid_w)
    iid = image_id_hash(image_id)
    pooled = [(c, v.astype(np.float32)) for c, v in pool_image_class_features(x, p)]
    first, rows = store.next_entry_id, store._reserve_rows(len(pooled))
    for i, (class_id, v32) in enumerate(pooled):  # row by row: an image has few classes
        rows[i] = (class_id, first + i, iid, v32)
    store._commit_rows(len(pooled), first + len(pooled))
    for class_id, v32 in pooled:
        store.class_accumulators[class_id] += v32
        store.class_counts[class_id] += 1
    return store


def aggregate_class_feature(store: SupportStore, class_id: int) -> np.ndarray:
    """Normalized sum of all pooled vectors of one class (float64 unit)."""
    whole("class id", class_id, 0, store.num_classes - 1)
    if store.class_counts[class_id] == 0:
        raise NoVisualSupport(f"class {class_id} has no support entries")
    return unit(store.class_accumulators[class_id].astype(np.float64))


def fuse_grid(t: np.ndarray, v: np.ndarray, lams) -> np.ndarray:
    """(K * L, d) float64 rows: for each unit row pair (t[k], v[k]) in turn,
    unit(lam * t[k] + (1 - lam) * v[k]) for each of the L lams in order.

    lam=1 rows copy t and lam=0 rows copy v, so the lam=0 grid of a fallback
    bank never reads its rows. TextBank and SupportStore check unit rows and
    lams in [0, 1] when they are built; a mix below NORM_EPS raises NearZeroRow.
    """
    t, v, lam = (np.asarray(a, dtype=np.float64) for a in (t, v, lams))
    out = np.empty((len(t), len(lam), t.shape[-1]))
    out[:, lam == 1.0] = t[:, None]
    out[:, lam == 0.0] = v[:, None]
    inner = (lam > 0.0) & (lam < 1.0)
    mix = lam[inner, None] * t[:, None] + (1.0 - lam[inner, None]) * v[:, None]
    # a (1, d) @ (d, 1) matmul is the BLAS dot unit() takes of one row
    norms = np.sqrt(np.matmul(mix[..., None, :], mix[..., :, None])[..., 0])
    if (norms < NORM_EPS).any():
        raise NearZeroRow(f"fused row norm below {NORM_EPS}")
    out[:, inner] = mix / norms
    return out.reshape(-1, t.shape[-1])


def fused_rows(store: SupportStore, bank: TextBank, classes) -> np.ndarray:
    """(len(classes) * L, d) float32 interpolations of each class's text row
    and pooled visual feature over the effective lambda grid of L values,
    classes in the given order."""
    classes = list(classes)
    v = np.array([aggregate_class_feature(store, c) for c in classes]).reshape(-1, store.dim)
    lams = effective_lambdas(store, bank)
    return fuse_grid(bank.features[classes], v, lams).astype(np.float32)


def check_text_bank(store: SupportStore, bank: TextBank) -> None:
    """A bank can be fused with the store: same (C, d)."""
    if bank.num_classes != store.num_classes or bank.dim != store.dim:
        raise DimensionMismatch("text bank shape != store shape")


def attach_text(store: SupportStore, bank: TextBank) -> SupportStore:
    """Bind a default text bank to the store."""
    check_text_bank(store, bank)
    store.text = bank
    return store
