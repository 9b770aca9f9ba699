"""Support memory: pooled class vectors from annotated images plus text features.

Persistent vector state (entry records, per-class accumulators, text rows) is kept
in float32 to match the on-disk formats exactly; all arithmetic runs in
float64 and rounds once on storage. The store is purely visual memory: fused
text/visual rows are built per query from whichever bank is being fused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NoVisualSupport,
    ShapeMismatch,
    ValidationError,
)
from .numerics import DenseFeatureMap, LabelMask, PatchLabelMatrix, downsample_labels, unit

# interpolation mixes between text (lam=1) and pooled visual (lam=0) features
DEFAULT_LAMBDAS: tuple[float, ...] = (0.9, 0.8, 0.6, 0.4, 0.2, 0.0)

UNIT_TOL = 1e-4


@dataclass(frozen=True)
class TextBank:
    """Per-class text embeddings; absent classes have no usable row.

    materialized means absent rows were filled in (substitute_missing_text),
    so every row can be consumed downstream.
    """

    features: np.ndarray  # (C, d) float32
    present: np.ndarray   # (C,) bool
    class_names: tuple = ()
    materialized: bool = False

    def __post_init__(self):
        if self.features.ndim != 2 or self.present.shape != (self.features.shape[0],):
            raise ShapeMismatch("text bank features (C, d) with (C,) presence flags")
        if self.present.any():
            norms = np.linalg.norm(
                np.asarray(self.features, dtype=np.float64)[self.present], axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_TOL):
                raise ValidationError("present text rows must be unit-norm")

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

    @property
    def usable(self) -> bool:
        return self.materialized or bool(self.present.all())


def substitute_missing_text(bank: TextBank) -> TextBank:
    """Fill absent text rows with the normalized mean of the present rows.

    All rows present: returned unchanged (just marked materialized). No rows
    present: marked materialized with the fallback flag left standing; callers
    then skip every text-dependent path.
    """
    if bank.present.all() or bank.fallback:
        return replace(bank, materialized=True)
    feats = np.asarray(bank.features, dtype=np.float64)
    mean = unit(feats[bank.present].mean(axis=0))
    out = np.array(bank.features, dtype=np.float32, copy=True)
    out[~bank.present] = mean.astype(np.float32)
    return TextBank(out, bank.present.copy(), bank.class_names, materialized=True)


def image_id_hash(image_id) -> int:
    """Map an image identifier (int or str) to an unsigned 64-bit int."""
    if isinstance(image_id, (int, np.integer)):
        return int(image_id) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(image_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# the largest feature dimension whose entry record numpy can describe: a
# structured dtype's itemsize must fit a C int
MAX_DIM = (np.iinfo(np.int32).max - 20) // 4


def row_dtype(d: int) -> np.dtype:
    """One packed RNSS entry record: class id, entry id, image id, vector.
    The store holds its rows in this layout, in memory as on disk."""
    return np.dtype([("class_id", "<u4"), ("entry_id", "<u8"), ("image_id", "<u8"),
                     ("vector", "<f4", (d,))])


def _bytes(records: np.ndarray) -> np.ndarray:
    """Records as raw bytes. numpy copies structured arrays field by field;
    a byte copy of the same rows is about 1.5x faster."""
    return records.view(np.uint8)


@dataclass
class SupportStore:
    """Accumulated support vectors and per-class running sums.

    Rows are RNSS entry records (row_dtype) in one buffer with geometric
    spare capacity, so appending writes only the new rows; `entries` is a
    read-only record view of the filled part. class_accumulators[c] is the
    float32 running sum of entry vectors for c. text is an optional default
    bank; nothing derived from it is cached.
    """

    num_classes: int
    dim: int
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    class_accumulators: np.ndarray = None
    class_counts: np.ndarray = None
    text: TextBank | None = None
    next_entry_id: int = 0

    def __post_init__(self):
        if not self.lambdas or not all(0.0 <= lam <= 1.0 for lam in self.lambdas):
            raise ValidationError(f"mixing coefficients {self.lambdas} empty or "
                                  "outside [0, 1]")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValidationError(f"feature dimension {self.dim} outside [1, {MAX_DIM}]")
        if self.class_accumulators is None:
            self.class_accumulators = np.zeros((self.num_classes, self.dim), np.float32)
        if self.class_counts is None:
            self.class_counts = np.zeros(self.num_classes, np.int64)
        self._size = 0
        self._rows = np.empty(0, row_dtype(self.dim))

    @classmethod
    def empty(cls, num_classes: int, dim: int,
              lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
              text: TextBank | None = None) -> "SupportStore":
        store = cls(num_classes=num_classes, dim=dim, lambdas=tuple(lambdas))
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

    def append_row(self, vector: np.ndarray, class_id: int, image_id: int) -> None:
        """Append one row under a fresh entry id."""
        i = self._size
        self._reserve(i + 1)
        self._rows[i] = (class_id, self.next_entry_id, image_id, vector)
        self._size = i + 1
        self.next_entry_id += 1

    def append_rows(self, records: np.ndarray) -> None:
        """Append row_dtype records that carry their own entry ids, e.g. from
        a snapshot."""
        n = len(records)
        if n == 0:
            return
        records = np.ascontiguousarray(records, dtype=self._rows.dtype)
        end = self._size + n
        self._reserve(end)
        _bytes(self._rows[self._size:end])[:] = _bytes(records)
        self._size = end
        self.next_entry_id = max(self.next_entry_id, int(records["entry_id"].max()) + 1)

    def _reserve(self, rows: int) -> None:
        """Room for `rows` rows. Capacity grows geometrically, so appends copy
        each row O(1) times amortized; spare rows stay unwritten until used."""
        if rows <= len(self._rows):
            return
        new = np.empty(max(16, rows + rows // 2), self._rows.dtype)
        _bytes(new[:self._size])[:] = _bytes(self._rows[:self._size])
        self._rows = new

    def visually_supported(self) -> list[int]:
        return [c for c in range(self.num_classes) if self.class_counts[c] > 0]

    @property
    def fused(self) -> dict:
        """class_id -> fused rows of every supported class, built from the
        attached bank; {} without one."""
        if self.text is None:
            return {}
        return {c: fused_rows(self, self.text, c) for c in self.visually_supported()}


def effective_lambdas(store: SupportStore, bank: TextBank) -> tuple[float, ...]:
    """Interpolation grid in effect when fusing with `bank`; collapses to
    pure-visual (0.0,) when the bank has no real rows."""
    return (0.0,) if bank.fallback else store.lambdas


def pool_image_class_features(x: DenseFeatureMap,
                              p: PatchLabelMatrix) -> list[tuple[int, np.ndarray]]:
    """Assignment-weighted pooling of patch features into per-class vectors.

    Returns (class_id, unit float64 vector) for every class with positive
    mass in p, ordered by class id.
    """
    x = x.normalized()
    if p.data.shape[0] != x.n:
        raise ShapeMismatch("assignment rows != patch count")
    pooled = np.asarray(p.data, dtype=np.float64).T @ x.data  # (C, d)
    mass = p.data.sum(axis=0)
    return [(int(c), unit(pooled[c])) for c in np.nonzero(mass > 0)[0]]


def add_support_image(store: SupportStore, x: DenseFeatureMap, mask: LabelMask,
                      image_id) -> SupportStore:
    """Pool one annotated image into the store; updates entries, accumulators
    and counts."""
    if x.dim != store.dim:
        raise DimensionMismatch(f"features d={x.dim}, store d={store.dim}")
    if mask.num_classes != store.num_classes:
        raise ValidationError("mask class space != store class space")
    if mask.shape != (x.image_h, x.image_w):
        raise ShapeMismatch("mask resolution != feature map image resolution")

    p = downsample_labels(mask, x.grid_h, x.grid_w)
    iid = image_id_hash(image_id)
    for class_id, vec in pool_image_class_features(x, p):
        v32 = vec.astype(np.float32)
        store.append_row(v32, class_id, iid)
        acc = store.class_accumulators[class_id].astype(np.float64)
        store.class_accumulators[class_id] = (acc + v32.astype(np.float64)).astype(np.float32)
        store.class_counts[class_id] += 1
    return store


def aggregate_class_feature(store: SupportStore, class_id: int) -> np.ndarray:
    """Normalized sum of all pooled vectors of one class (float64 unit)."""
    if not 0 <= class_id < store.num_classes:
        raise ValidationError(f"class {class_id} outside [0, {store.num_classes})")
    if store.class_counts[class_id] == 0:
        raise NoVisualSupport(f"class {class_id} has no support entries")
    return unit(store.class_accumulators[class_id].astype(np.float64))


def fuse(t: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Normalized interpolation lam*t + (1-lam)*v of two unit vectors.

    Endpoints short-circuit, so the unused operand is never validated; that
    lets a fallback (all-absent) text bank run the lam=0 grid.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda {lam} outside [0, 1]")
    if lam == 1.0:
        return _checked_unit_copy(t)
    if lam == 0.0:
        return _checked_unit_copy(v)
    t = _checked_unit_copy(t)
    v = _checked_unit_copy(v)
    return unit(lam * t + (1.0 - lam) * v)


def _checked_unit_copy(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > UNIT_TOL:
        raise ValidationError(f"expected unit vector, norm {n}")
    return v.copy()


def fuse_grid(t: np.ndarray, v: np.ndarray, lams) -> np.ndarray:
    """(len(lams), d) float64 rows fuse(t, v, lam), one per lambda in order."""
    return np.stack([fuse(t, v, lam) for lam in lams])


def fused_rows(store: SupportStore, bank: TextBank, class_id: int) -> np.ndarray:
    """(len(grid), d) float32 interpolations of the bank's text row and the
    class's pooled visual feature over the effective lambda grid."""
    v = aggregate_class_feature(store, class_id)
    return fuse_grid(bank.features[class_id].astype(np.float64), v,
                     effective_lambdas(store, bank)).astype(np.float32)


def check_text_bank(store: SupportStore, bank: TextBank) -> None:
    """A bank can be fused with the store: same (C, d), every row usable."""
    if bank.num_classes != store.num_classes or bank.dim != store.dim:
        raise DimensionMismatch("text bank shape != store shape")
    if not bank.usable:
        raise ValidationError("text bank has unmaterialized absent rows")


def attach_text(store: SupportStore, bank: TextBank) -> SupportStore:
    """Bind a default text bank to the store."""
    check_text_bank(store, bank)
    store.text = bank
    return store
