"""Support memory: pooled class vectors from annotated images plus text features.

Persistent vector state (entry columns, per-class accumulators, text rows) is kept
in float32 to match the on-disk formats exactly; all arithmetic runs in
float64 and rounds once on storage. The store is purely visual memory: fused
text/visual rows are built per query from whichever bank is being fused.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
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


@dataclass(frozen=True)
class SupportEntry:
    """One pooled per-image class vector."""

    vector: np.ndarray  # (d,) float32, unit norm
    class_id: int
    image_id: int       # 64-bit content hash of the source image id
    entry_id: int


def image_id_hash(image_id) -> int:
    """Map an image identifier (int or str) to an unsigned 64-bit int."""
    if isinstance(image_id, (int, np.integer)):
        return int(image_id) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(image_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class EntryRows(Sequence):
    """Read-only sequence view of a store's rows as SupportEntry values."""

    def __init__(self, store: "SupportStore"):
        self._store = store

    def __len__(self) -> int:
        return self._store.size

    def __getitem__(self, i):
        rows = range(self._store.size)[i]
        if isinstance(i, slice):
            return [self[j] for j in rows]
        s = self._store
        return SupportEntry(s._vectors[rows].copy(), int(s._class_ids[rows]),
                            int(s._image_ids[rows]), int(s._entry_ids[rows]))


@dataclass
class SupportStore:
    """Accumulated support vectors and per-class running sums.

    Rows live in columns: vectors (M, d) float32 with their class, entry and
    image ids, held in buffers with geometric spare capacity so appending
    writes only the new rows. class_accumulators[c] is the float32 running
    sum of entry vectors for c. text is an optional default bank; nothing
    derived from it is cached.
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
        if self.class_accumulators is None:
            self.class_accumulators = np.zeros((self.num_classes, self.dim), np.float32)
        if self.class_counts is None:
            self.class_counts = np.zeros(self.num_classes, np.int64)
        self._size = 0
        self._vectors = np.empty((0, self.dim), np.float32)
        self._class_ids = np.empty(0, np.int64)
        self._entry_ids = np.empty(0, np.uint64)
        self._image_ids = np.empty(0, np.uint64)

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

    def _column(self, buf: np.ndarray) -> np.ndarray:
        view = buf[:self._size]
        view.flags.writeable = False
        return view

    @property
    def vectors(self) -> np.ndarray:
        """(size, d) float32 entry vectors, read-only."""
        return self._column(self._vectors)

    @property
    def class_ids(self) -> np.ndarray:
        return self._column(self._class_ids)

    @property
    def entry_ids(self) -> np.ndarray:
        return self._column(self._entry_ids)

    @property
    def image_ids(self) -> np.ndarray:
        return self._column(self._image_ids)

    @property
    def entries(self) -> EntryRows:
        return EntryRows(self)

    def append_row(self, vector: np.ndarray, class_id: int, image_id: int) -> None:
        """Append one row under a fresh entry id."""
        i = self._size
        self._reserve(i + 1)
        self._vectors[i] = vector
        self._class_ids[i] = class_id
        self._entry_ids[i] = self.next_entry_id
        self._image_ids[i] = image_id
        self._size = i + 1
        self.next_entry_id += 1

    def append_rows(self, vectors: np.ndarray, class_ids, image_ids, entry_ids) -> None:
        """Append rows that carry their own entry ids, e.g. from a snapshot."""
        n = len(class_ids)
        if n == 0:
            return
        end = self._size + n
        self._reserve(end)
        rows = slice(self._size, end)
        self._vectors[rows] = vectors
        self._class_ids[rows] = class_ids
        self._entry_ids[rows] = entry_ids
        self._image_ids[rows] = image_ids
        self._size = end
        self.next_entry_id = max(self.next_entry_id, int(np.max(entry_ids)) + 1)

    def _reserve(self, rows: int) -> None:
        """Room for `rows` rows. Capacity grows geometrically, so appends copy
        each row O(1) times amortized; spare rows stay unwritten until used."""
        if rows <= len(self._class_ids):
            return
        capacity = max(16, rows + rows // 2)
        for name in ("_vectors", "_class_ids", "_entry_ids", "_image_ids"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], old.dtype)
            new[:self._size] = old[:self._size]
            setattr(self, name, new)

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
