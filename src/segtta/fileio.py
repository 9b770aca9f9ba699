"""Binary containers and the dataset manifest.

Three little-endian formats, each opened by a 4-byte magic and a u8 version:
RNSF (float32 tensors of any rank), RNSM (u16 label grids, 65535 = ignore),
RNSS (support store snapshots). The manifest is plain JSON binding class ids
to text feature files and listing support / query images.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    MissingFile,
    ParseError,
    ShapeMismatch,
    TruncatedFile,
    ValidationError,
)
from .inference import RegionSet
from .numerics import IGNORE_INDEX, DenseFeatureMap, LabelMask
from .support import SupportStore, TextBank, attach_text, row_dtype

MAGIC_TENSOR = b"RNSF"
MAGIC_MASK = b"RNSM"
MAGIC_STORE = b"RNSS"
VERSION = 1
DTYPE_F32 = 0


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFile(f"wanted {n} bytes, got {len(buf)}")
    return buf


def _check_payload(f, nbytes: int, exact: bool = True) -> None:
    """The rest of the file must hold nbytes (exactly, or at least); checked
    before reading so a hostile header cannot request a huge buffer."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise TruncatedFile(f"header declares {nbytes} more bytes, file has {left}")
    if exact and nbytes < left:
        raise FormatError("trailing bytes after payload")


def _check_header(f, magic: bytes):
    got = _read_exact(f, 4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    ver = _read_exact(f, 1)[0]
    if ver != VERSION:
        raise FormatError(f"unsupported version {ver}")


# --- RNSF: float32 tensors ---

def write_tensor(path, arr: np.ndarray) -> None:
    # asarray, not ascontiguousarray: the latter silently promotes rank 0 to 1
    arr = np.asarray(arr, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(MAGIC_TENSOR)
        f.write(struct.pack("<BBB", VERSION, DTYPE_F32, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def _read_tensor_header(f) -> tuple:
    """Dims of an RNSF tensor, checked against the payload the file holds."""
    _check_header(f, MAGIC_TENSOR)
    dtype_code, ndim = struct.unpack("<BB", _read_exact(f, 2))
    if dtype_code != DTYPE_F32:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    dims = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim))
    _check_payload(f, 4 * math.prod(dims))
    return dims


def read_tensor(path, expect_ndim: int | None = None) -> np.ndarray:
    with open(path, "rb") as f:
        dims = _read_tensor_header(f)
        payload = _read_exact(f, 4 * math.prod(dims))
    if expect_ndim is not None and len(dims) != expect_ndim:
        raise ShapeMismatch(f"expected {expect_ndim}-d tensor, file has {len(dims)}-d")
    arr = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(arr).all():
        raise FormatError("tensor payload holds nan or inf")
    return arr.reshape(dims).copy()


# --- RNSM: u16 label grids ---

def write_mask(path, mask) -> None:
    data = mask.data if isinstance(mask, LabelMask) else np.asarray(mask)
    if data.ndim != 2:
        raise ShapeMismatch("mask must be 2-d")
    if data.size and (int(data.min()) < 0 or int(data.max()) > 0xFFFF):
        raise ShapeMismatch("mask values outside u16 range")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(MAGIC_MASK)
        f.write(struct.pack("<BQQ", VERSION, h, w))
        f.write(np.ascontiguousarray(data, dtype="<u2").tobytes())


def read_mask_array(path) -> np.ndarray:
    with open(path, "rb") as f:
        _check_header(f, MAGIC_MASK)
        h, w = struct.unpack("<QQ", _read_exact(f, 16))
        _check_payload(f, 2 * h * w)
        payload = _read_exact(f, 2 * h * w)
    return np.frombuffer(payload, dtype="<u2").reshape(h, w).copy()


def read_mask(path, num_classes: int, ignore_index: int = IGNORE_INDEX) -> LabelMask:
    data = read_mask_array(path)
    labeled = data[data != ignore_index]
    if labeled.size and int(labeled.max()) >= num_classes:
        raise FormatError(
            f"mask label {int(labeled.max())} >= declared class count {num_classes}"
        )
    return LabelMask(data.astype(np.int64), num_classes=num_classes,
                     ignore_index=ignore_index)


def read_regions(path) -> RegionSet:
    return RegionSet.from_grid(read_mask_array(path))


# --- RNSS: support store snapshots ---

def save_store(store: SupportStore, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_STORE)
        f.write(struct.pack("<BIII", VERSION, store.num_classes, store.dim,
                            len(store.lambdas)))
        f.write(struct.pack(f"<{len(store.lambdas)}d", *store.lambdas))
        f.write(struct.pack("<Q", store.size))
        f.write(store.entries)
        f.write(np.ascontiguousarray(store.class_accumulators, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(store.class_counts, dtype="<u8").tobytes())


def load_store(path, text: TextBank | None = None) -> SupportStore:
    with open(path, "rb") as f:
        _check_header(f, MAGIC_STORE)
        C, d, n_lam = struct.unpack("<III", _read_exact(f, 12))
        _check_payload(f, 8 * n_lam + 8, exact=False)
        lambdas = struct.unpack(f"<{n_lam}d", _read_exact(f, 8 * n_lam))
        (n_entries,) = struct.unpack("<Q", _read_exact(f, 8))
        record_size = 20 + 4 * d
        _check_payload(f, n_entries * record_size + 4 * C * d + 8 * C)
        # only a file holding a record bounds d enough to build its dtype;
        # fromfile reads into a numpy buffer, which numpy backs with huge
        # pages when large: far fewer page faults than reading into bytes
        records = np.fromfile(f, row_dtype(d if n_entries else 0), n_entries)
        if len(records) != n_entries:
            raise TruncatedFile(f"wanted {n_entries} entry records, got {len(records)}")
        acc = np.frombuffer(_read_exact(f, 4 * C * d), dtype="<f4").reshape(C, d).copy()
        counts = np.frombuffer(_read_exact(f, 8 * C), dtype="<u8").astype(np.int64)
    class_ids = records["class_id"].astype(np.int64)
    if n_entries and class_ids.max() >= C:
        raise FormatError(f"entry class {class_ids.max()} >= declared class count {C}")
    if not np.array_equal(counts, np.bincount(class_ids, minlength=C)):
        raise FormatError("per-class counts disagree with the entries")
    if not (np.isfinite(records["vector"]).all() and np.isfinite(acc).all()):
        raise FormatError("entry vectors or class accumulators hold nan or inf")
    if n_entries and records["entry_id"].max() == np.iinfo(np.uint64).max:
        raise FormatError("entry id 2^64-1 leaves no id for the next entry")
    try:
        store = SupportStore(num_classes=C, dim=d, lambdas=lambdas,
                             class_accumulators=acc, class_counts=counts)
    except ValidationError as e:  # a grid or dimension no store can hold
        raise FormatError(str(e)) from e
    store.append_rows(records)
    if text is not None:
        attach_text(store, text)
    return store


# --- manifest ---

@dataclass(frozen=True)
class ManifestClass:
    id: int
    name: str | None
    text_feature_ref: str | None


@dataclass(frozen=True)
class SupportImageRef:
    feature_file: str
    mask_file: str
    image_id: str


@dataclass(frozen=True)
class QueryImageRef:
    feature_file: str
    image_h: int
    image_w: int
    mask_file: str | None = None
    regions_file: str | None = None


@dataclass(frozen=True)
class Manifest:
    root: Path
    feature_dim: int
    classes: tuple
    support_images: tuple
    query_images: tuple

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def resolve(self, rel: str) -> Path:
        return self.root / rel


def _tensor_dims(path) -> tuple:
    """Header-only shape probe of an RNSF file."""
    with open(path, "rb") as f:
        return _read_tensor_header(f)


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot parse manifest: {e}") from e
    try:
        feature_dim = int(raw["feature_dim"])
        classes = [
            ManifestClass(int(c["id"]), c.get("name"), c.get("text_feature_ref"))
            for c in raw["classes"]
        ]
        support = [
            SupportImageRef(s["feature_file"], s["mask_file"], str(s["image_id"]))
            for s in raw.get("support_images", [])
        ]
        queries = [
            QueryImageRef(q["feature_file"], int(q["image_h"]), int(q["image_w"]),
                          q.get("mask_file"), q.get("regions_file"))
            for q in raw.get("query_images", [])
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"manifest field error: {e}") from e

    if sorted(c.id for c in classes) != list(range(len(classes))):
        raise ParseError("class ids must be dense in [0, C)")

    m = Manifest(path.parent, feature_dim, tuple(classes), tuple(support), tuple(queries))
    refs = [c.text_feature_ref for c in classes if c.text_feature_ref]
    refs += [s.feature_file for s in support] + [s.mask_file for s in support]
    refs += [q.feature_file for q in queries]
    refs += [q.mask_file for q in queries if q.mask_file]
    refs += [q.regions_file for q in queries if q.regions_file]
    for rel in refs:
        if not m.resolve(rel).is_file():
            raise MissingFile(str(m.resolve(rel)))
    for rel in [c.text_feature_ref for c in classes if c.text_feature_ref] + \
               [s.feature_file for s in support] + [q.feature_file for q in queries]:
        dims = _tensor_dims(m.resolve(rel))
        if dims[-1] != feature_dim:
            raise DimensionMismatch(f"{rel}: d={dims[-1]}, manifest d={feature_dim}")
    return m


def load_text_bank(manifest: Manifest) -> TextBank:
    C, d = manifest.num_classes, manifest.feature_dim
    feats = np.zeros((C, d), dtype=np.float32)
    present = np.zeros(C, dtype=bool)
    names = []
    for c in sorted(manifest.classes, key=lambda c: c.id):
        names.append(c.name)
        if c.text_feature_ref:
            vec = read_tensor(manifest.resolve(c.text_feature_ref), expect_ndim=1)
            if vec.shape != (d,):
                raise DimensionMismatch(f"text feature {c.text_feature_ref}: {vec.shape}")
            feats[c.id] = vec
            present[c.id] = True
    return TextBank(feats, present, tuple(names))


def load_feature_map(path, image_h: int, image_w: int) -> DenseFeatureMap:
    """Read an (h, w, d) RNSF tensor and unit-normalize the rows."""
    arr = read_tensor(path, expect_ndim=3)
    h, w, d = arr.shape
    flat = arr.reshape(h * w, d).astype(np.float64)
    return DenseFeatureMap(flat, h, w, image_h, image_w).normalized()


def load_support_image(manifest: Manifest, ref: SupportImageRef):
    mask = read_mask(manifest.resolve(ref.mask_file), manifest.num_classes)
    x = load_feature_map(manifest.resolve(ref.feature_file), *mask.shape)
    return x, mask


def load_query_features(manifest: Manifest, ref: QueryImageRef) -> DenseFeatureMap:
    return load_feature_map(manifest.resolve(ref.feature_file), ref.image_h, ref.image_w)
