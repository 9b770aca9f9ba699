"""Binary containers and the dataset manifest.

Three little-endian formats, each opened by a 4-byte magic and a u8 version:
RNSF (float32 tensors of any rank), RNSM (u16 label grids, 65535 = ignore),
RNSS (support store snapshots). All three are written by _write_container,
which overwrites a file in place and writes the magic last. The manifest is
plain JSON binding class ids to text feature files and listing support /
query images.
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
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
    TruncatedFile,
    ValidationError,
)
from .inference import RegionSet
from .numerics import IGNORE_INDEX, DenseFeatureMap, LabelMask, array_of
from .support import MAX_DIM, SupportStore, TextBank, attach_text

MAGIC_TENSOR = b"RNSF"
MAGIC_MASK = b"RNSM"
MAGIC_STORE = b"RNSS"
VERSION = 1
DTYPE_F32 = 0


def _open(path, mode: str, opener=None):
    """open(), with a path that cannot be opened raised as MissingFile: one
    that does not exist or is a directory, or a name the system refuses."""
    try:
        return open(path, mode, opener=opener)
    except OSError as e:
        raise MissingFile(f"{path}: {e.strerror}") from e
    except ValueError as e:  # a NUL byte, or a character the file system cannot encode
        raise MissingFile(f"{str(path)!r}: {e}") from e


def _without_truncation(path, flags: int) -> int:
    # "wb" without O_TRUNC: truncating a large file first can cost more than
    # writing it (the freed blocks are discarded on some file systems)
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_container(path, magic: bytes, *parts) -> None:
    """Write magic, then parts (bytes, or C-contiguous arrays written from
    their own memory), over whatever path holds.

    A file is overwritten in place, not truncated first, so its inode, mode
    and hard links stay as they are. Four zero bytes stand in for the magic
    until every part is written and a longer old file is cut to the new
    length; the magic goes in last. A write cut short therefore leaves a
    file that every reader refuses with a bad magic, whatever the old
    file's length. An output that cannot seek back (a pipe, a terminal)
    gets the magic first. Any OSError raises MissingFile naming the path.
    Writes are not atomic: a reader that opens the file while it is being
    written can see a mix of old and new bytes.
    """
    try:
        with _open(path, "wb", opener=_without_truncation) as f:
            in_place = f.seekable()
            old_size = os.fstat(f.fileno()).st_size
            f.write(bytes(len(magic)) if in_place else magic)
            for part in parts:
                f.write(part)
            if in_place:
                if old_size > f.tell():
                    f.truncate()
                f.seek(0)
                f.write(magic)
    except OSError as e:  # on a write, or on the flush when the file closes
        raise MissingFile(f"{path}: cannot write: {e.strerror}") from e


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFile(f"wanted {n} bytes, got {len(buf)}")
    return buf


def _read_into(f, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous array out with the file's next out.nbytes bytes,
    read straight into it; a short read raises TruncatedFile."""
    got = f.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise TruncatedFile(f"wanted {out.nbytes} bytes, got {got}")
    return out


def _read_array(f, dtype, shape) -> np.ndarray:
    """A new array of the file's next values: one read, no second copy.
    numpy backs an array of 4 MiB or more with huge pages where it can."""
    return _read_into(f, np.empty(shape, dtype))


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
    arr = np.asarray(arr, dtype="<f4", order="C")
    _write_container(path, MAGIC_TENSOR,
                     struct.pack(f"<BBB{arr.ndim}Q", VERSION, DTYPE_F32, arr.ndim, *arr.shape),
                     arr)


def read_tensor(path, expect_ndim: int | None = None) -> np.ndarray:
    with _open(path, "rb") as f:
        _check_header(f, MAGIC_TENSOR)
        dtype_code, ndim = struct.unpack("<BB", _read_exact(f, 2))
        if dtype_code != DTYPE_F32:
            raise FormatError(f"unsupported dtype code {dtype_code}")
        dims = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim))
        _check_payload(f, 4 * math.prod(dims))
        arr = _read_array(f, "<f4", dims)
    if expect_ndim is not None and len(dims) != expect_ndim:
        raise ShapeMismatch(f"expected {expect_ndim}-d tensor, file has {len(dims)}-d")
    if not np.isfinite(arr).all():
        raise FormatError("tensor payload holds nan or inf")
    return arr


# --- RNSM: u16 label grids ---

def write_mask(path, mask) -> None:
    data = mask.data if isinstance(mask, LabelMask) else np.asarray(mask)
    array_of("mask labels", data, "iu")
    if data.ndim != 2:
        raise ShapeMismatch("mask must be 2-d")
    if data.size and (int(data.min()) < 0 or int(data.max()) > 0xFFFF):
        raise ValidationError("mask values outside u16 range")
    _write_container(path, MAGIC_MASK, struct.pack("<BQQ", VERSION, *data.shape),
                     np.ascontiguousarray(data, dtype="<u2"))


def read_mask_array(path) -> np.ndarray:
    with _open(path, "rb") as f:
        _check_header(f, MAGIC_MASK)
        h, w = struct.unpack("<QQ", _read_exact(f, 16))
        _check_payload(f, 2 * h * w)
        return _read_array(f, "<u2", (h, w))


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
    n_lam = len(store.lambdas)
    _write_container(path, MAGIC_STORE,
                     struct.pack(f"<BIII{n_lam}dQ", VERSION, store.num_classes, store.dim,
                                 n_lam, *store.lambdas, store.size),
                     store.entries,
                     np.ascontiguousarray(store.class_accumulators, dtype="<f4"),
                     np.ascontiguousarray(store.class_counts, dtype="<u8"))


def load_store(path, text: TextBank | None = None) -> SupportStore:
    """Read an RNSS store, with `text` attached if given.

    The records are read once, with readinto, straight into the new store's
    reserved rows, and become its rows only once the file's checks pass:
    class ids below C, per-class counts equal to the records', finite
    accumulators, a free next entry id and finite vectors (the commit's
    norm pass, see SupportStore._commit_rows). What fails a check is a
    FormatError. The store keeps the spare capacity of a grown one (1.5x
    its rows), so the first add after a load does not move the records.
    """
    with _open(path, "rb") as f:
        _check_header(f, MAGIC_STORE)
        C, d, n_lam = struct.unpack("<III", _read_exact(f, 12))
        _check_payload(f, 8 * n_lam + 8, exact=False)
        lambdas = struct.unpack(f"<{n_lam}d", _read_exact(f, 8 * n_lam))
        (n_entries,) = struct.unpack("<Q", _read_exact(f, 8))
        record_size = 20 + 4 * d
        _check_payload(f, n_entries * record_size + 4 * C * d + 8 * C)
        try:
            store = SupportStore(num_classes=C, dim=d, lambdas=lambdas)
        except ValidationError as e:  # a grid or dimension no store can hold
            raise FormatError(str(e)) from e
        # the records are read once, into the store's own row buffer, and
        # become its rows only when every check below has passed
        records = _read_into(f, store._reserve_rows(n_entries))
        acc = _read_array(f, "<f4", (C, d))
        counts = _read_array(f, "<u8", C).astype(np.int64)
    class_ids = records["class_id"]
    if n_entries and class_ids.max() >= C:
        raise FormatError(f"entry class {class_ids.max()} >= declared class count {C}")
    if not np.array_equal(counts, np.bincount(class_ids, minlength=C)):
        raise FormatError("per-class counts disagree with the entries")
    if not np.isfinite(acc).all():
        raise FormatError("class accumulators hold nan or inf")
    top_id = int(records["entry_id"].max()) if n_entries else -1
    if top_id == np.iinfo(np.uint64).max:
        raise FormatError("entry id 2^64-1 leaves no id for the next entry")
    try:  # the commit checks the entry vectors
        store._commit_rows(n_entries, top_id + 1)
    except NonFiniteInput as e:
        raise FormatError(str(e)) from e
    store.class_accumulators, store.class_counts = acc, counts
    if text is not None:
        attach_text(store, text)
    return store


# --- manifest ---

@dataclass(frozen=True)
class ManifestClass:
    id: int
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


def _field(entry: dict, key: str, kind: type = str, optional: bool = False):
    """entry[key], exactly of JSON type kind: str (a file reference) or int
    (a bool, float or string is refused); where optional, absent or null."""
    value = entry.get(key) if optional else entry[key]
    if not (type(value) is kind or (optional and value is None)):
        raise ParseError(f"manifest {key} must be {'a string' if kind is str else 'an integer'}"
                         f", got {value!r}")
    return value


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
        raise ParseError(f"cannot parse manifest: {e}") from e
    try:
        feature_dim = _field(raw, "feature_dim", int)
        classes = [
            ManifestClass(_field(c, "id", int), _field(c, "text_feature_ref", optional=True))
            for c in raw["classes"]
        ]
        support = [
            SupportImageRef(_field(s, "feature_file"), _field(s, "mask_file"),
                            str(s["image_id"]))
            for s in raw.get("support_images", [])
        ]
        queries = [
            QueryImageRef(_field(q, "feature_file"), _field(q, "image_h", int),
                          _field(q, "image_w", int), _field(q, "mask_file", optional=True),
                          _field(q, "regions_file", optional=True))
            for q in raw.get("query_images", [])
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"manifest field error: {e}") from e

    if sorted(c.id for c in classes) != list(range(len(classes))):
        raise ParseError("class ids must be dense in [0, C)")
    if not 1 <= feature_dim <= MAX_DIM:
        raise ParseError(f"feature_dim {feature_dim} outside [1, {MAX_DIM}]")

    return Manifest(path.parent, feature_dim, tuple(classes), tuple(support),
                    tuple(queries))


def load_text_bank(manifest: Manifest) -> TextBank:
    C, d = manifest.num_classes, manifest.feature_dim
    feats = np.zeros((C, d), dtype=np.float32)
    present = np.zeros(C, dtype=bool)
    for c in sorted(manifest.classes, key=lambda c: c.id):
        if c.text_feature_ref:
            vec = read_tensor(manifest.resolve(c.text_feature_ref), expect_ndim=1)
            if vec.shape != (d,):
                raise DimensionMismatch(f"text feature {c.text_feature_ref}: {vec.shape}")
            feats[c.id] = vec
            present[c.id] = True
    return TextBank(feats, present)


def load_feature_map(path, image_h: int, image_w: int) -> DenseFeatureMap:
    """Read an (h, w, d) RNSF tensor as a map of unit rows."""
    arr = read_tensor(path, expect_ndim=3)
    h, w, d = arr.shape
    return DenseFeatureMap(arr.reshape(h * w, d), h, w, image_h, image_w)


def _manifest_features(manifest: Manifest, rel: str, image_h: int,
                       image_w: int) -> DenseFeatureMap:
    x = load_feature_map(manifest.resolve(rel), image_h, image_w)
    if x.dim != manifest.feature_dim:
        raise DimensionMismatch(f"{rel}: d={x.dim}, manifest d={manifest.feature_dim}")
    return x


def load_support_image(manifest: Manifest, ref: SupportImageRef):
    mask = read_mask(manifest.resolve(ref.mask_file), manifest.num_classes)
    return _manifest_features(manifest, ref.feature_file, *mask.shape), mask


def load_query_features(manifest: Manifest, ref: QueryImageRef) -> DenseFeatureMap:
    return _manifest_features(manifest, ref.feature_file, ref.image_h, ref.image_w)
