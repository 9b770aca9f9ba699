import json
import os
import struct
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta import fileio
from segtta.errors import (
    DimensionMismatch,
    FormatError,
    MissingFile,
    ParseError,
    SegttaError,
    ShapeMismatch,
    TruncatedFile,
    ValidationError,
)
from segtta.fileio import (
    load_feature_map,
    load_manifest,
    load_query_features,
    load_store,
    load_support_image,
    load_text_bank,
    read_mask,
    read_mask_array,
    read_regions,
    read_tensor,
    save_store,
    write_mask,
    write_tensor,
)
from segtta.numerics import IGNORE_INDEX, LabelMask
from segtta.support import (MAX_DIM, SupportStore, add_support_image, image_id_hash,
                            row_dtype)

from conftest import (append_records, feature_map, make_bank, random_store, stores_equal,
                      unit_rows)
from corruption import CORRUPTION, STORE_INCONSISTENCIES, break_store, corrupt


class TestTensorFormat:
    def test_round_trip_shapes(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(3,), (4, 5), (2, 3, 4), ()]:
            arr = rng.standard_normal(shape).astype(np.float32)
            p = tmp_path / "t.rnsf"
            write_tensor(p, arr)
            back = read_tensor(p)
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_write_read_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((6, 7)).astype(np.float32)
        a, b = tmp_path / "a", tmp_path / "b"
        write_tensor(a, arr)
        write_tensor(b, read_tensor(a))
        assert a.read_bytes() == b.read_bytes()

    def test_expect_ndim(self, tmp_path):
        p = tmp_path / "t"
        write_tensor(p, np.zeros((2, 2), np.float32))
        with pytest.raises(ShapeMismatch):
            read_tensor(p, expect_ndim=3)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t"
        p.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(FormatError):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "t"
        p.write_bytes(b"RNSF" + bytes([9]) + bytes(20))
        with pytest.raises(FormatError):
            read_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t"
        write_tensor(p, np.zeros((4, 4), np.float32))
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(TruncatedFile):
            read_tensor(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t"
        write_tensor(p, np.zeros(3, np.float32))
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_tensor(p)


class TestMaskFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 7, size=(5, 9)).astype(np.int64)
        data[0, 0] = IGNORE_INDEX
        p = tmp_path / "m.rnsm"
        write_mask(p, data)
        back = read_mask_array(p)
        assert back.dtype == np.uint16
        assert np.array_equal(back.astype(np.int64), data)

    def test_read_mask_validates_labels(self, tmp_path):
        p = tmp_path / "m"
        write_mask(p, np.full((2, 2), 4, dtype=np.int64))
        mask = read_mask(p, num_classes=5)
        assert isinstance(mask, LabelMask) and mask.num_classes == 5
        with pytest.raises(FormatError):
            read_mask(p, num_classes=4)

    def test_read_mask_custom_ignore(self, tmp_path):
        p = tmp_path / "m"
        data = np.array([[0, 255], [1, 255]], dtype=np.int64)
        write_mask(p, data)
        mask = read_mask(p, num_classes=2, ignore_index=255)
        assert mask.ignore_index == 255
        with pytest.raises(FormatError):
            read_mask(p, num_classes=2)  # 255 is a label under the default

    def test_write_rejects_out_of_range(self, tmp_path):
        # a value error, not a shape error
        for values in ([[-1, 0]], [[70000, 0]]):
            with pytest.raises(ValidationError) as excinfo:
                write_mask(tmp_path / "m", np.array(values))
            assert excinfo.type is ValidationError

    def test_regions_from_mask_file(self, tmp_path):
        p = tmp_path / "r"
        grid = np.array([[0, 1], [IGNORE_INDEX, 1]], dtype=np.int64)
        write_mask(p, grid)
        rs = read_regions(p)
        assert rs.region_count == 3
        assert rs.assignments[1, 0] == 2

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m"
        p.write_bytes(b"RNSM" + bytes([1]) + bytes(4))
        with pytest.raises(TruncatedFile):
            read_mask_array(p)


class TestStoreFormat:
    def test_file_from_an_earlier_version_loads_and_saves_unchanged(self, tmp_path):
        # written by the columnar store (separate vector and id buffers), so
        # this pins the RNSS v1 bytes across versions, not just within one;
        # class 2 has no entries, the grid is custom, image ids are strings
        path = Path(__file__).parent / "data" / "store_v1.rnss"
        store = load_store(path)
        assert (store.num_classes, store.dim, store.lambdas) == (3, 4, (0.75, 0.25, 0.0))
        street1, street2 = 3160611447739657505, 12348425096544977243
        assert image_id_hash("street/0001.png") == street1
        assert image_id_hash("street/0002.png") == street2
        assert [(e.class_id, e.entry_id, e.image_id) for e in store.entries] == [
            (0, 0, street1), (1, 1, street1), (1, 2, street2)]
        assert store.class_counts.tolist() == [1, 2, 0]
        assert store.next_entry_id == 3
        save_store(store, tmp_path / "again.rnss")
        assert (tmp_path / "again.rnss").read_bytes() == path.read_bytes()

    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        bank = make_bank(rng, 4, 6)
        store = random_store(rng, 4, 6, images=7, grid=2, bank=bank)
        p = tmp_path / "s.rnss"
        save_store(store, p)
        back = load_store(p, text=bank)
        assert stores_equal(store, back, exact=True)
        assert back.next_entry_id == store.next_entry_id

    def test_write_read_write_byte_stable(self, tmp_path):
        rng = np.random.default_rng(4)
        store = random_store(rng, 3, 5, images=5, grid=2)
        a, b = tmp_path / "a", tmp_path / "b"
        save_store(store, a)
        save_store(load_store(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_without_text_has_no_fused(self, tmp_path):
        rng = np.random.default_rng(5)
        store = random_store(rng, 3, 5, images=3, grid=2)
        p = tmp_path / "s"
        save_store(store, p)
        back = load_store(p)
        assert back.text is None and back.fused == {}
        assert back.size == store.size

    def test_empty_store_round_trip(self, tmp_path):
        from segtta.support import SupportStore, add_support_image
        store = SupportStore.empty(3, 4)
        p = tmp_path / "s"
        save_store(store, p)
        back = load_store(p)
        assert back.size == 0 and back.next_entry_id == 0
        assert back.class_counts.tolist() == [0, 0, 0]

    def test_adds_after_load_match_adds_in_memory(self, tmp_path):
        rng = np.random.default_rng(7)
        C, d = 3, 5
        built = random_store(rng, C, d, images=4, grid=2)
        save_store(built, tmp_path / "base")
        loaded = load_store(tmp_path / "base")
        images = [(feature_map(unit_rows(rng, 4, d), 2, 2),
                   LabelMask(np.full((8, 8), i % C, dtype=np.int64), C), f"add{i}")
                  for i in range(40)]
        grew = False
        for image in images:
            rows_before = loaded.size
            earlier = loaded.entries.copy()
            buffer_before = loaded._rows
            add_support_image(loaded, *image)
            add_support_image(built, *image)
            grew |= loaded._rows is not buffer_before
            assert loaded.entries[:rows_before].tobytes() == earlier.tobytes()
        assert grew and len(loaded._rows) > loaded.size  # grown, with spare rows
        save_store(loaded, tmp_path / "a")
        save_store(built, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        header = 4 + 1 + 12 + 8 * len(loaded.lambdas) + 8
        assert (tmp_path / "a").stat().st_size == (
            header + loaded.size * (20 + 4 * d) + 4 * C * d + 8 * C)

    def test_large_store_round_trips_byte_for_byte(self, tmp_path):
        store = big_store(np.random.default_rng(13), 5000)
        assert store.size * (20 + 4 * store.dim) > 2 ** 20
        a, b = tmp_path / "a", tmp_path / "b"
        save_store(store, a)
        back = load_store(a)
        assert back.entries.tobytes() == store.entries.tobytes()
        assert back.class_accumulators.tobytes() == store.class_accumulators.tobytes()
        assert back.class_counts.tolist() == store.class_counts.tolist()
        assert back.next_entry_id == store.next_entry_id
        save_store(back, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_holds_the_records_once(self, tmp_path):
        # the records are read into the store's own row buffer: the buffer
        # (1.5x the records, see below) plus the checks' temporaries, not a
        # second array of records on top of it
        store = big_store(np.random.default_rng(14), 20_000)
        records = store.size * (20 + 4 * store.dim)
        assert records > 5 * 2 ** 20
        p = tmp_path / "s"
        save_store(store, p)
        tracemalloc.start()
        try:
            loaded = load_store(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.entries.tobytes() == store.entries.tobytes()
        assert peak <= 2 * records

    def test_first_add_after_a_load_keeps_the_row_buffer(self, tmp_path):
        # a loaded store keeps spare rows, so a checkpointed store that grows
        # again does not move its records at once (a second copy of them)
        rng = np.random.default_rng(15)
        store = big_store(rng, 3000, C=3, d=5)
        save_store(store, tmp_path / "s")
        loaded = load_store(tmp_path / "s")
        assert len(loaded._rows) >= loaded.size + loaded.size // 2
        buffer = loaded._rows
        add_support_image(loaded, feature_map(unit_rows(rng, 4, 5), 2, 2),
                          LabelMask(np.zeros((8, 8), dtype=np.int64), 3), "next")
        assert loaded.size == store.size + 1 and loaded._rows is buffer

    @pytest.mark.parametrize("records_kept", [2, 2.5])
    def test_file_cut_inside_the_records(self, tmp_path, records_kept):
        store = random_store(np.random.default_rng(16), 3, 4, images=5, grid=2)
        p = tmp_path / "s"
        save_store(store, p)
        first_record = 4 + 1 + 12 + 8 * len(store.lambdas) + 8
        p.write_bytes(p.read_bytes()[:first_record + int(records_kept * (20 + 4 * 4))])
        with pytest.raises(TruncatedFile):
            load_store(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "s"
        p.write_bytes(b"RNSX" + bytes(30))
        with pytest.raises(FormatError):
            load_store(p)

    def test_trailing_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        store = random_store(rng, 2, 3, images=2, grid=2)
        p = tmp_path / "s"
        save_store(store, p)
        p.write_bytes(p.read_bytes() + b"!")
        with pytest.raises(FormatError):
            load_store(p)


def big_store(rng, n, C=8, d=64):
    """A store of n random records (class i % C), built without pooling."""
    records = np.zeros(n, row_dtype(d))
    records["class_id"] = np.arange(n) % C
    records["entry_id"] = np.arange(n)
    records["image_id"] = rng.integers(0, 2 ** 63, n)
    records["vector"] = unit_rows(rng, n, d)
    store = SupportStore.empty(C, d)
    append_records(store, records)
    store.class_counts[:] = np.bincount(records["class_id"], minlength=C)
    np.add.at(store.class_accumulators, records["class_id"], records["vector"])
    return store


# per container: its writer, its reader and a value of n records (or
# values, or mask rows) whose file length depends on n alone
CONTAINERS = {
    "rnsf": (write_tensor, read_tensor,
             lambda rng, n: rng.standard_normal(n).astype(np.float32)),
    "rnsm": (write_mask, lambda p: read_mask(p, 4),
             lambda rng, n: rng.integers(0, 4, (n, 8))),
    "rnss": (lambda p, store: save_store(store, p), load_store,
             lambda rng, n: big_store(rng, n, C=3, d=8)),
}


class _Interrupted(Exception):
    """Whatever stops a save partway: a signal, a crash, a full disk."""


class _CutShort:
    """A writable file whose first write of an array puts half of the
    array's bytes on disk and then raises _Interrupted."""

    def __init__(self, f):
        self._f = f

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        if isinstance(data, np.ndarray):
            self._f.write(data.tobytes()[:data.nbytes // 2])
            raise _Interrupted
        return self._f.write(data)


class TestInPlaceWrites:
    """Writers overwrite a file in place and write its magic last."""

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    @pytest.mark.parametrize("old_n", [400, 200, 50])  # longer, equal, shorter
    def test_an_interrupted_write_reads_as_a_bad_magic(self, tmp_path, monkeypatch,
                                                       kind, old_n):
        write, read, make = CONTAINERS[kind]
        rng = np.random.default_rng(old_n)
        p = tmp_path / f"f.{kind}"
        write(p, make(rng, old_n))
        new = make(rng, 200)
        opened = fileio._open
        monkeypatch.setattr(fileio, "_open", lambda *a, **kw: _CutShort(opened(*a, **kw)))
        with pytest.raises(_Interrupted):
            write(p, new)
        monkeypatch.undo()
        assert p.read_bytes()[:4] == bytes(4)
        with pytest.raises(FormatError, match="bad magic"):
            read(p)

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_a_smaller_file_over_a_larger_one_equals_a_fresh_save(self, tmp_path, kind):
        write, read, make = CONTAINERS[kind]
        rng = np.random.default_rng(17)
        small = make(rng, 50)
        over, fresh = tmp_path / f"over.{kind}", tmp_path / f"fresh.{kind}"
        write(over, make(rng, 400))
        write(over, small)
        write(fresh, small)
        assert over.read_bytes() == fresh.read_bytes()
        read(over)  # no trailing bytes

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_overwriting_keeps_the_inode_the_mode_and_hard_links(self, tmp_path, kind):
        write, read, make = CONTAINERS[kind]
        rng = np.random.default_rng(18)
        p, link, alias = tmp_path / f"f.{kind}", tmp_path / "link", tmp_path / "alias"
        write(p, make(rng, 400))
        p.chmod(0o640)
        os.link(p, link)
        alias.symlink_to(p.name)
        before = p.stat()
        new, fresh = make(rng, 100), tmp_path / f"fresh.{kind}"
        write(alias, new)
        write(fresh, new)
        after = p.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert alias.is_symlink()
        assert link.read_bytes() == p.read_bytes() == fresh.read_bytes()

    def test_a_pipe_gets_the_bytes_of_a_file(self, tmp_path):
        # a pipe cannot seek back to the magic, so it gets the magic first
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        fifo, plain = tmp_path / "pipe", tmp_path / "plain"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_tensor(fifo, arr)
        reader.join(timeout=30)
        assert not reader.is_alive()
        write_tensor(plain, arr)
        assert got == [plain.read_bytes()]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_a_full_device_raises_missing_file_naming_it(self, kind):
        write, _, make = CONTAINERS[kind]
        with pytest.raises(MissingFile, match="/dev/full"):
            write("/dev/full", make(np.random.default_rng(19), 400))


class TestHostileHeaders:
    def test_tensor_dims_beyond_file(self, tmp_path):
        p = tmp_path / "t"
        p.write_bytes(b"RNSF" + struct.pack("<BBB3Q", 1, 0, 3, 2 ** 24, 2 ** 24, 4)
                      + bytes(16))
        with pytest.raises(TruncatedFile):
            read_tensor(p)

    def test_tensor_dims_overflowing_int64(self, tmp_path):
        p = tmp_path / "t"
        p.write_bytes(b"RNSF" + struct.pack("<BBB2Q", 1, 0, 2, 2 ** 63, 4) + bytes(16))
        with pytest.raises(TruncatedFile):
            read_tensor(p)

    def test_mask_dims_beyond_file(self, tmp_path):
        p = tmp_path / "m"
        p.write_bytes(b"RNSM" + struct.pack("<BQQ", 1, 2 ** 40, 2 ** 40) + bytes(8))
        with pytest.raises(TruncatedFile):
            read_mask_array(p)

    def test_nonfinite_tensor_rejected(self, tmp_path):
        p = tmp_path / "t"
        for bad in (np.nan, np.inf):
            write_tensor(p, np.array([[0.5, bad], [0.0, 1.0]], np.float32))
            with pytest.raises(FormatError):
                read_tensor(p)

    def test_store_class_beyond_class_count(self, tmp_path):
        rng = np.random.default_rng(8)
        store = random_store(rng, 3, 4, images=3, grid=2)
        p = tmp_path / "s"
        save_store(store, p)
        blob = bytearray(p.read_bytes())
        first_record = 4 + 1 + 12 + 8 * len(store.lambdas) + 8
        blob[first_record:first_record + 4] = struct.pack("<I", 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_store(p)

    def test_store_without_a_next_entry_id(self, tmp_path):
        rng = np.random.default_rng(10)
        store = random_store(rng, 3, 4, images=3, grid=2)
        p = tmp_path / "s"
        save_store(store, p)
        blob = bytearray(p.read_bytes())
        first_record = 4 + 1 + 12 + 8 * len(store.lambdas) + 8
        blob[first_record + 4:first_record + 12] = struct.pack("<Q", 2 ** 64 - 1)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_store(p)

    @pytest.mark.parametrize("d", [0, 2 ** 31])
    def test_store_dimension_no_entry_record_can_hold(self, tmp_path, d):
        # no classes and no entries, so no payload bounds d; a record of
        # 2^31 floats is larger than numpy can describe
        p = tmp_path / "s"
        p.write_bytes(b"RNSS" + struct.pack("<BIIId", 1, 0, d, 1, 0.0)
                      + struct.pack("<Q", 0))
        with pytest.raises(FormatError):
            load_store(p)

    def test_store_lambda_count_beyond_file(self, tmp_path):
        p = tmp_path / "s"
        p.write_bytes(b"RNSS" + struct.pack("<BIII", 1, 3, 4, 2 ** 32 - 1) + bytes(64))
        with pytest.raises(TruncatedFile):
            load_store(p)

    @pytest.mark.parametrize("case", STORE_INCONSISTENCIES)
    def test_store_inconsistent_contents_rejected(self, tmp_path, case):
        rng = np.random.default_rng(9)
        p = tmp_path / "s"
        save_store(random_store(rng, 3, 4, images=3, grid=2), p)
        load_store(p)
        p.write_bytes(break_store(p.read_bytes(), case))
        with pytest.raises(FormatError):
            load_store(p)

    @pytest.mark.parametrize("lambdas", [(), (1.5,), (np.nan, 0.0)])
    def test_store_bad_lambdas_rejected(self, tmp_path, lambdas):
        # no store holds such a grid, so splice it into a valid file's header
        p = tmp_path / "s"
        save_store(SupportStore.empty(2, 3, lambdas=(0.0,)), p)
        blob = p.read_bytes()
        head = 4 + 1 + 4 + 4  # magic, version, C, d
        p.write_bytes(blob[:head] + struct.pack(f"<I{len(lambdas)}d", len(lambdas),
                                                *lambdas) + blob[head + 4 + 8:])
        with pytest.raises(FormatError):
            load_store(p)


def _valid_files(root):
    rng = np.random.default_rng(12)
    write_tensor(root / "f.rnsf", unit_rows(rng, 4, 3).reshape(2, 2, 3)
                 .astype(np.float32))
    grid = rng.integers(0, 3, size=(8, 8))
    grid[0, :3] = IGNORE_INDEX
    write_mask(root / "m.rnsm", grid)
    save_store(random_store(rng, 3, 3, images=3, grid=2), root / "s.rnss")
    return {suffix: (root / f"{name}.{suffix}").read_bytes()
            for name, suffix in (("f", "rnsf"), ("m", "rnsm"), ("s", "rnss"))}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("valid"))


READERS = {
    "rnsf": lambda p: (read_tensor(p), load_feature_map(p, 8, 8)),
    "rnsm": lambda p: (read_mask_array(p), read_mask(p, 3), read_regions(p)),
    "rnss": lambda p: load_store(p, text=make_bank(np.random.default_rng(0), 3, 3)),
}


@given(suffix=st.sampled_from(sorted(READERS)), op=CORRUPTION)
@settings(max_examples=300, deadline=None)
def test_corrupt_files_raise_only_segtta_errors(valid_files, tmp_path_factory,
                                                suffix, op):
    p = tmp_path_factory.getbasetemp() / f"fuzz.{suffix}"
    p.write_bytes(corrupt(valid_files[suffix], op))
    try:
        READERS[suffix](p)
    except SegttaError:
        pass


def write_manifest(root, payload):
    path = root / "manifest.json"
    path.write_text(json.dumps(payload))
    return path


def make_dataset(root, C=3, d=4, n_support=2, n_query=1, grid=2, cell=4):
    rng = np.random.default_rng(11)
    classes = []
    for c in range(C):
        ref = f"text_{c}.rnsf"
        write_tensor(root / ref, unit_rows(rng, 1, d)[0].astype(np.float32))
        classes.append({"id": c, "name": f"class_{c}", "text_feature_ref": ref})
    support = []
    for i in range(n_support):
        feat = unit_rows(rng, grid * grid, d).reshape(grid, grid, d)
        write_tensor(root / f"sup_{i}.rnsf", feat.astype(np.float32))
        write_mask(root / f"sup_{i}.rnsm",
                   np.full((grid * cell, grid * cell), i % C, dtype=np.int64))
        support.append({"feature_file": f"sup_{i}.rnsf",
                        "mask_file": f"sup_{i}.rnsm", "image_id": f"s{i}"})
    queries = []
    for i in range(n_query):
        feat = unit_rows(rng, grid * grid, d).reshape(grid, grid, d)
        write_tensor(root / f"q_{i}.rnsf", feat.astype(np.float32))
        queries.append({"feature_file": f"q_{i}.rnsf",
                        "image_h": grid * cell, "image_w": grid * cell})
    return {"feature_dim": d, "classes": classes,
            "support_images": support, "query_images": queries}


class TestManifest:
    def test_load_and_materialize(self, tmp_path):
        payload = make_dataset(tmp_path)
        m = load_manifest(write_manifest(tmp_path, payload))
        assert m.num_classes == 3 and m.feature_dim == 4
        bank = load_text_bank(m)
        assert bank.present.all()
        x, mask = load_support_image(m, m.support_images[0])
        assert x.dim == 4 and mask.num_classes == 3
        assert x.image_h == mask.shape[0]

    def test_missing_text_ref_allowed(self, tmp_path):
        payload = make_dataset(tmp_path)
        payload["classes"][1].pop("text_feature_ref")
        m = load_manifest(write_manifest(tmp_path, payload))
        bank = load_text_bank(m)
        assert not bank.present[1] and bank.present[[0, 2]].all()

    @pytest.mark.parametrize("group, key", [
        ("classes", "text_feature_ref"), ("support_images", "feature_file"),
        ("support_images", "mask_file"), ("query_images", "feature_file"),
        ("query_images", "mask_file"), ("query_images", "regions_file")])
    @pytest.mark.parametrize("value", [5, 1.5, True, ["q_0.rnsf"], {"path": "x"}])
    def test_file_refs_must_be_strings(self, tmp_path, group, key, value):
        payload = make_dataset(tmp_path)
        payload[group][0][key] = value
        with pytest.raises(ParseError, match=key):
            load_manifest(write_manifest(tmp_path, payload))

    @pytest.mark.parametrize("group, key", [("classes", "text_feature_ref"),
                                            ("query_images", "mask_file"),
                                            ("query_images", "regions_file")])
    def test_optional_refs_may_be_null(self, tmp_path, group, key):
        payload = make_dataset(tmp_path)
        payload[group][0][key] = None
        m = load_manifest(write_manifest(tmp_path, payload))
        entry = (m.classes if group == "classes" else m.query_images)[0]
        assert getattr(entry, key) is None

    @pytest.mark.parametrize("group, key", [("support_images", "feature_file"),
                                            ("support_images", "mask_file"),
                                            ("query_images", "feature_file")])
    def test_required_refs_may_not_be_null(self, tmp_path, group, key):
        payload = make_dataset(tmp_path)
        payload[group][0][key] = None
        with pytest.raises(ParseError, match=key):
            load_manifest(write_manifest(tmp_path, payload))

    @pytest.mark.parametrize("group, key", [(None, "feature_dim"), ("classes", "id"),
                                            ("query_images", "image_h"),
                                            ("query_images", "image_w")])
    @pytest.mark.parametrize("kind", [bool, float, lambda v: v + 0.9, str],
                             ids=["bool", "float", "fraction", "string"])
    def test_integer_fields_must_be_json_integers(self, tmp_path, group, key, kind):
        # each value here would load as an integer through int()
        payload = make_dataset(tmp_path)
        entry = payload if group is None else payload[group][0]
        entry[key] = kind(entry[key])
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            load_manifest(write_manifest(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        for blob in (b"{nope", b"\xff\xfe{"):   # not JSON; not UTF-8
            p.write_bytes(blob)
            with pytest.raises(ParseError):
                load_manifest(p)

    def test_missing_field(self, tmp_path):
        payload = make_dataset(tmp_path)
        del payload["feature_dim"]
        with pytest.raises(ParseError):
            load_manifest(write_manifest(tmp_path, payload))

    def test_non_dense_class_ids(self, tmp_path):
        payload = make_dataset(tmp_path)
        payload["classes"][2]["id"] = 7
        with pytest.raises(ParseError):
            load_manifest(write_manifest(tmp_path, payload))

    @pytest.mark.parametrize("dim", [0, -1, MAX_DIM + 1])
    def test_feature_dim_outside_range(self, tmp_path, dim):
        payload = make_dataset(tmp_path)
        payload["feature_dim"] = dim
        with pytest.raises(ParseError):
            load_manifest(write_manifest(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        # the manifest names files; the reader that opens one reports it gone
        payload = make_dataset(tmp_path)
        payload["support_images"][0]["feature_file"] = "gone.rnsf"
        payload["support_images"][1]["mask_file"] = "gone.rnsm"
        payload["classes"][0]["text_feature_ref"] = "gone\x00.rnsf"   # no valid path
        m = load_manifest(write_manifest(tmp_path, payload))
        for ref in m.support_images:
            with pytest.raises(MissingFile, match="gone"):
                load_support_image(m, ref)
        with pytest.raises(MissingFile, match="gone"):
            load_text_bank(m)

    def test_dim_mismatch(self, tmp_path):
        payload = make_dataset(tmp_path)
        payload["feature_dim"] = 9
        m = load_manifest(write_manifest(tmp_path, payload))
        with pytest.raises(DimensionMismatch):
            load_text_bank(m)
        with pytest.raises(DimensionMismatch):
            load_support_image(m, m.support_images[0])
        with pytest.raises(DimensionMismatch):
            load_query_features(m, m.query_images[0])

    def test_query_reader_checks_feature_dim(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path, make_dataset(tmp_path)))
        assert load_query_features(m, m.query_images[0]).dim == 4
        with pytest.raises(DimensionMismatch, match="q_0.rnsf: d=4, manifest d=5"):
            load_query_features(replace(m, feature_dim=5), m.query_images[0])
