import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.errors import (
    DimensionMismatch,
    FormatError,
    MissingFile,
    ParseError,
    SegttaError,
    ShapeMismatch,
    TruncatedFile,
)
from segtta.fileio import (
    load_feature_map,
    load_manifest,
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
from segtta.support import SupportStore, add_support_image, image_id_hash

from conftest import feature_map, make_bank, random_store, stores_equal, unit_rows
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
        with pytest.raises(ShapeMismatch):
            write_mask(tmp_path / "m", np.array([[-1, 0]]))
        with pytest.raises(ShapeMismatch):
            write_mask(tmp_path / "m", np.array([[70000, 0]]))

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

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{nope")
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

    def test_missing_file(self, tmp_path):
        payload = make_dataset(tmp_path)
        payload["support_images"][0]["feature_file"] = "gone.rnsf"
        with pytest.raises(MissingFile):
            load_manifest(write_manifest(tmp_path, payload))

    def test_dim_mismatch(self, tmp_path):
        payload = make_dataset(tmp_path)
        payload["feature_dim"] = 9
        with pytest.raises(DimensionMismatch):
            load_manifest(write_manifest(tmp_path, payload))
