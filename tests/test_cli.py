import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segtta
from segtta.cli import main
from segtta.errors import SegttaError
from segtta.fileio import (
    load_manifest,
    load_store,
    read_mask,
    read_mask_array,
    read_tensor,
    write_mask,
    write_tensor,
)

from corruption import CORRUPTION, STORE_INCONSISTENCIES, break_store, corrupt


@pytest.fixture()
def world_dir(tmp_path):
    root = tmp_path / "world"
    rc = main(["synth", "--out", str(root), "--seed", "3", "--classes", "3",
               "--dim", "8", "--grid", "4", "--queries", "2",
               "--images-per-class", "2"])
    assert rc == 0
    return root


def run_segment(root, store, query, out, extra=()):
    return main(["segment", "--store", str(store), "--manifest",
                 str(root / "manifest.json"), "--query", query,
                 "--out", str(out), "--steps", "40", *extra])


class TestSynth:
    def test_manifest_is_complete(self, world_dir):
        m = load_manifest(world_dir / "manifest.json")
        assert m.num_classes == 3 and m.feature_dim == 8
        assert len(m.support_images) == 6
        assert len(m.query_images) == 2
        assert all(q.mask_file for q in m.query_images)

    def test_rerun_is_identical(self, tmp_path):
        args = ["synth", "--seed", "9", "--classes", "3", "--dim", "8",
                "--grid", "4", "--queries", "1", "--images-per-class", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestBuildSupport:
    def test_store_written(self, world_dir, tmp_path, capsys):
        store_path = tmp_path / "store.rnss"
        rc = main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                   "--out", str(store_path)])
        assert rc == 0
        assert "entries" in capsys.readouterr().out
        store = load_store(store_path)
        assert store.size >= 6
        assert sorted(store.visually_supported()) == [0, 1, 2]

    def test_custom_lambdas(self, world_dir, tmp_path):
        store_path = tmp_path / "store.rnss"
        rc = main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                   "--out", str(store_path), "--lambdas", "0.5,0.0"])
        assert rc == 0
        assert load_store(store_path).lambdas == (0.5, 0.0)


class TestAddSupport:
    def test_incremental_growth(self, world_dir, tmp_path):
        m = load_manifest(world_dir / "manifest.json")
        base = tmp_path / "base.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(base)])
        before = load_store(base)
        ref = m.support_images[0]
        grown = tmp_path / "grown.rnss"
        rc = main(["add-support", "--store", str(base),
                   "--features", str(world_dir / ref.feature_file),
                   "--mask", str(world_dir / ref.mask_file),
                   "--out", str(grown), "--image-id", "dupe"])
        assert rc == 0
        after = load_store(grown)
        assert after.size > before.size
        assert after.next_entry_id > before.next_entry_id


class TestSegmentAndZeroShot:
    def test_segment_writes_mask(self, world_dir, tmp_path):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        out = tmp_path / "pred.rnsm"
        assert run_segment(world_dir, store, "0", out) == 0
        pred = read_mask_array(out)
        gt = read_mask_array(world_dir / "gt" / "q000.rnsm")
        assert pred.shape == gt.shape
        assert pred.max() < 3

    def test_query_lookup_by_name_and_index(self, world_dir, tmp_path):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        a, b = tmp_path / "a.rnsm", tmp_path / "b.rnsm"
        assert run_segment(world_dir, store, "1", a) == 0
        assert run_segment(world_dir, store, "q001.rnsf", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_shot(self, world_dir, tmp_path):
        out = tmp_path / "zs.rnsm"
        rc = main(["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                   "--query", "0", "--out", str(out)])
        assert rc == 0
        assert read_mask_array(out).shape == (16, 16)

    def test_unsupported_flag_changes_nothing_fatal(self, world_dir, tmp_path):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        out = tmp_path / "p.rnsm"
        assert run_segment(world_dir, store, "0", out,
                           extra=["--unsupported", "2"]) == 0

    def test_region_file_flag(self, world_dir, tmp_path):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        regions = tmp_path / "regions.rnsm"
        grid = np.zeros((16, 16), dtype=np.int64)
        grid[8:] = 1
        write_mask(regions, grid)
        out = tmp_path / "p.rnsm"
        assert run_segment(world_dir, store, "0", out,
                           extra=["--regions", str(regions)]) == 0
        pred = read_mask_array(out)
        assert len(np.unique(pred[:8])) == 1 and len(np.unique(pred[8:])) == 1


class TestEval:
    def test_json_report(self, world_dir, tmp_path, capsys):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for i in range(2):
            run_segment(world_dir, store, str(i), pred_dir / f"q{i:03d}.rnsm")
        capsys.readouterr()
        rc = main(["eval", "--pred-dir", str(pred_dir),
                   "--gt-dir", str(world_dir / "gt"), "--classes", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_images"] == 2
        assert 0.0 <= report["mean_iou"] <= 1.0
        assert len(report["per_class_iou"]) == 3

    def test_perfect_self_eval(self, world_dir, capsys):
        rc = main(["eval", "--pred-dir", str(world_dir / "gt"),
                   "--gt-dir", str(world_dir / "gt"), "--classes", "3"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["mean_iou"] == 1.0


class TestExitCodes:
    def test_format_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken")
        out = tmp_path / "o.rnsm"
        rc = main(["zero-shot", "--manifest", str(bad), "--query", "0",
                   "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_validation_error_is_3(self, world_dir, tmp_path, capsys):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        rc = run_segment(world_dir, store, "no_such_query.rnsf",
                         tmp_path / "o.rnsm")
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_numerical_error_is_4(self, world_dir, tmp_path, capsys):
        # a zero feature row cannot be unit-normalized
        manifest = load_manifest(world_dir / "manifest.json")
        ref = manifest.support_images[0]
        feat = np.zeros((4, 4, 8), dtype=np.float32)
        write_tensor(world_dir / ref.feature_file, feat)
        rc = main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                   "--out", str(tmp_path / "s.rnss")])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_store_with_wrong_magic_is_2(self, world_dir, tmp_path, capsys):
        fake = tmp_path / "store.rnss"
        write_tensor(fake, np.zeros(3, np.float32))
        rc = run_segment(world_dir, fake, "0", tmp_path / "o.rnsm")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_tensor_header_is_2(self, world_dir, tmp_path, capsys):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        ref = load_manifest(world_dir / "manifest.json").query_images[0]
        (world_dir / ref.feature_file).write_bytes(
            b"RNSF" + struct.pack("<BBB3Q", 1, 0, 3, 2 ** 24, 2 ** 24, 4) + bytes(16))
        assert run_segment(world_dir, store, "0", tmp_path / "o.rnsm") == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_mask_header_is_2(self, world_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "q000.rnsm").write_bytes(
            b"RNSM" + struct.pack("<BQQ", 1, 2 ** 40, 2 ** 40) + bytes(8))
        rc = main(["eval", "--pred-dir", str(pred), "--gt-dir", str(world_dir / "gt"),
                   "--classes", "3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_store_class_beyond_manifest_is_2(self, world_dir, tmp_path, capsys):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        blob = bytearray(store.read_bytes())
        first_record = 4 + 1 + 12 + 8 * len(load_store(store).lambdas) + 8
        blob[first_record:first_record + 4] = struct.pack("<I", 99)
        store.write_bytes(bytes(blob))
        assert run_segment(world_dir, store, "0", tmp_path / "o.rnsm") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", STORE_INCONSISTENCIES)
    def test_inconsistent_store_is_2(self, world_dir, tmp_path, capsys, case):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        store.write_bytes(break_store(store.read_bytes(), case))
        assert run_segment(world_dir, store, "0", tmp_path / "o.rnsm") == 2
        assert "error:" in capsys.readouterr().err

    def test_segment_lambdas_is_a_usage_error(self, world_dir, tmp_path, capsys):
        # the grid is the store's, fixed by build-support --lambdas
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        with pytest.raises(SystemExit) as exit_info:
            run_segment(world_dir, store, "0", tmp_path / "o.rnsm",
                        extra=["--lambdas", "0.5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --lambdas" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lambdas", ["1.5,0.2", "nan"])
    def test_lambdas_outside_unit_interval_are_3(self, world_dir, tmp_path, capsys,
                                                 lambdas):
        store = tmp_path / "s.rnss"
        rc = main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                   "--out", str(store), "--lambdas", lambdas])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("build-support", "--lambdas", "abc"),
        ("build-support", "--lambdas", ","),
        ("segment", "--unsupported", "a"),
    ])
    def test_malformed_list_flags_are_usage_errors(self, world_dir, tmp_path, capsys,
                                                   command, flag, value):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        capsys.readouterr()
        out = tmp_path / "o"
        argv = {"build-support": ["build-support", "--manifest",
                                  str(world_dir / "manifest.json"), "--out", str(out)],
                "segment": ["segment", "--store", str(store), "--manifest",
                            str(world_dir / "manifest.json"), "--query", "0",
                            "--out", str(out)]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("drop_text", ["0.0", "1.0"])
    @pytest.mark.parametrize("class_id", ["99", "-5"])
    def test_unsupported_id_outside_class_range_is_3(self, tmp_path, capsys,
                                                       drop_text, class_id):
        # with or without text rows in the bank
        root = tmp_path / "world"
        main(["synth", "--out", str(root), "--seed", "3", "--classes", "3",
              "--dim", "8", "--grid", "4", "--queries", "1",
              "--images-per-class", "2", "--drop-text", drop_text])
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(root / "manifest.json"),
              "--out", str(store)])
        capsys.readouterr()
        out = tmp_path / "o.rnsm"
        assert run_segment(root, store, "0", out,
                           extra=[f"--unsupported={class_id}"]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_nonfinite_query_is_2(self, world_dir, tmp_path, capsys):
        ref = load_manifest(world_dir / "manifest.json").query_images[0]
        write_tensor(world_dir / ref.feature_file, np.full((4, 4, 8), np.nan, np.float32))
        rc = main(["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                   "--query", "0", "--out", str(tmp_path / "o.rnsm")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bank_with_other_class_count_is_3(self, world_dir, tmp_path, capsys):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        wider = tmp_path / "wider"
        main(["synth", "--out", str(wider), "--seed", "3", "--classes", "4",
              "--dim", "8", "--grid", "4", "--queries", "1", "--images-per-class", "1"])
        assert run_segment(wider, store, "0", tmp_path / "o.rnsm") == 3
        assert "error:" in capsys.readouterr().err


def test_importing_the_cli_leaves_numpy_unimported():
    # --threads only takes effect if BLAS starts after main() sets the variables
    src = str(Path(segtta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import os, sys\n"
            "import segtta.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported by segtta.cli'\n"
            "rc = segtta.cli.main(['segment', '--store', 'x', '--manifest', 'missing',\n"
            "                      '--query', '0', '--out', 'o', '--threads', '3'])\n"
            "assert rc == 2, rc\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '3'\n"
            "from segtta import segment\n"
            "assert segment is segtta.inference.segment\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    """A tiny on-disk world with a built store and a prediction directory."""
    root = tmp_path_factory.mktemp("fuzz") / "world"
    assert main(["synth", "--out", str(root), "--seed", "5", "--classes", "3",
                 "--dim", "4", "--grid", "2", "--queries", "1",
                 "--images-per-class", "1"]) == 0
    assert main(["build-support", "--manifest", str(root / "manifest.json"),
                 "--out", str(root / "store.rnss")]) == 0
    (root / "pred").mkdir()
    return root


def _fuzz_case(root, suffix):
    """(file to corrupt, its reader, CLI argv that reads it)."""
    manifest = str(root / "manifest.json")
    out = str(root / "out.rnsm")
    if suffix == "rnsf":
        return (root / "query" / "q000.rnsf", read_tensor,
                ["zero-shot", "--manifest", manifest, "--query", "0", "--out", out])
    if suffix == "rnsm":
        return (root / "pred" / "q000.rnsm", lambda p: read_mask(p, 3),
                ["eval", "--pred-dir", str(root / "pred"), "--gt-dir", str(root / "gt"),
                 "--classes", "3"])
    return (root / "store.rnss", load_store,
            ["segment", "--store", str(root / "store.rnss"), "--manifest", manifest,
             "--query", "0", "--out", out, "--steps", "2"])


@given(suffix=st.sampled_from(["rnsf", "rnsm", "rnss"]), op=CORRUPTION)
@settings(max_examples=150, deadline=None)
def test_corrupt_files_give_exit_codes_not_tracebacks(fuzz_world, suffix, op):
    path, reader, argv = _fuzz_case(fuzz_world, suffix)
    original = (fuzz_world / "gt" / "q000.rnsm") if suffix == "rnsm" else path
    blob = original.read_bytes()
    path.write_bytes(corrupt(blob, op))
    try:
        try:
            reader(path)
            readable = True
        except SegttaError:
            readable = False
        rc = main(argv)
    finally:
        if suffix == "rnsm":
            path.unlink()
        else:
            path.write_bytes(blob)
    # a corruption the reader accepts may still segment fine (rc 0)
    assert rc in ((0, 2, 3, 4) if readable else (2, 3, 4))
