import json
import os
import resource
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segtta
from segtta.adapter import TrainConfig
from segtta.cli import THREAD_VARS, main
from segtta.errors import SegttaError
from segtta.fileio import (
    load_manifest,
    load_store,
    read_mask,
    read_mask_array,
    read_tensor,
    save_store,
    write_mask,
    write_tensor,
)
from segtta.harness import SynthConfig
from segtta.support import MAX_DIM, SupportStore

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


def run_in_2gb(*argv):
    """`python -m segtta.cli *argv` in a child process limited to a 2 GB
    address space, so an allocation the command should not make fails
    instead of taking the machine's memory."""
    src = str(Path(segtta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    limit = 2 << 30
    return subprocess.run(
        [sys.executable, "-m", "segtta.cli", *argv], env=env, capture_output=True,
        text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


class _Captured(SegttaError):
    """Raised by a stand-in for the library call a command makes; cli.main
    maps no exit code to it, so it reaches the test."""


def captured_call(monkeypatch, module, name, argv) -> tuple:
    """The positional arguments with which `main(argv)` calls module.name."""
    calls = []

    def stand_in(*args, **kwargs):
        calls.append(args)
        raise _Captured
    monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(_Captured):
        main(argv)
    return calls[0]


# a flag of segment or synth, its value and the config fields it sets; each
# value differs from the field's default
TRAIN_FLAGS = {"--k": (5, ("k",)), "--steps": (3, ("steps",)),
               "--lr": (0.05, ("learning_rate",)), "--tau": (0.07, ("tau",)),
               "--beta-f": (1.25, ("beta_f",)), "--beta-p": (0.3, ("beta_p",))}
SYNTH_FLAGS = {"--seed": (7, ("seed",)), "--classes": (5, ("num_classes",)),
               "--dim": (12, ("dim",)), "--images-per-class": (2, ("images_per_class",)),
               "--grid": (6, ("grid_h", "grid_w")), "--noise": (0.2, ("feature_noise",)),
               "--separation": (0.5, ("cluster_separation",)),
               "--misalignment": (0.4, ("text_misalignment",)),
               "--queries": (3, ("query_images",)),
               "--drop-visual": (0.25, ("fraction_without_visual",)),
               "--drop-text": (0.5, ("fraction_without_text",))}


class TestFlagsNameTheirFields:
    """A flag that sets a TrainConfig or SynthConfig field reaches that field
    and no other; a flag left out keeps the library's default."""

    @pytest.fixture()
    def segment_argv(self, world_dir, tmp_path):
        store = tmp_path / "s.rnss"
        assert main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                     "--out", str(store)]) == 0
        return ["segment", "--store", str(store), "--manifest",
                str(world_dir / "manifest.json"), "--query", "0",
                "--out", str(tmp_path / "o.rnsm")]

    @pytest.mark.parametrize("table, cls, left_to_the_library", [
        (TRAIN_FLAGS, TrainConfig, {"lambdas"}), (SYNTH_FLAGS, SynthConfig, {"cell_pixels"})],
        ids=["segment", "synth"])
    def test_every_field_has_a_flag(self, table, cls, left_to_the_library):
        # lambdas are the store's (build-support --lambdas); cell_pixels is
        # a plumbing knob of the library alone
        named = {name for _, names in table.values() for name in names}
        assert named == {f.name for f in fields(cls)} - left_to_the_library

    @pytest.mark.parametrize("flag", sorted(TRAIN_FLAGS))
    def test_segment_flag_sets_its_field(self, monkeypatch, segment_argv, flag):
        value, names = TRAIN_FLAGS[flag]
        args = captured_call(monkeypatch, segtta.inference, "segment",
                             [*segment_argv, flag, str(value)])
        assert args[5] == replace(TrainConfig(), **dict.fromkeys(names, value))

    def test_segment_without_flags_fits_with_the_default_config(self, monkeypatch,
                                                                 segment_argv):
        args = captured_call(monkeypatch, segtta.inference, "segment", segment_argv)
        assert args[5] == TrainConfig()

    @pytest.mark.parametrize("flags, tau", [((), TrainConfig.tau), (("--tau", "0.07"), 0.07)],
                             ids=["default", "given"])
    def test_zero_shot_tau(self, monkeypatch, world_dir, tmp_path, flags, tau):
        args = captured_call(monkeypatch, segtta.inference, "zero_shot_segment",
                             ["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                              "--query", "0", "--out", str(tmp_path / "o.rnsm"), *flags])
        assert args[2] == tau

    @pytest.mark.parametrize("flag", sorted(SYNTH_FLAGS))
    def test_synth_flag_sets_its_field(self, monkeypatch, tmp_path, flag):
        value, names = SYNTH_FLAGS[flag]
        (cfg,) = captured_call(monkeypatch, segtta.harness, "generate_world",
                               ["synth", "--out", str(tmp_path / "w"), flag, str(value)])
        assert cfg == replace(SynthConfig(), **dict.fromkeys(names, value))

    def test_synth_without_flags_builds_the_default_world(self, monkeypatch, tmp_path):
        (cfg,) = captured_call(monkeypatch, segtta.harness, "generate_world",
                               ["synth", "--out", str(tmp_path / "w")])
        assert cfg == SynthConfig()


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

    def test_huge_declared_dim_is_checked_before_the_store_is_sized(
            self, world_dir, tmp_path, capsys):
        # a (3, MAX_DIM) f32 store would take ~6 GB; the d=8 support file
        # must fail first
        manifest = world_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["feature_dim"] = MAX_DIM
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "store.rnss"
        rc = main(["build-support", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert "manifest d=" in capsys.readouterr().err
        assert not out.exists()


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

    def test_an_empty_image_id_is_a_usage_error(self, world_dir, tmp_path, capsys):
        base = tmp_path / "base.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(base)])
        ref = load_manifest(world_dir / "manifest.json").support_images[0]
        grown = tmp_path / "grown.rnss"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["add-support", "--store", str(base),
                  "--features", str(world_dir / ref.feature_file),
                  "--mask", str(world_dir / ref.mask_file),
                  "--out", str(grown), "--image-id", ""])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --image-id" in err and "Traceback" not in err
        assert not grown.exists()


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

    def test_zero_shot_equals_empty_store_segment_with_manifest_regions(
            self, world_dir, tmp_path):
        # both commands read the query's regions_file from the manifest, and
        # segment with no support falls back to zero-shot bit for bit
        grid = np.repeat(np.repeat(np.arange(9).reshape(3, 3), 6, 0), 6, 1)[1:17, 1:17]
        write_mask(world_dir / "query" / "q000_regions.rnsm", grid)
        manifest_path = world_dir / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["query_images"][0]["regions_file"] = "query/q000_regions.rnsm"
        manifest_path.write_text(json.dumps(raw))
        store = tmp_path / "empty.rnss"
        save_store(SupportStore.empty(3, 8), store)
        seg, zs = tmp_path / "seg.rnsm", tmp_path / "zs.rnsm"
        assert run_segment(world_dir, store, "0", seg) == 0
        assert main(["zero-shot", "--manifest", str(manifest_path),
                     "--query", "0", "--out", str(zs)]) == 0
        assert zs.read_bytes() == seg.read_bytes()
        pred = read_mask_array(zs)
        for r in np.unique(grid):
            assert len(np.unique(pred[grid == r])) == 1


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

    def test_no_evaluated_class_gives_null_mean(self, tmp_path, capsys):
        # every pixel is ignore: no class has a union, so there is no mean
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            write_mask(tmp_path / sub / "a.rnsm", np.full((4, 4), 65535))
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt"), "--classes", "3"])
        assert rc == 0

        def not_json(name):
            raise ValueError(f"{name} is not JSON")
        report = json.loads(capsys.readouterr().out, parse_constant=not_json)
        assert report["mean_iou"] is None
        assert report["per_class_iou"] == [None, None, None]

    def test_many_classes_in_bounded_memory(self, world_dir):
        # a (C, C) int64 confusion matrix would take 36.5 GiB at C = 70000
        gt = str(world_dir / "gt")
        proc = run_in_2gb("eval", "--pred-dir", gt, "--gt-dir", gt, "--classes", "70000")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["mean_iou"] == 1.0 and len(report["per_class_iou"]) == 70000

    def test_ignore_names_the_ignore_label(self, tmp_path, capsys):
        # the ground truth's label-2 pixels are predicted as 1: wrong unless 2 is ignored
        for sub, labels in (("pred", [[0, 1], [1, 1]]), ("gt", [[0, 1], [2, 2]])):
            (tmp_path / sub).mkdir()
            write_mask(tmp_path / sub / "a.rnsm", np.array(labels))
        argv = ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
                "--classes", "3"]
        ious = []
        for extra in ((), ("--ignore", "2")):
            assert main([*argv, *extra]) == 0
            ious.append(json.loads(capsys.readouterr().out)["per_class_iou"])
        assert ious == [[1.0, round(1 / 3, 6), 0.0], [1.0, 1.0, None]]

    @pytest.mark.parametrize("classes", ["0", "-1"])
    def test_classes_below_one_are_usage_errors(self, world_dir, capsys, classes):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--pred-dir", str(world_dir / "gt"),
                  "--gt-dir", str(world_dir / "gt"), "--classes", classes])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --classes" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("query", ["\u00b2", "1\u00b2"], ids=["sup2", "1sup2"])
    def test_non_decimal_digit_query_is_3(self, world_dir, tmp_path, capsys, query):
        # str.isdigit holds for a superscript two, which int() rejects: such
        # a query is a file name, and none matches
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        out = tmp_path / "o.rnsm"
        assert run_segment(world_dir, store, query, out) == 3
        assert "not found in manifest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "zero-shot"])
    def test_query_of_more_digits_than_int_reads_is_3(self, world_dir, tmp_path, capsys,
                                                       command):
        # int() refuses more than 4300 digits; no manifest has that many
        # queries, so such a query is a file name, and none matches
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        out = tmp_path / "o.rnsm"
        query = "9" * 5000
        if command == "segment":
            rc = run_segment(world_dir, store, query, out)
        else:
            rc = main(["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                       "--query", query, "--out", str(out)])
        assert rc == 3
        assert "not found in manifest" in capsys.readouterr().err
        assert not out.exists()

    def test_query_not_found_echoes_a_long_query_by_its_head(self, world_dir, tmp_path,
                                                              capsys):
        out = tmp_path / "o.rnsm"
        rc = main(["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                   "--query", "9" * 5000, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "not found in manifest" in err and "(5000 characters)" in err
        assert len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--grid", "4000"),
        ("--classes", "20000", "--images-per-class", "0", "--queries", "0"),
        ("--dim", "100000000000"), ("--dim", "500000000"), ("--classes", "100000000")],
        ids=["image-over-the-pixel-bound", "classes-beyond-the-separation",
             "dim-over-max-dim", "dim-over-the-centroid-bound",
             "classes-over-the-centroid-bound"])
    def test_synth_world_it_cannot_build_is_3_in_bounded_memory(self, tmp_path, flags):
        # in a 2 GB address space: the 16000 x 16000 image's features, the
        # (20000, 20000) centroid gram, the 5 TiB of d = 1e11 centroids and
        # the 26.1 GiB (d = 5e8) and 11.9 GiB (C = 1e8, d = 16) of centroid
        # samples would each exceed it
        out = tmp_path / "w"
        proc = run_in_2gb("synth", *flags, "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert not out.exists()

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

    def test_empty_patch_grid_is_3(self, world_dir, tmp_path, capsys):
        manifest = world_dir / "manifest.json"
        store = tmp_path / "s.rnss"
        assert main(["build-support", "--manifest", str(manifest),
                     "--out", str(store)]) == 0
        write_tensor(world_dir / "query" / "empty.rnsf", np.zeros((0, 0, 8), np.float32))
        payload = json.loads(manifest.read_text())
        payload["query_images"].append({"feature_file": "query/empty.rnsf",
                                        "image_h": 0, "image_w": 0})
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "o.rnsm"
        for argv in (["segment", "--store", str(store), "--steps", "5"], ["zero-shot"]):
            capsys.readouterr()
            rc = main([*argv, "--manifest", str(manifest), "--query", "empty.rnsf",
                       "--out", str(out)])
            assert rc == 3
            assert "empty patch grid" in capsys.readouterr().err
        assert not out.exists()

    def test_query_image_over_the_pixel_bound_is_3(self, world_dir, tmp_path, capsys):
        manifest = world_dir / "manifest.json"
        store = tmp_path / "s.rnss"
        assert main(["build-support", "--manifest", str(manifest),
                     "--out", str(store)]) == 0
        payload = json.loads(manifest.read_text())
        payload["query_images"][0]["image_h"] = 10 ** 9
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "o.rnsm"
        for argv in (["segment", "--store", str(store)], ["zero-shot"]):
            capsys.readouterr()
            rc = main([*argv, "--manifest", str(manifest), "--query", "0",
                       "--out", str(out)])
            assert rc == 3
            assert "pixels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["feature_dim", "image_h"])
    def test_non_integer_manifest_number_is_2(self, world_dir, tmp_path, capsys, field):
        manifest = world_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        entry = payload if field == "feature_dim" else payload["query_images"][0]
        entry[field] += 0.9
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "o.rnsm"
        rc = main(["zero-shot", "--manifest", str(manifest), "--query", "0",
                   "--out", str(out)])
        assert rc == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--classes", "0"), ("--dim", "-3"),
                                       ("--grid", "-2"), ("--grid", "0"),
                                       ("--separation", "inf"), ("--misalignment", "inf"),
                                       ("--misalignment", "nan"), ("--noise", "nan"),
                                       ("--noise", "-0.1"), ("--queries", "-1"),
                                       ("--seed", "-1")])
    def test_synth_sizes_below_one_are_3(self, tmp_path, capsys, flags):
        out = tmp_path / "w"
        assert main(["synth", *flags, "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags", [("--lr", "nan"), ("--tau", "nan"), ("--tau", "inf"),
                                       ("--beta-f", "inf"), ("--beta-p", "nan"),
                                       ("--k", "0")])
    def test_bad_hyperparameters_are_3(self, world_dir, tmp_path, capsys, flags):
        store = tmp_path / "s.rnss"
        main(["build-support", "--manifest", str(world_dir / "manifest.json"),
              "--out", str(store)])
        out = tmp_path / "o.rnsm"
        assert run_segment(world_dir, store, "0", out, flags) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_below_one_are_usage_errors(self, world_dir, tmp_path, capsys,
                                                monkeypatch, threads):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "1")
        out = tmp_path / "o.rnsm"
        with pytest.raises(SystemExit) as exit_info:
            run_segment(world_dir, tmp_path / "s.rnss", "0", out, ("--threads", threads))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --threads" in err and "Traceback" not in err
        assert all(os.environ[var] == "1" for var in THREAD_VARS)
        assert not out.exists()

    @pytest.mark.parametrize("command, tau", [("zero-shot", "1e-320"), ("segment", "1e-310")])
    def test_tau_too_small_for_the_scores_is_4_naming_it(self, world_dir, tmp_path, capsys,
                                                         command, tau):
        # the scores / tau would overflow, and their softmax would be nan;
        # the check comes first, so numpy warns of nothing
        manifest = str(world_dir / "manifest.json")
        store = tmp_path / "s.rnss"
        assert main(["build-support", "--manifest", manifest, "--out", str(store)]) == 0
        out = tmp_path / "o.rnsm"
        argv = [command, "--manifest", manifest, "--query", "0", "--out", str(out),
                "--tau", tau]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + (["--store", str(store)] if command == "segment" else []))
        assert rc == 4
        assert f"error: scores / temperature {tau}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_zero_shot_nonfinite_tau_is_3(self, world_dir, tmp_path, capsys, tau):
        out = tmp_path / "o.rnsm"
        assert main(["zero-shot", "--manifest", str(world_dir / "manifest.json"),
                     "--query", "0", "--out", str(out), "--tau", tau]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestMissingFiles:
    """A missing input file, an input path that is a directory, or an output
    in a missing directory or one that cannot be written is exit 3 with an
    error line naming the path."""

    @pytest.fixture()
    def store(self, world_dir, tmp_path):
        path = tmp_path / "s.rnss"
        assert main(["build-support", "--manifest", str(world_dir / "manifest.json"),
                     "--out", str(path)]) == 0
        return path

    def _exits_3_naming(self, rc, capsys, path):
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--store", "--regions", "--out"])
    def test_segment(self, world_dir, store, tmp_path, capsys, flag):
        paths = {"--store": tmp_path / "nope.rnss", "--regions": tmp_path / "nope.rnsm",
                 "--out": tmp_path / "nodir" / "o.rnsm"}
        args = {"--store": store, "--regions": world_dir / "gt" / "q000.rnsm",
                "--out": tmp_path / "o.rnsm", flag: paths[flag]}
        rc = main(["segment", "--manifest", str(world_dir / "manifest.json"),
                   "--query", "0", "--steps", "5",
                   *(str(v) for kv in args.items() for v in kv)])
        self._exits_3_naming(rc, capsys, paths[flag])

    @pytest.mark.parametrize("flag", ["--store", "--features", "--mask", "--out"])
    def test_add_support(self, world_dir, store, tmp_path, capsys, flag):
        paths = {"--store": tmp_path, "--features": tmp_path / "nope.rnsf",
                 "--mask": tmp_path / "nope.rnsm", "--out": tmp_path / "nodir" / "o.rnss"}
        args = {"--store": store, "--features": world_dir / "query" / "q000.rnsf",
                "--mask": world_dir / "gt" / "q000.rnsm", "--out": tmp_path / "o.rnss",
                flag: paths[flag]}
        rc = main(["add-support", *(str(v) for kv in args.items() for v in kv)])
        self._exits_3_naming(rc, capsys, paths[flag])

    def test_build_support_and_zero_shot_out(self, world_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "o"
        manifest = str(world_dir / "manifest.json")
        rc = main(["build-support", "--manifest", manifest, "--out", str(out)])
        self._exits_3_naming(rc, capsys, out)
        rc = main(["zero-shot", "--manifest", manifest, "--query", "0", "--out", str(out)])
        self._exits_3_naming(rc, capsys, out)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_outputs_that_cannot_be_written(self, world_dir, store, capsys):
        manifest = str(world_dir / "manifest.json")
        rc = main(["build-support", "--manifest", manifest, "--out", "/dev/full"])
        self._exits_3_naming(rc, capsys, "/dev/full")
        rc = main(["zero-shot", "--manifest", manifest, "--query", "0",
                   "--out", "/dev/full"])
        self._exits_3_naming(rc, capsys, "/dev/full")
        rc = main(["add-support", "--store", str(store), "--features",
                   str(world_dir / "query" / "q000.rnsf"), "--mask",
                   str(world_dir / "gt" / "q000.rnsm"), "--out", "/dev/full"])
        self._exits_3_naming(rc, capsys, "/dev/full")

    def test_synth_out_naming_a_file(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_bytes(b"")
        rc = main(["synth", "--classes", "2", "--out", str(out)])
        self._exits_3_naming(rc, capsys, out)

    def test_each_command_reads_only_its_files(self, world_dir, store, tmp_path,
                                               capsys):
        # segment and zero-shot never read support features, so a missing
        # one fails build-support alone
        manifest = str(world_dir / "manifest.json")
        gone = world_dir / "support" / "s0000.rnsf"
        gone.unlink()
        assert run_segment(world_dir, store, "0", tmp_path / "p.rnsm") == 0
        assert main(["zero-shot", "--manifest", manifest, "--query", "0",
                     "--out", str(tmp_path / "z.rnsm")]) == 0
        capsys.readouterr()
        rc = main(["build-support", "--manifest", manifest,
                   "--out", str(tmp_path / "s2.rnss")])
        self._exits_3_naming(rc, capsys, gone)

    def test_eval_missing_ground_truth(self, world_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "extra.rnsm").write_bytes((world_dir / "gt" / "q000.rnsm").read_bytes())
        rc = main(["eval", "--pred-dir", str(preds), "--gt-dir", str(world_dir / "gt"),
                   "--classes", "3"])
        self._exits_3_naming(rc, capsys, world_dir / "gt" / "extra.rnsm")


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


# what the manifest fuzz may put in place of a value: other JSON types, signs
# and sizes, and references to files of every kind in the world
_FUZZ_REFS = ("text/c000.rnsf", "support/s0000.rnsf", "support/s0000.rnsm",
              "query/q000.rnsf", "gt/q000.rnsm", "store.rnss", "manifest.json", "",
              "support", "nope.rnsf", "a\x00b")
_FUZZ_VALUES = st.one_of(
    st.sampled_from(_FUZZ_REFS),
    st.none(), st.booleans(),
    st.sampled_from([0, 1, -1, 2, 3, 5, 9, 17, 2 ** 31, 2 ** 63, 2 ** 64, 10 ** 9,
                     -(10 ** 9), 10 ** 30]),
    st.floats(), st.text(max_size=6),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "feature_file", "image_h"]),
                    st.integers(-1, 3), max_size=2),
)
_DELETE = object()


def _json_paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _mutate(doc, pick: int, value):
    """doc with one position (pick indexes _json_paths, plus the optional
    query keys that a synth manifest leaves out) replaced or deleted."""
    paths = list(_json_paths(doc))
    if isinstance(doc, dict) and isinstance(doc.get("query_images"), list) \
            and doc["query_images"] and isinstance(doc["query_images"][0], dict):
        paths += [("query_images", 0, "regions_file"), ("query_images", 0, "mask_file")]
    path = paths[pick % len(paths)]
    if not path:
        return doc if value is _DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and value is _DELETE:
        del parent[path[-1]]
    elif value is _DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return doc


@given(st.lists(st.tuples(st.integers(0, 10 ** 6),
                          st.one_of(_FUZZ_VALUES, st.just(_DELETE))),
                min_size=1, max_size=3))
@example(mutations=[(6, "a\x00b")])   # class 0's text_feature_ref holds a NUL
@settings(max_examples=200, deadline=None)
def test_mutated_manifests_give_exit_codes_not_tracebacks(fuzz_world, mutations):
    doc = json.loads((fuzz_world / "manifest.json").read_text())
    for pick, value in mutations:
        doc = _mutate(doc, pick, value)
    manifest = fuzz_world / "mutated.json"
    manifest.write_text(json.dumps(doc))
    out = str(fuzz_world / "mutated.rnsm")
    for argv in (["build-support", "--out", str(fuzz_world / "mutated.rnss")],
                 ["segment", "--store", str(fuzz_world / "store.rnss"), "--query", "0",
                  "--out", out, "--steps", "2"],
                 ["zero-shot", "--query", "0", "--out", out]):
        assert main([*argv, "--manifest", str(manifest)]) in (0, 2, 3, 4)
