"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs end to end at the tiny size, untraced and traced; the
output must name every metric BENCHMARK.json lists, with its unit. Tracing
must leave label maps byte-identical, and a wrapped name the library lacks
must be reported as missing without failing the run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.pin_threads()
segtta = common.import_segtta()

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from run import load_library  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=HERE.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", common.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_same_seed_same_inputs_and_quality():
    first = result_of(run_bench("--workload", "store-100k", "--seed", "5",
                                "--seconds", "0.2", "--size", "tiny"))
    again = result_of(run_bench("--workload", "store-100k", "--seed", "5",
                                "--seconds", "0.2", "--size", "tiny"))
    assert first["metrics"]["miou"] == again["metrics"]["miou"]


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_segment(seed=4):
    H = segtta.harness
    world = H.generate_world(H.SynthConfig(seed=seed, num_classes=6, dim=16,
                                           images_per_class=2, query_images=1))
    bank = segtta.support.substitute_missing_text(world.bank)
    store = H.build_store(world.support, 6, 16, bank=bank)
    return lambda: segtta.segment(store, world.queries[0].features, bank)


def test_tracer_leaves_labels_byte_identical():
    load_library()
    segment = _tiny_segment()
    plain = segment().full_res_labels.data.tobytes()
    tr = tracing.Tracer("inference.segment")
    with tr:
        traced = segment().full_res_labels.data.tobytes()
    assert traced == plain
    assert tr.calls["inference.segment"] == 1
    assert tr.calls["adapter.total_loss"] == segtta.adapter.TrainConfig().steps
    # uninstalled: the library's own functions are back in place
    assert segtta.segment is segtta.inference.segment
    assert not hasattr(segtta.inference.segment, "__wrapped__")


def test_absent_wrapped_name_is_reported_missing():
    load_library()
    segment = _tiny_segment()
    spans = [s if s[0] != "adapter.total_loss" else
             ("adapter.total_loss", "adapter", "segtta.adapter", "no_such_function",
              None, None) for s in tracing.SPANS]
    tr = tracing.Tracer("inference.segment", spans)
    with tr:
        segment()
    metrics = tr.layer_metrics(segtta.adapter.TrainConfig().steps)
    assert metrics["adapter.loss_us"][2] == "missing"
    assert metrics["adapter.loss_us"][0] == 0.0
    assert metrics["adapter.adam_us"][2] == "ok"
    assert metrics["inference.region_pool_ms"][2] == "unmeasured"
    assert {m["name"] for m in BENCH["per_layer"]} >= set(metrics)


def test_store_writer_matches_library_reader(tmp_path):
    load_library()
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((7, 5)).astype(np.float32)
    classes = np.array([0, 2, 1, 2, 0, 0, 1])
    common.write_rnss(tmp_path / "s.rnss", 3, 5, (0.5, 0.0), classes, np.arange(7),
                      np.arange(7, dtype=np.uint64) * 3, vecs)
    store = segtta.fileio.load_store(tmp_path / "s.rnss")
    assert store.size == 7 and store.lambdas == (0.5, 0.0)
    assert [e.class_id for e in store.entries] == classes.tolist()
    assert np.array_equal(np.stack([e.vector for e in store.entries]), vecs)
    assert store.class_counts.tolist() == [3, 2, 2]
    segtta.fileio.save_store(store, tmp_path / "t.rnss")
    assert (tmp_path / "s.rnss").read_bytes() == (tmp_path / "t.rnss").read_bytes()


def test_tail_has_ten_samples_beyond():
    t = common.tail(list(range(100)))
    assert t["value"] == 89 and t["beyond"] == 10 and t["percentile"] == 90.0
    assert common.tail([3.0, 1.0])["value"] == 3.0


def test_other_threads_busy_during_ticks_are_counted():
    import threading
    cal = common.Calibrator({"interpreter"})
    cal.tick()
    assert cal.busy_ticks == 0
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        for _ in range(3):
            cal.tick()
    finally:
        stop.set()
        worker.join()
    assert cal.busy_ticks >= 1
