"""The three benchmark workloads: input generation and the measured loops.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned. Each loop runs for the
requested number of seconds and never stops before it has made one full pass
over its inputs, so the quality figure (mIoU) always covers the same inputs.

The benchmark calls the library only through module attributes looked up at
call time (``segtta.harness.run_sweep``, ``segtta.cli.main``, ...), so the
boundary tracer sees every call it makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import common
from common import label_problem, median, read_rnsm, tail, write_rnsf, write_rnsm, write_rnss

WHY = {
    "sweep-small": "thousands of small adaptations, the shape of the test suite's "
                   "sweeps: per-step interpreter overhead in the adapter dominates",
    "query-large": "ADE-150-sized world through the CLI: the adapter is compute-bound "
                   "and decoding 512x512x150 probabilities sets peak memory",
    "store-100k": "100k-entry store with adds between segments: retrieval over the "
                  "whole store dominates, and every write invalidates read-side state",
}

KERNEL = {"sweep-small": "interpreter", "query-large": "gemm", "store-100k": "scan"}

SIZES = {
    "full": {
        "sweep-small": dict(worlds=4, classes=10, dim=16, images_per_class=10,
                            queries=8, budgets=(1, 2, 5, 10), setups=5, adds=12,
                            checkpoints=3),
        "query-large": dict(classes=150, dim=512, noise=0.09, support_grid=4,
                            images_per_class=21, query_grid=32, cell=16, queries=6,
                            setups=5, add_images=100, adds=20, checkpoints=2),
        "store-100k": dict(classes=30, dim=64, noise=0.15, entry_noise=0.04,
                           entries=100_000, grid=8, cell=4, queries=16,
                           add_images_per_class=3, adds_per_segment=4, setups=5,
                           checkpoints=5),
    },
    # a reduced size for the benchmark's self-test
    "tiny": {
        "sweep-small": dict(worlds=1, classes=6, dim=16, images_per_class=3,
                            queries=2, budgets=(1, 2), setups=2, adds=2, checkpoints=1),
        "query-large": dict(classes=12, dim=32, noise=0.1, support_grid=4,
                            images_per_class=3, query_grid=8, cell=4, queries=2,
                            setups=2, add_images=3, adds=2, checkpoints=1),
        "store-100k": dict(classes=8, dim=16, noise=0.15, entry_noise=0.04,
                           entries=2000, grid=8, cell=4, queries=2,
                           add_images_per_class=1, adds_per_segment=2, setups=2,
                           checkpoints=2),
    },
}


# --- input generation (outside every timed phase) ---

def generate(segtta, name: str, size: str, seed: int, work: Path) -> None:
    """Write the inputs of a file-based workload into `work`."""
    p = SIZES[size][name]
    if name == "query-large":
        _generate_query_large(segtta, p, seed, work)
    elif name == "store-100k":
        _generate_store(segtta, p, seed, work)


def _worlds(segtta, p, seed, support_grid, query_grid, images_per_class, queries):
    """Support and query worlds sharing centroids and text features: both
    depend only on (seed, C, d), so support images can use a smaller grid."""
    H = segtta.harness
    base = dict(seed=seed, num_classes=p["classes"], dim=p["dim"],
                feature_noise=p["noise"], cell_pixels=p["cell"])
    sw = H.generate_world(H.SynthConfig(**base, grid_h=support_grid, grid_w=support_grid,
                                        images_per_class=images_per_class,
                                        query_images=0))
    qw = H.generate_world(H.SynthConfig(**base, grid_h=query_grid, grid_w=query_grid,
                                        images_per_class=0, query_images=queries))
    if not np.array_equal(sw.bank.features, qw.bank.features):
        raise SystemExit("error: support and query worlds disagree on text features")
    return sw, qw


def _grid(x):
    return np.asarray(x.data, dtype=np.float32).reshape(x.grid_h, x.grid_w, x.dim)


def _write_dataset(work: Path, bank, support, queries, regions=()) -> None:
    for sub in ("text", "support", "query", "gt", "regions", "out"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    classes = []
    for c in range(bank.num_classes):
        ref = f"text/c{c:03d}.rnsf"
        write_rnsf(work / ref, bank.features[c])
        classes.append({"id": c, "name": f"class_{c}", "text_feature_ref": ref})
    support_refs = []
    for s in support:
        stem = f"support/{s.image_id}"
        write_rnsf(work / f"{stem}.rnsf", _grid(s.features))
        write_rnsm(work / f"{stem}.rnsm", s.mask.data)
        support_refs.append({"feature_file": f"{stem}.rnsf", "mask_file": f"{stem}.rnsm",
                             "image_id": s.image_id})
    query_refs = []
    for i, q in enumerate(queries):
        ref = {"feature_file": f"query/q{i:03d}.rnsf", "mask_file": f"gt/q{i:03d}.rnsm",
               "image_h": q.features.image_h, "image_w": q.features.image_w}
        write_rnsf(work / ref["feature_file"], _grid(q.features))
        write_rnsm(work / ref["mask_file"], q.gt.data)
        if i < len(regions) and regions[i] is not None:
            ref["regions_file"] = f"regions/q{i:03d}.rnsm"
            write_rnsm(work / ref["regions_file"], regions[i])
        query_refs.append(ref)
    manifest = {"feature_dim": bank.dim, "classes": classes,
                "support_images": support_refs, "query_images": query_refs}
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _generate_query_large(segtta, p, seed, work):
    sw, qw = _worlds(segtta, p, seed, p["support_grid"], p["query_grid"],
                     p["images_per_class"], p["queries"])
    _write_dataset(work, sw.bank, sw.support, qw.queries)
    argv = ["build-support", "--manifest", str(work / "manifest.json"),
            "--out", str(work / "store.rnss")]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = segtta.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"error: build-support exited {rc}")


def _block_regions(h, w, block):
    """Square pixel blocks numbered row-major: a simple region partition."""
    rows = np.arange(h)[:, None] // block
    cols = np.arange(w)[None, :] // block
    return rows * ((w + block - 1) // block) + cols


def _generate_store(segtta, p, seed, work):
    """A store snapshot of p["entries"] pooled-looking vectors around the
    world's centroids, written directly; plus annotated images to add and
    queries, every second one with a region partition."""
    sw, qw = _worlds(segtta, p, seed, p["grid"], p["grid"],
                     p["add_images_per_class"], p["queries"])
    side = p["grid"] * p["cell"]
    regions = [None if i % 2 == 0 else _block_regions(side, side, 2 * p["cell"])
               for i in range(p["queries"])]
    _write_dataset(work, sw.bank, sw.support, qw.queries, regions)

    rng = np.random.default_rng((seed, p["entries"]))
    C, d, M = p["classes"], p["dim"], p["entries"]
    class_ids = rng.integers(0, C, size=M)
    vecs = qw.centroids[class_ids] + p["entry_noise"] * rng.standard_normal((M, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # one or two entries per source image, like pooled multi-class images
    image_ids = rng.integers(0, 2**63, size=(M + 1) // 2, dtype=np.uint64).repeat(2)[:M]
    write_rnss(work / "store.rnss", C, d, segtta.support.DEFAULT_LAMBDAS,
               class_ids, np.arange(M), image_ids, vecs.astype(np.float32))


# --- measurement ---

class Ledger:
    """Attempted and failed operations, latencies and first problems of a run.

    Each latency is kept raw with the calibrator's tick count when it was
    taken; `rescaled()` applies the factor of its kind's kernel around that
    point (see common.Calibrator). The calibrator ticks after an operation
    when due, or always when asked.
    """

    def __init__(self, calibrator, kernel_of):
        self.cal = calibrator
        self.kernel_of = kernel_of
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = []   # (kind, seconds, tick count)

    def run(self, kind, fn, *args, tick=False, **kwargs):
        """Time one operation; any exception marks it failed, returns None."""
        self.attempted += 1
        spent = self.cal.spent
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # a failing operation is counted, not fatal
            self.fail(f"{kind}: {type(e).__name__}: {e}")
            return None
        self.record(kind, perf_counter() - t0 - (self.cal.spent - spent))
        if tick or self.cal.due():
            self.cal.tick()
        return result

    def record(self, kind, seconds) -> None:
        self.samples.append((kind, seconds, self.cal.ticks))

    def raw(self) -> dict:
        out = defaultdict(list)
        for kind, seconds, _ in self.samples:
            out[kind].append(seconds)
        return out

    def rescaled(self) -> dict:
        out = defaultdict(list)
        for kind, seconds, at in self.samples:
            out[kind].append(seconds * self.cal.factor(self.kernel_of(kind), at))
        return out

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def verify(self, ok: bool, message: str) -> None:
        """A check that stands as its own operation."""
        self.attempted += 1
        if not ok:
            self.fail(message)


def _digest(labels) -> str:
    return hashlib.sha1(np.ascontiguousarray(labels, dtype="<u2").tobytes()).hexdigest()


def _classes_in(mask) -> int:
    data = mask.data
    return len(np.unique(data[data != mask.ignore_index]))


class Measure:
    """One measured run of one workload.

    Traced runs first run operation 0 with the tracer removed, then the loop
    (starting again at operation 0) with it installed; the two label maps of
    operation 0 must be byte-identical, and their time difference is the
    tracing overhead.
    """

    def __init__(self, segtta, name, size, work: Path, seed: int, seconds: float,
                 tracer=None):
        self.segtta = segtta
        self.name = name
        self.seed = seed
        self.p = SIZES[size][name]
        self.work = work
        self.seconds = seconds
        self.tracer = tracer
        # segments are timed against a kernel shaped like the workload's
        # dominant cost; set-up, adds and checkpoints are interpreter-bound
        main = KERNEL[name]
        self.ledger = Ledger(common.Calibrator({main, "interpreter"}),
                             lambda kind: main if kind in ("segment", "point") else "interpreter")
        self.loop_kinds = ("segment",)
        self.segments = 0
        self.adds = 0
        self.miou = float("nan")
        self.extra = {}

    # -- shared pieces --

    def loop(self, first_pass: int, op, side=None) -> None:
        """Run op(i) for the requested time, and at least `first_pass` times.

        op returns (segments done, digest of its output) or None on failure.
        side(i), if given, runs after each op(i): writes measured beside the
        reads, spread over the whole loop rather than bunched at its end.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.uninstall()
            t0 = perf_counter()
            ref = op(0)
            ref_s = perf_counter() - t0
            tracer.install()
        t0 = perf_counter()
        i = 0
        while i < first_pass or perf_counter() - t0 < self.seconds:
            t_op = perf_counter()
            out = op(i)
            if i == 0 and tracer is not None:
                traced_s = perf_counter() - t_op
                self.ledger.verify(ref is not None and out is not None and ref[1] == out[1],
                                   "traced and untraced label maps differ")
                self.extra["trace_overhead_pct"] = 100.0 * (traced_s - ref_s) / ref_s
            if out is not None:
                self.segments += out[0]
            if side is not None:
                side(i)
            i += 1
        self.extra["ops"] = i
        self.extra["loop_wall_s"] = perf_counter() - t0

    def setup(self, fn):
        """Set up `setups` times (timed); returns the last ready state."""
        state = None
        for _ in range(self.p["setups"]):
            state = None   # so that two ready states are never held at once
            state = self.ledger.run("setup", fn, tick=True)
        if state is None:
            raise SystemExit("error: set-up failed: " + "; ".join(self.ledger.problems))
        return state

    def checkpoint(self, store, expected_size: int, reps: int = 1) -> None:
        """Save, load and save again: timed save+load, byte-stable, counted."""
        fileio = self.segtta.fileio
        a, b = self.work / "checkpoint_a.rnss", self.work / "checkpoint_b.rnss"
        self.ledger.verify(store.size == expected_size,
                           f"store holds {store.size} entries, expected {expected_size}")

        def save_load():
            fileio.save_store(store, a)
            return fileio.load_store(a)

        for _ in range(reps):
            loaded = self.ledger.run("checkpoint", save_load, tick=True)
            if loaded is None:
                continue
            fileio.save_store(loaded, b)
            self.ledger.verify(a.read_bytes() == b.read_bytes(),
                               "checkpoint not byte-stable through write-read-write")
            self.ledger.verify(loaded.size == expected_size,
                               f"checkpoint holds {loaded.size} entries, "
                               f"expected {expected_size}")

    def add(self, store, x, mask, image_id) -> int:
        """Add one annotated image; returns the entries it should create.
        Every fifth add ticks the calibrator, so bursts of sub-millisecond
        adds are rescaled from kernel times taken among them."""
        self.adds += 1
        done = self.ledger.run("add", self.segtta.support.add_support_image,
                               store, x, mask, image_id, tick=self.adds % 5 == 0)
        return _classes_in(mask) if done is not None else 0

    def check_labels(self, labels, shape, num_classes) -> bool:
        problem = label_problem(labels, shape, num_classes)
        if problem:
            self.ledger.fail(problem)
        return problem is None

    # -- workloads --

    def run(self) -> None:
        """Set up, loop and checkpoint; the tracer, if any, covers all three."""
        workload = getattr(self, "_" + self.name.replace("-", "_"))
        self.ledger.cal.tick()
        if self.tracer is None:
            workload()
        else:
            with self.tracer:
                workload()
        cal = self.ledger.cal
        cal.tick()
        self.ledger.verify(cal.busy_ticks == 0,
                           f"other threads used CPU during {cal.busy_ticks} of {cal.ticks} "
                           f"calibration ticks ({sum(cal.other_cpu):.3f} s in all)")

    def _sweep_small(self):
        segtta, p = self.segtta, self.p
        H, S = segtta.harness, segtta.support
        C, d = p["classes"], p["dim"]
        worlds = []
        for k in range(p["worlds"]):
            cfg = H.SynthConfig(seed=seed_for(self.seed, k), num_classes=C, dim=d,
                                images_per_class=p["images_per_class"],
                                query_images=p["queries"])

            def ready(cfg=cfg):
                world = H.generate_world(cfg)
                bank = S.substitute_missing_text(world.bank)
                return world, bank, H.build_store(world.support, C, d, bank=bank)

            worlds.append(self.setup(ready))

        budgets = p["budgets"]
        per_point = 2 * p["queries"]   # with text and without, every query
        first = []
        self.loop_kinds = ("point",)

        def op(i):
            world, _, _ = worlds[(i // len(budgets)) % len(worlds)]
            gts = {id(q.features): q.gt.data for q in world.queries}
            seen = []
            with self.label_probe(C, gts, seen):
                rows = self.ledger.run("point", segtta.harness.run_sweep, world,
                                       "support_size", [budgets[i % len(budgets)]])
            if rows is None:
                return None
            row = rows[0]
            values = [row["zero_shot_miou"], row["rns_miou"], row["rns_without_text_miou"]]
            if not all(common.finite(v) and 0.0 <= v <= 1.0 for v in values):
                self.ledger.fail(f"sweep row outside [0, 1]: {row}")
                return None
            if len(seen) >= p["queries"]:
                own = common.miou(sum(conf for _, conf in seen[:p["queries"]]))
                if abs(own - row["rns_miou"]) > 1e-9:
                    self.ledger.fail(f"harness mIoU {row['rns_miou']} != label mIoU {own}")
            if i < len(worlds) * len(budgets):
                first.append(row["rns_miou"])
            digest = hashlib.sha1(repr(values).encode())
            for dig, _ in seen:
                digest.update(dig.encode())
            return per_point, digest.hexdigest()

        # writes beside the sweep: world 0's images into a fresh store, and
        # checkpoints of world 0's (unchanging) pool store
        world0, bank0, pool0 = worlds[0]
        side_store = S.SupportStore.empty(C, d, text=bank0)
        side_expected = [0]

        def side(i):
            for a in range(p["adds"]):
                j = i * p["adds"] + a
                s = world0.support[j % len(world0.support)]
                side_expected[0] += self.add(side_store, s.features, s.mask,
                                             f"bench-add-{j}")
            self.checkpoint(pool0, pool0.size, p["checkpoints"])

        self.loop(len(worlds) * len(budgets), op, side)
        self.miou = float(np.mean(first))
        # per-adaptation latency: each harness.segment call where the harness
        # makes them, else a sweep point's time over its adaptations
        ledger = self.ledger
        if not self.extra.get("labels_checked"):
            ledger.samples += [("segment", t / per_point, at)
                               for kind, t, at in list(ledger.samples) if kind == "point"]
        self.extra["segment_latency_basis"] = "call" if self.extra.get("labels_checked") \
            else "point"

        self.ledger.verify(side_store.size == side_expected[0],
                           f"store holds {side_store.size} entries, "
                           f"expected {side_expected[0]}")

    @contextlib.contextmanager
    def label_probe(self, num_classes, gts, seen):
        """Time and check every label map harness.segment returns; record its
        digest and its confusion counts against ground truth."""
        H = self.segtta.harness
        inner = getattr(H, "segment", None)
        if inner is None:
            yield
            return

        def checked(store, x, *args, **kwargs):
            t0 = perf_counter()
            result = inner(store, x, *args, **kwargs)
            self.ledger.record("segment", perf_counter() - t0)
            if self.ledger.cal.due():   # inside the sweep point; run() leaves it out
                self.ledger.cal.tick()
            labels = result.full_res_labels.data
            if self.check_labels(labels, (x.image_h, x.image_w), num_classes):
                gt = gts.get(id(x))
                conf = common.confusion(labels, gt, num_classes) if gt is not None else 0
                seen.append((_digest(labels), conf))
                self.extra["labels_checked"] = self.extra.get("labels_checked", 0) + 1
            return result

        H.segment = checked
        try:
            yield
        finally:
            H.segment = inner

    def _load_dataset(self):
        """Manifest, text bank and store with text attached: a ready state."""
        segtta = self.segtta
        fileio = segtta.fileio
        manifest = fileio.load_manifest(self.work / "manifest.json")
        bank = segtta.support.substitute_missing_text(fileio.load_text_bank(manifest))
        store = fileio.load_store(self.work / "store.rnss", text=bank)
        return manifest, bank, store

    def _ground_truth(self, manifest):
        return [read_rnsm(manifest.resolve(ref.mask_file)) for ref in manifest.query_images]

    def _query_large(self):
        segtta, p = self.segtta, self.p
        fileio = segtta.fileio

        def ready():
            manifest, bank, store = self._load_dataset()
            adds = [fileio.load_support_image(manifest, ref)
                    for ref in manifest.support_images[:p["add_images"]]]
            return manifest, bank, store, adds

        manifest, bank, store, adds = self.setup(ready)
        C, Q = manifest.num_classes, len(manifest.query_images)
        gts = self._ground_truth(manifest)
        conf = np.zeros((C, C), dtype=np.int64)
        argv = ["segment", "--store", str(self.work / "store.rnss"),
                "--manifest", str(self.work / "manifest.json")]

        def op(i):
            q = i % Q
            out = self.work / "out" / f"q{q:03d}.rnsm"
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.ledger.run("segment", segtta.cli.main,
                                     argv + ["--query", str(q), "--out", str(out)])
            if rc is None:
                return None
            if rc != 0:
                self.ledger.fail(f"segment of query {q} exited {rc}")
                return None
            labels = read_rnsm(out)
            if not self.check_labels(labels, gts[q].shape, C):
                return None
            if i < Q:
                conf[:] += common.confusion(labels, gts[q], C)
            return 1, _digest(labels)

        # writes beside the CLI reads: images into the loaded store (the CLI
        # reads the file, which stays as generated), then a checkpoint of it
        expected = [store.size]

        def side(i):
            for a in range(p["adds"]):
                j = i * p["adds"] + a
                x, mask = adds[j % len(adds)]
                expected[0] += self.add(store, x, mask, f"bench-add-{j}")
            self.checkpoint(store, expected[0], p["checkpoints"])

        self.loop(Q, op, side)
        self.miou = common.miou(conf)

    def _store_100k(self):
        segtta, p = self.segtta, self.p
        fileio = segtta.fileio

        def ready():
            manifest, bank, store = self._load_dataset()
            refs = manifest.query_images
            queries = [fileio.load_query_features(manifest, ref) for ref in refs]
            regions = [fileio.read_regions(manifest.resolve(ref.regions_file))
                       if ref.regions_file else None for ref in refs]
            adds = [fileio.load_support_image(manifest, ref)
                    for ref in manifest.support_images]
            return manifest, bank, store, queries, regions, adds

        manifest, bank, store, queries, regions, adds = self.setup(ready)
        C, Q, A = manifest.num_classes, len(queries), p["adds_per_segment"]
        gts = self._ground_truth(manifest)
        conf = np.zeros((C, C), dtype=np.int64)
        expected = [store.size]
        self.loop_kinds = ("segment", "add")

        def op(i):
            q = i % Q
            x = queries[q]
            result = self.ledger.run("segment", segtta.segment, store, x, bank,
                                     regions=regions[q])
            out = None
            if result is not None:
                labels = result.full_res_labels.data
                mode_ok = result.mode == ("patch" if regions[q] is None else "region")
                if not mode_ok:
                    self.ledger.fail(f"query {q} decoded in {result.mode} mode")
                if self.check_labels(labels, (x.image_h, x.image_w), C) and mode_ok:
                    if i < Q:
                        conf[:] += common.confusion(labels, gts[q], C)
                    out = (1, _digest(labels))
            return out

        def side(i):
            for a in range(A):
                j = i * A + a
                x_add, mask = adds[j % len(adds)]
                expected[0] += self.add(store, x_add, mask, f"bench-add-{j}")

        self.loop(Q, op, side)
        self.miou = common.miou(conf)
        self.checkpoint(store, expected[0], p["checkpoints"])

    # -- results --

    def end_to_end(self, peak_rss_mb: float, lat) -> dict:
        """Metrics from latencies `lat` (rescaled, or raw for comparison)."""
        seg, add, ckpt = lat["segment"], lat["add"], lat["checkpoint"]
        busy = sum(sum(lat[k]) for k in self.loop_kinds)
        return {
            "setup_s": (median(lat["setup"]), "s"),
            "segments_per_s": (self.segments / busy if busy else 0.0, "1/s"),
            "segment_p50_s": (median(seg) if seg else 0.0, "s"),
            "segment_tail_s": (tail(seg)["value"] if seg else 0.0, "s"),
            "add_p50_ms": (median(add) * 1e3 if add else 0.0, "ms"),
            "add_tail_ms": (tail(add)["value"] * 1e3 if add else 0.0, "ms"),
            "checkpoint_s": (median(ckpt) if ckpt else 0.0, "s"),
            "miou": (self.miou, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


def seed_for(seed: int, k: int) -> int:
    """Distinct world seeds for the k-th world of a run."""
    return seed * 64 + k
