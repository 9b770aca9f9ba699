#!/usr/bin/env python3
"""sha256 digests of retrieval and segmentation outputs on fixed inputs.

Prints one JSON object of streams, each {"count": n, "sha256": hex}:
- the (query index, store row) pairs and entry ids `retrieval._nearest_rows`
  returns over a store that grows between scans (`*.resumed`: each scan
  after the first scores only the rows appended since) and over a fresh
  copy of it (`*.fresh`), on synthetic stores shaped like the benchmark's
  store-100k (100k rows, d = 64, 64 query rows) and query-large (~4000
  rows, d = 512, 1024 query rows) inputs, for k = 1, 4 and 16 and for k
  larger than a block;
- the label maps of `segment` on a synthetic world, in patch and in region
  mode, and its patch probabilities (`low_res`, the same in both modes);
- `decode`: the label maps and `low_res` of `zero_shot_segment` and of
  `segment` with a given probe, on worlds shaped like the benchmark's
  sweep-small (C = 10, 32 x 32 maps, decoded in one band) and like a
  256 x 256 image at C = 40 (16 x 16 grid), whose ~22 bands are decoded cell
  by cell; and one region-mode map of `segment` at the larger shape;
- the probes `fit_batches` returns for the 8 queries of each of six worlds
  shaped like the acceptance tests' trend criteria (C = 10, d = 16, 3 support
  images per class), with 0, 3 and 9 classes' visual support dropped and
  with and without the pseudo-label loss, and the losses of every 50th step
  of the fits with it, fitted again with a history;
- `probes.large`: the probes of three fits at query-large's scale (C = 150,
  d = 512, ~500 items a query), which run part of each step on a second
  thread where the process may use two CPUs;
- the rows of `run_sweep` over support budgets 1, 2, 5 and 10 on six worlds
  shaped like the benchmark's sweep-small ones, and (`sweep.drops`) over
  visual and text drop fractions on the same worlds;
- `stores`: the `save_store` bytes of each of those worlds' `build_store`
  store, and of a copy loaded back and grown by `add_support_image`;
- `stores.large`: the `save_store` bytes of a store at query-large's scale
  (C = 150, d = 512) grown by 40 `add_support_image` calls, on 64 x 64
  masks over 4 x 4 grids (the benchmark's adds) and on 30 x 45 masks over
  4 x 7 grids, whose sides the grid does not divide; images of one to four
  classes, with ignore pixels.

There are no flags, and a run takes about ten seconds on a 2-vCPU x86-64
VM, most of it the fits of the probe and sweep streams. Two trees are
compared on one machine by running each tree's own script on its own `src`
and comparing the streams both print; where both print the same streams,
that is a cmp of the outputs:

    PYTHONPATH=src python3 scripts/digests.py > a.json
    (in the other tree) PYTHONPATH=src python3 scripts/digests.py > b.json
    cmp a.json b.json

and otherwise this prints the shared streams that differ:

    python3 -c "import json, sys; a, b = (json.load(open(f)) for f in sys.argv[1:]);
    print(sorted(k for k in a.keys() & b.keys() if a[k] != b[k]))" a.json b.json

The script is not run on another tree's `src`: it calls private names
(`retrieval._nearest_rows`, `SupportStore._reserve_rows` and
`_commit_rows`) and `query_batches` and `fit_batches`, whose signatures a
refactor may change.

OpenBLAS picks its kernels by the CPU it runs on, so digests only compare
between runs on one machine, and none are committed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from segtta import retrieval
from segtta.adapter import (
    AdapterModel,
    TrainConfig,
    TrainingBatch,
    fit_batches,
    query_batches,
)
from segtta.fileio import load_store, save_store
from segtta.harness import SynthConfig, build_store, generate_world, run_sweep, select_support
from segtta.inference import RegionSet, segment, zero_shot_segment
from segtta.numerics import IGNORE_INDEX, DenseFeatureMap, LabelMask, l2_normalize_rows
from segtta.support import SupportStore, add_support_image, row_dtype, substitute_missing_text


class Stream:
    """A sha256 over the bytes of the arrays added, with their count."""

    def __init__(self):
        self.hash, self.count = hashlib.sha256(), 0

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a)
            self.hash.update(f"{a.dtype.str}{a.shape}".encode())
            self.hash.update(a.tobytes())
        self.count += 1

    def digest(self) -> dict:
        return {"count": self.count, "sha256": self.hash.hexdigest()}


def _rows(rng, centroids, m, noise):
    """m unit rows around randomly chosen centroids, and their classes."""
    classes = rng.integers(0, len(centroids), size=m)
    rows = centroids[classes] + noise * rng.standard_normal((m, centroids.shape[1]))
    return l2_normalize_rows(rows), classes


def _append(store, rng, centroids, m, noise) -> None:
    """m float32 rows appended under fresh entry ids, as a load appends them."""
    vectors, classes = _rows(rng, centroids, m, noise)
    records = np.zeros(m, row_dtype(store.dim))
    records["vector"], records["class_id"] = vectors, classes
    records["entry_id"] = store.next_entry_id + np.arange(m)
    records["image_id"] = rng.integers(0, 2 ** 63, size=m, dtype=np.uint64)
    store._reserve_rows(m)[:] = records
    store._commit_rows(m, store.next_entry_id + m)


def _fresh(store) -> SupportStore:
    """A store of the same records, with no kept answer."""
    fresh = SupportStore.empty(store.num_classes, store.dim)
    fresh._reserve_rows(store.size)[:] = store.entries
    fresh._commit_rows(store.size, store.next_entry_id)
    return fresh


def _nearest(stream, queries, store, k) -> None:
    q, rows = retrieval._nearest_rows(queries, store, k)
    stream.add(q, rows, store.entries.entry_id[rows])


def retrieval_streams(name, seed, classes, dim, n, sizes, ks, noise) -> dict:
    """Scans of n query rows over a store grown to each of sizes in turn,
    for each k: each scan after the first scores only the rows appended
    since. Then the same scans over a fresh copy of the full store."""
    rng = np.random.default_rng(seed)
    centroids = l2_normalize_rows(rng.standard_normal((classes, dim)))
    queries, _ = _rows(rng, centroids, n, 2 * noise)
    store = SupportStore.empty(classes, dim)
    resumed, fresh = Stream(), Stream()
    for size in sizes:
        _append(store, rng, centroids, size - store.size, noise)
        for k in ks:
            _nearest(resumed, queries, store, k)
    whole = _fresh(store)
    for k in ks:
        _nearest(fresh, queries, whole, k)
    return {f"{name}.resumed": resumed.digest(), f"{name}.fresh": fresh.digest()}


def label_streams(seed) -> dict:
    """Label maps of every query of a synthetic world, in patch mode and over
    square regions, and its patch probabilities."""
    world = generate_world(SynthConfig(seed=seed, num_classes=6, dim=16, query_images=4))
    store = build_store(select_support(world, 2), world.num_classes, world.config.dim,
                        bank=world.bank)
    config = TrainConfig(steps=60)
    streams = {"labels.patch": Stream(), "labels.region": Stream(), "low_res": Stream()}
    for q in world.queries:
        h, w = q.gt.shape
        blocks = (np.arange(h)[:, None] // 8) * ((w + 7) // 8) + np.arange(w)[None, :] // 8
        patch = segment(store, q.features, world.bank, config=config)
        region = segment(store, q.features, world.bank, config=config,
                         regions=RegionSet(blocks, int(blocks.max()) + 1))
        streams["labels.patch"].add(patch.full_res_labels.data)
        streams["labels.region"].add(region.full_res_labels.data)
        streams["low_res"].add(patch.low_res.data)
    return {name: stream.digest() for name, stream in streams.items()}


def decode_stream(seed) -> dict:
    """Label maps and patch probabilities of zero_shot_segment and of
    segment with a probe near the scaled text rows, for the queries of a
    sweep-small world and of a world of 256 x 256 images at C = 40; and the
    region-mode map of segment over 32 x 32 blocks of the last such image."""
    rng = np.random.default_rng(seed)
    big = generate_world(SynthConfig(seed=seed, num_classes=40, dim=16, grid_h=16,
                                     grid_w=16, cell_pixels=16, images_per_class=0,
                                     query_images=2))
    tau = TrainConfig().tau
    stream = Stream()
    for world in (_sweep_world(seed), big):
        C, d = world.num_classes, world.config.dim
        store = SupportStore.empty(C, d)
        probe = AdapterModel(10.0 * world.bank.features + rng.standard_normal((C, d)),
                             0.5 * rng.standard_normal(C))
        for q in world.queries:
            for result in (zero_shot_segment(q.features, world.bank, tau),
                           segment(store, q.features, world.bank, model=probe)):
                stream.add(result.full_res_labels.data, result.low_res.data)
    h, w = q.gt.shape
    blocks = (np.arange(h)[:, None] // 32) * ((w + 31) // 32) + np.arange(w)[None, :] // 32
    region = segment(store, q.features, big.bank, model=probe,
                     regions=RegionSet(blocks, int(blocks.max()) + 1))
    stream.add(region.full_res_labels.data)
    return {"decode": stream.digest()}


def probe_streams(seeds) -> dict:
    """The stacked probes of each world's queries, fitted on a store with
    some classes' visual support dropped, with and without beta_p; and the
    losses of every 50th step of the fit with beta_p, fitted again with a
    history."""
    streams = {"probes": Stream(), "probes.history": Stream()}
    for seed in seeds:
        world = generate_world(SynthConfig(
            seed=seed, num_classes=10, dim=16, cluster_separation=np.pi / 4,
            feature_noise=0.15, text_misalignment=0.7, images_per_class=3, query_images=8))
        bank = substitute_missing_text(world.bank)
        samples = select_support(world, 3)
        xs = [q.features for q in world.queries]
        for dropped in (0, 3, 9):
            unsupported = world.visual_drop_order[:dropped]
            store = build_store(samples, 10, 16, bank=bank, excluded_classes=set(unsupported))
            (batches,) = query_batches(store, xs, [bank], unsupported)
            for config in (TrainConfig(), TrainConfig(beta_p=0.0)):
                for model in fit_batches(batches, config):
                    streams["probes"].add(np.empty(0) if model is None else model.packed)
            history = []
            fit_batches(batches, TrainConfig(), history)
            for record in history[::50]:
                streams["probes.history"].add(record.total, record.visual, record.fused,
                                              record.pseudo)
    return {name: stream.digest() for name, stream in streams.items()}


def large_probe_stream(seed) -> dict:
    """The probes of fits at the benchmark's query-large scale (C = 150,
    d = 512), large enough that a fit runs a group on a second thread
    where two CPUs are free: one query of 170 visual and 330 fused items,
    one whose widest group is the visual one, beside a pseudo group, and a
    stack of two queries. Items are unit rows near class centroids."""
    rng = np.random.default_rng(seed)
    C, d = 150, 512
    centroids = l2_normalize_rows(rng.standard_normal((C, d)))

    def batch(mv, mf, mp):
        (vx, vy), (fx, fy) = _rows(rng, centroids, mv, 0.5), _rows(rng, centroids, mf, 0.3)
        px, _ = _rows(rng, centroids, mp, 0.3)
        pt = np.exp(8.0 * px @ centroids.T)
        return TrainingBatch(vx, vy, rng.random(mv) + 0.1, fx, fy, rng.random(mf) + 0.1,
                             px, pt / pt.sum(axis=1, keepdims=True), rng.random(mp) + 0.1, C)

    stream = Stream()
    for batches, steps in (([batch(170, 330, 0)], 40), ([batch(330, 170, 24)], 16),
                           ([batch(170, 330, 0), batch(140, 300, 12)], 12)):
        for model in fit_batches(batches, TrainConfig(steps=steps)):
            stream.add(model.packed)
    return {"probes.large": stream.digest()}


def _sweep_world(seed):
    """A world shaped like the benchmark's sweep-small ones."""
    return generate_world(SynthConfig(seed=seed * 64, num_classes=10, dim=16,
                                      images_per_class=10, query_images=8))


def sweep_streams(seeds) -> dict:
    """The rows of a support-size sweep of each world, and of sweeps over
    its visual and text drop fractions."""
    streams = {"sweep": Stream(), "sweep.drops": Stream()}
    for seed in seeds:
        world = _sweep_world(seed)
        for name, axis, points in (("sweep", "support_size", (1, 2, 5, 10)),
                                   ("sweep.drops", "visual_drop_fraction", (0.3, 0.7)),
                                   ("sweep.drops", "text_drop_fraction", (0.3, 0.7))):
            for row in run_sweep(world, axis, points):
                streams[name].add(np.array([row[axis], row["zero_shot_miou"], row["rns_miou"],
                                            row["rns_without_text_miou"]]))
    return {name: stream.digest() for name, stream in streams.items()}


def store_stream(seeds) -> dict:
    """The save_store bytes of each world's store of all its support images,
    and of that store loaded back and grown by one query image."""
    stream = Stream()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.rnss"
        for seed in seeds:
            world = _sweep_world(seed)
            save_store(build_store(select_support(world, 10), 10, 16), path)
            stream.add(np.frombuffer(path.read_bytes(), np.uint8))
            grown = load_store(path)
            add_support_image(grown, world.queries[0].features, world.queries[0].gt, seed)
            save_store(grown, path)
            stream.add(np.frombuffer(path.read_bytes(), np.uint8))
    return {"stores": stream.digest()}


def large_store_stream(seed) -> dict:
    """The save_store bytes of a C = 150, d = 512 store grown by 40 adds:
    every other image a 64 x 64 mask on a 4 x 4 grid, the others 30 x 45 on
    4 x 7. An image holds one to four classes in blocks of 8 x 8 pixels
    (a class may lose every block), and about a tenth of its pixels are
    ignored."""
    rng = np.random.default_rng(seed)
    C, d = 150, 512
    store = SupportStore.empty(C, d)
    for i in range(40):
        H, W, gh, gw = (64, 64, 4, 4) if i % 2 == 0 else (30, 45, 4, 7)
        held = rng.choice(C, size=1 + i % 4, replace=False)
        blocks = held[rng.integers(0, len(held), size=(H // 8 + 1, W // 8 + 1))]
        labels = blocks.repeat(8, axis=0).repeat(8, axis=1)[:H, :W]
        labels[rng.random((H, W)) < 0.1] = IGNORE_INDEX
        x = DenseFeatureMap(rng.standard_normal((gh * gw, d)), gh, gw, H, W)
        add_support_image(store, x, LabelMask(labels, C), f"large-{i}")
    stream = Stream()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.rnss"
        save_store(store, path)
        stream.add(np.frombuffer(path.read_bytes(), np.uint8))
    return {"stores.large": stream.digest()}


def main() -> int:
    block = retrieval.BLOCK_ROWS
    streams = {}
    # store-100k's shape, grown by rows within its last block, past a block
    # boundary, then to its full size
    streams.update(retrieval_streams("store-100k", 11, 30, 64, 64,
                                     (50_000, 50_450, 54_000, 100_000), (1, 4, 16), 0.35))
    # k past a block: the answer kept at 1.5 blocks covers fewer than k
    # rows past the first block, and the scan of the rows appended after it
    # sets its floor once it has scored k of them
    streams.update(retrieval_streams("store-100k.k-over-block", 12, 30, 64, 8,
                                     (block + block // 2, 3 * block + 7), (block + 100,), 0.35))
    streams.update(retrieval_streams("query-large", 13, 150, 512, 1024,
                                     (3955, 2 * block + 100), (4,), 0.35))
    streams.update(label_streams(5))
    streams.update(decode_stream(3))
    streams.update(probe_streams(range(6)))
    streams.update(large_probe_stream(7))
    streams.update(sweep_streams(range(6)))
    streams.update(store_stream(range(6)))
    streams.update(large_store_stream(17))
    json.dump(streams, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
