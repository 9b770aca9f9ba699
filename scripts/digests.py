#!/usr/bin/env python3
"""sha256 digests of retrieval and segmentation outputs on fixed inputs.

Prints one JSON object of streams, each {"count": n, "sha256": hex}:
- the (query index, store row) pairs and entry ids `retrieval._nearest_rows`
  returns, fresh and resumed over a store that grows between scans, on
  synthetic stores shaped like the benchmark's store-100k (100k rows,
  d = 64, 64 query rows) and query-large (~4000 rows, d = 512, 1024 query
  rows) inputs, for k = 1, 4 and 16 and for k larger than a block;
- the label maps of `segment` on a synthetic world, in patch and in region
  mode, and its patch probabilities (`low_res`, the same in both modes).

There are no flags, and a run takes seconds. Two trees are compared by
running the script in each on one machine and comparing the outputs byte for
byte:

    PYTHONPATH=src python3 scripts/digests.py > a.json
    (in the other tree) PYTHONPATH=src python3 scripts/digests.py > b.json
    cmp a.json b.json

OpenBLAS picks its kernels by the CPU it runs on, so digests only compare
between runs on one machine, and none are committed.
"""

import hashlib
import json
import sys

import numpy as np

from segtta import retrieval
from segtta.adapter import TrainConfig
from segtta.harness import SynthConfig, build_store, generate_world, select_support
from segtta.inference import RegionSet, segment
from segtta.numerics import l2_normalize_rows
from segtta.support import SupportStore, row_dtype


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
    """A store of the same records, with no scan state."""
    fresh = SupportStore.empty(store.num_classes, store.dim)
    fresh._reserve_rows(store.size)[:] = store.entries
    fresh._commit_rows(store.size, store.next_entry_id)
    return fresh


def _nearest(stream, queries, store, k) -> None:
    q, rows = retrieval._nearest_rows(queries, store, k)
    stream.add(q, rows, store.entries.entry_id[rows])


def retrieval_streams(name, seed, classes, dim, n, sizes, ks, noise) -> dict:
    """Scans of n query rows over a store grown to each of sizes in turn,
    for each k: every scan after the first resumes. Then the same scans
    over a fresh copy of the full store."""
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


def main() -> int:
    block = retrieval.BLOCK_ROWS
    streams = {}
    # store-100k's shape, grown by rows within its last block, past a block
    # boundary, then to its full size
    streams.update(retrieval_streams("store-100k", 11, 30, 64, 64,
                                     (50_000, 50_450, 54_000, 100_000), (1, 4, 16), 0.35))
    # k past a block: the state kept at 1.5 blocks has scored fewer than k
    # rows, so the resumed scan sets its floor
    streams.update(retrieval_streams("store-100k.k-over-block", 12, 30, 64, 8,
                                     (block + block // 2, 3 * block + 7), (block + 100,), 0.35))
    streams.update(retrieval_streams("query-large", 13, 150, 512, 1024,
                                     (3955, 2 * block + 100), (4,), 0.35))
    streams.update(label_streams(5))
    json.dump(streams, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
