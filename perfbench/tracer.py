"""Boundary tracer: wraps the module-level names through which one segtta
module calls another and turns the spans into per-layer metrics.

A wrapped function is replaced in every ``segtta.*`` namespace that binds
it, so calls through re-exports and function-local imports are caught too.
Spans nest on a stack; a span's self time is its duration minus its
children's. Totals are aggregated on the fly. A name the library no longer
defines is reported as ``missing``; a name never called is reported as
``unmeasured``.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("numerics", "support", "retrieval", "adapter", "inference", "fileio",
          "harness", "cli")


def _batch_items(counts, args, kwargs, result, before):
    counts["items_visual"] += len(result.visual_y)
    counts["items_fused"] += len(result.fused_y)
    counts["items_pseudo"] += len(result.pseudo_w)


def _retrieved(counts, args, kwargs, result, before):
    counts["entries_returned"] += len(result.entries)
    counts["classes_returned"] += len(result.classes)


def _fallback(counts, args, kwargs, result, before):
    counts["fallbacks"] += result is None


def _upsampled(counts, args, kwargs, result, before):
    counts["upsample_bytes"] += result.nbytes


def _saved_file(counts, args, kwargs, result, before):
    counts["store_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _loaded_file(counts, args, kwargs, result, before):
    counts["store_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _store_size(args, kwargs):
    return (args[0] if args else kwargs["store"]).size


def _entries_added(counts, args, kwargs, result, before):
    counts["entries_added"] += (args[0] if args else kwargs["store"]).size - before


# (span name, layer, module, attribute, before-hook, after-hook)
SPANS = (
    ("cli.main", "cli", "segtta.cli", "main", None, None),
    ("harness.run_sweep", "harness", "segtta.harness", "run_sweep", None, None),
    ("harness.generate_world", "harness", "segtta.harness", "generate_world", None, None),
    ("harness.select_support", "harness", "segtta.harness", "select_support", None, None),
    ("harness.build_store", "harness", "segtta.harness", "build_store", None, None),
    ("harness.evaluate_queries", "harness", "segtta.harness", "evaluate_queries", None, None),
    ("harness.evaluate_zero_shot", "harness", "segtta.harness", "evaluate_zero_shot",
     None, None),
    ("harness.compute_miou", "harness", "segtta.harness", "compute_miou", None, None),
    ("inference.segment", "inference", "segtta.inference", "segment", None, None),
    ("inference.zero_shot_segment", "inference", "segtta.inference", "zero_shot_segment",
     None, None),
    ("inference.adapted_predict", "inference", "segtta.inference", "adapted_predict",
     None, None),
    ("inference._decode", "inference", "segtta.inference", "_decode", None, None),
    ("inference.region_pool", "inference", "segtta.inference", "region_pool", None, None),
    ("adapter.train_adapter", "adapter", "segtta.adapter", "train_adapter", None, _fallback),
    ("adapter.assemble_batch", "adapter", "segtta.adapter", "assemble_batch",
     None, _batch_items),
    ("adapter.total_loss", "adapter", "segtta.adapter", "total_loss", None, None),
    ("adapter.adam_step", "adapter", "segtta.adapter", "adam_step", None, None),
    ("retrieval.retrieve_for_image", "retrieval", "segtta.retrieval", "retrieve_for_image",
     None, _retrieved),
    ("retrieval.class_relevance_weights", "retrieval", "segtta.retrieval",
     "class_relevance_weights", None, None),
    ("support.add_support_image", "support", "segtta.support", "add_support_image",
     _store_size, _entries_added),
    ("support.attach_text", "support", "segtta.support", "attach_text", None, None),
    ("numerics.downsample_labels", "numerics", "segtta.numerics", "downsample_labels",
     None, None),
    ("numerics.upsample_probs", "numerics", "segtta.numerics", "upsample_probs",
     None, _upsampled),
    ("numerics.argmax_map", "numerics", "segtta.numerics", "argmax_map", None, None),
    ("fileio.load_store", "fileio", "segtta.fileio", "load_store", None, _loaded_file),
    ("fileio.save_store", "fileio", "segtta.fileio", "save_store", None, _saved_file),
)


def _public_functions(module_name):
    """Public functions defined in a module (its own, not imported ones)."""
    mod = sys.modules.get(module_name)
    if mod is None:
        return []
    return sorted(k for k, v in vars(mod).items()
                  if callable(v) and not k.startswith("_") and not isinstance(v, type)
                  and getattr(v, "__module__", None) == module_name)


class Tracer:
    """Collects spans while installed; ``op_span`` names the span whose
    subtree counts as one segment when computing layer shares."""

    def __init__(self, op_span: str, spans=SPANS):
        self.op_span = op_span
        self.specs = list(spans)
        known = {s[0] for s in self.specs}
        self.specs += [(f"fileio.{f}", "fileio", "segtta.fileio", f, None, None)
                       for f in _public_functions("segtta.fileio")
                       if f"fileio.{f}" not in known]
        self.missing = set()
        self._patches = []
        self._stack = []      # frames: [name, layer, child time]
        self._op_depth = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child = defaultdict(float)       # (parent name, child name) -> seconds
        self.op_layer_self = defaultdict(float)
        self.op_total = 0.0
        self.counts = defaultdict(float)
        self.hook_errors = defaultdict(int)

    # --- installation ---

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "segtta" or n.startswith("segtta."))]
        for name, layer, modname, attr, before, after in self.specs:
            target = getattr(sys.modules.get(modname), attr, None)
            if not callable(target):
                self.missing.add(name)
                continue
            wrapper = self._wrap(target, name, layer, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is target:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, target))
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name, layer, before, after):
        tracer = self
        is_op = name == self.op_span

        hook_errors = (AttributeError, TypeError, IndexError, KeyError, OSError)

        def traced(*args, **kwargs):
            pre = None
            if before:
                try:
                    pre = before(args, kwargs)
                except hook_errors:
                    tracer.hook_errors[name] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [name, layer, 0.0]
            tracer._stack.append(frame)
            tracer._op_depth += is_op
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._op_depth -= is_op
                tracer._close(frame, parent, t1 - t0, is_op)
            if after:
                try:
                    after(tracer.counts, args, kwargs, result, pre)
                except hook_errors:
                    tracer.hook_errors[name] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _close(self, frame, parent, dur, is_op):
        name, layer, child_time = frame
        own = dur - child_time
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += own
        if parent is not None:
            parent[2] += dur
            self.child[(parent[0], name)] += dur
        if self._op_depth > 0 or is_op:
            self.op_layer_self[layer] += own
        if is_op and self._op_depth == 0:
            self.op_total += dur

    # --- reporting ---

    def summary(self) -> dict:
        return {
            "op_span": self.op_span,
            "missing": sorted(self.missing),
            "hook_errors": dict(self.hook_errors),
            "spans": {n: {"calls": self.calls[n], "total_s": self.total[n],
                          "self_s": self.self_time[n]} for n in sorted(self.calls)},
            "op_total_s": self.op_total,
            "op_layer_self_s": dict(self.op_layer_self),
            "counts": dict(self.counts),
        }

    def layer_metrics(self, steps_per_train: int) -> dict:
        """Per-layer metrics as name -> (value, unit, status)."""
        out = {}

        def status(*names):
            if any(n in self.missing or n in self.hook_errors for n in names):
                return "missing"
            if any(self.calls[n] == 0 for n in names):
                return "unmeasured"
            return "ok"

        def mean(metric, span, unit, scale):
            st = status(span)
            value = self.total[span] / self.calls[span] * scale if st == "ok" else 0.0
            out[metric] = (value, unit, st)

        def per_call(metric, span, counter, unit, scale=1.0):
            st = status(span)
            value = self.counts[counter] / self.calls[span] * scale if st == "ok" else 0.0
            out[metric] = (value, unit, st)

        train, loss, adam = ("adapter.train_adapter", "adapter.total_loss",
                             "adapter.adam_step")
        mean("adapter.train_s", train, "s", 1.0)
        st = status(train)
        trained = self.calls[train] - self.counts["fallbacks"]
        if st == "ok" and trained > 0:
            outside = sum(t for (p, c), t in self.child.items()
                          if p == train and c not in (loss, adam))
            out["adapter.step_us"] = ((self.total[train] - outside)
                                      / (steps_per_train * trained) * 1e6, "us", "ok")
        else:
            out["adapter.step_us"] = (0.0, "us", st if st != "ok" else "unmeasured")
        mean("adapter.loss_us", loss, "us", 1e6)
        mean("adapter.adam_us", adam, "us", 1e6)
        batch = "adapter.assemble_batch"
        mean("adapter.assemble_ms", batch, "ms", 1e3)
        st = status(batch)
        n = max(self.calls[batch], 1)
        groups = [self.counts[g] for g in ("items_visual", "items_fused", "items_pseudo")]
        out["adapter.items"] = (sum(groups) / n if st == "ok" else 0.0, "count", st)
        for g, v in zip(("visual", "fused", "pseudo"), groups):
            out[f"adapter.items_{g}"] = (v / n if st == "ok" else 0.0, "count", st)
        st = status(train)
        out["adapter.fallbacks"] = (self.counts["fallbacks"] if st == "ok" else 0.0,
                                    "count", st)

        mean("retrieval.retrieve_ms", "retrieval.retrieve_for_image", "ms", 1e3)
        per_call("retrieval.entries_returned", "retrieval.retrieve_for_image",
                 "entries_returned", "count")
        per_call("retrieval.classes_returned", "retrieval.retrieve_for_image",
                 "classes_returned", "count")
        mean("retrieval.relevance_ms", "retrieval.class_relevance_weights", "ms", 1e3)

        mean("support.add_ms", "support.add_support_image", "ms", 1e3)
        mean("support.downsample_ms", "numerics.downsample_labels", "ms", 1e3)
        mean("support.attach_text_ms", "support.attach_text", "ms", 1e3)
        per_call("support.entries", "support.add_support_image", "entries_added", "count")

        mean("fileio.load_store_s", "fileio.load_store", "s", 1.0)
        mean("fileio.save_store_s", "fileio.save_store", "s", 1.0)
        stores = self.calls["fileio.load_store"] + self.calls["fileio.save_store"]
        st = "ok" if stores else status("fileio.load_store", "fileio.save_store")
        out["fileio.store_mb"] = (self.counts["store_bytes"] / stores / 1e6 if stores else 0.0,
                                  "MB", st)
        mean("fileio.read_tensor_ms", "fileio.read_tensor", "ms", 1e3)
        mean("fileio.write_mask_ms", "fileio.write_mask", "ms", 1e3)
        mean("fileio.load_manifest_ms", "fileio.load_manifest", "ms", 1e3)

        mean("inference.predict_ms", "inference.adapted_predict", "ms", 1e3)
        mean("inference.region_pool_ms", "inference.region_pool", "ms", 1e3)
        mean("inference.decode_ms", "inference._decode", "ms", 1e3)

        mean("numerics.upsample_ms", "numerics.upsample_probs", "ms", 1e3)
        per_call("numerics.upsample_mb", "numerics.upsample_probs", "upsample_bytes",
                 "MB", 1e-6)
        mean("numerics.argmax_ms", "numerics.argmax_map", "ms", 1e3)

        mean("harness.generate_world_s", "harness.generate_world", "s", 1.0)
        mean("harness.select_support_ms", "harness.select_support", "ms", 1e3)
        mean("harness.build_store_ms", "harness.build_store", "ms", 1e3)
        mean("harness.compute_miou_ms", "harness.compute_miou", "ms", 1e3)
        mean("harness.zero_shot_ms", "harness.evaluate_zero_shot", "ms", 1e3)

        st = status("cli.main")
        out["cli.segment_self_ms"] = (
            self.self_time["cli.main"] / self.calls["cli.main"] * 1e3 if st == "ok" else 0.0,
            "ms", st)

        st = status(self.op_span)
        for layer in LAYERS:
            own = self.op_layer_self.get(layer, 0.0)
            if st == "ok" and self.op_total > 0 and own > 0:
                out[f"{layer}.share_pct"] = (100.0 * own / self.op_total, "%", "ok")
            else:
                out[f"{layer}.share_pct"] = (0.0, "%", st if st != "ok" else "unmeasured")
        return out
