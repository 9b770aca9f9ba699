"""Retrieval-augmented test-time adaptation for open-vocabulary segmentation.

Operates purely on pre-extracted dense feature maps: annotated support images
are pooled into per-class vectors, each query retrieves its nearest support
entries, and a small linear probe is trained on the fly from retrieved,
text-fused, and pseudo-pooled items before classifying the query's patches or
region proposals.
"""

import importlib

# public names resolve on first access, so importing the package (as
# `segtta.cli` does) leaves numpy unimported until the CLI has pinned BLAS threads
_EXPORTS = {name: module for module, names in (
    ("adapter", "AdapterModel TrainConfig train_adapter"),
    ("harness", "SynthConfig compute_miou generate_world run_sweep"),
    ("inference", "RegionSet SegmentationResult segment zero_shot_segment"),
    ("numerics", "IGNORE_INDEX DenseFeatureMap LabelMask ProbMap"),
    ("support", "DEFAULT_LAMBDAS SupportStore TextBank add_support_image "
                "substitute_missing_text"),
) for name in names.split()}
_SUBMODULES = {"adapter", "cli", "errors", "fileio", "harness", "inference",
               "numerics", "retrieval", "support"}

__version__ = "0.1.0"
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
