"""Command line surface. One executable, subcommand per pipeline stage.

Exit codes: 0 success, 2 file format error, 3 validation error, 4 numerical
failure. A flag that sets a TrainConfig or SynthConfig field is parsed into
that field's name with no default of its own, so a flag left out keeps the
library's default. Heavy imports happen after argument parsing so --threads
can pin the BLAS pool via environment variables first.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# most characters of a --query that a not-found error repeats
QUERY_ECHO_CHARS = 64


def _parse_lambdas(text: str) -> tuple:
    """argparse type: comma-separated floats, at least one. Their range is
    checked where the store is built."""
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("must list at least one value")
    return vals


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_ids(text: str) -> tuple:
    """argparse type: comma-separated integer ids, possibly none."""
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")


def _nonempty(text: str) -> str:
    """argparse type: a string that is not empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _find_query(manifest, query: str):
    from .errors import ValidationError
    # isdecimal, not isdigit: '²' is a digit that int() rejects. int() also
    # rejects more than sys.get_int_max_str_digits() digits, which can index
    # no manifest: such a query is a name too
    try:
        index = int(query) if query.isdecimal() else None
    except ValueError:
        index = None
    if index is not None and index < len(manifest.query_images):
        return manifest.query_images[index]
    name = Path(query).name
    for ref in manifest.query_images:
        if ref.feature_file == query or Path(ref.feature_file).name == name:
            return ref
    # a long query is echoed by its head and length, so the line stays short
    shown = (repr(query) if len(query) <= QUERY_ECHO_CHARS else
             f"{query[:QUERY_ECHO_CHARS]!r}... ({len(query)} characters)")
    raise ValidationError(f"query {shown} not found in manifest")


class _Grid(argparse.Action):
    """--grid N: N patches a side, so grid_h = grid_w = N."""
    def __call__(self, parser, namespace, value, option_string=None):
        namespace.grid_h = namespace.grid_w = value


def _given(args, names) -> dict:
    """The given flags among `names`, by name: a flag left out is absent."""
    return {name: value for name, value in vars(args).items() if name in names}


def config_from(cls, args, **fixed):
    """cls, a TrainConfig or SynthConfig, of `fixed` and the flags named for its fields."""
    return cls(**fixed, **_given(args, {field.name for field in dataclasses.fields(cls)}))


def _cmd_build_support(args) -> int:
    from . import fileio
    from .support import SupportStore, add_support_image
    manifest = fileio.load_manifest(args.manifest)
    refs = manifest.support_images
    # the first support file checks the manifest's d before a (C, d) store
    # is sized from it
    first = fileio.load_support_image(manifest, refs[0]) if refs else None
    store = SupportStore.empty(manifest.num_classes, manifest.feature_dim,
                               **_given(args, {"lambdas"}))
    for i, ref in enumerate(refs):
        x, mask = first if i == 0 else fileio.load_support_image(manifest, ref)
        add_support_image(store, x, mask, ref.image_id)
    fileio.save_store(store, args.out)
    print(f"{args.out}: {store.size} entries over "
          f"{len(store.visually_supported())} classes")
    return 0


def _cmd_add_support(args) -> int:
    from . import fileio
    from .support import add_support_image
    store = fileio.load_store(args.store)
    mask = fileio.read_mask(args.mask, store.num_classes)
    x = fileio.load_feature_map(args.features, *mask.shape)
    before = store.size
    image_id = str(args.features) if args.image_id is None else args.image_id
    add_support_image(store, x, mask, image_id)
    fileio.save_store(store, args.out)
    print(f"{args.out}: {store.size} entries (+{store.size - before})")
    return 0


def _segment_query(args, decode) -> int:
    """Load one manifest query's text bank, features and region
    partition (--regions, else the query's regions_file, else None), decode
    it with decode(bank, x, regions) and write the label map."""
    from . import fileio
    manifest = fileio.load_manifest(args.manifest)
    ref = _find_query(manifest, args.query)
    # the query's file checks the manifest's d before a (C, d) bank is made
    x = fileio.load_query_features(manifest, ref)
    bank = fileio.load_text_bank(manifest)
    path = args.regions or (ref.regions_file and manifest.resolve(ref.regions_file))
    regions = fileio.read_regions(path) if path else None
    result = decode(bank, x, regions)
    fileio.write_mask(args.out, result.full_res_labels)
    print(f"{args.out}: {result.mode} mode, "
          f"{result.full_res_labels.shape[0]}x{result.full_res_labels.shape[1]}")
    return 0


def _cmd_segment(args) -> int:
    # the lambda grid is the store's, fixed by build-support --lambdas
    from .adapter import TrainConfig
    from .fileio import load_store
    from .inference import segment
    return _segment_query(args, lambda bank, x, regions: segment(
        load_store(args.store), x, bank, regions, args.unsupported,
        config_from(TrainConfig, args)))


def _cmd_zero_shot(args) -> int:
    from .adapter import TrainConfig
    from .inference import zero_shot_segment
    return _segment_query(args, lambda bank, x, regions: zero_shot_segment(
        x, bank, config_from(TrainConfig, args).tau, regions))


def _cmd_eval(args) -> int:
    from . import fileio
    from .errors import ValidationError
    from .harness import compute_miou
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    files = sorted(p.name for p in pred_dir.glob("*.rnsm"))
    if not files:
        raise ValidationError(f"no .rnsm files in {pred_dir}")
    ignore = _given(args, {"ignore_index"})
    preds, gts = [], []
    for name in files:
        preds.append(fileio.read_mask(pred_dir / name, args.classes, **ignore))
        gts.append(fileio.read_mask(gt_dir / name, args.classes, **ignore))
    report = compute_miou(preds, gts, args.classes, **ignore)
    per_class = [None if not ev else round(float(v), 6)
                 for v, ev in zip(report.per_class_iou, report.evaluated)]
    # no evaluated class gives a NaN mean, which JSON cannot hold
    mean = None if not report.evaluated.any() else round(report.mean_iou, 6)
    print(json.dumps({"num_images": len(files), "per_class_iou": per_class,
                      "mean_iou": mean}, indent=2))
    return 0


def _cmd_synth(args) -> int:
    import numpy as np
    from . import fileio
    from .errors import MissingFile
    from .harness import SynthConfig, generate_world
    cfg = config_from(SynthConfig, args)
    world = generate_world(cfg)
    out = Path(args.out)
    for sub in ("text", "support", "query", "gt"):
        try:
            (out / sub).mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as e:
            raise MissingFile(f"{out / sub}: {e.strerror}") from e

    classes = []
    for c in range(cfg.num_classes):
        ref = None
        if world.bank.present[c]:
            ref = f"text/c{c:03d}.rnsf"
            fileio.write_tensor(out / ref, world.bank.features[c])
        classes.append({"id": c, "name": f"class_{c}", "text_feature_ref": ref})

    support = []
    for s in world.support:
        fstem = f"support/{s.image_id}"
        x = s.features
        fileio.write_tensor(out / f"{fstem}.rnsf",
                            np.asarray(x.data, dtype=np.float32)
                            .reshape(x.grid_h, x.grid_w, x.dim))
        fileio.write_mask(out / f"{fstem}.rnsm", s.mask)
        support.append({"feature_file": f"{fstem}.rnsf",
                        "mask_file": f"{fstem}.rnsm", "image_id": s.image_id})

    queries = []
    for i, q in enumerate(world.queries):
        x = q.features
        fileio.write_tensor(out / f"query/q{i:03d}.rnsf",
                            np.asarray(x.data, dtype=np.float32)
                            .reshape(x.grid_h, x.grid_w, x.dim))
        fileio.write_mask(out / f"gt/q{i:03d}.rnsm", q.gt)
        queries.append({"feature_file": f"query/q{i:03d}.rnsf",
                        "mask_file": f"gt/q{i:03d}.rnsm",
                        "image_h": x.image_h, "image_w": x.image_w})

    manifest = {"feature_dim": cfg.dim, "classes": classes,
                "support_images": support, "query_images": queries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"{out}: {len(support)} support, {len(queries)} queries, "
          f"C={cfg.num_classes}, d={cfg.dim}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="segtta",
                                description="Retrieval-adapted open-vocabulary "
                                            "segmentation over dense features")
    # a flag with no default of its own is absent from args when left out
    sub = p.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, argument_default=argparse.SUPPRESS))

    b = sub.add_parser("build-support", help="pool a manifest's annotated images "
                                             "into a support store")
    b.add_argument("--manifest", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--lambdas", type=_parse_lambdas,
                   help="comma-separated mixing coefficients, default support.DEFAULT_LAMBDAS")
    b.set_defaults(func=_cmd_build_support)

    a = sub.add_parser("add-support", help="pool one more annotated image into "
                                           "an existing store")
    a.add_argument("--store", required=True)
    a.add_argument("--features", required=True)
    a.add_argument("--mask", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--image-id", type=_nonempty, default=None)
    a.set_defaults(func=_cmd_add_support)

    s = sub.add_parser("segment", help="adapt on one query and write its label map")
    s.add_argument("--store", required=True)
    s.add_argument("--manifest", required=True)
    s.add_argument("--query", required=True,
                   help="query feature file (path, basename, or index)")
    s.add_argument("--regions", default=None,
                   help="region partition file; overrides the manifest entry")
    s.add_argument("--unsupported", type=_parse_ids, default=(),
                   help="comma-separated class ids to treat as lacking visual "
                        "support")
    s.add_argument("--out", required=True)
    s.add_argument("--k", type=int)
    s.add_argument("--steps", type=int)
    s.add_argument("--lr", dest="learning_rate", type=float)
    s.add_argument("--tau", type=float)
    s.add_argument("--beta-f", dest="beta_f", type=float)
    s.add_argument("--beta-p", dest="beta_p", type=float)
    s.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored; the solver is deterministic")
    s.add_argument("--threads", type=positive_int,
                   help="pin BLAS/OpenMP thread count")
    s.set_defaults(func=_cmd_segment)

    z = sub.add_parser("zero-shot", help="text-only segmentation of one query")
    z.add_argument("--manifest", required=True)
    z.add_argument("--query", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--tau", type=float)
    # the manifest's regions_file still applies; there is no --regions here
    z.set_defaults(func=_cmd_zero_shot, regions=None)

    e = sub.add_parser("eval", help="per-class IoU of predictions vs ground truth")
    e.add_argument("--pred-dir", required=True)
    e.add_argument("--gt-dir", required=True)
    e.add_argument("--classes", type=positive_int, required=True)
    e.add_argument("--ignore", dest="ignore_index", type=int)
    e.set_defaults(func=_cmd_eval)

    y = sub.add_parser("synth", help="generate a synthetic feature world on disk")
    y.add_argument("--seed", type=int)
    y.add_argument("--classes", dest="num_classes", type=int)
    y.add_argument("--dim", type=int)
    y.add_argument("--images-per-class", dest="images_per_class", type=int)
    y.add_argument("--out", required=True)
    y.add_argument("--grid", type=int, action=_Grid)
    y.add_argument("--noise", dest="feature_noise", type=float)
    y.add_argument("--separation", dest="cluster_separation", type=float)
    y.add_argument("--misalignment", dest="text_misalignment", type=float)
    y.add_argument("--queries", dest="query_images", type=int)
    y.add_argument("--drop-visual", dest="fraction_without_visual", type=float)
    y.add_argument("--drop-text", dest="fraction_without_text", type=float)
    y.set_defaults(func=_cmd_synth)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None:
        for var in THREAD_VARS:
            os.environ[var] = str(threads)
    from .errors import FormatError, NumericalError, ValidationError
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
