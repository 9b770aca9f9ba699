"""Command line surface. One executable, subcommand per pipeline stage.

Exit codes: 0 success, 2 file format error, 3 validation error, 4 numerical
failure. Numeric flag defaults are the method's fixed hyperparameters.
Heavy imports happen after argument parsing so --threads can pin the BLAS
pool via environment variables first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


def _train_config(args):
    # the lambda grid is the store's, fixed by build-support --lambdas
    from .adapter import TrainConfig
    return TrainConfig(k=args.k, steps=args.steps, learning_rate=args.lr,
                       tau=args.tau, beta_f=args.beta_f, beta_p=args.beta_p)


def _cmd_build_support(args) -> int:
    from . import fileio
    from .support import DEFAULT_LAMBDAS, SupportStore, add_support_image
    manifest = fileio.load_manifest(args.manifest)
    refs = manifest.support_images
    # the first support file checks the manifest's d before a (C, d) store
    # is sized from it
    first = fileio.load_support_image(manifest, refs[0]) if refs else None
    store = SupportStore.empty(manifest.num_classes, manifest.feature_dim,
                               args.lambdas or DEFAULT_LAMBDAS)
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
    from .fileio import load_store
    from .inference import segment
    return _segment_query(args, lambda bank, x, regions: segment(
        load_store(args.store), x, bank, regions, args.unsupported,
        _train_config(args)))


def _cmd_zero_shot(args) -> int:
    from .inference import zero_shot_segment
    return _segment_query(args, lambda bank, x, regions: zero_shot_segment(
        x, bank, args.tau, regions))


def _cmd_eval(args) -> int:
    from . import fileio
    from .errors import ValidationError
    from .harness import compute_miou
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    files = sorted(p.name for p in pred_dir.glob("*.rnsm"))
    if not files:
        raise ValidationError(f"no .rnsm files in {pred_dir}")
    preds, gts = [], []
    for name in files:
        preds.append(fileio.read_mask(pred_dir / name, args.classes, args.ignore))
        gts.append(fileio.read_mask(gt_dir / name, args.classes, args.ignore))
    report = compute_miou(preds, gts, args.classes, args.ignore)
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
    cfg = SynthConfig(seed=args.seed, num_classes=args.classes, dim=args.dim,
                      images_per_class=args.images_per_class,
                      cluster_separation=args.separation,
                      feature_noise=args.noise,
                      text_misalignment=args.misalignment,
                      grid_h=args.grid, grid_w=args.grid,
                      fraction_without_visual=args.drop_visual,
                      fraction_without_text=args.drop_text,
                      query_images=args.queries)
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
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-support", help="pool a manifest's annotated images "
                                             "into a support store")
    b.add_argument("--manifest", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--lambdas", type=_parse_lambdas, default=None,
                   help="comma-separated mixing coefficients, default "
                        "0.9,0.8,0.6,0.4,0.2,0.0")
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
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--steps", type=int, default=700)
    s.add_argument("--lr", type=float, default=0.02)
    s.add_argument("--tau", type=float, default=0.1)
    s.add_argument("--beta-f", dest="beta_f", type=float, default=1.5)
    s.add_argument("--beta-p", dest="beta_p", type=float, default=0.2)
    s.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored; the solver is deterministic")
    s.add_argument("--threads", type=positive_int, default=None,
                   help="pin BLAS/OpenMP thread count")
    s.set_defaults(func=_cmd_segment)

    z = sub.add_parser("zero-shot", help="text-only segmentation of one query")
    z.add_argument("--manifest", required=True)
    z.add_argument("--query", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--tau", type=float, default=0.1)
    # the manifest's regions_file still applies; there is no --regions here
    z.set_defaults(func=_cmd_zero_shot, regions=None)

    e = sub.add_parser("eval", help="per-class IoU of predictions vs ground truth")
    e.add_argument("--pred-dir", required=True)
    e.add_argument("--gt-dir", required=True)
    e.add_argument("--classes", type=positive_int, required=True)
    e.add_argument("--ignore", type=int, default=65535)
    e.set_defaults(func=_cmd_eval)

    y = sub.add_parser("synth", help="generate a synthetic feature world on disk")
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--classes", type=int, default=6)
    y.add_argument("--dim", type=int, default=16)
    y.add_argument("--images-per-class", type=int, default=3)
    y.add_argument("--out", required=True)
    y.add_argument("--grid", type=int, default=8)
    y.add_argument("--noise", type=float, default=0.15)
    y.add_argument("--separation", type=float, default=0.7853981633974483)
    y.add_argument("--misalignment", type=float, default=0.3)
    y.add_argument("--queries", type=int, default=4)
    y.add_argument("--drop-visual", type=float, default=0.0)
    y.add_argument("--drop-text", type=float, default=0.0)
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
