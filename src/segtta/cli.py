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


def _parse_lambdas(text: str) -> tuple:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise SystemExit(f"error: bad --lambdas value {text!r}")
    if not vals:
        raise SystemExit("error: --lambdas must list at least one value")
    return vals


def _parse_ids(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _find_query(manifest, query: str):
    from .errors import ValidationError
    if query.isdigit() and int(query) < len(manifest.query_images):
        return manifest.query_images[int(query)]
    name = Path(query).name
    for ref in manifest.query_images:
        if ref.feature_file == query or Path(ref.feature_file).name == name:
            return ref
    raise ValidationError(f"query {query!r} not found in manifest")


def _train_config(args):
    from .adapter import TrainConfig
    kw = {}
    for flag, field_name in (("k", "k"), ("steps", "steps"), ("lr", "learning_rate"),
                             ("tau", "tau"), ("beta_f", "beta_f"),
                             ("beta_p", "beta_p"), ("lambdas", "lambdas")):
        val = getattr(args, flag, None)
        if val is not None:
            kw[field_name] = _parse_lambdas(val) if flag == "lambdas" else val
    return TrainConfig(**kw)


def _cmd_build_support(args) -> int:
    from . import fileio
    from .support import DEFAULT_LAMBDAS, SupportStore, add_support_image
    manifest = fileio.load_manifest(args.manifest)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else DEFAULT_LAMBDAS
    store = SupportStore.empty(manifest.num_classes, manifest.feature_dim, lambdas)
    for ref in manifest.support_images:
        x, mask = fileio.load_support_image(manifest, ref)
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
    add_support_image(store, x, mask, args.image_id or str(args.features))
    fileio.save_store(store, args.out)
    print(f"{args.out}: {store.size} entries (+{store.size - before})")
    return 0


def _cmd_segment(args) -> int:
    from . import fileio
    from .inference import segment
    from .support import substitute_missing_text
    manifest = fileio.load_manifest(args.manifest)
    bank = substitute_missing_text(fileio.load_text_bank(manifest))
    store = fileio.load_store(args.store)
    ref = _find_query(manifest, args.query)
    x = fileio.load_query_features(manifest, ref)
    regions = None
    if args.regions:
        regions = fileio.read_regions(args.regions)
    elif ref.regions_file:
        regions = fileio.read_regions(manifest.resolve(ref.regions_file))
    result = segment(store, x, bank, regions=regions,
                     unsupported=_parse_ids(args.unsupported),
                     config=_train_config(args))
    fileio.write_mask(args.out, result.full_res_labels)
    print(f"{args.out}: {result.mode} mode, "
          f"{result.full_res_labels.shape[0]}x{result.full_res_labels.shape[1]}")
    return 0


def _cmd_zero_shot(args) -> int:
    from . import fileio
    from .inference import zero_shot_segment
    from .support import substitute_missing_text
    manifest = fileio.load_manifest(args.manifest)
    bank = substitute_missing_text(fileio.load_text_bank(manifest))
    ref = _find_query(manifest, args.query)
    x = fileio.load_query_features(manifest, ref)
    result = zero_shot_segment(x, bank, args.tau)
    fileio.write_mask(args.out, result.full_res_labels)
    print(f"{args.out}: zero-shot, "
          f"{result.full_res_labels.shape[0]}x{result.full_res_labels.shape[1]}")
    return 0


def _cmd_eval(args) -> int:
    from . import fileio
    from .errors import MissingFile, ValidationError
    from .harness import compute_miou
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    files = sorted(p.name for p in pred_dir.glob("*.rnsm"))
    if not files:
        raise ValidationError(f"no .rnsm files in {pred_dir}")
    preds, gts = [], []
    for name in files:
        gt_path = gt_dir / name
        if not gt_path.is_file():
            raise MissingFile(str(gt_path))
        preds.append(fileio.read_mask(pred_dir / name, args.classes, args.ignore))
        gts.append(fileio.read_mask(gt_path, args.classes, args.ignore))
    report = compute_miou(preds, gts, args.classes, args.ignore)
    per_class = [None if not ev else round(float(v), 6)
                 for v, ev in zip(report.per_class_iou, report.evaluated)]
    print(json.dumps({"num_images": len(files), "per_class_iou": per_class,
                      "mean_iou": round(report.mean_iou, 6)}, indent=2))
    return 0


def _cmd_synth(args) -> int:
    import numpy as np
    from . import fileio
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
        (out / sub).mkdir(parents=True, exist_ok=True)

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
    b.add_argument("--lambdas", default=None,
                   help="comma-separated mixing coefficients, default "
                        "0.9,0.8,0.6,0.4,0.2,0.0")
    b.set_defaults(func=_cmd_build_support)

    a = sub.add_parser("add-support", help="pool one more annotated image into "
                                           "an existing store")
    a.add_argument("--store", required=True)
    a.add_argument("--features", required=True)
    a.add_argument("--mask", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--image-id", default=None)
    a.set_defaults(func=_cmd_add_support)

    s = sub.add_parser("segment", help="adapt on one query and write its label map")
    s.add_argument("--store", required=True)
    s.add_argument("--manifest", required=True)
    s.add_argument("--query", required=True,
                   help="query feature file (path, basename, or index)")
    s.add_argument("--regions", default=None,
                   help="region partition file; overrides the manifest entry")
    s.add_argument("--unsupported", default="",
                   help="comma-separated class ids to treat as lacking visual "
                        "support")
    s.add_argument("--out", required=True)
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--steps", type=int, default=700)
    s.add_argument("--lr", type=float, default=0.02)
    s.add_argument("--tau", type=float, default=0.1)
    s.add_argument("--beta-f", dest="beta_f", type=float, default=1.5)
    s.add_argument("--beta-p", dest="beta_p", type=float, default=0.2)
    s.add_argument("--lambdas", default=None)
    s.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored; the solver is deterministic")
    s.add_argument("--threads", type=int, default=None,
                   help="pin BLAS/OpenMP thread count")
    s.set_defaults(func=_cmd_segment)

    z = sub.add_parser("zero-shot", help="text-only segmentation of one query")
    z.add_argument("--manifest", required=True)
    z.add_argument("--query", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--tau", type=float, default=0.1)
    z.set_defaults(func=_cmd_zero_shot)

    e = sub.add_parser("eval", help="per-class IoU of predictions vs ground truth")
    e.add_argument("--pred-dir", required=True)
    e.add_argument("--gt-dir", required=True)
    e.add_argument("--classes", type=int, required=True)
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
    if threads:
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
