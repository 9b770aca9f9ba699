#!/usr/bin/env python3
"""Reproduce the trend curves on a synthetic feature world.

Sweeps one axis (support budget, visual-drop fraction, or text-drop
fraction), averages over several seeds, and prints a TSV table per axis.

    python scripts/run_sweep.py --seeds 8 --classes 10 --dim 16
    python scripts/run_sweep.py --axis visual_drop_fraction --points 0,0.3,0.6,0.9

Exit status: 0 success, 2 usage error, 3 invalid sweep (e.g. a drop
fraction outside [0, 1], or a support size or --budget that is not a whole
number >= 0), printed as "error: ...".
"""

import argparse
import sys

import numpy as np

from segtta.adapter import TrainConfig
from segtta.cli import config_from, positive_int
from segtta.errors import SegttaError
from segtta.harness import SWEEP_AXES, SynthConfig, generate_world, run_sweep

DEFAULT_POINTS = {
    "support_size": (1, 2, 5, 10),
    "visual_drop_fraction": (0, 0.25, 0.5, 0.75),
    "text_drop_fraction": (0, 0.25, 0.5, 0.75, 1.0),
}


def _parse_points(text: str) -> list:
    """argparse type: comma-separated numbers, as floats. run_sweep checks
    them: a support size must be a whole number (2.0 reads as 2)."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                argument_default=argparse.SUPPRESS)
    p.add_argument("--axis", choices=SWEEP_AXES + ("all",), default="all")
    p.add_argument("--points", type=_parse_points, default=None,
                   help="comma-separated axis values; default depends on axis")
    p.add_argument("--seeds", type=positive_int, default=4,
                   help="number of worlds to average over")
    # named for SynthConfig and TrainConfig fields, whose defaults apply where
    # none is given here; the world sizes differ from SynthConfig's on purpose
    p.add_argument("--classes", dest="num_classes", type=int, default=8)
    p.add_argument("--dim", type=int)
    p.add_argument("--images-per-class", dest="images_per_class", type=int, default=10)
    p.add_argument("--queries", dest="query_images", type=int, default=6)
    p.add_argument("--noise", dest="feature_noise", type=float)
    p.add_argument("--separation", dest="cluster_separation", type=float)
    p.add_argument("--misalignment", dest="text_misalignment", type=float)
    p.add_argument("--budget", type=int, default=3,
                   help="support images per class on the non-size axes")
    p.add_argument("--steps", type=positive_int)
    args = p.parse_args()
    if args.axis == "all" and args.points:
        p.error("--points requires a single --axis")
    return args


def sweep_axis(args, axis):
    points = args.points or DEFAULT_POINTS[axis]
    config = config_from(TrainConfig, args)

    acc = None
    for seed in range(args.seeds):
        world = generate_world(config_from(SynthConfig, args, seed=seed))
        rows = run_sweep(world, axis, points, config=config, budget=args.budget)
        if acc is None:
            acc = [{k: [] for k in r} for r in rows]
        for slot, r in zip(acc, rows):
            for k, v in r.items():
                slot[k].append(v)

    print(f"# axis={axis} seeds={args.seeds} classes={args.num_classes} "
          f"dim={world.config.dim} steps={config.steps}")
    cols = list(acc[0].keys())
    print("\t".join(cols))
    for slot in acc:
        cells = []
        for k in cols:
            vals = np.asarray(slot[k], dtype=np.float64)
            if k == axis:
                cells.append(f"{vals[0]:g}")
            else:
                m = np.nanmean(vals) if np.isfinite(vals).any() else float("nan")
                cells.append("nan" if np.isnan(m) else f"{m:.4f}")
        print("\t".join(cells))
    print()


def main():
    args = parse_args()
    axes = SWEEP_AXES if args.axis == "all" else (args.axis,)
    try:
        for axis in axes:
            sweep_axis(args, axis)
    except SegttaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
