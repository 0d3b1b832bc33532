#!/usr/bin/env python3
"""End-to-end experiment on the synthetic harness.

Generates a factor world with the default five-model roster, runs the full
stitching grid and probe suite, then emulates a training-dynamics run with a
sequence of progressively-less-noised encoders. Everything lands under --out
as CSV grids plus serialized maps, probes and latents.

Usage:
    python scripts/run_synth_experiment.py --out runs/demo --seed 7
"""

import argparse
import sys
from pathlib import Path

from latentstitch import cli
from latentstitch.pipeline import read_csv_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=2200)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--dpix", type=int, default=256)
    args = parser.parse_args()

    out = args.out
    data_dir = out / "data"
    rc = cli.main([
        "synth-gen", "--out", str(data_dir), "--seed", str(args.seed),
        "--n", str(args.n), "--k", str(args.k), "--dpix", str(args.dpix),
    ])
    if rc != 0:
        return rc
    config = str(data_dir / "experiment.cfg")

    rc = cli.main(["stitch-grid", "--config", config, "--out", str(out / "grid")])
    if rc != 0:
        return rc
    rc = cli.main(["probe-suite", "--config", config, "--out", str(out / "suite")])
    if rc != 0:
        return rc

    # mock training trajectory: noise level falls as "epochs" progress, so
    # probe accuracy rises and then plateaus once the encoder stops changing
    ckpt_dir = out / "checkpoints"
    timesteps = [50, 30, 15, 5, 0, 0]
    ckpts = []
    for epoch, t in enumerate(timesteps, start=1):
        path = data_dir / f"ckpt_epoch{epoch}.lsf"
        rc = cli.main([
            "synth-gen", "--out", str(ckpt_dir / f"e{epoch}"), "--seed", str(args.seed),
            "--n", str(args.n), "--k", str(args.k), "--dpix", str(args.dpix),
            "--model", f"nf=noising:seed={args.seed + 99},d={args.dpix},t={t}",
        ])
        if rc != 0:
            return rc
        (ckpt_dir / f"e{epoch}" / "nf.lsf").replace(path)
        ckpts.append(str(path))
    rc = cli.main([
        "dynamics", "--config", config, "--out", str(out / "dynamics"),
        "--checkpoints", *ckpts,
        "--labels", ",".join(str(5 * i + 1) for i in range(len(timesteps))),
    ])
    if rc != 0:
        return rc

    mse = read_csv_grid(out / "grid" / "latent_mse.csv")
    best = min(
        (mse.get(s, d), s, d)
        for s in mse.row_ids for d in mse.col_ids
        if s != d and mse.get(s, d) == mse.get(s, d)
    )
    print()
    print(f"best off-diagonal stitch: {best[1]} -> {best[2]} (latent mse {best[0]:.3e})")
    print(f"reports under {out}/grid, {out}/suite, {out}/dynamics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
