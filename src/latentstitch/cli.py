"""Command-line interface.

Subcommands: synth-gen, fit-map, stitch-grid, train-probe, probe-suite,
dynamics, fid, rmse. Exit codes: 0 success, 1 config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .data import align, read_attribute_table, read_latents, rows_of, split_ids
from .errors import ConfigError, DataError, NumericalError
from .mapfit import apply_map, latent_mse, save_map
from .metrics import fid, pixel_rmse, summarize
from .pipeline import (
    ExperimentConfig,
    draw_subsets,
    emit_csv,
    fit_pair_map,
    load_config,
    resolve_map_alpha,
    resolve_probe_alpha,
    run_dynamics,
    run_probe_suite,
    run_stitch_grid,
    select_attributes,
    train_probe,
    validate_paths,
)
from .probes import save_probe
from .synth import SynthModelSpec, emit_datasets, gen_world, spec_from_string, spec_to_string


def _common_flags(parser: argparse.ArgumentParser, config=True, threads=True) -> None:
    if config:
        parser.add_argument("--config", type=Path, required=True,
                            help="line-oriented key=value experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    if threads:
        parser.add_argument("--threads", type=int, default=1, help="worker threads for grid cells")


def _check_common(args) -> None:
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    if getattr(args, "threads", 1) < 1:
        raise ConfigError("--threads must be >= 1")
    if getattr(args, "alpha", None) is not None and args.alpha < 0:
        raise ConfigError("--alpha must be >= 0")
    if getattr(args, "probe_alpha", None) is not None and args.probe_alpha < 0:
        raise ConfigError("--probe-alpha must be >= 0")


def _load(args) -> ExperimentConfig:
    _check_common(args)
    if not args.config.is_file():
        raise ConfigError(f"config file not found: {args.config}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _cmd_synth_gen(args) -> int:
    _check_common(args)
    seed = args.seed if args.seed is not None else 0
    world = gen_world(args.n, args.k, args.dpix, seed=seed, squash=args.squash)
    if args.model:
        specs = []
        for item in args.model:
            model_id, eq, text = item.partition("=")
            if not eq:
                raise ConfigError(f"--model expects ID=KIND:K=V,..., got {item!r}")
            specs.append(spec_from_string(model_id, text))
    else:
        specs = [
            SynthModelSpec(model_id="orthA", kind="orthogonal", d=args.dpix,
                           seed=seed + 1, d_pix=args.dpix),
            SynthModelSpec(model_id="orthB", kind="orthogonal", d=args.dpix,
                           seed=seed + 2, d_pix=args.dpix),
            SynthModelSpec(model_id="lossy", kind="lossy", d=max(args.k, args.dpix // 4),
                           seed=seed + 3, rank=max(1, args.k // 2), d_pix=args.dpix),
            SynthModelSpec(model_id="rand", kind="random", d=512, seed=seed + 4),
            SynthModelSpec(model_id="noise", kind="noising", d=args.dpix,
                           seed=seed + 5, t=args.noise_t, d_pix=args.dpix),
        ]
    paths = emit_datasets(world, specs, args.out)
    n_holdout = min(200, max(1, world.n // 10))
    n_train = world.n - n_holdout
    lines = [
        "# generated by latentstitch synth-gen",
        f"seed = {seed}",
        f"pixels = {paths['pixels'].name}",
        f"attributes = {paths['attributes'].name}",
        f"split.train = {n_train}",
        f"split.holdout = {n_holdout}",
    ]
    for spec in specs:
        lines.append(f"model.{spec.model_id}.latents = {paths[spec.model_id].name}")
        lines.append(f"model.{spec.model_id}.synth = {spec_to_string(spec)}")
        lines.append(f"probe_alpha.{spec.model_id} = {args.probe_alpha}")
    config_path = Path(args.out) / "experiment.cfg"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"world: n={world.n} k={world.k} d_pix={world.d_pix} seed={seed}")
    print(f"wrote {len(specs)} latent files, pixels, attributes, manifest to {args.out}")
    print(f"config: {config_path}")
    return 0


def _cmd_fit_map(args) -> int:
    cfg = _load(args)
    validate_paths(cfg)
    src = read_latents(cfg.entry(args.src).latents_path)
    dst = read_latents(cfg.entry(args.dst).latents_path)
    alpha = args.alpha if args.alpha is not None else resolve_map_alpha(cfg, args.src, args.dst)
    split = split_ids(src, cfg.split)
    m = fit_pair_map(src, dst, alpha, split[0])
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.src}__{args.dst}.lmap"
    save_map(m, path)
    train_mse, hold_mse = (
        latent_mse(apply_map(m, src.X[rows_of(src, ids)]), dst.X[rows_of(dst, ids)]) for ids in split
    )
    print(f"map {args.src}->{args.dst} alpha={alpha:.9g} -> {path}")
    print(f"latent mse: train={train_mse:.9g} holdout={hold_mse:.9g}")
    return 0


def _cmd_stitch_grid(args) -> int:
    cfg = _load(args)
    result = run_stitch_grid(cfg, args.out, threads=args.threads)
    for name in sorted(result.grids):
        print(f"wrote {args.out / (name + '.csv')}")
    if result.errors:
        print(f"{len(result.errors)} cell error(s); see {args.out / 'cell_errors.txt'}",
              file=sys.stderr)
    return 0


def _cmd_train_probe(args) -> int:
    cfg = _load(args)
    validate_paths(cfg, need_attributes=True)
    ds = read_latents(cfg.entry(args.model).latents_path)
    table = read_attribute_table(cfg.attributes_path)
    select_attributes(table, [args.attribute], source="--attribute")
    alpha = args.alpha if args.alpha is not None else resolve_probe_alpha(cfg, args.model)
    split = split_ids(ds, cfg.split)
    subsets = draw_subsets(table, args.attribute, split, cfg.seed)
    probe, acc = train_probe(ds, split, subsets, args.attribute, alpha, args.model,
                             standardize=args.standardize, tol=args.tol, max_iter=args.max_iter)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.model}__{args.attribute}.lprb"
    save_probe(probe, path)
    print(f"probe {args.model}/{args.attribute} alpha={alpha:.9g} "
          f"train_n_per_class={subsets[0].per_class} holdout_accuracy={acc:.9g} -> {path}")
    return 0


def _cmd_probe_suite(args) -> int:
    cfg = _load(args)
    result = run_probe_suite(cfg, args.out, threads=args.threads, standardize=args.standardize)
    for name in ("probe_report", "probe_accuracy_grid", "match_grid", "delta_grid"):
        print(f"wrote {args.out / (name + '.csv')}")
    if result.errors:
        print(f"{len(result.errors)} suite error(s); see {args.out / 'suite_errors.txt'}",
              file=sys.stderr)
    return 0


def _cmd_dynamics(args) -> int:
    cfg = _load(args)
    labels = [s.strip() for s in args.labels.split(",")] if args.labels else None
    series = run_dynamics(cfg, args.checkpoints, labels=labels, standardize=args.standardize)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "dynamics.csv"
    emit_csv(series, path)
    for attr, p in zip(series.attributes, series.plateau_indices):
        print(f"{attr}: plateau at checkpoint {series.checkpoint_labels[p]}")
    print(f"wrote {path}")
    return 0


def _cmd_fid(args) -> int:
    p = summarize(read_latents(args.features_a).X)
    q = summarize(read_latents(args.features_b).X)
    value = fid(p, q)
    print(f"{value:.9g}")
    return 0


def _cmd_rmse(args) -> int:
    a = read_latents(args.pixels_a)
    b = read_latents(args.pixels_b)
    print(f"{pixel_rmse(a, b, rows=align(a, b, as_rows=True)):.9g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentstitch",
        description="Latent-space stitching maps, attribute probes and similarity metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic world with known ground truth")
    _common_flags(p, config=False, threads=False)
    p.add_argument("--n", type=int, default=2200, help="number of samples")
    p.add_argument("--k", type=int, default=8, help="number of ground-truth factors")
    p.add_argument("--dpix", type=int, default=256, help="flattened pixel dimension")
    p.add_argument("--squash", choices=("affine", "sigmoid"), default="affine")
    p.add_argument("--noise-t", type=int, default=25, help="timestep of the default noising model")
    p.add_argument("--probe-alpha", type=float, default=0.001,
                   help="probe lasso strength written into the generated config")
    p.add_argument("--model", action="append", metavar="ID=KIND:K=V,...",
                   help="explicit model spec (repeatable), e.g. enc=orthogonal:seed=7,d=256")
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("fit-map", help="fit one stitching map between two configured models")
    _common_flags(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="ridge strength; defaults to the config or roster value for the pair")
    p.set_defaults(func=_cmd_fit_map)

    p = sub.add_parser("stitch-grid", help="latent MSE / pixel RMSE / FID over all ordered pairs")
    _common_flags(p)
    p.set_defaults(func=_cmd_stitch_grid)

    p = sub.add_parser("train-probe", help="train one lasso probe")
    _common_flags(p, threads=False)
    p.add_argument("--model", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--standardize", action="store_true",
                   help="standardize features before fitting (off by default)")
    p.set_defaults(func=_cmd_train_probe)

    p = sub.add_parser("probe-suite", help="probe accuracy, match%% and accuracy-delta grids")
    _common_flags(p)
    p.add_argument("--standardize", action="store_true")
    p.set_defaults(func=_cmd_probe_suite)

    p = sub.add_parser("dynamics", help="probe accuracy across training checkpoints")
    _common_flags(p)
    p.add_argument("--checkpoints", nargs="+", required=True, type=Path,
                   help="checkpoint latent files ordered by epoch")
    p.add_argument("--labels", default=None, help="comma-separated checkpoint labels")
    p.add_argument("--standardize", action="store_true")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("fid", help="Frechet distance between two LSF feature files")
    p.add_argument("features_a", type=Path)
    p.add_argument("features_b", type=Path)
    p.set_defaults(func=_cmd_fid)

    p = sub.add_parser("rmse", help="pixel RMSE between two id-aligned LSF files")
    p.add_argument("pixels_a", type=Path)
    p.add_argument("pixels_b", type=Path)
    p.set_defaults(func=_cmd_rmse)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
