"""The three benchmark workloads: inputs, timed commands and output checks.

Every workload is a closed loop of one client: a fixed sequence of
``latentstitch`` commands, each started after the previous one exits. The
benchmark seed picks one of `WORLDS` synthetic worlds, so that every run
can also be compared with outputs recorded from the seed code
(``reference.json``, written by ``record_reference.py``). The demo always
uses the README's world: its lasso cost depends on the data (probe-suite
takes 5.6 s to 10.3 s across worlds 0-9 on one core), which would swamp
any change under test, while the dense linear algebra of the other two
workloads costs the same on every world.

Values are compared with the reference only where the answer is well posed:
ridge cells, and unregularized cells whose source design has full column
rank (random and noising encoders). Orthogonal and lossy latents live in a
rank-k subspace plus float32 rounding, so their unregularized fits depend
on how a solver treats that rounding; those cells get the ground-truth and
structural checks only.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Number of distinct synthetic worlds; the benchmark seed is taken modulo it.
WORLDS = 16

# Tolerances against the recorded seed outputs. Loose enough for planned
# numeric changes, tight enough to catch a wrong answer: dropping FID's
# 1e-6 ridge moves the n < d grid FIDs by up to 2.5e-4 relative (measured on
# demo and paper-shape), and a faster lasso reaches the same KKT tolerance
# but may flip a sample or two near the threshold.
GRID_RTOL = 1e-4         # latent MSE and pixel RMSE cells
GRID_FID_RTOL = 1e-3
GRID_ATOL_SCALE = 1e-6   # times the largest compared value of the grid
ACCURACY_ATOL = 0.03     # probe and dynamics accuracy (fraction)
MATCH_ATOL = 3.0         # match percentage points
DELTA_ATOL = 5.0         # accuracy-delta percentage points
RMSE_RTOL = 1e-6
FID_RTOL = 1e-4


@dataclass
class Outcome:
    """One finished child process."""

    args: list
    mode: str
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    import_s: float | None = None


class Checks:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def operations(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures)

    def close(self, key: str, value: float, ref: float, rtol=0.0, atol=0.0) -> None:
        ok = math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)
        self.expect(ok, f"{key}: {value!r} differs from the recorded {ref!r}")


@dataclass
class Workload:
    name: str
    why: str
    sizes: str
    setup: Callable       # (data_dir, world, run(args, mode="cli")) -> None
    commands: Callable    # (data_dir, out_dir) -> [(metric, cli args)]
    check: Callable       # (data_dir, out_dir, outcomes, checks) -> compared values
    busy: tuple           # per-layer metrics that must be > 0 in a traced run
    idle: tuple           # per-layer metrics that must be 0 in a traced run
    fixed_world: int | None = None

    def worlds(self) -> list[int]:
        return [self.fixed_world] if self.fixed_world is not None else list(range(WORLDS))

    def world(self, seed: int) -> int:
        return self.fixed_world if self.fixed_world is not None else seed % WORLDS


# --- reading outputs -----------------------------------------------------------


def read_grid(path) -> dict:
    """CSV grid -> {(row, col): float}; empty cells are NaN."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    cols = rows[0][1:]
    return {(r[0], c): (float(v) if v else math.nan) for r in rows[1:] for c, v in zip(cols, r[1:])}


def _error_lines(path) -> list[str]:
    if not path.is_file():
        return []
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def _read_lmap_header(path):
    with open(path, "rb") as f:
        if f.read(4) != b"LMAP":
            return None
        f.read(4)
        names = []
        for _ in range(2):
            (length,) = struct.unpack("<H", f.read(2))
            names.append(f.read(length).decode("utf-8"))
        alpha, d_in, d_out = struct.unpack("<dII", f.read(16))
    return names[0], names[1], alpha, d_in, d_out


def _model_kinds(config_path) -> dict:
    kinds = {}
    for line in Path(config_path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        parts = key.strip().split(".")
        if len(parts) == 3 and parts[0] == "model" and parts[2] == "synth":
            kinds[parts[1]] = value.strip().split(":")[0]
    return kinds


def _well_posed(src, dst, kinds, ridge_pairs) -> bool:
    return src == dst or (src, dst) in ridge_pairs or kinds[src] in ("random", "noising")


def _commands_ok(outcomes, checks) -> None:
    checks.operations(len(outcomes), [
        f"{name}: exit code {o.returncode}: {o.stderr.strip()[-300:]}"
        for name, o in outcomes.items() if o.returncode != 0
    ])


def _stitch_grid_values(out, kinds, ridge_pairs, decoders, checks, values) -> dict:
    """Check the stitch-grid outputs in ``out``; add compared cells to values."""
    ids = list(kinds)
    checks.operations(len(ids) ** 2, _error_lines(out / "cell_errors.txt"))
    grids = {}
    for name in ("latent_mse", "pixel_rmse", "fid"):
        path = out / f"{name}.csv"
        if not checks.expect(path.is_file(), f"missing {path.name}"):
            continue
        grid = grids[name] = read_grid(path)
        for src in ids:
            for dst in ids:
                v = grid.get((src, dst), math.nan)
                present = name == "latent_mse" or dst in decoders
                if not checks.expect(math.isfinite(v) == present and not v < 0,
                                     f"{name} {src}->{dst} = {v!r}"):
                    continue
                if present and _well_posed(src, dst, kinds, ridge_pairs):
                    values[f"{name}/{src}/{dst}"] = v
    for src in ids:
        for dst in ids:
            checks.expect((out / "maps" / f"{src}__{dst}.lmap").is_file(),
                          f"missing map {src}__{dst}.lmap")
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    values["fid_n"] = sorted(set(meta["fid_n"].values()))
    return grids


def compare(values: dict, reference: dict | None, checks: Checks) -> None:
    """Compare extracted values with the recorded seed outputs."""
    if not checks.expect(reference is not None, "no recorded reference for this world"):
        return
    checks.expect(sorted(values) == sorted(reference),
                  f"compared values {sorted(set(values) ^ set(reference))[:5]} differ in presence")
    scale: dict[str, float] = {}
    for key, ref in reference.items():
        if isinstance(ref, float):
            group = key.split("/")[0]
            scale[group] = max(scale.get(group, 0.0), abs(ref))
    for key, ref in reference.items():
        value = values.get(key)
        if value is None:
            continue
        group = key.split("/")[0]
        if not isinstance(ref, float):
            checks.expect(value == ref, f"{key}: {value!r} differs from the recorded {ref!r}")
        elif group in ("latent_mse", "pixel_rmse", "fid"):
            rtol = GRID_FID_RTOL if group == "fid" else GRID_RTOL
            checks.close(key, value, ref, rtol, GRID_ATOL_SCALE * scale[group])
        elif group in ("probe_accuracy", "dynamics"):
            checks.close(key, value, ref, atol=ACCURACY_ATOL)
        elif group == "match":
            checks.close(key, value, ref, atol=MATCH_ATOL)
        elif group == "delta":
            checks.close(key, value, ref, atol=DELTA_ATOL)
        elif group == "fit_map":
            checks.close(key, value, ref, rtol=GRID_RTOL)
        elif group == "rmse":
            checks.close(key, value, ref, rtol=RMSE_RTOL)
        elif group == "fid_cmd":
            checks.close(key, value, ref, rtol=FID_RTOL)
        else:
            checks.expect(False, f"{key}: no tolerance defined")


# --- demo: the README quickstart and scripts/run_synth_experiment.py -----------

DEMO_TIMESTEPS = (50, 30, 15, 5, 0, 0)
DEMO_SIZE = ["--n", "2200", "--k", "8", "--dpix", "256"]


def _demo_setup(data, world, run):
    run(["synth-gen", "--out", str(data), "--seed", str(world), *DEMO_SIZE])
    for epoch, t in enumerate(DEMO_TIMESTEPS, start=1):
        ckpt = data / "ckpt" / f"e{epoch}"
        run(["synth-gen", "--out", str(ckpt), "--seed", str(world), *DEMO_SIZE,
             "--model", f"nf=noising:seed={world + 99},d=256,t={t}"])
        (ckpt / "nf.lsf").replace(data / f"ckpt_epoch{epoch}.lsf")


def _demo_commands(data, out):
    config = str(data / "experiment.cfg")
    ckpts = [str(data / f"ckpt_epoch{e}.lsf") for e in range(1, len(DEMO_TIMESTEPS) + 1)]
    labels = ",".join(str(5 * i + 1) for i in range(len(DEMO_TIMESTEPS)))
    return [
        ("stitch_grid_s", ["stitch-grid", "--config", config, "--out", str(out / "grid"),
                           "--threads", "1"]),
        ("probe_suite_s", ["probe-suite", "--config", config, "--out", str(out / "suite"),
                           "--threads", "1"]),
        ("dynamics_s", ["dynamics", "--config", config, "--out", str(out / "dynamics"),
                        "--threads", "1", "--checkpoints", *ckpts, "--labels", labels]),
    ]


def _demo_check(data, out, outcomes, checks) -> dict:
    _commands_ok(outcomes, checks)
    kinds = _model_kinds(data / "experiment.cfg")
    decoders = [m for m, k in kinds.items() if k != "random"]
    values: dict = {}
    grids = _stitch_grid_values(out / "grid", kinds, set(), decoders, checks, values)
    if "latent_mse" in grids and "pixel_rmse" in grids:
        for a, b in (("orthA", "orthB"), ("orthB", "orthA")):
            mse, rmse = grids["latent_mse"][(a, b)], grids["pixel_rmse"][(a, b)]
            checks.expect(mse <= 1e-8, f"exact stitch {a}->{b}: latent_mse {mse!r} > 1e-8")
            checks.expect(rmse <= 1e-6, f"exact stitch {a}->{b}: pixel_rmse {rmse!r} > 1e-6")

    suite = out / "suite"
    checks.operations(0, _error_lines(suite / "suite_errors.txt"))
    acc = read_grid(suite / "probe_accuracy_grid.csv")
    match = read_grid(suite / "match_grid.csv")
    delta = read_grid(suite / "delta_grid.csv")
    attrs = sorted({a for _, a in acc})
    checks.operations(len(acc) + len(match), [])
    for (mid, attr), v in acc.items():
        if checks.expect(0.0 <= v <= 1.0, f"probe accuracy {mid}/{attr} = {v!r}"):
            values[f"probe_accuracy/{mid}/{attr}"] = v
    rand = [acc[("rand", a)] for a in attrs]
    checks.expect(0.43 <= sum(rand) / len(rand) <= 0.57 and all(0.35 <= v <= 0.65 for v in rand),
                  f"random-encoder probe accuracy not near chance: {rand}")
    for (pair, attr), v in match.items():
        src, dst = pair.split("->")
        if not checks.expect(0.0 <= v <= 100.0, f"match {pair}/{attr} = {v!r}"):
            continue
        if pair in ("orthA->orthB", "orthB->orthA"):
            checks.expect(v >= 95.0, f"match {pair}/{attr} = {v!r} < 95")
        if _well_posed(src, dst, kinds, set()) or pair in ("orthA->orthB", "orthB->orthA"):
            values[f"match/{pair}/{attr}"] = v
            values[f"delta/{pair}/{attr}"] = delta[(pair, attr)]

    with open(out / "dynamics" / "dynamics.csv", newline="") as f:
        rows = list(csv.reader(f))
    labels = rows[0][1:-1]
    checks.expect(len(labels) == len(DEMO_TIMESTEPS) and len(rows) - 1 == len(attrs),
                  f"dynamics.csv has {len(labels)} checkpoints and {len(rows) - 1} attributes")
    first, last = [], []
    for row in rows[1:]:
        accs = [float(v) for v in row[1:-1]]
        checks.expect(row[-1] in labels, f"dynamics plateau {row[-1]!r} is not a checkpoint label")
        for label, v in zip(labels, accs):
            values[f"dynamics/{row[0]}/{label}"] = v
        first.append(accs[0])
        last.append(accs[-1])
    checks.expect(sum(last) > sum(first),
                  f"dynamics: accuracy at t=0 ({sum(last) / len(last):.3f}) does not beat "
                  f"t=50 ({sum(first) / len(first):.3f})")
    return values


# --- paper-shape: the paper's roster names and dimension ratios ----------------

#: The paper's five-model roster and dimension ratios, with the two big
#: spaces scaled from 12288 to 1024. The train split stays below their
#: dimension, as in the paper (9,000 < 12,288).
PAPER_MODELS = (
    ("GAN", "random:seed={s1},d=512"),
    ("VAE", "lossy:seed={s2},d=512,r=8,dpix=1024"),
    ("VQVAE", "lossy:seed={s3},d=768,r=12,dpix=1024"),
    ("NF", "orthogonal:seed={s4},d=1024,dpix=1024"),
    ("DM", "noising:seed={s5},d=1024,dpix=1024,t=25"),
)
PAPER_SPLIT = (800, 200)
# mapfit.default_alphas(): maps from the NF and DM spaces are ridge fits.
PAPER_RIDGE = {(s, d) for s in ("NF", "DM") for d in ("GAN", "VAE", "VQVAE", "NF", "DM") if s != d}


def _paper_setup(data, world, run):
    seeds = {f"s{i}": world + i for i in range(1, 6)}
    models = [a for mid, spec in PAPER_MODELS for a in ("--model", f"{mid}={spec.format(**seeds)}")]
    run(["synth-gen", "--out", str(data), "--seed", str(world),
         "--n", "1000", "--k", "16", "--dpix", "1024", *models])
    # no alpha or probe_alpha overrides: the paper's alpha table stays live
    lines = [f"seed = {world}", "pixels = pixels.lsf", "attributes = attributes.txt",
             f"split.train = {PAPER_SPLIT[0]}", f"split.holdout = {PAPER_SPLIT[1]}"]
    generated = (data / "experiment.cfg").read_text(encoding="utf-8").splitlines()
    lines += [ln for ln in generated if ln.startswith("model.")]
    (data / "paper.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _paper_commands(data, out):
    return [("stitch_grid_s", ["stitch-grid", "--config", str(data / "paper.cfg"),
                               "--out", str(out / "grid"), "--threads", "1"])]


def _paper_check(data, out, outcomes, checks) -> dict:
    _commands_ok(outcomes, checks)
    kinds = _model_kinds(data / "paper.cfg")
    decoders = [m for m, k in kinds.items() if k != "random"]
    values: dict = {}
    grids = _stitch_grid_values(out / "grid", kinds, PAPER_RIDGE, decoders, checks, values)
    if "latent_mse" in grids and "pixel_rmse" in grids:
        mse, rmse = grids["latent_mse"][("NF", "NF")], grids["pixel_rmse"][("NF", "NF")]
        checks.expect(mse <= 1e-8, f"exact stitch NF->NF: latent_mse {mse!r} > 1e-8")
        checks.expect(rmse <= 1e-6, f"exact stitch NF->NF: pixel_rmse {rmse!r} > 1e-6")
    checks.expect(values.get("fid_n") == [PAPER_SPLIT[1]], f"fid_n {values.get('fid_n')}")
    return values


# --- offline-score: the real-model workflow on files already on disk -----------

OFFLINE_SPLIT = (5000, 500)


def _offline_setup(data, world, run):
    run(["synth-gen", "--out", str(data), "--seed", str(world),
         "--n", "6000", "--dpix", "2048",
         "--model", f"A=orthogonal:seed={world + 1},d=2048,dpix=2048",
         "--model", f"B=noising:seed={world + 2},d=2048,dpix=2048,t=25"])
    run([str(data / "B.lsf"), str(data / "B_export.lsf"), str(world)], mode="permute")
    (data / "B.lsf").unlink()
    (data / "offline.cfg").write_text("\n".join([
        f"seed = {world}", "pixels = pixels.lsf", "attributes = attributes.txt",
        f"split.train = {OFFLINE_SPLIT[0]}", f"split.holdout = {OFFLINE_SPLIT[1]}",
        "model.A.latents = A.lsf", "model.B.latents = B_export.lsf",
    ]) + "\n", encoding="utf-8")


def _offline_commands(data, out):
    # The map goes from the noising export B, whose noise gives a full-rank
    # design, so the fit always takes the Cholesky path. From A (rank k plus
    # float32 rounding) Cholesky fails on some worlds and BLAS thread counts,
    # and the lstsq fallback makes fit-map several times slower.
    return [
        ("fit_map_s", ["fit-map", "--config", str(data / "offline.cfg"), "--src", "B",
                       "--dst", "A", "--out", str(out / "map"), "--threads", "1"]),
        ("rmse_s", ["rmse", str(data / "B_export.lsf"), str(data / "pixels.lsf")]),
        ("fid_s", ["fid", str(data / "A.lsf"), str(data / "B_export.lsf")]),
    ]


def _last_float(text: str) -> float:
    try:
        return float(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return math.nan


def _offline_check(data, out, outcomes, checks) -> dict:
    _commands_ok(outcomes, checks)
    values: dict = {}
    lmap = out / "map" / "B__A.lmap"
    header = _read_lmap_header(lmap) if lmap.is_file() else None
    checks.expect(header == ("B", "A", 0.0, 2048, 2048), f"B__A.lmap header {header}")
    mse = {}
    for line in outcomes["fit_map_s"].stdout.splitlines():
        if line.startswith("latent mse:"):
            mse = dict(part.split("=") for part in line.split(":", 1)[1].split())
    for part in ("train", "holdout"):
        v = float(mse.get(part, "nan"))
        if checks.expect(math.isfinite(v) and v > 0, f"fit-map {part} mse {v!r}"):
            values[f"fit_map/{part}"] = v
    rmse = _last_float(outcomes["rmse_s"].stdout)
    fid = _last_float(outcomes["fid_s"].stdout)
    if checks.expect(rmse > 0, f"rmse printed {rmse!r}"):
        values["rmse/B/pixels"] = rmse
    if checks.expect(fid > 0, f"fid printed {fid!r}"):
        values["fid_cmd/A/B"] = fid
    return values


# --- registry ---------------------------------------------------------------------

_LAYER_BUSY_ALL = ("data.read.calls", "data.align.calls", "data.take.calls",
                   "synth.gen_world.calls", "synth.encode.calls",
                   "mapfit.fit.calls", "linalg.sym_eig.calls", "metrics.fid.calls",
                   "metrics.summarize.calls", "pipeline.calls")
_PROBES = ("probes.fit_lasso.calls", "probes.lasso.sweeps", "probes.subset.calls",
           "probes.eval.calls")

WORKLOADS = {
    "demo": Workload(
        name="demo",
        sizes="n=2200 k=8 dpix=256, default five-model roster, split 2000/200, 6 checkpoints",
        why="README quickstart world: grid, probe suite and six-checkpoint dynamics; "
            "the only workload where lasso probes dominate",
        setup=_demo_setup, commands=_demo_commands, check=_demo_check,
        busy=_LAYER_BUSY_ALL + _PROBES + ("synth.decode.calls", "metrics.pixel_rmse.calls",
                                          "mapfit.apply.calls", "mapfit.save.calls",
                                          "linalg.spd_solve.calls"),
        idle=(),
        fixed_world=7,  # README quickstart: synth-gen --seed 7
    ),
    "paper-shape": Workload(
        name="paper-shape",
        sizes="n=1000 k=16 dpix=1024, GAN/VAE/VQVAE/NF/DM d=512/512/768/1024/1024, "
              "split 800/200",
        why="paper roster and alpha table, big spaces at d=1024 > train 800: map fitting "
            "(lstsq fallback) and n<d FID dominate, probes idle",
        setup=_paper_setup, commands=_paper_commands, check=_paper_check,
        busy=_LAYER_BUSY_ALL + ("mapfit.fit.lstsq_fallback.calls", "metrics.fid.ridge.calls",
                                "synth.decode.calls", "mapfit.save.calls"),
        idle=_PROBES,
    ),
    "offline-score": Workload(
        name="offline-score",
        sizes="n=6000 k=8 dpix=2048, A orthogonal and B noising d=2048, B 5% dropped, "
              "map B->A, split 5000/500",
        why="one full-rank map pair and n>=d FID at d=2048 on reordered exports: big reads "
            "and a real id align, no sharing across targets, no FID ridge",
        setup=_offline_setup, commands=_offline_commands, check=_offline_check,
        busy=_LAYER_BUSY_ALL + ("linalg.spd_solve.calls", "metrics.pixel_rmse.calls",
                                "mapfit.save.calls"),
        idle=_PROBES + ("metrics.fid.ridge.calls", "synth.decode.calls",
                        "mapfit.fit.lstsq_fallback.calls"),
    ),
}
