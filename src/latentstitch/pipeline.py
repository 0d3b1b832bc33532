"""Experiment orchestration: stitching grids, probe suites, training-dynamics
runs, and deterministic CSV reports.

Configs are line-oriented key=value text (see parse_config). Every command
runs its cells serially, in config order: a pair that lacks data never
disturbs another cell, and a fixed (config, seed) always produces
byte-identical CSV output.

Every config command reads its inputs through one frame, `read_run`, which
checks exactly the files the command reads (the attribute table first, then
the latent sets, the split and each attribute's balanced subsets) before the
command writes; stitch-grid then reads its pixels and LPIPS file before it
makes a directory. `_write_run` writes each grid, the error file and
metadata.json with the keys both grid commands share.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    AttributeTable,
    LatentDataset,
    SplitSpec,
    align,
    read_attribute_table,
    read_images,
    read_latents,
    rows_of,
    split_ids,
    take,
    write_latents,
)
from .errors import ConfigError, DataError, LatentStitchError
from .linalg import row_blocks
from .mapfit import (
    DEFAULT_MAP_ALPHAS,
    LinearMap,
    SharedFit,
    apply_map,
    fit_ridge,
    latent_mse,
    save_map,
)
from .metrics import fid, pixel_rmse, summarize
from .probes import (
    DEFAULT_PROBE_ALPHAS,
    FALLBACK_PROBE_ALPHA,
    BalancedSubset,
    Probe,
    SharedGram,
    accuracy,
    accuracy_delta,
    balanced_subset,
    fit_lasso,
    match_percent,
    save_probe,
    write_probe_report,
)
from .synth import (
    NOISING_SCHEDULE,
    SynthModelSpec,
    check_model_id,
    decode,
    spec_from_string,
    spec_to_string,
)

log = logging.getLogger(__name__)

#: Balanced holdout target per class (the 100-with / 100-without rule).
HOLDOUT_PER_CLASS = 100

#: Default plateau threshold: one percentage point of accuracy.
DEFAULT_PLATEAU_EPS = 0.01


# --- configuration -----------------------------------------------------------


@dataclass
class ModelEntry:
    model_id: str
    latents_path: Path
    decoder_only: bool = False
    synth: SynthModelSpec | None = None


@dataclass
class ExperimentConfig:
    models: list[ModelEntry] = field(default_factory=list)
    pixels_path: Path | None = None
    attributes_path: Path | None = None
    lpips_path: Path | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    alpha_overrides: dict[tuple[str, str], float] = field(default_factory=dict)
    probe_alpha: dict[str, float] = field(default_factory=dict)
    attribute_subset: list[str] | None = None
    seed: int = 0
    plateau_eps: float = DEFAULT_PLATEAU_EPS

    def model_ids(self) -> list[str]:
        return [m.model_id for m in self.models]

    def entry(self, model_id: str) -> ModelEntry:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise ConfigError(f"no model named {model_id!r} in config")


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: value must be finite")
    return out


def parse_config(text: str, base_dir=None) -> ExperimentConfig:
    """Parse line-oriented key=value config text.

    Recognized keys: seed, pixels, attributes, lpips, attributes.subset,
    split.train, split.holdout, plateau.eps, alpha.<src>.<dst>,
    probe_alpha.<id>, model.<id>.latents, model.<id>.decoder_only,
    model.<id>.synth. Relative paths resolve against base_dir.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    cfg = ExperimentConfig()
    model_fields: dict[str, dict] = {}
    n_train, n_holdout = cfg.split.n_train, cfg.split.n_holdout

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            cfg.seed = _parse_int(key, value)
            if cfg.seed < 0:
                raise ConfigError(f"line {lineno}: seed must be a non-negative integer")
        elif key == "pixels":
            cfg.pixels_path = base / value
        elif key == "attributes":
            cfg.attributes_path = base / value
        elif key == "lpips":
            cfg.lpips_path = base / value
        elif key == "attributes.subset":
            cfg.attribute_subset = [s.strip() for s in value.split(",") if s.strip()]
        elif key == "split.train":
            n_train = _parse_int(key, value)
        elif key == "split.holdout":
            n_holdout = _parse_int(key, value)
        elif key == "plateau.eps":
            cfg.plateau_eps = _parse_float(key, value)
            if cfg.plateau_eps <= 0:
                raise ConfigError(f"{key}: must be > 0")
        elif key.startswith("alpha."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: expected alpha.<src>.<dst>, got {key!r}")
            alpha = _parse_float(key, value)
            if alpha < 0:
                raise ConfigError(f"{key}: alpha must be >= 0")
            cfg.alpha_overrides[(parts[1], parts[2])] = alpha
        elif key.startswith("probe_alpha."):
            parts = key.split(".")
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: expected probe_alpha.<id>, got {key!r}")
            alpha = _parse_float(key, value)
            if alpha < 0:
                raise ConfigError(f"{key}: alpha must be >= 0")
            cfg.probe_alpha[parts[1]] = alpha
        elif key.startswith("model."):
            parts = key.split(".", 2)
            if len(parts) != 3 or parts[2] not in ("latents", "decoder_only", "synth"):
                raise ConfigError(
                    f"line {lineno}: expected model.<id>.latents|decoder_only|synth, got {key!r}"
                )
            mid = check_model_id(parts[1])
            fields = model_fields.setdefault(mid, {})
            if parts[2] == "latents":
                fields["latents"] = base / value
            elif parts[2] == "decoder_only":
                fields["decoder_only"] = _parse_bool(key, value)
            else:
                fields["synth"] = spec_from_string(mid, value)
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")

    try:
        cfg.split = SplitSpec(n_train=n_train, n_holdout=n_holdout)
    except LatentStitchError as exc:
        raise ConfigError(str(exc)) from exc

    for mid, fields in model_fields.items():
        if "latents" not in fields:
            raise ConfigError(f"model {mid!r} has no latents path")
        cfg.models.append(
            ModelEntry(
                model_id=mid,
                latents_path=fields["latents"],
                decoder_only=fields.get("decoder_only", False),
                synth=fields.get("synth"),
            )
        )
    # probe_alpha keys are latent-space names and may name spaces outside the
    # model list (e.g. dynamics checkpoints), so only pair overrides are checked.
    known = set(cfg.model_ids())
    if cfg.models:
        for src, dst in cfg.alpha_overrides:
            if src not in known or dst not in known:
                raise ConfigError(f"alpha.{src}.{dst} references a model not in the config")
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)


def resolve_map_alpha(cfg: ExperimentConfig, src: str, dst: str) -> float:
    """The config's ridge strength for a map, else the roster default, else 0."""
    return cfg.alpha_overrides.get((src, dst), DEFAULT_MAP_ALPHAS.get((src, dst), 0.0))


def resolve_probe_alpha(cfg: ExperimentConfig, model_id: str) -> float:
    if model_id in cfg.probe_alpha:
        return cfg.probe_alpha[model_id]
    if model_id in DEFAULT_PROBE_ALPHAS:
        return DEFAULT_PROBE_ALPHAS[model_id]
    log.warning(
        "no probe alpha configured for latent space %r; defaulting to %s",
        model_id,
        FALLBACK_PROBE_ALPHA,
    )
    return FALLBACK_PROBE_ALPHA


# --- grids, series, CSV -------------------------------------------------------


@dataclass
class MetricGrid:
    """One metric over row ids x column ids; NaN marks an absent cell."""

    name: str
    row_ids: list[str]
    col_ids: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.row_ids), len(self.col_ids)):
            raise ConfigError(
                f"grid {self.name!r}: values shape {self.values.shape} does not match ids"
            )

    @classmethod
    def nan(cls, name: str, row_ids: list[str], col_ids: list[str]) -> MetricGrid:
        """A grid of the given ids whose every cell is absent."""
        return cls(name, list(row_ids), list(col_ids), np.full((len(row_ids), len(col_ids)), np.nan))

    def get(self, row_id: str, col_id: str) -> float:
        return float(self.values[self.row_ids.index(row_id), self.col_ids.index(col_id)])


@dataclass
class DynamicsSeries:
    """Per-attribute probe accuracy across ordered checkpoints."""

    checkpoint_labels: list[str]
    attributes: list[str]
    accuracies: np.ndarray  # (n_attributes, n_checkpoints), NaN for an empty probe
    plateau_indices: list[int | None]  # None: no checkpoint has a non-empty probe


def plateau_index(accuracies, eps: float) -> int | None:
    """First index after which every subsequent accuracy increment is < eps.
    A NaN accuracy (an empty probe's) is skipped; None when all are NaN."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 1 or acc.size < 1:
        raise ConfigError("need a 1-D accuracy sequence")
    scored = np.flatnonzero(~np.isnan(acc))
    if not len(scored):
        return None
    diffs = np.diff(acc[scored])
    idx = len(scored) - 1
    while idx > 0 and diffs[idx - 1] < eps:
        idx -= 1
    return int(scored[idx])


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return format(float(value), ".9g")


def emit_csv(obj, path) -> None:
    """Write a MetricGrid or DynamicsSeries as CSV (floats at 9 significant
    digits, absent cells empty); byte-deterministic given its inputs."""
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            if isinstance(obj, MetricGrid):
                writer.writerow([""] + list(obj.col_ids))
                for rid, row in zip(obj.row_ids, obj.values):
                    writer.writerow([rid] + [_fmt(v) for v in row])
            elif isinstance(obj, DynamicsSeries):
                writer.writerow(["attribute", *obj.checkpoint_labels, "plateau_epoch"])
                for attr, row, p in zip(obj.attributes, obj.accuracies, obj.plateau_indices):
                    plateau = "" if p is None else obj.checkpoint_labels[p]
                    writer.writerow([attr, *[_fmt(v) for v in row], plateau])
            else:
                raise TypeError(f"cannot emit {type(obj).__name__} as CSV")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_csv_grid(path) -> MetricGrid:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    grid = MetricGrid.nan(Path(path).stem, [r[0] for r in rows[1:]], rows[0][1:])
    for i, r in enumerate(rows[1:]):
        for j, cell in enumerate(r[1:]):
            if cell != "":
                grid.values[i, j] = float(cell)
    return grid


def _error_text(exc: LatentStitchError | MemoryError) -> str:
    """A cell's error line; running out of memory is a data error."""
    if isinstance(exc, MemoryError):
        return f"DataError: out of memory: {exc}"
    return f"{type(exc).__name__}: {exc}"


def _guarded(fn, *args, **kwargs) -> tuple:
    """fn's result as (value, None), or (None, error_string) for a failure
    confined to one cell, so that it cannot disturb other cells."""
    try:
        return fn(*args, **kwargs), None
    except (LatentStitchError, MemoryError) as exc:
        return None, _error_text(exc)


# --- map fitting and probe training on a run's split ---------------------------


def fit_pair_map(src: LatentDataset, dst: LatentDataset, alpha: float,
                 train_ids: list[str]) -> LinearMap:
    """Fit a map on the run's train ids, which both latent sets must hold,
    with mapfit.fit_ridge: ridge for alpha > 0, else least squares (min-norm
    on a rank-deficient design). Both are read in place by row index."""
    rows = rows_of(src, train_ids), rows_of(dst, train_ids)
    return fit_ridge(src.X, dst.X, alpha, source_model=src.model_id, target_model=dst.model_id,
                     rows=rows)


def fit_sources(cfg: ExperimentConfig, latents: dict[str, LatentDataset], train_ids: list[str],
                fit_group) -> tuple[dict, dict, list]:
    """The map step of stitch-grid and probe-suite, one source at a time.

    A source's targets are grouped by map alpha in config order (one lacking a
    train id joins no group: that is its pair's error) and share one
    mapfit.SharedFit. fit_group(src, alpha, {dst: train rows}, fit) returns a
    (value, error) outcome per target, and an error it raises is each target's;
    fit(Y, iy, dst) is fit_ridge of the source's train rows to Y's rows iy.
    Returns each pair's outcome in pair order, each fitted pair's solver, and
    map_fits: {source, alpha, targets, solver} per group with a fitted target,
    plus the source factor's rank and cutoff for an "eigh" or "lstsq" fit."""
    model_ids = cfg.model_ids()

    def fit_row(src):
        X, ix = latents[src].X, rows_of(latents[src], train_ids)
        outcomes, groups = {}, {}
        for dst in model_ids:
            try:
                rows = rows_of(latents[dst], train_ids)
            except LatentStitchError as exc:
                outcomes[dst] = None, _error_text(exc)
                continue
            groups.setdefault(resolve_map_alpha(cfg, src, dst), {})[dst] = rows
        shared = SharedFit(X, rows=ix)
        fits = []
        for alpha, rows in groups.items():
            how = {}  # the group's solver record; the step keeps no map

            def fit(Y, iy, dst):
                m = fit_ridge(X, Y, alpha, source_model=src, target_model=dst, shared=shared,
                              rows=(ix, iy))
                how["solver"] = m.solver
                if m.solver != "cholesky":
                    how.update(rank=m.rank, cutoff=m.cutoff)
                return m

            try:
                group = fit_group(src, alpha, rows, fit)
            except (LatentStitchError, MemoryError) as exc:
                group = dict.fromkeys(rows, (None, _error_text(exc)))
            outcomes.update(group)
            fitted = [dst for dst, (_, err) in group.items() if err is None]
            if fitted:
                fits.append({"source": src, "alpha": alpha, "targets": fitted, **how})
        return outcomes, fits

    pairs, map_fits = {}, []
    for src in model_ids:
        row, row_err = _guarded(fit_row, src)
        outcomes, fits = row if row_err is None else (dict.fromkeys(model_ids, (None, row_err)), [])
        map_fits.extend(fits)
        pairs.update(((src, dst), outcomes[dst]) for dst in model_ids)
    map_solver = {f"{f['source']}->{dst}": f["solver"] for f in map_fits for dst in f["targets"]}
    return pairs, map_solver, map_fits


def select_attributes(table: AttributeTable, names: list[str] | None, source: str) -> list[str]:
    """The named attributes, or every attribute of the table when names is
    empty; a name the table lacks, or one named twice, is a config error."""
    attributes = names or list(table.names)
    unknown = [a for a in attributes if a not in table.names]
    if unknown:
        raise ConfigError(f"{source} names not in table: {unknown}")
    repeated = sorted({a for a in attributes if attributes.count(a) > 1})
    if repeated:
        raise ConfigError(f"{source} names an attribute more than once: {repeated}")
    return attributes


def draw_subsets(table: AttributeTable, attribute: str, split: tuple[list[str], list[str]],
                 seed: int) -> tuple[BalancedSubset, BalancedSubset]:
    """An attribute's balanced train subset and holdout, drawn from the run's split."""
    train_ids, hold_ids = split
    return (balanced_subset(table, attribute, train_ids, seed=seed),
            balanced_subset(table, attribute, hold_ids, seed=seed, per_class=HOLDOUT_PER_CLASS))


def train_probe(
    ds: LatentDataset,
    subsets: tuple[BalancedSubset, BalancedSubset] | LatentStitchError,
    attribute: str,
    alpha: float,
    model_id: str,
    standardize: bool = False,
    tol: float = 1e-6,
    max_iter: int = 10000,
    shared: SharedGram | None = None,
) -> tuple[Probe, float]:
    """Fit a lasso probe on an attribute's balanced train subset; return it and its
    holdout accuracy. ``subsets`` may be the error that stands in for the draw
    (a failed draw that read_run kept, or ds lacking split ids), which is
    raised. fit_lasso reads the subset's rows of ds.X by index into one
    lasso design (probes.design_of); with ``shared``, a SharedGram over ds's
    train split rows, an n >= d design takes its Gram from the split's."""
    if isinstance(subsets, LatentStitchError):
        raise subsets
    train, hold = subsets
    probe = fit_lasso(ds.X, train.labels(), alpha, tol=tol, max_iter=max_iter,
                      attribute=attribute, model_id=model_id, standardize=standardize,
                      rows=rows_of(ds, train.ids), shared=shared)
    if report := empty_probe(probe):
        log.warning("probe %s/%s: %s", model_id, attribute, report)
    return probe, accuracy(probe, ds.X[rows_of(ds, hold.ids)], hold.labels())


def empty_probe(probe: Probe) -> str | None:
    """The report of a probe whose weights are all 0, as a lasso fit's are at
    alpha >= alpha_max: its score is constant, so a match or delta cell with
    it as the target would measure nothing. None for any other probe."""
    if probe.w.any():
        return None
    return f"empty: alpha {probe.alpha:.9g} >= alpha_max {probe.alpha_max:.9g}"


# --- the run frame of every config command -----------------------------------


def read_run(cfg: ExperimentConfig, sets: list,
             attributes: tuple[list[str] | None, str] | None = None, extra=()) -> tuple:
    """A config command's inputs, read and checked before it writes anything.
    Every file it reads must exist: the latent sets ``sets``, with
    ``attributes`` (a (names, source) pair) the attribute table, and the
    ``extra`` files the command reads itself (None is no file). The table is
    read and its named attributes (all, for no names) selected before any
    latent set; then each set is read, the split taken from the first and each
    attribute's balanced subsets drawn once, a failed draw kept as its error
    for train_probe to raise. Returns (latents, split, attributes, subsets)."""
    files = [*sets, *filter(None, extra)]
    if attributes is not None:
        if cfg.attributes_path is None:
            raise ConfigError("config needs an attributes path for this command")
        files.append(cfg.attributes_path)
    missing = sorted({str(p) for p in files if not Path(p).is_file()})
    if missing:
        raise ConfigError("missing input files: " + ", ".join(missing))
    if not sets:
        raise ConfigError("config defines no models")
    table = read_attribute_table(cfg.attributes_path) if attributes else None
    selected = select_attributes(table, *attributes) if attributes else []
    latents = [read_latents(p) for p in sets]
    split = split_ids(latents[0], cfg.split)
    subsets: dict[str, tuple[BalancedSubset, BalancedSubset] | LatentStitchError] = {}
    for attr in selected:
        try:
            subsets[attr] = draw_subsets(table, attr, split, cfg.seed)
        except LatentStitchError as exc:
            subsets[attr] = exc
    return latents, split, selected, subsets


def _write_run(cfg: ExperimentConfig, out: Path, command: str, grids: dict, errors: list[str],
               errors_name: str, map_solver: dict, map_fits: list, **metadata) -> None:
    """Write a grid command's outputs to out: each grid as <key>.csv, its
    errors one per line to errors_name, and metadata.json with the keys both
    commands share next to the command's own. A None grid, or no errors,
    removes that file of a previous run."""
    for name, grid in grids.items():
        if grid is None:
            (out / f"{name}.csv").unlink(missing_ok=True)
        else:
            emit_csv(grid, out / f"{name}.csv")
    if errors:
        (out / errors_name).write_text("\n".join(errors) + "\n", encoding="utf-8")
    else:
        (out / errors_name).unlink(missing_ok=True)
    noising = any(m.synth is not None and m.synth.kind == "noising" for m in cfg.models)
    metadata.update(
        command=command,
        seed=cfg.seed,
        split={"train": cfg.split.n_train, "holdout": cfg.split.n_holdout,
               "from": cfg.model_ids()[0]},
        noising_schedule=dict(NOISING_SCHEDULE) if noising else None,
        map_solver=map_solver,
        map_fits=map_fits,
    )
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


# --- stitch grid --------------------------------------------------------------


@dataclass
class StitchResult:
    grids: dict[str, MetricGrid]
    errors: list[str]


def _read_lpips_pairs(path, model_ids: list[str]) -> dict[tuple[str, str], float]:
    known = set(model_ids)
    out: dict[tuple[str, str], float] = {}
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"lpips file {path}: {exc}") from None
    if rows and [cell.strip() for cell in rows[0]] == ["encoder", "decoder", "value"]:
        del rows[0]  # the header, which only the first row may be
    for row in filter(None, rows):  # blank lines are skipped
        if len(row) != 3:
            raise ConfigError(f"lpips file {path}: expected encoder,decoder,value rows")
        src, dst, value = row[0].strip(), row[1].strip(), row[2].strip()
        if src not in known or dst not in known:
            raise ConfigError(f"lpips file {path}: unknown model pair {src!r} -> {dst!r}")
        if (src, dst) in out:
            raise ConfigError(f"lpips file {path}: model pair {src!r} -> {dst!r} listed twice")
        out[(src, dst)] = _parse_float("lpips value", value)
    return out


def run_stitch_grid(cfg: ExperimentConfig, out_dir) -> StitchResult:
    """Fit a stitching map for every ordered (encoder, decoder) pair and
    report latent MSE plus, where a decoder is available in-process, pixel
    RMSE and FID of the stitched reconstructions against the true holdout
    images. Maps and mapped holdout latents are serialized per cell so every
    reported number can be recomputed offline.

    The latent sets, the pixels, the split and the LPIPS file are all read
    and checked before anything is written. The maps come from fit_sources,
    which fits each source's targets one at a time here; metadata.json
    records its map_solver and map_fits. Each cell's map is dropped once it
    is written, before the decoder runs."""
    model_ids = cfg.model_ids()
    sets, (train_ids, hold_ids), _, _ = read_run(cfg, [m.latents_path for m in cfg.models],
                                                 extra=(cfg.pixels_path, cfg.lpips_path))
    latents = dict(zip(model_ids, sets))
    images = read_images(cfg.pixels_path) if cfg.pixels_path else None
    entry_by_id = {m.model_id: m for m in cfg.models}
    grids = {name: MetricGrid.nan(name, model_ids, model_ids)
             for name in ("latent_mse", "pixel_rmse", "fid", "lpips")}
    if cfg.lpips_path is None:
        grids["lpips"] = None  # a previous run's lpips.csv is removed
    else:
        for (src, dst), value in _read_lpips_pairs(cfg.lpips_path, model_ids).items():
            grids["lpips"].values[model_ids.index(src), model_ids.index(dst)] = value
    # Every decoded cell is scored against the same true holdout images (the
    # holdout ids the image file holds, in holdout order), summarized once.
    real = real_summary = None
    if images is not None:
        real = take(images, [images.row_index[sid] for sid in hold_ids if sid in images.row_index])
        decodes = any(m.synth is not None and m.synth.kind != "random" for m in cfg.models)
        if decodes and real.n >= 2:
            real_summary = summarize(real.X)
    out = Path(out_dir)
    maps_dir = out / "maps"
    mapped_dir = out / "mapped"
    for p in (out, maps_dir, mapped_dir):  # made once every input is read and checked
        p.mkdir(parents=True, exist_ok=True)

    def write_cell(src, dst, m):
        """A cell's latent MSE and its files: the map and the mapped holdout."""
        mapped = apply_map(m, latents[src].X[rows_of(latents[src], hold_ids)])
        result = {
            "latent_mse": latent_mse(mapped, latents[dst].X[rows_of(latents[dst], hold_ids)]),
            "pixel_rmse": math.nan,
            "fid": math.nan,
            "fid_n": None,
            "errors": [],
        }
        save_map(m, maps_dir / f"{src}__{dst}.lmap")
        mapped_ds = LatentDataset(model_id=dst, ids=hold_ids, X=mapped.astype(np.float32))
        write_latents(mapped_ds, mapped_dir / f"{src}__{dst}.lsf")
        return result, mapped_ds

    def score_decoded(dst, mapped_ds, result):
        """The cell's pixel RMSE and FID, where dst's decoder runs in-process."""
        synth_spec = entry_by_id[dst].synth
        if synth_spec is not None and synth_spec.kind != "random" and images is not None:
            try:
                decoded = decode(synth_spec, mapped_ds)
                ia, ib = align(decoded, real)
                result["pixel_rmse"] = pixel_rmse(decoded.X[ia], real.X[ib])
                result["fid"] = fid(summarize(decoded.X[ia]), real_summary)
                result["fid_n"] = len(ia)
            except LatentStitchError as exc:
                result["errors"].append(_error_text(exc))
        return result

    def fit_group(src, alpha, rows, fit):
        """Fit, write and score the group's cells one target at a time."""

        def cell(dst):
            m = fit(latents[dst].X, rows[dst], dst)
            result, mapped_ds = write_cell(src, dst, m)
            m = None  # decoding needs only the mapped holdout, not the d_out x d_in map
            return score_decoded(dst, mapped_ds, result)

        return {dst: _guarded(cell, dst) for dst in rows}

    pairs, map_solver, map_fits = fit_sources(cfg, latents, train_ids, fit_group)
    errors: list[str] = []
    fid_n: dict[str, int] = {}
    for (src, dst), (result, err) in pairs.items():
        if err is not None:
            errors.append(f"{src}->{dst}: {err}")
            continue
        i, j = model_ids.index(src), model_ids.index(dst)
        for name in ("latent_mse", "pixel_rmse", "fid"):
            grids[name].values[i, j] = result[name]
        if result["fid_n"] is not None:
            fid_n[f"{src}->{dst}"] = result["fid_n"]
        errors.extend(f"{src}->{dst}: {msg}" for msg in result["errors"])

    _write_run(
        cfg, out, "stitch-grid", grids, errors, "cell_errors.txt", map_solver, map_fits,
        grid_orientation="rows=encoder (source), columns=decoder (target)",
        models=[
            {
                "model_id": m.model_id,
                "decoder_only": m.decoder_only,
                "synth": spec_to_string(m.synth) if m.synth else None,
            }
            for m in cfg.models
        ],
        alpha={f"{s}->{t}": resolve_map_alpha(cfg, s, t) for s in model_ids for t in model_ids},
        latent_mse_convention="mean over all n*d entries (per-entry, not per-vector)",
        pixel_range=[0.0, 1.0],
        fid_features="flattened pixels of decoded holdout vs true holdout; the cross "
                     "term is the nuclear norm of Fp Fq^T for covariance factors "
                     "F^T F = Sigma (scaled centered samples when n < d, else the Cholesky "
                     "factor, or the PSD square root of a singular Sigma), no ridge",
        fid_n=fid_n,
    )
    return StitchResult(grids={k: g for k, g in grids.items() if g is not None}, errors=errors)


# --- probe suite ---------------------------------------------------------------


@dataclass
class SuiteResult:
    report_rows: list[dict]
    accuracy_grid: MetricGrid
    match_grid: MetricGrid
    delta_grid: MetricGrid
    errors: list[str]


def run_probe_suite(cfg: ExperimentConfig, out_dir, standardize: bool = False) -> SuiteResult:
    """Train balanced lasso probes per (model, attribute), evaluate them on
    balanced holdouts, then measure cross-space prediction agreement (match
    percentage) and signed accuracy change through the stitching maps for
    every ordered model pair. Each target probe is composed with its map by
    fit_sources, with one fit per (source, alpha) of the source's train rows to
    the target probes' train scores; metadata.json records its map_solver and
    map_fits."""
    model_ids = cfg.model_ids()
    sets, split, attributes, subsets = read_run(
        cfg, [m.latents_path for m in cfg.models],
        attributes=(cfg.attribute_subset, "attributes.subset"))
    latents = dict(zip(model_ids, sets))
    alphas = {mid: resolve_probe_alpha(cfg, mid) for mid in model_ids}
    out = Path(out_dir)
    probes_dir = out / "probes"  # made once every input is read and checked
    probes_dir.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    pair_labels = [f"{src}->{dst}" for src in model_ids for dst in model_ids]  # fit_sources' order
    accuracy_grid = MetricGrid.nan("probe_accuracy", model_ids, attributes)
    match_grid = MetricGrid.nan("match_percent", pair_labels, attributes)
    delta_grid = MetricGrid.nan("accuracy_delta_percent", pair_labels, attributes)

    # Probes per (model, attribute), on the subsets read_run drew once per
    # attribute. Each model's split rows are gathered while its own probes
    # train, then dropped before the next model's: the stitched fits read the
    # train rows from the files, and the match cells read the holdout rows kept
    # here. A model lacking split ids keeps its file set, and each probe of its
    # row fails with that error.
    n_train = len(split[0])
    holdouts: dict[str, LatentDataset] = dict(latents)
    probe_attrs: dict[str, list[str]] = {}
    train_scores: dict[str, np.ndarray] = {}  # each target's, for every source fitted to it
    fitted: dict[tuple[str, str], tuple[Probe, float]] = {}
    for mi, mid in enumerate(model_ids):
        try:
            ds, lacks = take(latents[mid], rows_of(latents[mid], split[0] + split[1])), None
        except LatentStitchError as exc:
            ds, lacks = latents[mid], exc
        # one Gram of the model's train split, from which each probe removes
        # the rows its balanced subset leaves out
        shared = None if lacks else SharedGram(ds.X, np.arange(n_train))
        for ai, attr in enumerate(attributes):
            result, err = _guarded(train_probe, ds, lacks or subsets[attr], attr, alphas[mid],
                                   mid, standardize=standardize, shared=shared)
            if err is not None:
                errors.append(f"probe {mid}/{attr}: {err}")
                continue
            probe, acc = fitted[(mid, attr)] = result
            save_probe(probe, probes_dir / f"{mid}__{attr}.lprb")
            accuracy_grid.values[mi, ai] = acc
            if report := empty_probe(probe):  # kept, but no cell is scored with it
                errors.append(f"probe {mid}/{attr}: {report}")
        probe_attrs[mid] = [a for a in attributes if (mid, a) in fitted]
        if probe_attrs[mid]:  # one column per probe
            weights = np.array([fitted[(mid, a)][0].w for a in probe_attrs[mid]]).T
            scores = train_scores[mid] = np.empty((n_train, weights.shape[1]))
            for blk in row_blocks(n_train):  # no float64 copy of the train rows
                scores[blk] = ds.X[blk] @ weights
        if not lacks:
            holdouts[mid] = take(ds, np.arange(n_train, ds.n))
        del ds, shared  # the gather and its Gram go before the next model's

    # Stitched probes, from fit_sources: one fit per (source, alpha) group.
    # fit_ridge fits each output column alone with one factor of the source,
    # so fitting the source's train rows to a target probe's train scores Y w
    # gives that probe composed with the src->dst map,
    # x -> (W^T w).x + (c.w + b), without the d_out x d_in map or any mapped
    # holdout.
    def stitch_group(src, alpha, rows, fit):
        """{attribute: stitched Probe} per target, from one fit of the
        stacked train scores of the group's target probes."""
        Y = np.hstack([train_scores.get(dst, np.empty((len(iy), 0))) for dst, iy in rows.items()])
        m = fit(Y, np.arange(len(Y)), "")
        stitched = {dst: {} for dst in rows}
        columns = [(dst, attr) for dst in rows for attr in probe_attrs[dst]]
        for (dst, attr), u, c in zip(columns, m.W, m.b):
            probe = fitted[(dst, attr)][0]
            stitched[dst][attr] = Probe(attribute=attr, model_id=src, w=u, b=c + probe.b,
                                        alpha=probe.alpha, threshold=probe.threshold)
        return {dst: (by_attr, None) for dst, by_attr in stitched.items()}

    # match / delta per (pair, attribute), evaluated on the target's balanced
    # holdout: the native probe on the target's rows, the stitched probe on the
    # source's rows; a cell whose target probe is empty stays NaN. Map errors
    # come first, in pair order, then match errors.
    pairs, map_solver, map_fits = fit_sources(cfg, latents, split[0], stitch_group)

    def holdout(mid, attr):
        return holdouts[mid].X[rows_of(holdouts[mid], subsets[attr][1].ids)]

    match_errors: list[str] = []
    for pi, ((src, dst), (by_attr, err)) in enumerate(pairs.items()):
        if err is not None:
            errors.append(f"map {src}->{dst}: {err}")
            continue
        for attr in probe_attrs[dst]:
            probe, acc_native = fitted[(dst, attr)]
            if not probe.w.any():  # an empty probe, reported above
                continue
            stitched, hold, ai = by_attr[attr], subsets[attr][1], attributes.index(attr)
            try:
                x_source = holdout(src, attr)
                match_grid.values[pi, ai] = match_percent(probe, holdout(dst, attr), x_source,
                                                          stitched)
                acc_mapped = accuracy(stitched, x_source, hold.labels())
                delta_grid.values[pi, ai] = accuracy_delta(acc_native, acc_mapped)
            except LatentStitchError as exc:
                match_errors.append(f"match {src}->{dst}/{attr}: {_error_text(exc)}")
    errors.extend(match_errors)

    report_rows = [{"model": mid, "attribute": attr, "alpha": probe.alpha,
                    "train_n_per_class": subsets[attr][0].per_class, "holdout_accuracy": acc}
                   for (mid, attr), (probe, acc) in fitted.items()]
    write_probe_report(report_rows, out / "probe_report.csv")
    _write_run(
        cfg, out, "probe-suite",
        {"probe_accuracy_grid": accuracy_grid, "match_grid": match_grid, "delta_grid": delta_grid},
        errors, "suite_errors.txt", map_solver, map_fits,
        attributes=attributes,
        probe_alpha=alphas,
        label_coding={"-1": 0, "+1": 1},
        decision_threshold=0.5,
        threshold_tie_rule="scores exactly at threshold classify as 1",
        standardize=standardize,
        holdout_per_class=HOLDOUT_PER_CLASS,
        accuracy_delta="signed percent change relative to native accuracy",
        grid_layout="rows=source->target pair, columns=attributes",
        probe_lasso={
            f"{mid}/{attr}": {"sweeps": probe.sweeps, "nnz": int(np.count_nonzero(probe.w)),
                              "kkt": probe.kkt, "alpha_max": probe.alpha_max}
            for (mid, attr), (probe, _) in fitted.items()
        },
        stitched_probes="each target probe (w, b) composed with its src->dst map: the map's "
                        "fit (same alpha and solver) run on the target probes' train scores "
                        "Y w gives (W^T w, c.w + b) on the source space, scored on the "
                        "source's holdout rows",
    )
    return SuiteResult(report_rows, accuracy_grid, match_grid, delta_grid, errors)


# --- training dynamics ----------------------------------------------------------


def run_dynamics(
    cfg: ExperimentConfig,
    checkpoint_paths,
    labels: list[str] | None = None,
    standardize: bool = False,
) -> DynamicsSeries:
    """Retrain probes on each checkpoint's frozen latents and locate the
    plateau checkpoint per attribute. An empty probe (empty_probe) leaves its
    accuracy NaN, which the plateau skips; an attribute whose probes are all
    empty has no plateau (None)."""
    paths = [Path(p) for p in checkpoint_paths]
    if len(paths) < 2:
        raise ConfigError("dynamics needs at least 2 checkpoint latent files")
    if labels is None:
        labels = [str(i) for i in range(len(paths))]
    if len(labels) != len(paths):
        raise ConfigError(f"{len(labels)} labels for {len(paths)} checkpoints")
    if "" in labels or len(set(labels)) < len(labels):
        raise ConfigError(f"checkpoint labels must be non-empty and distinct, got {labels}")

    datasets, split, attributes, subsets = read_run(
        cfg, paths, attributes=(cfg.attribute_subset, "attributes.subset"))
    for ds, p in zip(datasets[1:], paths[1:]):
        if ds.ids != datasets[0].ids:
            raise DataError(f"{p}: sample ids differ from the first checkpoint")
    for drawn in subsets.values():  # a failed draw fails the run before any probe
        if isinstance(drawn, LatentStitchError):
            raise drawn
    # every checkpoint holds the first one's ids, so its split rows are its head
    head = np.arange(len(split[0]) + len(split[1]))
    spaces = dict.fromkeys(ds.model_id for ds in datasets)
    alphas = {mid: resolve_probe_alpha(cfg, mid) for mid in spaces}
    acc = np.full((len(attributes), len(datasets)), np.nan)
    for ci, checkpoint in enumerate(datasets):
        ds = take(checkpoint, head)  # held while this checkpoint's probes train
        shared = SharedGram(ds.X, np.arange(len(split[0])))  # one train-split Gram
        for ai, attr in enumerate(attributes):
            probe, score = train_probe(ds, subsets[attr], attr, alphas[ds.model_id],
                                       ds.model_id, standardize=standardize, shared=shared)
            if probe.w.any():  # an empty probe, logged by train_probe, scores no cell
                acc[ai, ci] = score
        del ds, shared

    plateaus = [plateau_index(acc[ai], cfg.plateau_eps) for ai in range(len(attributes))]
    return DynamicsSeries(
        checkpoint_labels=list(labels),
        attributes=list(attributes),
        accuracies=acc,
        plateau_indices=plateaus,
    )
