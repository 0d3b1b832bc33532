"""Experiment orchestration: stitching grids, probe suites, training-dynamics
runs, and deterministic CSV reports.

Configs are line-oriented key=value text (see parse_config). Grid cells are
independent tasks with deterministic placement: cell order is fixed by config
order, one failing pair never disturbs another cell, and a fixed
(config, seed) always produces byte-identical CSV output.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
from .errors import ConfigError, InconsistentIds, IoError, LatentStitchError
from .mapfit import (
    DEFAULT_MAP_ALPHAS,
    LinearMap,
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
    accuracy,
    accuracy_delta,
    balanced_subset,
    fit_lasso,
    match_percent,
    save_probe,
    write_probe_report,
)
from .synth import NOISING_SCHEDULE, SynthModelSpec, decode, spec_from_string, spec_to_string

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


def _check_model_id(model_id: str) -> str:
    # ids appear in config keys, pair labels, and file names
    if not model_id or any(ch in model_id for ch in ".,->/\\ \t"):
        raise ConfigError(
            f"model id {model_id!r} may not be empty or contain '.', ',', '-', '>', "
            "path separators or whitespace"
        )
    return model_id


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
            mid = _check_model_id(parts[1])
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)


def validate_paths(cfg: ExperimentConfig, need_pixels=False, need_attributes=False) -> None:
    missing = [str(m.latents_path) for m in cfg.models if not Path(m.latents_path).is_file()]
    for label, p, needed in (
        ("pixels", cfg.pixels_path, need_pixels),
        ("attributes", cfg.attributes_path, need_attributes),
        ("lpips", cfg.lpips_path, False),
    ):
        if p is None:
            if needed:
                raise ConfigError(f"config needs a {label} path for this command")
        elif not Path(p).is_file():
            missing.append(str(p))
    if missing:
        raise ConfigError("missing files referenced by config: " + ", ".join(sorted(missing)))
    if not cfg.models:
        raise ConfigError("config defines no models")


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

    def get(self, row_id: str, col_id: str) -> float:
        return float(self.values[self.row_ids.index(row_id), self.col_ids.index(col_id)])


@dataclass
class DynamicsSeries:
    """Per-attribute probe accuracy across ordered checkpoints."""

    checkpoint_labels: list[str]
    attributes: list[str]
    accuracies: np.ndarray  # (n_attributes, n_checkpoints)
    plateau_indices: list[int]


def plateau_index(accuracies, eps: float) -> int:
    """First index after which every subsequent accuracy increment is < eps."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 1 or acc.size < 1:
        raise ConfigError("need a 1-D accuracy sequence")
    diffs = np.diff(acc)
    idx = acc.size - 1
    while idx > 0 and diffs[idx - 1] < eps:
        idx -= 1
    return idx


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
                    writer.writerow([attr, *[_fmt(v) for v in row], obj.checkpoint_labels[p]])
            else:
                raise TypeError(f"cannot emit {type(obj).__name__} as CSV")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_csv_grid(path) -> MetricGrid:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col_ids = rows[0][1:]
    row_ids = [r[0] for r in rows[1:]]
    values = np.full((len(row_ids), len(col_ids)), np.nan)
    for i, r in enumerate(rows[1:]):
        for j, cell in enumerate(r[1:]):
            if cell != "":
                values[i, j] = float(cell)
    return MetricGrid(name=Path(path).stem, row_ids=row_ids, col_ids=col_ids, values=values)


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_errors(errors: list[str], path) -> None:
    """Write one error per line, or remove a previous run's file when there are none."""
    if errors:
        Path(path).write_text("\n".join(errors) + "\n", encoding="utf-8")
    else:
        Path(path).unlink(missing_ok=True)


def _run_cells(fn, items, threads: int):
    """Run fn over items with deterministic result placement; each result is
    (value, error_string) so one failure cannot disturb other cells."""

    def guarded(item):
        try:
            return fn(item), None
        except LatentStitchError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(guarded, items))
    return [guarded(item) for item in items]


# --- map fitting and probe training on a run's split ---------------------------


def fit_pair_map(src: LatentDataset, dst: LatentDataset, alpha: float,
                 train_ids: list[str]) -> LinearMap:
    """Fit a map on the run's train ids, which both latent sets must hold,
    with mapfit.fit_ridge: ridge for alpha > 0, else least squares (min-norm
    on a rank-deficient design)."""
    X, Y = src.X[rows_of(src, train_ids)], dst.X[rows_of(dst, train_ids)]
    return fit_ridge(X, Y, alpha, source_model=src.model_id, target_model=dst.model_id)


def select_attributes(table: AttributeTable, names: list[str] | None,
                      source: str = "attributes.subset") -> list[str]:
    """The named attributes, or every attribute of the table when names is
    empty; a name the table lacks is a config error."""
    attributes = names or list(table.names)
    unknown = [a for a in attributes if a not in table.names]
    if unknown:
        raise ConfigError(f"{source} names not in table: {unknown}")
    return attributes


def draw_subsets(table: AttributeTable, attribute: str, split: tuple[list[str], list[str]],
                 seed: int) -> tuple[BalancedSubset, BalancedSubset]:
    """An attribute's balanced train subset and holdout, drawn from the run's split."""
    train_ids, hold_ids = split
    return (balanced_subset(table, attribute, train_ids, seed=seed),
            balanced_subset(table, attribute, hold_ids, seed=seed, per_class=HOLDOUT_PER_CLASS))


def train_probe(
    ds: LatentDataset,
    split: tuple[list[str], list[str]],
    subsets: tuple[BalancedSubset, BalancedSubset] | LatentStitchError,
    attribute: str,
    alpha: float,
    model_id: str,
    standardize: bool = False,
    tol: float = 1e-6,
    max_iter: int = 10000,
) -> tuple[Probe, float]:
    """Fit a lasso probe on an attribute's balanced train subset; return it and its
    holdout accuracy. A failed draw, passed as its error, is raised after ds's split check."""
    rows_of(ds, split[0] + split[1])
    if isinstance(subsets, LatentStitchError):
        raise subsets
    train, hold = subsets
    probe = fit_lasso(ds.X[rows_of(ds, train.ids)], train.labels(), alpha, tol=tol,
                      max_iter=max_iter, attribute=attribute, model_id=model_id,
                      standardize=standardize)
    return probe, accuracy(probe, ds.X[rows_of(ds, hold.ids)], hold.labels())


def _noising_metadata(cfg: ExperimentConfig) -> dict | None:
    if any(m.synth is not None and m.synth.kind == "noising" for m in cfg.models):
        return asdict(NOISING_SCHEDULE)
    return None


# --- stitch grid --------------------------------------------------------------


@dataclass
class StitchResult:
    grids: dict[str, MetricGrid]
    errors: list[str]


def _read_lpips_pairs(path, model_ids: list[str]) -> dict[tuple[str, str], float]:
    known = set(model_ids)
    out: dict[tuple[str, str], float] = {}
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or (len(row) == 3 and row[0] == "encoder"):
                continue
            if len(row) != 3:
                raise ConfigError(f"lpips file {path}: expected encoder,decoder,value rows")
            src, dst, value = row[0].strip(), row[1].strip(), row[2].strip()
            if src not in known or dst not in known:
                raise ConfigError(f"lpips file {path}: unknown model pair {src!r} -> {dst!r}")
            out[(src, dst)] = _parse_float("lpips value", value)
    return out


def run_stitch_grid(cfg: ExperimentConfig, out_dir, threads: int = 1) -> StitchResult:
    """Fit a stitching map for every ordered (encoder, decoder) pair and
    report latent MSE plus, where a decoder is available in-process, pixel
    RMSE and FID of the stitched reconstructions against the true holdout
    images. Maps and mapped holdout latents are serialized per cell so every
    reported number can be recomputed offline."""
    validate_paths(cfg)
    out = Path(out_dir)
    maps_dir = out / "maps"
    mapped_dir = out / "mapped"
    for p in (out, maps_dir, mapped_dir):
        p.mkdir(parents=True, exist_ok=True)

    latents = {m.model_id: read_latents(m.latents_path) for m in cfg.models}
    images = read_images(cfg.pixels_path) if cfg.pixels_path else None
    model_ids = cfg.model_ids()
    entry_by_id = {m.model_id: m for m in cfg.models}
    pairs = [(src, dst) for src in model_ids for dst in model_ids]
    train_ids, hold_ids = split_ids(latents[model_ids[0]], cfg.split)
    # Every decoded cell is scored against the same true holdout images (the
    # holdout ids the image file holds, in holdout order), summarized once.
    real = real_summary = None
    if images is not None:
        real = take(images, [images.row_index[sid] for sid in hold_ids if sid in images.row_index])
        decodes = any(m.synth is not None and m.synth.kind != "random" for m in cfg.models)
        if decodes and real.n >= 2:
            real_summary = summarize(real.pixels)

    def cell(pair):
        src, dst = pair
        m = fit_pair_map(latents[src], latents[dst], resolve_map_alpha(cfg, src, dst), train_ids)
        mapped = apply_map(m, latents[src].X[rows_of(latents[src], hold_ids)])
        result = {
            "latent_mse": latent_mse(mapped, latents[dst].X[rows_of(latents[dst], hold_ids)]),
            "pixel_rmse": math.nan,
            "fid": math.nan,
            "fid_n": None,
            "solver": m.solver,
            "errors": [],
        }
        save_map(m, maps_dir / f"{src}__{dst}.lmap")
        mapped_ds = LatentDataset(model_id=dst, ids=hold_ids, X=mapped.astype(np.float32))
        write_latents(mapped_ds, mapped_dir / f"{src}__{dst}.lsf")
        synth_spec = entry_by_id[dst].synth
        if synth_spec is not None and synth_spec.kind != "random" and images is not None:
            try:
                decoded = decode(synth_spec, mapped_ds, image_shape=images.shape)
                dec_al, img_al = align(decoded, real)  # img_al holds real's rows
                result["pixel_rmse"] = pixel_rmse(dec_al.pixels, img_al.pixels)
                result["fid"] = fid(summarize(dec_al.pixels), real_summary)
                result["fid_n"] = dec_al.n
            except LatentStitchError as exc:
                result["errors"].append(f"{type(exc).__name__}: {exc}")
        return result

    outcomes = _run_cells(cell, pairs, threads)

    n = len(model_ids)
    grids = {
        name: MetricGrid(name=name, row_ids=list(model_ids), col_ids=list(model_ids),
                         values=np.full((n, n), np.nan))
        for name in ("latent_mse", "pixel_rmse", "fid")
    }
    errors: list[str] = []
    fid_n: dict[str, int] = {}
    map_solver: dict[str, str] = {}
    for (src, dst), (result, err) in zip(pairs, outcomes):
        i, j = model_ids.index(src), model_ids.index(dst)
        if err is not None:
            errors.append(f"{src}->{dst}: {err}")
            continue
        map_solver[f"{src}->{dst}"] = result["solver"]
        grids["latent_mse"].values[i, j] = result["latent_mse"]
        grids["pixel_rmse"].values[i, j] = result["pixel_rmse"]
        grids["fid"].values[i, j] = result["fid"]
        if result["fid_n"] is not None:
            fid_n[f"{src}->{dst}"] = result["fid_n"]
        errors.extend(f"{src}->{dst}: {msg}" for msg in result["errors"])

    if cfg.lpips_path is not None:
        lpips_pairs = _read_lpips_pairs(cfg.lpips_path, model_ids)
        lpips = MetricGrid(name="lpips", row_ids=list(model_ids), col_ids=list(model_ids),
                           values=np.full((n, n), np.nan))
        for (src, dst), value in lpips_pairs.items():
            lpips.values[model_ids.index(src), model_ids.index(dst)] = value
        grids["lpips"] = lpips

    for name, grid in grids.items():
        emit_csv(grid, out / f"{name}.csv")
    _write_errors(errors, out / "cell_errors.txt")
    metadata = {
        "command": "stitch-grid",
        "seed": cfg.seed,
        "split": {"train": cfg.split.n_train, "holdout": cfg.split.n_holdout, "from": model_ids[0]},
        "grid_orientation": "rows=encoder (source), columns=decoder (target)",
        "models": [
            {
                "model_id": m.model_id,
                "decoder_only": m.decoder_only,
                "synth": spec_to_string(m.synth) if m.synth else None,
            }
            for m in cfg.models
        ],
        "alpha": {f"{s}->{t}": resolve_map_alpha(cfg, s, t) for s in model_ids for t in model_ids},
        "map_solver": map_solver,
        "latent_mse_convention": "mean over all n*d entries (per-entry, not per-vector)",
        "pixel_range": [0.0, 1.0],
        "fid_features": "flattened pixels of decoded holdout vs true holdout; the cross "
                        "term is the nuclear norm of Fp Fq^T for covariance factors "
                        "F^T F = Sigma (scaled centered samples when n < d, else the Cholesky "
                        "factor, or the PSD square root of a singular Sigma), no ridge",
        "fid_n": fid_n,
        "noising_schedule": _noising_metadata(cfg),
    }
    _write_json(metadata, out / "metadata.json")
    return StitchResult(grids=grids, errors=errors)


# --- probe suite ---------------------------------------------------------------


@dataclass
class SuiteResult:
    report_rows: list[dict]
    accuracy_grid: MetricGrid
    match_grid: MetricGrid
    delta_grid: MetricGrid
    errors: list[str]


def run_probe_suite(
    cfg: ExperimentConfig, out_dir, threads: int = 1, standardize: bool = False
) -> SuiteResult:
    """Train balanced lasso probes per (model, attribute), evaluate them on
    balanced holdouts, then measure cross-space prediction agreement (match
    percentage) and signed accuracy change through the stitching maps for
    every ordered model pair. Each target probe is composed with its map by
    one fit per (source, alpha) of the source's train rows to the target
    probes' train scores."""
    validate_paths(cfg, need_attributes=True)
    out = Path(out_dir)
    probes_dir = out / "probes"
    probes_dir.mkdir(parents=True, exist_ok=True)

    table = read_attribute_table(cfg.attributes_path)
    attributes = select_attributes(table, cfg.attribute_subset)
    latents = {m.model_id: read_latents(m.latents_path) for m in cfg.models}
    model_ids = cfg.model_ids()
    split = split_ids(latents[model_ids[0]], cfg.split)
    alphas = {mid: resolve_probe_alpha(cfg, mid) for mid in model_ids}
    errors: list[str] = []

    # probes per (model, attribute), on subsets drawn once per attribute
    subsets: dict[str, tuple[BalancedSubset, BalancedSubset] | LatentStitchError] = {}
    for attr in attributes:
        try:
            subsets[attr] = draw_subsets(table, attr, split, cfg.seed)
        except LatentStitchError as exc:
            subsets[attr] = exc
    probe_tasks = [(mid, attr) for mid in model_ids for attr in attributes]

    def train_one(task):
        mid, attr = task
        return train_probe(latents[mid], split, subsets[attr], attr, alphas[mid], mid,
                           standardize=standardize)

    outcomes = _run_cells(train_one, probe_tasks, threads)

    fitted: dict[tuple[str, str], tuple[Probe, float]] = {}
    report_rows: list[dict] = []
    acc_values = np.full((len(model_ids), len(attributes)), np.nan)
    for (mid, attr), (result, err) in zip(probe_tasks, outcomes):
        if err is not None:
            errors.append(f"probe {mid}/{attr}: {err}")
            continue
        probe, acc = fitted[(mid, attr)] = result
        save_probe(probe, probes_dir / f"{mid}__{attr}.lprb")
        report_rows.append(
            {
                "model": mid,
                "attribute": attr,
                "alpha": probe.alpha,
                "train_n_per_class": subsets[attr][0].per_class,
                "holdout_accuracy": acc,
            }
        )
        acc_values[model_ids.index(mid), attributes.index(attr)] = acc

    # Stitched probes, one fit per (source, alpha). fit_ridge solves each output
    # column alone with one Gram (Cholesky, or min-norm lstsq), so fitting the
    # source's train rows to a target probe's train scores Y w gives that probe
    # composed with the src->dst map, x -> (W^T w).x + (c.w + b), without the
    # d_out x d_in map or any mapped holdout.
    pair_list = [(src, dst) for src in model_ids for dst in model_ids]
    probe_attrs = {mid: [a for a in attributes if (mid, a) in fitted] for mid in model_ids}
    probe_weights = {  # (attributes with a probe) x d, the rows of the probe weights
        mid: np.array([fitted[(mid, a)][0].w for a in probe_attrs[mid]]).reshape(-1, latents[mid].d)
        for mid in model_ids
    }

    def stitch_source(src):
        X = latents[src].X[rows_of(latents[src], split[0])]
        pair_errors: dict[str, str] = {}
        scores: dict[str, np.ndarray] = {}
        groups: dict[float, list[str]] = {}
        for dst in model_ids:
            try:
                Y = latents[dst].X[rows_of(latents[dst], split[0])]
            except LatentStitchError as exc:
                pair_errors[dst] = f"{type(exc).__name__}: {exc}"
                continue
            scores[dst] = Y @ probe_weights[dst].T
            groups.setdefault(resolve_map_alpha(cfg, src, dst), []).append(dst)
        by_target: dict[tuple[str, str], Probe] = {}
        solvers: dict[str, str] = {}
        for alpha, dsts in groups.items():
            Y = np.hstack([scores.pop(dst) for dst in dsts])
            try:
                m = fit_ridge(X, Y, alpha)
            except LatentStitchError as exc:
                pair_errors.update(dict.fromkeys(dsts, f"{type(exc).__name__}: {exc}"))
                continue
            solvers.update(dict.fromkeys(dsts, m.solver))
            columns = [(dst, attr) for dst in dsts for attr in probe_attrs[dst]]
            for (dst, attr), u, c in zip(columns, m.W, m.b):
                probe = fitted[(dst, attr)][0]
                by_target[(dst, attr)] = Probe(attribute=attr, model_id=src, w=u, b=c + probe.b,
                                               alpha=probe.alpha, threshold=probe.threshold)
        return by_target, solvers, pair_errors

    # match / delta per (pair, attribute), evaluated on the target's balanced
    # holdout: the native probe on the target's rows, the stitched probe on the
    # source's rows. Map errors come first, in pair order, then match errors.
    source_outcomes = dict(zip(model_ids, _run_cells(stitch_source, model_ids, threads)))
    pair_labels = [f"{src}->{dst}" for src, dst in pair_list]
    match_values = np.full((len(pair_list), len(attributes)), np.nan)
    delta_values = np.full((len(pair_list), len(attributes)), np.nan)
    map_solver: dict[str, str] = {}
    match_errors: list[str] = []
    for pi, (src, dst) in enumerate(pair_list):
        result, err = source_outcomes[src]
        if err is None:
            by_target, solvers, pair_errors = result
            err = pair_errors.get(dst)
        if err is not None:
            errors.append(f"map {src}->{dst}: {err}")
            continue
        map_solver[f"{src}->{dst}"] = solvers[dst]
        for attr in probe_attrs[dst]:
            probe, acc_native = fitted[(dst, attr)]
            stitched, hold, ai = by_target[(dst, attr)], subsets[attr][1], attributes.index(attr)
            try:
                x_native = latents[dst].X[rows_of(latents[dst], hold.ids)]
                x_source = latents[src].X[rows_of(latents[src], hold.ids)]
                match_values[pi, ai] = match_percent(probe, x_native, x_source, stitched=stitched)
                acc_mapped = accuracy(stitched, x_source, hold.labels())
                delta_values[pi, ai] = accuracy_delta(acc_native, acc_mapped)
            except LatentStitchError as exc:
                match_errors.append(f"match {src}->{dst}/{attr}: {type(exc).__name__}: {exc}")
    errors.extend(match_errors)

    accuracy_grid = MetricGrid(
        name="probe_accuracy", row_ids=list(model_ids), col_ids=list(attributes), values=acc_values
    )
    match_grid = MetricGrid(
        name="match_percent", row_ids=pair_labels, col_ids=list(attributes), values=match_values
    )
    delta_grid = MetricGrid(
        name="accuracy_delta_percent",
        row_ids=pair_labels,
        col_ids=list(attributes),
        values=delta_values,
    )
    write_probe_report(report_rows, out / "probe_report.csv")
    emit_csv(accuracy_grid, out / "probe_accuracy_grid.csv")
    emit_csv(match_grid, out / "match_grid.csv")
    emit_csv(delta_grid, out / "delta_grid.csv")
    _write_errors(errors, out / "suite_errors.txt")
    metadata = {
        "command": "probe-suite",
        "seed": cfg.seed,
        "split": {"train": cfg.split.n_train, "holdout": cfg.split.n_holdout, "from": model_ids[0]},
        "attributes": attributes,
        "probe_alpha": alphas,
        "label_coding": {"-1": 0, "+1": 1},
        "decision_threshold": 0.5,
        "threshold_tie_rule": "scores exactly at threshold classify as 1",
        "standardize": standardize,
        "holdout_per_class": HOLDOUT_PER_CLASS,
        "accuracy_delta": "signed percent change relative to native accuracy",
        "grid_layout": "rows=source->target pair, columns=attributes",
        "noising_schedule": _noising_metadata(cfg),
        "probe_lasso": {
            f"{mid}/{attr}": {"sweeps": probe.sweeps, "nnz": int(np.count_nonzero(probe.w))}
            for (mid, attr), (probe, _) in fitted.items()
        },
        "map_solver": map_solver,
        "stitched_probes": "each target probe (w, b) composed with its src->dst map: the map's "
                           "fit (same alpha and solver) run on the target probes' train scores "
                           "Y w gives (W^T w, c.w + b) on the source space, scored on the "
                           "source's holdout rows",
    }
    _write_json(metadata, out / "metadata.json")
    return SuiteResult(
        report_rows=report_rows,
        accuracy_grid=accuracy_grid,
        match_grid=match_grid,
        delta_grid=delta_grid,
        errors=errors,
    )


# --- training dynamics ----------------------------------------------------------


def run_dynamics(
    cfg: ExperimentConfig,
    checkpoint_paths,
    labels: list[str] | None = None,
    standardize: bool = False,
) -> DynamicsSeries:
    """Retrain probes on each checkpoint's frozen latents and locate the
    plateau checkpoint per attribute."""
    paths = [Path(p) for p in checkpoint_paths]
    if len(paths) < 2:
        raise ConfigError("dynamics needs at least 2 checkpoint latent files")
    if cfg.attributes_path is None or not Path(cfg.attributes_path).is_file():
        raise ConfigError("dynamics needs an existing attributes path in the config")
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise ConfigError("missing checkpoint files: " + ", ".join(missing))
    table = read_attribute_table(cfg.attributes_path)
    attributes = select_attributes(table, cfg.attribute_subset)
    if labels is None:
        labels = [str(i) for i in range(len(paths))]
    if len(labels) != len(paths):
        raise ConfigError(f"{len(labels)} labels for {len(paths)} checkpoints")

    datasets = [read_latents(p) for p in paths]
    for ds, p in zip(datasets[1:], paths[1:]):
        if ds.ids != datasets[0].ids:
            raise InconsistentIds(f"{p}: sample ids differ from the first checkpoint")

    split = split_ids(datasets[0], cfg.split)
    spaces = dict.fromkeys(ds.model_id for ds in datasets)
    alphas = {mid: resolve_probe_alpha(cfg, mid) for mid in spaces}
    subsets = {attr: draw_subsets(table, attr, split, cfg.seed) for attr in attributes}
    acc = np.full((len(attributes), len(datasets)), np.nan)
    for ci, ds in enumerate(datasets):
        for ai, attr in enumerate(attributes):
            _, acc[ai, ci] = train_probe(ds, split, subsets[attr], attr, alphas[ds.model_id],
                                         ds.model_id, standardize=standardize)

    plateaus = [plateau_index(acc[ai], cfg.plateau_eps) for ai in range(len(attributes))]
    return DynamicsSeries(
        checkpoint_labels=list(labels),
        attributes=list(attributes),
        accuracies=acc,
        plateau_indices=plateaus,
    )
