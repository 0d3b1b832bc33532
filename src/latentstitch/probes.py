"""Lasso linear probes for binary attributes on latent spaces.

Probes are lasso *regressors* on {0,1}-coded labels, thresholded at 0.5
(ties classify as 1). Training sets are class-balanced by the
80%-of-minimum rule; evaluation uses balanced holdouts. Cross-space
agreement is measured as a match percentage and a signed accuracy delta.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import AttributeTable, RecordReader, stable_id_hash, write_str
from .errors import DataError, NumericalError

LPRB_MAGIC = b"LPRB"
LPRB_VERSION = 1

#: Default lasso strength per latent space of the standard roster.
DEFAULT_PROBE_ALPHAS = {"VAE": 0.005, "VQVAE": 0.005, "DM": 0.02, "NF": 0.1}

#: Fallback strength for latent spaces not in the roster.
FALLBACK_PROBE_ALPHA = 0.01


@dataclass
class Probe:
    """Sparse linear classifier for one binary attribute on one latent space."""

    attribute: str
    model_id: str
    w: np.ndarray
    b: float
    alpha: float
    threshold: float = 0.5
    #: Lasso sweeps of the fit that produced the probe; not stored in LPRB files.
    sweeps: int = field(default=0, compare=False)
    #: lasso_cd's final max KKT violation (NaN when unknown); not stored in LPRB files.
    kkt: float = field(default=math.nan, compare=False)

    def __post_init__(self) -> None:
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        self.b = float(self.b)
        if self.w.ndim != 1:
            raise DataError(f"w must be 1-D, got shape {self.w.shape}")
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise DataError("probe parameters must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass
class BalancedSubset:
    """Equal-sized positive/negative id lists drawn from one pool."""

    pos_ids: list[str]
    neg_ids: list[str]
    per_class: int

    def __post_init__(self) -> None:
        if len(self.pos_ids) != self.per_class or len(self.neg_ids) != self.per_class:
            raise DataError("pos/neg id lists must both have per_class entries")
        if set(self.pos_ids) & set(self.neg_ids):
            raise DataError("positive and negative ids must be disjoint")

    @property
    def ids(self) -> list[str]:
        return self.pos_ids + self.neg_ids

    def labels(self) -> np.ndarray:
        """{0,1} labels aligned with `ids` (positives first)."""
        return np.concatenate(
            [np.ones(self.per_class, dtype=np.int8), np.zeros(self.per_class, dtype=np.int8)]
        )


def balanced_subset(
    table: AttributeTable,
    attribute: str,
    pool_ids: Sequence[str],
    seed: int,
    per_class: int | None = None,
) -> BalancedSubset:
    """Draw a class-balanced id subset for one attribute.

    By default per_class is floor(0.8 * min(#pos, #neg)) within the pool;
    an explicit per_class is capped at the available minimum. Sampling is
    uniform without replacement, deterministic given the seed, and invariant
    to the order of pool_ids.
    """
    pool = [sid for sid in pool_ids if sid in table.row_index]
    values = table.column(attribute)[[table.row_index[sid] for sid in pool]].tolist()
    pos = sorted(sid for sid, v in zip(pool, values) if v == 1)
    neg = sorted(sid for sid, v in zip(pool, values) if v == -1)
    if not pos or not neg:
        raise DataError(
            f"attribute {attribute!r}: pool has {len(pos)} positive / {len(neg)} negative"
        )
    smaller = min(len(pos), len(neg))
    if per_class is None:
        per_class = 4 * smaller // 5
        if per_class < 1:
            raise DataError(
                f"attribute {attribute!r}: 80% rule leaves no training examples"
            )
    else:
        per_class = min(per_class, smaller)
    rng = np.random.default_rng([seed, stable_id_hash(attribute)])
    pos_pick = sorted(rng.choice(len(pos), size=per_class, replace=False).tolist())
    neg_pick = sorted(rng.choice(len(neg), size=per_class, replace=False).tolist())
    return BalancedSubset(
        pos_ids=[pos[i] for i in pos_pick],
        neg_ids=[neg[i] for i in neg_pick],
        per_class=per_class,
    )


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _kkt_violations(corr: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """Per-coordinate violation of the lasso stationarity conditions at
    weights w, given corr = Xc^T r / n for the residual r at w."""
    return np.where(
        w != 0.0,
        np.abs(corr - alpha * np.sign(w)),
        np.maximum(np.abs(corr) - alpha, 0.0),
    )


def lasso_cd(
    X,
    y,
    alpha: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
    objectives: list | None = None,
):
    """Working-set coordinate descent for (1/2n)||y - Xw - b1||^2 + alpha ||w||_1.

    The intercept is unpenalized and handled by centering one float64 copy
    of X in place. Zero-variance features are skipped (their weight stays 0).

    Each outer round computes the residual afresh and its correlations
    Xc^T r / n with every column, and returns once the worst KKT
    subgradient violation is at most 10*tol (comparable in scale to a
    max-coordinate-update test of tol on well-conditioned data). Otherwise
    the working set is the nonzero weights plus the max(10, 2*nnz) zero
    weights that violate KKT most, or every non-constant column once four
    times that many reaches their number. Cyclic sweeps over the set then
    update each weight from the set's own Gram with covariance updates
    (Friedman, Hastie & Tibshirani 2010, JSS 33(1)) until the set's KKT
    conditions hold within 10*tol. A sweep is one pass over the working set,
    not over all d columns; max_iter caps the sweeps over all rounds, after
    which NumericalError is raised.

    A set covering every column forms a d x d Gram, which is cheap for the
    probes run here but not for d > n at the paper's scale (d = 12288);
    there the sweeps would need residual updates instead.

    Returns (w, b, n_sweeps, kkt): kkt is the worst KKT violation of the
    fresh-residual test the fit stopped on (at most 10*tol; NumericalError
    gives its last value instead), and n_sweeps is 0 when w = 0 already
    meets it. A caller-passed ``objectives`` list gets each sweep's objective.
    """
    Xc = np.array(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if Xc.ndim != 2 or Xc.shape[0] != y.shape[0] or Xc.shape[0] < 1:
        raise DataError(f"X shape {Xc.shape} incompatible with y length {y.shape}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n, d = Xc.shape
    x_mean = Xc.mean(axis=0)
    Xc -= x_mean
    y_mean = y.mean()
    yc = y - y_mean
    usable = np.einsum("ij,ij->j", Xc, Xc) > 0.0
    n_usable = int(usable.sum())
    w = np.zeros(d)
    sweeps = 0
    while True:
        # KKT is the binding exit condition: on ill-conditioned designs the
        # fit settles long before the weights stop sloshing between
        # near-collinear columns, so a small weight step neither implies nor
        # is implied by optimality.
        corr = Xc.T @ (yc - Xc @ w) / n
        viol = _kkt_violations(corr, w, alpha)
        kkt = float(viol.max(initial=0.0))
        if kkt <= 10.0 * tol:
            return w, float(y_mean - x_mean @ w), sweeps, kkt
        if sweeps >= max_iter:
            break
        active = w != 0.0
        nnz = int(active.sum())
        grow = max(10, 2 * nnz)
        if 4 * (nnz + grow) >= n_usable:
            in_set = usable
        else:
            # a boolean mask, not np.union1d, which imports numpy.ma
            in_set = active.copy()
            viol[active] = 0.0
            worst = np.argsort(-viol, kind="stable")[:grow]
            in_set[worst[viol[worst] > 0.0]] = True
        W = np.flatnonzero(in_set)
        XW = Xc.take(W, axis=1)
        G = XW.T @ XW / n
        rows, diag = list(G), G.diagonal().tolist()
        g = corr[W]  # weights outside W are 0, so this is XW^T r / n
        wW = w[W]
        ws = wW.tolist()  # Python floats: the sweep is scalar code
        while sweeps < max_iter:
            sweeps += 1
            for j, gjj in enumerate(diag):
                wj = ws[j]
                wj_new = _soft_threshold(g.item(j) + gjj * wj, alpha) / gjj
                if wj_new != wj:
                    g -= rows[j] * (wj_new - wj)
                    ws[j] = wj_new
            wW = np.array(ws)
            if objectives is not None:
                r = yc - XW @ wW
                objectives.append(0.5 * (r @ r) / n + alpha * float(np.abs(wW).sum()))
            if _kkt_violations(g, wW, alpha).max() <= 10.0 * tol:
                break
        w[W] = wW
    raise NumericalError(
        f"lasso did not converge in {max_iter} sweeps "
        f"(max KKT violation {kkt:.6e} > 10*tol = {10.0 * tol:.1e})"
    )


def fit_lasso(
    X,
    y,
    alpha: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
    attribute: str = "",
    model_id: str = "",
    standardize: bool = False,
) -> Probe:
    """Fit a lasso probe; y is the regression target ({0,1} labels in probe use).

    With standardize=True the fit runs on unit-variance columns and the
    weights are mapped back to raw feature scale, so predict() always
    consumes raw latents; the stored alpha then refers to the standardized
    design. The probe's ``kkt`` is lasso_cd's: the max KKT violation of its
    final stop test on the design it ran on, at most 10*tol.
    """
    if standardize:
        X = np.asarray(X, dtype=np.float64)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        X = X / sd
    w, b, sweeps, kkt = lasso_cd(X, y, alpha, tol=tol, max_iter=max_iter)
    if standardize:
        w = w / sd
    return Probe(attribute=attribute, model_id=model_id, w=w, b=b, alpha=float(alpha),
                 sweeps=sweeps, kkt=kkt)


def predict(probe: Probe, X) -> np.ndarray:
    """{0,1} labels; 1 iff the probe score reaches the threshold."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != probe.d:
        raise DataError(f"X shape {X.shape} incompatible with probe d={probe.d}")
    scores = X @ probe.w + probe.b
    return (scores >= probe.threshold).astype(np.int8)


def accuracy(probe: Probe, X, y) -> float:
    y = np.asarray(y).ravel()
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise DataError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if y.size == 0:
        raise DataError("no samples to score")
    return float(np.mean(predict(probe, X) == y))


def match_percent(probe: Probe, X_native, X_mapped, stitched: Probe | None = None) -> float:
    """Percentage of row-aligned samples where the probe predicts the same
    label on native and mapped latents. With a stitched probe (the probe
    composed with a stitching map), X_mapped holds the map's source latents
    and the stitched probe labels them."""
    a = predict(probe, X_native)
    b = predict(probe if stitched is None else stitched, X_mapped)
    if a.shape != b.shape:
        raise DataError(f"{a.shape[0]} native rows vs {b.shape[0]} mapped rows")
    if a.size == 0:
        raise DataError("no samples to compare")
    return float(100.0 * np.mean(a == b))


def accuracy_delta(acc_native: float, acc_mapped: float) -> float:
    """Signed percent change in accuracy relative to the native baseline."""
    if acc_native <= 0.0:
        raise NumericalError("native accuracy must be positive")
    return float(100.0 * (acc_mapped - acc_native) / acc_native)


# --- serialization and reports ----------------------------------------------


def save_probe(probe: Probe, path) -> None:
    with open(path, "wb") as f:
        f.write(LPRB_MAGIC)
        f.write(struct.pack("<I", LPRB_VERSION))
        write_str(f, probe.attribute)
        write_str(f, probe.model_id)
        f.write(struct.pack("<ddI", probe.alpha, probe.threshold, probe.d))
        f.write(struct.pack("<d", probe.b))
        np.ascontiguousarray(probe.w, dtype="<f8").tofile(f)


def load_probe(path) -> Probe:
    with open(path, "rb") as f:
        r = RecordReader(f, path, LPRB_MAGIC, LPRB_VERSION)
        attribute, model_id = r.string(), r.string()
        alpha, threshold, d = r.unpack("<ddI")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise DataError(f"{path}: probe alpha {alpha!r} is not a finite value >= 0")
        if not math.isfinite(threshold):
            raise DataError(f"{path}: probe threshold {threshold!r} is not finite")
        (b,) = r.unpack("<d")
        w = r.array("<f8", d)
        r.end()
    return Probe(attribute=attribute, model_id=model_id, w=w, b=b, alpha=alpha, threshold=threshold)


def write_probe_report(rows: Sequence[dict], path) -> None:
    """CSV report: one row per (model, attribute) probe."""
    fields = ["model", "attribute", "alpha", "train_n_per_class", "holdout_accuracy"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["alpha"] = format(float(row["alpha"]), ".9g")
            out["holdout_accuracy"] = format(float(row["holdout_accuracy"]), ".9g")
            writer.writerow(out)
