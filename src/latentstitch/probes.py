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
from .linalg import centered_products

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
    #: max |Xc^T yc| / n of the fit's design, the alpha at and above which the
    #: fit is w = 0 (NaN when unknown); not stored in LPRB files.
    alpha_max: float = field(default=math.nan, compare=False)

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


#: SharedGram.gram zeroes a column whose sum of squares over the subset is at
#: most this fraction of the split's: three sums of at most the split's size
#: meet there, each rounded to a few eps of it.
FLAT_RTOL = 64 * np.finfo(np.float64).eps


def _shape(X, y, rows) -> tuple[int, int]:
    """(n, d) of X's rows ``rows`` (all rows when None), checked against
    the length of y."""
    shape = tuple(X.shape) if rows is None else (len(rows), *X.shape[1:])
    if len(shape) != 2 or shape[0] != np.size(y) or shape[0] < 1:
        raise DataError(f"X shape {shape} incompatible with y length {np.shape(y)}")
    return shape


class SharedGram:
    """The centered Gram of a split's rows of X, from which each probe's
    Gram is taken by removing the rows its balanced subset leaves out.

    probe-suite makes one per model and dynamics one per checkpoint, over
    the train split rows ``rows``; fit_lasso takes it as ``shared=`` with a
    probe's ``rows=``, distinct rows of that split. For subset rows S and
    excluded rows E, with n_s = n_S + n_E and means x_s of the split and x_E
    of E, the sums of squares split exactly (Chan, Golub & LeVeque 1983,
    The American Statistician 37(3)):

        C_S = C_s - C_E - (n_s n_E / n_S) (x_E - x_s)(x_E - x_s)^T,

    so a probe sums only E's rows, about a fifth of the split's. The
    split's (x_s, C_s) are summed by linalg.centered_products on the first
    request, so a model whose probes all have n < d never forms them.
    """

    def __init__(self, X, rows):
        self.X, self.rows = X, np.asarray(rows, dtype=np.intp)
        self._split = None  # (x_s, C_s), made once

    def gram(self, rows) -> np.ndarray:
        """A new float64 Xc^T Xc of X's rows ``rows``, exactly symmetric.
        A column whose sum of squares over the rows is rounding beside the
        split's (it is constant there) reads 0, as in a direct Gram."""
        if self._split is None:
            self._split = centered_products(self.X, self.rows)[:2]
        x_mean, split = self._split
        left = np.ones(self.X.shape[0], dtype=bool)
        left[rows] = False
        excluded = self.rows[left[self.rows]]
        n_s, n_e = len(self.rows), len(excluded)
        if n_s - n_e != len(rows) or not len(rows):
            raise DataError(f"{len(rows)} probe rows are not distinct rows of the "
                            f"{n_s}-row split")
        if not n_e:
            return split.copy()
        e_mean, g = centered_products(self.X, excluded)[:2]
        np.subtract(split, g, out=g)
        delta = e_mean - x_mean
        g -= (n_s * n_e / (n_s - n_e)) * np.outer(delta, delta)
        flat = np.diagonal(g) <= FLAT_RTOL * np.diagonal(split)
        g[flat], g[:, flat] = 0.0, 0.0
        return g


@dataclass
class Moments:
    """A probe's rows in covariance form: the means x_mean and y_mean, the
    Gram G = Xc^T Xc / n, the correlations c = Xc^T yc / n and
    ||yc||^2 / n, for lasso_cd's covariance rounds."""

    x_mean: np.ndarray
    gram: np.ndarray
    corr: np.ndarray
    y_mean: float
    y_sq: float

    @classmethod
    def of(cls, X, y, rows=None, shared: SharedGram | None = None) -> Moments:
        """The Moments of X's rows ``rows`` (all when None) against y, one
        value per row. One linalg.centered_products pass gives the means and
        c, and the Gram comes from ``shared``, or else from a second pass
        over the rows. X is a float array or data.FileRows, read one block
        of rows at a time, so no float64 copy of the rows is made."""
        n, _ = _shape(X, y, rows)
        y = np.asarray(y, dtype=np.float64).reshape(n, 1)
        x_mean, _, y_mean, cross, y_sq = centered_products(X, rows, Y=y, gram=False)
        gram = centered_products(X, rows)[1] if shared is None else shared.gram(rows)
        gram /= n
        return cls(x_mean, gram, cross[:, 0] / n, float(y_mean[0]), float(y_sq) / n)

    @property
    def usable(self) -> np.ndarray:
        """The columns that vary over the rows."""
        return np.diagonal(self.gram) > 0.0

    @property
    def alpha_max(self) -> float:
        """max |c| over the usable columns: the smallest alpha at which w = 0."""
        return float(np.abs(self.corr[self.usable]).max(initial=0.0))

    def standardize(self) -> np.ndarray:
        """Rescale in place to unit-variance columns (a column without
        variance keeps its scale) and return the columns' standard deviations."""
        sd = np.sqrt(np.diagonal(self.gram))
        sd[sd == 0.0] = 1.0
        self.gram /= np.outer(sd, sd)
        self.corr /= sd
        self.x_mean /= sd
        return sd


def _descend(d, usable, corr_at, set_gram, loss, alpha, tol, max_iter, objectives):
    """lasso_cd's rounds, given corr_at(w) = Xc^T r / n at weights w and
    set_gram(W) = XW^T XW / n for a working set W; loss(W, wW, GW) is the
    squared-error half of the objective, read only when ``objectives`` is a
    list. Returns (w, sweeps, kkt)."""
    w = np.zeros(d)
    n_usable = int(usable.sum())
    sweeps = 0
    while True:
        # KKT is the binding exit condition: on ill-conditioned designs the
        # fit settles long before the weights stop sloshing between
        # near-collinear columns, so a small weight step neither implies nor
        # is implied by optimality.
        corr = corr_at(w)
        viol = _kkt_violations(corr, w, alpha)
        kkt = float(viol.max(initial=0.0))
        if kkt <= 10.0 * tol:
            return w, sweeps, kkt
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
        G = set_gram(W)
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
                objectives.append(loss(W, wW, G) + alpha * float(np.abs(wW).sum()))
            if _kkt_violations(g, wW, alpha).max() <= 10.0 * tol:
                break
        w[W] = wW
    raise NumericalError(
        f"lasso did not converge in {max_iter} sweeps "
        f"(max KKT violation {kkt:.6e} > 10*tol = {10.0 * tol:.1e})"
    )


def lasso_cd(
    X,
    y,
    alpha: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
    objectives: list | None = None,
    moments: Moments | None = None,
):
    """Working-set coordinate descent for (1/2n)||y - Xw - b1||^2 + alpha ||w||_1.

    The intercept is unpenalized and handled by centering. Zero-variance
    features are skipped (their weight stays 0).

    With at least as many rows as columns (n >= d) the fit runs in
    covariance form (Friedman, Hastie & Tibshirani 2010, JSS 33(1)): from
    the rows' Moments alone, the centered Gram G = Xc^T Xc / n and
    c = Xc^T yc / n, summed here from X (Moments.of) unless the caller
    passes them as ``moments`` (fit_lasso does, taking the Gram from a
    SharedGram); X and y are then not read. With n < d it centers one
    float64 copy of X in place, since a d x d Gram would be larger than the
    design.

    Each outer round computes the correlations Xc^T r / n of every column
    with the residual r afresh: c - G w in covariance form, Xc^T r / n from
    the rows otherwise. It returns once the worst KKT subgradient violation
    is at most 10*tol (comparable in scale to a max-coordinate-update test
    of tol on well-conditioned data). Otherwise the working set is the
    nonzero weights plus the max(10, 2*nnz) zero weights that violate KKT
    most, or every non-constant column once four times that many reaches
    their number. Cyclic sweeps over the set then update each weight from
    the set's own Gram with covariance updates until the set's KKT
    conditions hold within 10*tol; the set's Gram is a slice of G, or is
    formed from the set's columns of the rows when n < d. A sweep is one
    pass over the working set, not over all d columns; max_iter caps the
    sweeps over all rounds, after which NumericalError is raised.

    In the row rounds a set covering every column still forms a d x d
    Gram, which is cheap for the probes run here but not for d > n at the
    paper's scale (d = 12288); there the sweeps would need residual updates
    instead.

    Returns (w, b, n_sweeps, kkt): kkt is the worst KKT violation of the
    fresh test the fit stopped on (at most 10*tol; NumericalError gives its
    last value instead), and n_sweeps is 0 when w = 0 already meets it. A
    caller-passed ``objectives`` list gets each sweep's objective.
    """
    if moments is None:
        X = np.asarray(X)
        n, d = _shape(X, y, None)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if moments is None and n < d:
        Xc = np.array(X, dtype=np.float64)
        x_mean = Xc.mean(axis=0)
        Xc -= x_mean
        y = np.asarray(y, dtype=np.float64).ravel()
        y_mean = y.mean()
        yc = y - y_mean

        def loss(W, wW, _):
            r = yc - Xc.take(W, axis=1) @ wW
            return 0.5 * (r @ r) / n

        def set_gram(W):
            XW = Xc.take(W, axis=1)
            return XW.T @ XW / n

        w, sweeps, kkt = _descend(
            d, np.einsum("ij,ij->j", Xc, Xc) > 0.0,
            lambda w: Xc.T @ (yc - Xc @ w) / n, set_gram, loss, alpha, tol, max_iter,
            objectives)
    else:
        m = moments if moments is not None else Moments.of(X, y)
        x_mean, y_mean, G, c = m.x_mean, m.y_mean, m.gram, m.corr

        def loss(W, wW, GW):
            return 0.5 * (m.y_sq - 2.0 * (c[W] @ wW) + wW @ GW @ wW)

        w, sweeps, kkt = _descend(
            len(c), m.usable, lambda w: c - G @ w, lambda W: G[np.ix_(W, W)], loss,
            alpha, tol, max_iter, objectives)
    return w, float(y_mean - x_mean @ w), sweeps, kkt


def fit_lasso(
    X,
    y,
    alpha: float,
    tol: float = 1e-6,
    max_iter: int = 10000,
    attribute: str = "",
    model_id: str = "",
    standardize: bool = False,
    rows=None,
    shared: SharedGram | None = None,
) -> Probe:
    """Fit a lasso probe on X's rows ``rows`` (all rows when None); y is the
    regression target ({0,1} labels in probe use), one value per row.

    With n >= d the fit takes the rows' Moments, its Gram from ``shared``
    (a SharedGram over a split holding the rows) when given, so no float64
    copy of the rows is made; with n < d it gathers the rows for lasso_cd's
    row rounds. With standardize=True the fit runs on unit-variance columns
    and the weights are mapped back to raw feature scale, so predict()
    always consumes raw latents; the stored alpha then refers to the
    standardized design. The probe's ``kkt`` is lasso_cd's: the max KKT
    violation of its final stop test on the design it ran on, at most
    10*tol; its ``alpha_max`` is max |Xc^T yc| / n over that design's
    non-constant columns, the alpha at and above which w = 0.
    """
    X = np.asarray(X) if rows is None else X
    n, d = _shape(X, y, rows)
    if n >= d:
        m = Moments.of(X, y, rows, shared)
        sd = m.standardize() if standardize else None
        w, b, sweeps, kkt = lasso_cd(X, y, alpha, tol=tol, max_iter=max_iter, moments=m)
        alpha_max = m.alpha_max
    else:
        X = X if rows is None else X[rows]
        sd = None
        if standardize:
            X = np.asarray(X, dtype=np.float64)
            sd = X.std(axis=0)
            sd[sd == 0.0] = 1.0
            X = X / sd
        w, b, sweeps, kkt = lasso_cd(X, y, alpha, tol=tol, max_iter=max_iter)
        cross = centered_products(X, Y=np.asarray(y, dtype=np.float64).reshape(n, 1),
                                  gram=False)[3]
        alpha_max = float(np.abs(cross).max(initial=0.0)) / n
    if sd is not None:
        w = w / sd
    return Probe(attribute=attribute, model_id=model_id, w=w, b=b, alpha=float(alpha),
                 sweeps=sweeps, kkt=kkt, alpha_max=alpha_max)


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
