"""Reconstruction-based similarity metrics.

Pixel-space RMSE and the Frechet distance between Gaussian fits of two
feature sets, on arrays. The Frechet computation consumes generic feature
vectors; flattened raw pixels are a legitimate degenerate choice
("pixel-FID") when no embedding network is in play.

A summary is its mean, Sigma and its sample count; summarize builds it from
samples. Below d samples it keeps the scaled centered rows F (F^T F = Sigma)
instead, so FID between two of them forms no d x d matrix. FID has one
formula: tr (Sp^1/2 Sq Sp^1/2)^1/2 sums the square roots of the eigenvalues
of Sp Sq (Dowson & Landau 1982; Mathiasen & Hvilshoej, arXiv:2009.14075).
No ridge is added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import take
from .errors import DataError, NumericalError
from .linalg import (PANEL, centered_products, cholesky_in_place, nuclear_norm, row_blocks,
                     sqrt_trace)

#: Results above this negative floor are treated as numerical zero.
NEGATIVE_FLOOR = -1e-6


@dataclass(eq=False)
class GaussianSummary:
    """Mean ``mu`` (d), sample count ``n`` (None when unknown) and covariance
    of one feature set: a factor ``factor`` (r x d, F.T @ F == sigma), or,
    when it is None, ``sigma`` (d x d) itself. The arrays are held as
    float64, in the layout they came in, so no copy of either is made.
    """

    mu: np.ndarray
    factor: np.ndarray | None = None
    n: int | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        name = "sigma" if self.factor is None else "factor"
        cov = np.asarray(getattr(self, name), dtype=np.float64)
        setattr(self, name, cov)
        rows = cov.shape[:1] if name == "factor" else self.mu.shape
        if self.mu.ndim != 1 or cov.shape != rows + self.mu.shape:
            raise DataError(f"mu shape {self.mu.shape} incompatible with {name} shape {cov.shape}")

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def _rows(a) -> np.ndarray:
    out = np.asarray(a)
    return out.reshape(1, -1) if out.ndim == 1 else out


def mean_squared_difference(a, b, rows=None) -> float:
    """Mean over all entries of the squared difference of a and b.

    a and b are arrays of the same shape; or, with rows=(ia, ib) from
    data.align(a, b), two latent datasets whose rows ia[k] and ib[k] are
    compared, each block of rows gathered with data.take so no aligned copy
    of either is made. The squared differences are summed in float64 over
    linalg.row_blocks, so no float64 copy of a whole input is made.
    """
    if rows is None:
        x, y = _rows(a), _rows(b)
        if x.shape != y.shape:
            raise DataError(f"shape mismatch: {x.shape} vs {y.shape}")
        n, d = x.shape
        return mean_squared_blocks(n, d, lambda blk: (x[blk], y[blk]))
    ia, ib = rows
    if (len(ia), a.d) != (len(ib), b.d):
        raise DataError(f"shape mismatch: {(len(ia), a.d)} vs {(len(ib), b.d)}")
    return mean_squared_blocks(len(ia), a.d,
                               lambda blk: (take(a, ia[blk]).X, take(b, ib[blk]).X))


def mean_squared_blocks(n: int, d: int, pair) -> float:
    """Mean over n*d entries of the squared difference x - y, where
    pair(rows) gives the (x, y) blocks of a slice of the n rows. The squares
    are summed in float64, one of linalg.row_blocks at a time, in row order;
    each block is freed before the next is made."""
    if n * d == 0:
        raise DataError("no entries to average")
    total = np.float64(0.0)
    for blk in row_blocks(n):
        diff = np.subtract(*pair(blk), dtype=np.float64)
        total += np.vdot(diff, diff)
        del diff
    return float(total / (n * d))


def pixel_rmse(a, b, rows=None) -> float:
    """Root mean squared pixel difference over all samples and channels:
    the square root of mean_squared_difference(a, b, rows)."""
    return float(np.sqrt(mean_squared_difference(a, b, rows=rows)))


def summarize(features) -> GaussianSummary:
    """Column means and unbiased (n-1 divisor) covariance of a feature set,
    a 2-D array or the data.FileRows of a set read from disk; the input is
    left unchanged. With fewer samples than dimensions the scaled centered
    rows (n x d), a float64 copy of the samples, are the covariance's factor.
    Otherwise sigma (d x d, exactly symmetric) is accumulated from row blocks
    by linalg.centered_products, so no copy of the samples is made (a
    FileRows is read block by block), and kept as it is: fid factors it.
    """
    if features.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {features.shape}")
    n, d = features.shape
    if n < 2:
        raise DataError(f"need at least 2 samples for a covariance, got {n}")
    if n < d:
        f = np.array(features[:], dtype=np.float64)
        mu = f.mean(axis=0)
        f -= mu
        f /= np.sqrt(n - 1)
        return GaussianSummary(mu=mu, factor=f, n=n)
    mu, sigma = centered_products(features)[:2]
    sigma /= n - 1
    return GaussianSummary(mu=mu, sigma=sigma, n=n)


def _sum_squares(a: np.ndarray) -> float:
    """||a||_F^2, summed in a's memory order: a view for a C- or F-ordered a."""
    flat = a.ravel(order="K")
    return float(flat @ flat)


def _covariance_cross(p: GaussianSummary, q: GaussianSummary, overwrite: bool) -> float:
    """fid's cross term for two sigmas: sqrt_trace(L^T S L), with L L^T the
    other sigma, built in L's buffer one column panel at a time."""
    a, b = p.sigma, q.sigma
    p.sigma, q.sigma = (None, None) if overwrite else (a, b)  # handed over: freed once read
    for a, b in ((a, b), (b, a)):  # p's sigma, else q's; a failed one is restored
        low = a if overwrite and not np.may_share_memory(a, b) else a.copy()
        if lower := cholesky_in_place(low):
            break
    else:
        low[...] = linalg.psd_sqrt(low)  # neither factors: the symmetric square root
    for j in range(0, len(low), PANEL):
        k = j if lower else 0  # panel j reads L's columns from j on, a lower L's rows too
        low[j:, j:j + PANEL] = low[k:, j:].T @ (b[k:, k:] @ low[k:, j:j + PANEL])
    b = None  # a handed-over sigma goes before the eigensolver copies M
    return sqrt_trace(low)


def fid(p: GaussianSummary, q: GaussianSummary, overwrite: bool = False) -> float:
    """Frechet distance between two Gaussian summaries.

    ||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p^{1/2} S_q S_p^{1/2})^{1/2}),
    tr S = ||F||_F^2 for a factor (F^T F = S). The cross term is sqrt_trace
    of a matrix with the eigenvalues of S_p S_q: the smaller Gram of F_p F_q^T
    (nuclear_norm), F S F^T, or L^T S L for two sigmas. overwrite=True hands
    both sigmas over to be worked in and freed (sigma is None afterwards).
    """
    if p.d != q.d:
        raise DataError(f"dimension mismatch: {p.d} vs {q.d}")
    tr_p, tr_q = (_sum_squares(s.factor) if s.sigma is None else float(np.trace(s.sigma))
                  for s in (p, q))
    if p.sigma is None and q.sigma is None:
        cross = nuclear_norm(p.factor, q.factor)
    elif p.sigma is None or q.sigma is None:
        f, sigma = (p.factor, q.sigma) if p.sigma is None else (q.factor, p.sigma)
        cross = sqrt_trace(f @ sigma @ f.T)
    else:
        cross = _covariance_cross(p, q, overwrite)
    diff = p.mu - q.mu
    value = float(diff @ diff + tr_p + tr_q - 2.0 * cross)
    scale = max(1.0, abs(tr_p) + abs(tr_q) + float(diff @ diff))
    if value < NEGATIVE_FLOOR * scale:
        raise NumericalError(f"Frechet distance came out at {value:.6e}, beyond the numerical floor")
    return max(value, 0.0)
