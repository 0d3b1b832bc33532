"""Reconstruction-based similarity metrics.

Pixel-space RMSE and the Frechet distance between Gaussian fits of two
feature sets, on arrays. The Frechet computation consumes generic feature
vectors; flattened raw pixels are a legitimate degenerate choice
("pixel-FID") when no embedding network is in play.

A summary is its mean, a covariance factor F with F^T F = Sigma and its
sample count; summarize builds it from samples. FID has one formula: tr Sigma =
||F||_F^2, and tr (Sp^1/2 Sq Sp^1/2)^1/2 is the nuclear norm of Fp Fq^T
(Dowson & Landau 1982; Mathiasen & Hvilshoej, arXiv:2009.14075). A summary
of fewer samples than dimensions takes its scaled centered rows as F, so FID
between two of them forms no d x d matrix. No ridge is added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import take
from .errors import DataError, NumericalError
from .linalg import ROW_BLOCK_ENTRIES, centered_products, cov_factor, nuclear_norm

#: Results above this negative floor are treated as numerical zero.
NEGATIVE_FLOOR = -1e-6


@dataclass(eq=False)
class GaussianSummary:
    """Mean ``mu`` (d), covariance factor ``factor`` (r x d, F.T @ F == sigma)
    and sample count ``n`` (None when unknown) of one feature set. Both arrays
    are held as float64, the factor in the layout it came in (a Cholesky
    factor is the F-ordered transpose of linalg.cov_factor's L), so no copy
    of it is made; sigma itself is never kept.
    """

    mu: np.ndarray
    factor: np.ndarray
    n: int | None = None

    def __post_init__(self) -> None:
        self.mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        self.factor = np.asarray(self.factor, dtype=np.float64)
        if self.mu.ndim != 1 or self.factor.shape[1:] != self.mu.shape:
            raise DataError(
                f"mu shape {self.mu.shape} incompatible with factor shape {self.factor.shape}"
            )

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
    row blocks of about 2^20 entries, so no float64 copy of a whole input is
    made.
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
    are summed in float64, one block of about ROW_BLOCK_ENTRIES entries at a
    time, in row order; each block is freed before the next is made."""
    if n * d == 0:
        raise DataError("no entries to average")
    step = max(1, ROW_BLOCK_ENTRIES // d)
    total = np.float64(0.0)
    for start in range(0, n, step):
        diff = np.subtract(*pair(slice(start, start + step)), dtype=np.float64)
        total += np.vdot(diff, diff)
        del diff
    return float(total / (n * d))


def pixel_rmse(a, b, rows=None) -> float:
    """Root mean squared pixel difference over all samples and channels:
    the square root of mean_squared_difference(a, b, rows)."""
    return float(np.sqrt(mean_squared_difference(a, b, rows=rows)))


def summarize(features) -> GaussianSummary:
    """Column means and unbiased (n-1 divisor) covariance factor of a feature
    set, a 2-D array or the data.FileRows of a set read from disk; the input
    is left unchanged. With fewer samples than dimensions the scaled centered
    rows (n x d), a float64 copy of the samples, are the factor. Otherwise
    the covariance (d x d) is accumulated from row blocks by
    linalg.centered_products, so no copy of the samples is made (a FileRows
    is read block by block), and its factor is linalg.cov_factor's
    (Cholesky, else the PSD square root; NumericalError if indefinite),
    kept in the layout it returns. Sigma is dropped before the summary is
    built.
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
    mu, sigma, _, _ = centered_products(features)
    sigma /= n - 1
    factor = cov_factor(sigma)
    del sigma
    return GaussianSummary(mu=mu, factor=factor, n=n)


def _sum_squares(a: np.ndarray) -> float:
    """||a||_F^2, summed in a's memory order: a view for a C- or F-ordered a."""
    flat = a.ravel(order="K")
    return float(flat @ flat)


def fid(p: GaussianSummary, q: GaussianSummary) -> float:
    """Frechet distance between two Gaussian summaries.

    ||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p^{1/2} S_q S_p^{1/2})^{1/2}),
    through the factors (F^T F = S): tr S = ||F||_F^2, and the cross term is
    the nuclear norm of F_p F_q^T, whose squared singular values are the
    eigenvalues of S_p S_q. One eigenvalue-only solve of the smaller Gram of
    that r_p x r_q matrix (r the factor's row count) does the work.
    """
    if p.d != q.d:
        raise DataError(f"dimension mismatch: {p.d} vs {q.d}")
    fp, fq = p.factor, q.factor
    tr_p, tr_q = _sum_squares(fp), _sum_squares(fq)
    cross = nuclear_norm(fp, fq)
    diff = p.mu - q.mu
    value = float(diff @ diff + tr_p + tr_q - 2.0 * cross)
    scale = max(1.0, abs(tr_p) + abs(tr_q) + float(diff @ diff))
    if value < NEGATIVE_FLOOR * scale:
        raise NumericalError(f"Frechet distance came out at {value:.6e}, beyond the numerical floor")
    return max(value, 0.0)
