"""Reconstruction-based similarity metrics.

Pixel-space RMSE and the Frechet distance between Gaussian fits of two
feature sets, on arrays. The Frechet computation consumes generic feature
vectors; flattened raw pixels are a legitimate degenerate choice
("pixel-FID") when no embedding network is in play.

A summary is its mean, a covariance factor F with F^T F = Sigma, built when
the summary is, and its sample count. FID has one formula: tr Sigma =
||F||_F^2, and tr (Sp^1/2 Sq Sp^1/2)^1/2 is the nuclear norm of Fp Fq^T
(Dowson & Landau 1982; Mathiasen & Hvilshoej, arXiv:2009.14075). A summary
of fewer samples than dimensions takes its scaled centered rows as F, so FID
between two of them forms no d x d matrix. No ridge is added.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .data import take
from .errors import DimensionMismatch, EmptySet, NotPSD, TooFewSamples
from .linalg import cov_factor, nuclear_norm

#: Results above this negative floor are treated as numerical zero.
NEGATIVE_FLOOR = -1e-6


class GaussianSummary:
    """Mean ``mu``, covariance factor ``factor`` (F.T @ F == sigma) and sample
    count ``n`` (None when unknown) of one feature set.

    Give exactly one of ``sigma`` (d x d) and ``factor`` (r x d, e.g. the
    scaled centered rows). A sigma is checked for shape, symmetry and a
    non-negative diagonal, then factored by linalg.cov_factor (Cholesky, else
    the PSD square root), so an indefinite sigma raises NotPSD here.
    ``sigma`` is formed from F on first read.
    """

    def __init__(self, mu, sigma=None, n: int | None = None, factor=None) -> None:
        if (sigma is None) == (factor is None):
            raise ValueError("give exactly one of sigma and factor")
        self.mu = np.ascontiguousarray(mu, dtype=np.float64)
        self.n = n
        held = np.ascontiguousarray(sigma if factor is None else factor, dtype=np.float64)
        d = self.mu.shape[0]
        if self.mu.ndim != 1 or held.shape != (d if factor is None else len(held), d):
            name = "sigma" if factor is None else "factor"
            raise DimensionMismatch(
                f"mu shape {self.mu.shape} incompatible with {name} shape {held.shape}"
            )
        if factor is not None:
            self.factor = held
            return
        scale = np.abs(held).max()
        if scale > 0 and np.abs(held - held.T).max() > 1e-10 * scale:
            raise DimensionMismatch("sigma must be symmetric within 1e-10 relative")
        if np.any(np.diag(held) < 0):
            raise DimensionMismatch("sigma diagonal must be non-negative")
        self.factor = cov_factor(held)

    @cached_property
    def sigma(self) -> np.ndarray:
        sigma = self.factor.T @ self.factor
        return (sigma + sigma.T) / 2.0

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def _rows(a) -> np.ndarray:
    out = np.asarray(a)
    return out.reshape(1, -1) if out.ndim == 1 else out


def mean_squared_difference(a, b, rows=None) -> float:
    """Mean over all entries of the squared difference of a and b.

    a and b are arrays of the same shape; or, with rows=(ia, ib) from
    data.align(a, b, as_rows=True), two latent datasets whose rows ia[k] and
    ib[k] are compared, each block of rows gathered with data.take so no
    aligned copy of either is made. The squared differences are summed in
    float64 over row blocks of about 2^20 entries, so no float64 copy of a
    whole input is made.
    """
    if rows is None:
        x, y = _rows(a), _rows(b)
        if x.shape != y.shape:
            raise DimensionMismatch(f"shape mismatch: {x.shape} vs {y.shape}")
        n, d = x.shape
    else:
        ia, ib = rows
        if (len(ia), a.d) != (len(ib), b.d):
            raise DimensionMismatch(f"shape mismatch: {(len(ia), a.d)} vs {(len(ib), b.d)}")
        n, d = len(ia), a.d
    if n * d == 0:
        raise EmptySet("no entries to average")
    step = max(1, (1 << 20) // d)
    total = np.float64(0.0)
    for start in range(0, n, step):
        blk = slice(start, start + step)
        if rows is None:
            x_blk, y_blk = x[blk], y[blk]
        else:
            x_blk, y_blk = take(a, ia[blk]).X, take(b, ib[blk]).X
        diff = np.subtract(x_blk, y_blk, dtype=np.float64)
        del x_blk, y_blk
        total += np.vdot(diff, diff)
        del diff  # free this block before the next one is allocated
    return float(total / (n * d))


def pixel_rmse(a, b, rows=None) -> float:
    """Root mean squared pixel difference over all samples and channels:
    the square root of mean_squared_difference(a, b, rows)."""
    return float(np.sqrt(mean_squared_difference(a, b, rows=rows)))


def summarize(features) -> GaussianSummary:
    """Column means and unbiased (n-1 divisor) covariance factor of a feature
    set. One float64 copy of the samples is taken and centered in place, so
    the input is left unchanged. With fewer samples than dimensions the
    scaled centered rows (n x d) are the factor; otherwise the covariance
    (d x d) is formed and factored.
    """
    f = np.array(features, dtype=np.float64)
    if f.ndim != 2:
        raise DimensionMismatch(f"features must be 2-D, got shape {f.shape}")
    n, d = f.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples for a covariance, got {n}")
    mu = f.mean(axis=0)
    f -= mu
    if n < d:
        f /= np.sqrt(n - 1)
        return GaussianSummary(mu=mu, factor=f, n=n)
    sigma = f.T @ f / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    return GaussianSummary(mu=mu, sigma=sigma, n=n)


def fid(p: GaussianSummary, q: GaussianSummary) -> float:
    """Frechet distance between two Gaussian summaries.

    ||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p^{1/2} S_q S_p^{1/2})^{1/2}),
    through the factors (F^T F = S): tr S = ||F||_F^2, and the cross term is
    the nuclear norm of F_p F_q^T, whose squared singular values are the
    eigenvalues of S_p S_q. One eigenvalue-only solve of the smaller Gram of
    that r_p x r_q matrix (r the factor's row count) does the work.
    """
    if p.d != q.d:
        raise DimensionMismatch(f"dimension mismatch: {p.d} vs {q.d}")
    fp, fq = p.factor, q.factor
    tr_p = float(np.vdot(fp, fp))
    tr_q = float(np.vdot(fq, fq))
    cross = nuclear_norm(fp @ fq.T)
    diff = p.mu - q.mu
    value = float(diff @ diff + tr_p + tr_q - 2.0 * cross)
    scale = max(1.0, abs(tr_p) + abs(tr_q) + float(diff @ diff))
    if value < NEGATIVE_FLOOR * scale:
        raise NotPSD(f"Frechet distance came out at {value:.6e}, beyond the numerical floor")
    return max(value, 0.0)
