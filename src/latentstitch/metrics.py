"""Reconstruction-based similarity metrics.

Pixel-space RMSE and the Frechet distance between Gaussian fits of two
feature sets. The Frechet computation consumes generic feature vectors;
flattened raw pixels are a legitimate degenerate choice ("pixel-FID") when
no embedding network is in play.

Every summary holds a covariance factor F with F^T F = Sigma, and FID has one
formula: tr Sigma = ||F||_F^2, and tr (Sp^1/2 Sq Sp^1/2)^1/2 is the nuclear
norm of Fp Fq^T (Dowson & Landau 1982; Mathiasen & Hvilshoej,
arXiv:2009.14075). A summary of fewer samples than dimensions keeps its
scaled centered rows as F, so FID between two of them forms no d x d matrix.
No ridge is added.
"""

from __future__ import annotations

import threading

import numpy as np

from .data import ImageDataset
from .errors import DimensionMismatch, NotPSD, TooFewSamples
from .linalg import cov_factor, nuclear_norm

#: Results above this negative floor are treated as numerical zero.
NEGATIVE_FLOOR = -1e-6


class GaussianSummary:
    """Mean and unbiased covariance of one feature set, with a factor F
    (``factor``, F.T @ F == sigma).

    Given the scaled centered rows ``rows`` (an n x d matrix), F is those rows
    and ``sigma`` is formed from F on first read. Given ``sigma``, F is
    linalg.cov_factor(sigma) (Cholesky, else the PSD square root), formed on
    first use, so an indefinite sigma raises NotPSD there, not here. Grid
    cells on several threads share one summary, so it is factored under a
    lock, once.
    """

    def __init__(self, mu, sigma=None, n: int | None = None, rows=None) -> None:
        if (sigma is None) == (rows is None):
            raise ValueError("give exactly one of sigma and rows")
        self.mu = np.ascontiguousarray(mu, dtype=np.float64)
        self.n = n  # sample count when known
        held = np.ascontiguousarray(sigma if rows is None else rows, dtype=np.float64)
        self.rows, self._sigma = (None, held) if rows is None else (held, None)
        self._factor = self.rows
        self._factor_lock = threading.Lock()
        d = self.mu.shape[0]
        if self.mu.ndim != 1 or held.shape != (d if rows is None else len(held), d):
            name = "sigma" if rows is None else "rows"
            raise DimensionMismatch(
                f"mu shape {self.mu.shape} incompatible with {name} shape {held.shape}"
            )
        if rows is not None:
            return
        scale = np.abs(held).max()
        if scale > 0 and np.abs(held - held.T).max() > 1e-10 * scale:
            raise DimensionMismatch("sigma must be symmetric within 1e-10 relative")
        if np.any(np.diag(held) < 0):
            raise DimensionMismatch("sigma diagonal must be non-negative")

    @property
    def factor(self) -> np.ndarray:
        with self._factor_lock:
            if self._factor is None:
                self._factor = cov_factor(self._sigma)
        return self._factor

    @property
    def sigma(self) -> np.ndarray:
        if self._sigma is None:
            sigma = self.factor.T @ self.factor
            self._sigma = (sigma + sigma.T) / 2.0
        return self._sigma

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def _rows(a) -> np.ndarray:
    pixels = a.pixels if isinstance(a, ImageDataset) else np.asarray(a)
    out = np.asarray(pixels, dtype=np.float64)
    return out.reshape(1, -1) if out.ndim == 1 else out


def pixel_rmse(a, b) -> float:
    """Root mean squared pixel difference over all samples and channels."""
    x = _rows(a)
    y = _rows(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def summarize(features) -> GaussianSummary:
    """Column means and unbiased (n-1 divisor) covariance of a feature set.

    The summary keeps whichever is smaller: the scaled centered rows (n x d,
    its factor) when there are fewer samples than dimensions, else the
    covariance (d x d), which is factored on first use.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise DimensionMismatch(f"features must be 2-D, got shape {f.shape}")
    n, d = f.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples for a covariance, got {n}")
    mu = f.mean(axis=0)
    centered = f - mu
    if n < d:
        centered /= np.sqrt(n - 1)
        return GaussianSummary(mu=mu, rows=centered, n=n)
    sigma = centered.T @ centered / (n - 1)
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
