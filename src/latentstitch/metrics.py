"""Reconstruction-based similarity metrics.

Pixel-space RMSE and the Frechet distance between Gaussian fits of two
feature sets. The Frechet computation consumes generic feature vectors;
flattened raw pixels are a legitimate degenerate choice ("pixel-FID") when
no embedding network is in play.

A summary of fewer samples than dimensions keeps its scaled centered rows
instead of the d x d covariance, and FID between two such summaries takes
the cross path: tr sqrt(Sp Sq) is the nuclear norm of the small n x m cross
matrix of the rows (Mathiasen & Hvilshoej, arXiv:2009.14075), so no d x d
matrix is formed or factored, and no ridge is added. Every other pair takes
the d x d covariance path, which adds a small ridge when either summary came
from fewer samples than dimensions.
"""

from __future__ import annotations

import numpy as np

from .data import ImageDataset
from .errors import DimensionMismatch, NotPSD, TooFewSamples
from .linalg import nuclear_norm, psd_sqrt

#: Ridge fraction (of the mean covariance diagonal) applied on the covariance
#: path when a summary was estimated from fewer samples than dimensions.
RIDGE_SCALE = 1e-6

#: Results above this negative floor are treated as numerical zero.
NEGATIVE_FLOOR = -1e-6


class GaussianSummary:
    """Mean and unbiased covariance of one feature set.

    Held either as the covariance ``sigma`` or as the scaled centered rows
    ``rows`` (an n x d matrix A with A.T @ A == sigma); in the latter case
    ``sigma`` is formed on first read.
    """

    def __init__(self, mu, sigma=None, n: int | None = None, rows=None) -> None:
        if (sigma is None) == (rows is None):
            raise ValueError("give exactly one of sigma and rows")
        self.mu = np.ascontiguousarray(mu, dtype=np.float64)
        self.n = n  # sample count when known; drives the n < d ridge rule
        held = np.ascontiguousarray(sigma if rows is None else rows, dtype=np.float64)
        self.rows, self._sigma = (None, held) if rows is None else (held, None)
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
    def sigma(self) -> np.ndarray:
        if self._sigma is None:
            sigma = self.rows.T @ self.rows
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

    With fewer samples than dimensions the summary keeps the scaled centered
    rows (n x d) rather than the covariance (d x d), whichever is smaller.
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


def fid_path(p: GaussianSummary, q: GaussianSummary) -> tuple[str, bool]:
    """How fid computes: ("cross", False) when both summaries hold their
    rows, else ("covariance", whether the n < d ridge is added)."""
    if p.rows is not None and q.rows is not None:
        return "cross", False
    return "covariance", any(s.n is not None and s.n < s.d for s in (p, q))


def fid(p: GaussianSummary, q: GaussianSummary) -> float:
    """Frechet distance between two Gaussian summaries.

    ||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p^{1/2} S_q S_p^{1/2})^{1/2}).
    When both summaries hold their rows A_p, A_q (fewer samples than
    dimensions), the traces are ||A||_F^2 and the cross term is the nuclear
    norm of A_p A_q^T; no ridge is added. Otherwise the trace term is kept
    symmetric so only symmetric eigensolves are needed, and a small ridge is
    added to both covariances when either summary comes from fewer samples
    than dimensions.
    """
    if p.d != q.d:
        raise DimensionMismatch(f"dimension mismatch: {p.d} vs {q.d}")
    path, ridge = fid_path(p, q)
    if path == "cross":
        tr_p = float(np.vdot(p.rows, p.rows))
        tr_q = float(np.vdot(q.rows, q.rows))
        cross = nuclear_norm(p.rows @ q.rows.T)
    else:
        sp = p.sigma
        sq = q.sigma
        if ridge:
            eye = np.eye(p.d)
            sp = sp + (RIDGE_SCALE * np.trace(sp) / p.d) * eye
            sq = sq + (RIDGE_SCALE * np.trace(sq) / q.d) * eye
        root_p = psd_sqrt(sp)
        inner = root_p @ sq @ root_p
        inner = (inner + inner.T) / 2.0
        tr_p, tr_q = np.trace(sp), np.trace(sq)
        cross = np.trace(psd_sqrt(inner))
    diff = p.mu - q.mu
    value = float(diff @ diff + tr_p + tr_q - 2.0 * cross)
    scale = max(1.0, abs(tr_p) + abs(tr_q) + float(diff @ diff))
    if value < NEGATIVE_FLOOR * scale:
        raise NotPSD(f"Frechet distance came out at {value:.6e}, beyond the numerical floor")
    return max(value, 0.0)
