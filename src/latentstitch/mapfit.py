"""Affine stitching maps between latent spaces.

Closed-form OLS and ridge fits via centered normal equations, map
application, latent-space MSE, the default ridge strengths for the standard
model roster, and the LMAP binary serialization.

The ridge objective is ``||Y - X W^T - 1 b^T||_F^2 + alpha ||W||_F^2`` with
an unpenalized intercept and no 1/n factor, solved on column-centered data;
one factorization of (Xc^T Xc + alpha I) is shared across all output
columns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import RecordReader, write_str
from .errors import DimensionMismatch, EmptySet, NotSPD

LMAP_MAGIC = b"LMAP"
LMAP_VERSION = 1


@dataclass
class LinearMap:
    """Affine map x -> W x + b from one latent space to another."""

    source_model: str
    target_model: str
    W: np.ndarray
    b: np.ndarray
    alpha: float = 0.0
    #: Solver path of the fit that produced the map: "cholesky", or "lstsq" for
    #: the min-norm fallback; "" when unknown. Not stored in LMAP files.
    solver: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise DimensionMismatch(
                f"W shape {self.W.shape} incompatible with b shape {self.b.shape}"
            )
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise DimensionMismatch("map parameters must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def d_out(self) -> int:
        return self.W.shape[0]


#: Ridge strengths for the standard roster, per ordered (source, target)
#: pair; maps from the NF and DM latent spaces are regularized, unlisted
#: pairs are unregularized.
DEFAULT_MAP_ALPHAS: dict[tuple[str, str], float] = {
    ("DM", "GAN"): 2000.0,
    ("DM", "VAE"): 100.0,
    ("DM", "VQVAE"): 5000.0,
    ("DM", "NF"): 5000.0,
    ("NF", "GAN"): 50000.0,
    ("NF", "VAE"): 5000.0,
    ("NF", "VQVAE"): 50000.0,
    ("NF", "DM"): 50000.0,
}


def _fit_affine(X, Y, alpha: float, svd_fallback: bool) -> tuple[np.ndarray, np.ndarray, str]:
    # one float64 copy of each, centered in place; the inputs stay unchanged
    Xc = np.array(X, dtype=np.float64)
    Yc = np.array(Y, dtype=np.float64)
    if Xc.ndim != 2 or Yc.ndim != 2:
        raise DimensionMismatch("X and Y must be 2-D")
    if Xc.shape[0] != Yc.shape[0] or Xc.shape[0] < 1:
        raise DimensionMismatch(f"X has {Xc.shape[0]} rows, Y has {Yc.shape[0]}")
    x_mean = Xc.mean(axis=0)
    y_mean = Yc.mean(axis=0)
    Xc -= x_mean
    Yc -= y_mean
    gram = Xc.T @ Xc
    if alpha > 0:
        gram[np.diag_indices_from(gram)] += alpha
    rhs = Xc.T @ Yc
    solver = "cholesky"
    try:
        wt = linalg.spd_solve(gram, rhs)
    except NotSPD:
        if alpha == 0.0 and svd_fallback:
            wt, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
            solver = "lstsq"
        else:
            raise
    W = np.ascontiguousarray(wt.T)
    b = y_mean - W @ x_mean
    return W, b, solver


def fit_ols(
    X, Y, source_model: str = "", target_model: str = "", svd_fallback: bool = False
) -> LinearMap:
    """Least-squares affine fit of Y from X via centered normal equations.

    Raises NotSPD on a rank-deficient design; pass svd_fallback=True to fall
    back to the minimum-norm SVD solution instead (the pipeline does this
    for unregularized fits).
    """
    W, b, solver = _fit_affine(X, Y, alpha=0.0, svd_fallback=svd_fallback)
    return LinearMap(source_model=source_model, target_model=target_model, W=W, b=b, alpha=0.0,
                     solver=solver)


def fit_ridge(X, Y, alpha: float, source_model: str = "", target_model: str = "") -> LinearMap:
    """Ridge affine fit; alpha=0 reproduces fit_ols exactly."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    W, b, solver = _fit_affine(X, Y, alpha=float(alpha), svd_fallback=False)
    return LinearMap(
        source_model=source_model, target_model=target_model, W=W, b=b, alpha=float(alpha),
        solver=solver,
    )


def apply_map(m: LinearMap, X) -> np.ndarray:
    """Map rows of X through the affine map: X W^T + 1 b^T."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d_in:
        raise DimensionMismatch(f"X shape {X.shape} incompatible with map d_in={m.d_in}")
    return X @ m.W.T + m.b


def latent_mse(predicted, target) -> float:
    """Mean over all n*d entries of the squared difference."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionMismatch(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptySet("no entries to average")
    return float(np.mean((p - t) ** 2))


# --- LMAP serialization -----------------------------------------------------


def save_map(m: LinearMap, path) -> None:
    with open(path, "wb") as f:
        f.write(LMAP_MAGIC)
        f.write(struct.pack("<I", LMAP_VERSION))
        write_str(f, m.source_model)
        write_str(f, m.target_model)
        f.write(struct.pack("<dII", m.alpha, m.d_in, m.d_out))
        f.write(m.b.astype("<f8").tobytes())
        f.write(np.ascontiguousarray(m.W, dtype="<f8").tobytes())


def load_map(path) -> LinearMap:
    with open(path, "rb") as f:
        r = RecordReader(f, path, LMAP_MAGIC, LMAP_VERSION)
        source, target = r.string(), r.string()
        alpha, d_in, d_out = r.unpack("<dII")
        b = r.array("<f8", d_out)
        W = r.array("<f8", d_out, d_in)
    return LinearMap(source_model=source, target_model=target, W=W, b=b, alpha=alpha)
