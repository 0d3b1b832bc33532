"""Affine stitching maps between latent spaces.

One closed-form map fit (`fit_ridge`; `fit_ols` is its alpha = 0 name), map
application, latent-space MSE, the default ridge strengths for the standard
model roster, and the LMAP binary serialization.

The fit minimizes ``||Y - X W^T - 1 b^T||_F^2 + alpha ||W||_F^2`` with an
unpenalized intercept and no 1/n factor, on column-centered data. A design
with no more train rows than dimensions (n <= d) is fitted through one
eigendecomposition of its n x n dual Gram Xc Xc^T, which serves every alpha
and every target; one with more rows through the Cholesky factor of
(Xc^T Xc + alpha I), or, when that Gram is singular at alpha = 0, through its
pseudo-inverse. Both min-norm fits drop the Gram eigenvalues at or below
linalg.eig_cutoff. A SharedFit lets the fits of many targets on one source
share the dual factor, the Cholesky factor of one alpha, or the
pseudo-inverse. A Cholesky fit also gives its train MSE from the norms its
solve already forms, when their rounding allows (LinearMap.train_mse).
Fits and scores read their rows by index (``rows=``), so neither makes a
gathered copy of a latent set, nor a float64 copy of one: an n > d fit sums
its normal equations from row blocks (linalg.centered_products) and solves
them in place (linalg.spd_solve); an n <= d fit reads X and Y in column blocks.
X and Y may be arrays or the data.FileRows of sets read from disk. An n > d
fit reads those by row blocks and never holds a set whole; an n <= d fit
gathers the train rows of one once per pass over its column blocks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import RecordReader, write_str
from .errors import DataError, NotSPD
from .metrics import mean_squared_blocks, mean_squared_difference

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
    #: Solver path of the fit that produced the map: "eigh" for the dual
    #: factor of an n <= d design, else "cholesky", or "lstsq" for the min-norm
    #: fallback; "" when unknown. Not stored in LMAP files.
    solver: str = field(default="", compare=False)
    #: Latent MSE on the fit's own train rows, from its normal equations
    #: (a "cholesky" fit whose estimate of that value's rounding error is
    #: small enough), else None. Not stored in LMAP files.
    train_mse: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise DataError(
                f"W shape {self.W.shape} incompatible with b shape {self.b.shape}"
            )
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise DataError("map parameters must be finite")
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


def _centered_blocks(A, rows: np.ndarray, mean: np.ndarray):
    """(column slice, float64 block of A's rows ``rows`` minus its column
    means) over A's columns, blocks of linalg.y_block_width columns; each
    block's means are written into ``mean``. Both X and Y are centered so.
    The rows of a data.FileRows are gathered once, as float32, so its file
    is read once per pass and not once per block."""
    step = linalg.y_block_width(len(rows))
    if not isinstance(A, np.ndarray):
        A, rows = A[rows], slice(None)
    for j in range(0, A.shape[1], step):
        cols = slice(j, min(j + step, A.shape[1]))
        block = np.ascontiguousarray(A[rows, cols], dtype=np.float64)
        mean[cols] = block.mean(axis=0)
        block -= mean[cols]
        yield cols, block


@dataclass
class DualFactor:
    """The dual factor of an n x d design X with n <= d: Xc = X - x_mean, and
    Xc Xc^T = U diag(lam) U^T with lam ascending, P = Xc^T U. Eigenvalues at
    or below ``cutoff`` = linalg.eig_cutoff(lam), n eps max(lam), count as 0
    and are stored as 0; the ``rank`` others are the last ones of lam."""

    x_mean: np.ndarray
    lam: np.ndarray
    U: np.ndarray
    P: np.ndarray
    cutoff: float
    rank: int


def _dual_factor(X, rows) -> DualFactor:
    # The Gram of the centered design's column blocks is freed once eigh has
    # U; a second pass over the same blocks fills P = Xc^T U.
    x_mean, gram = np.empty(X.shape[1]), None
    for _, block in _centered_blocks(X, rows, x_mean):
        gram = block @ block.T if gram is None else np.add(gram, block @ block.T, out=gram)
    eig = linalg.sym_eig(gram)
    del gram
    lam, U = eig.eigenvalues, eig.eigenvectors
    P = np.empty((X.shape[1], len(rows)))
    for cols, block in _centered_blocks(X, rows, x_mean):
        np.matmul(block.T, U, out=P[cols])
    cutoff = linalg.eig_cutoff(lam)
    keep = lam > cutoff
    return DualFactor(x_mean=x_mean, lam=np.where(keep, lam, 0.0), U=U, P=P,
                      cutoff=cutoff, rank=int(keep.sum()))


class SharedFit:
    """What the fit_ridge calls for the targets of one source X share.

    Make one per (X, rows) and pass it as ``shared`` to each target's
    fit_ridge call on that same X and the same ``rows`` object (the source's
    train rows, or None for all of X), at any alpha. With n <= d train rows
    the first fit builds the source's DualFactor, kept as ``dual``, and every
    later fit only multiplies it with its centered Y. With n > d rows, a
    Cholesky fit keeps its factor of Xc^T Xc + alpha I, with that Gram's
    trace, as ``cholesky`` = (alpha, trace, linalg.Cholesky): every later fit
    at that alpha only sums its Xc^T Yc and substitutes on it, and a fit at
    another alpha frees it before summing its own Gram. A Cholesky attempt
    that fails at alpha = 0 is made once. It keeps the d x d pseudo-inverse
    of the centered Gram as ``pinv``, with the ``rank`` of the singular
    values above its ``cutoff`` (d eps max(s)), and every later alpha = 0
    fit multiplies pinv with its Xc^T Yc.
    """

    def __init__(self, X, rows=None):
        self.X, self.rows = X, rows
        self.dual: DualFactor | None = None
        self.cholesky: tuple[float, float, linalg.Cholesky] | None = None
        self.pinv: np.ndarray | None = None
        self.rank, self.cutoff = 0, 0.0


#: The train MSE is taken from the normal equations when the estimate of its
#: rounding error is at most this fraction of the residual sum of squares.
TRAIN_MSE_RTOL = 1e-9


def _normal_equations_mse(n: int, k: int, d: int, alpha: float, trace: float,
                          y_sq: float, forward_sq: float, w_sq: float) -> float | None:
    """The train latent MSE of a Cholesky fit, RSS / (n k) with
    RSS = ||Yc||_F^2 - ||L^-1 Xc^T Yc||_F^2 - alpha ||W||_F^2, which holds
    for (Xc^T Xc + alpha I) W^T = Xc^T Yc and L L^T = Xc^T Xc + alpha I
    (Bjorck 1996, Numerical Methods for Least Squares Problems, 2.2). The
    difference cancels when the fit is close, so it is None unless the
    rounding estimate sqrt(d) eps tr(Xc^T Xc + alpha I) ||W||_F^2
    + eps ||Yc||_F^2 is at most TRAIN_MSE_RTOL of a positive RSS."""
    eps = np.finfo(np.float64).eps
    rss = float(y_sq - forward_sq - alpha * w_sq)
    error = math.sqrt(d) * eps * trace * w_sq + eps * y_sq
    return rss / (n * k) if rss > 0 and error <= TRAIN_MSE_RTOL * rss else None


def _fit_affine(X, Y, alpha: float, source_model: str, target_model: str,
                shared: SharedFit | None = None, rows=None) -> LinearMap:
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    key = None if rows is None else rows[0]
    keep = shared is not None  # a SharedFit of the fit's own keeps no factor
    if shared is None:
        shared = SharedFit(X, rows=key)
    elif shared.X is not X or shared.rows is not key:
        raise ValueError("a SharedFit serves the fits of one X and one set of its rows")
    if X.ndim != 2 or Y.ndim != 2:
        raise DataError("X and Y must be 2-D")
    ix, iy = (np.arange(len(X)), np.arange(len(Y))) if rows is None else rows
    if len(ix) != len(iy) or len(ix) < 1:
        raise DataError(f"X has {len(ix)} rows, Y has {len(iy)}")
    (n, d), k = (len(ix), X.shape[1]), Y.shape[1]

    def affine(W, x_mean, y_mean, solver, train_mse=None):
        return LinearMap(source_model=source_model, target_model=target_model, W=W,
                         b=y_mean - W @ x_mean, alpha=alpha, solver=solver, train_mse=train_mse)

    if n <= d:
        if shared.dual is None:
            shared.dual = _dual_factor(X, ix)
        f = shared.dual
        # alpha = 0 keeps the nonzero eigenvalues only: the last rank of them
        first = 0 if alpha > 0 else n - f.rank
        U, P, scale = f.U[:, first:], f.P[:, first:], 1.0 / (f.lam[first:] + alpha)
        W, y_mean = np.empty((k, d)), np.empty(k)
        for cols, block in _centered_blocks(Y, iy, y_mean):
            g = U.T @ block
            g *= scale[:, None]
            np.matmul(g.T, P.T, out=W[cols])
        return affine(W, f.x_mean, y_mean, "eigh")

    # The normal equations are accumulated from row blocks of X and Y, and
    # the solve overwrites the Gram with its factor and Xc^T Yc with W^T. A
    # factor kept at this alpha needs no Gram; one kept at another alpha is
    # freed before this Gram is summed.
    if shared.cholesky is not None and shared.cholesky[0] != alpha:
        shared.cholesky = None
    held, forward_sq = shared.cholesky, None
    x_mean, gram, y_mean, rhs, y_sq = linalg.centered_products(
        X, ix, Y, iy, gram=held is None and (alpha > 0 or shared.pinv is None))
    if held is not None:
        _, trace, factor = held
        forward_sq = factor.solve(rhs)
    elif gram is not None:
        gram[np.diag_indices_from(gram)] += alpha
        trace = float(np.trace(gram))
        try:
            factor, forward_sq = linalg.spd_solve(gram, rhs)
        except NotSPD:
            if alpha > 0:
                raise
        else:
            if keep:
                shared.cholesky = alpha, trace, factor
            gram = factor = None  # an unkept factor goes before W is copied out of W^T
    if forward_sq is not None:
        mse = _normal_equations_mse(n, k, d, alpha, trace, y_sq, forward_sq, np.vdot(rhs, rhs))
        return affine(np.ascontiguousarray(rhs.T), x_mean, y_mean, "cholesky", mse)
    if shared.pinv is None:
        # The failed factor overwrote the Gram: rebuild it, outside the except
        # block, whose traceback would keep the factor alive. rcond=None drops
        # its singular values at or below d eps max(s), linalg.eig_cutoff: the
        # dual factor's rank rule.
        del gram
        gram = linalg.centered_products(X, ix)[1]
        shared.pinv, _, rank, s = np.linalg.lstsq(gram, np.eye(d), rcond=None)
        shared.rank, shared.cutoff = int(rank), linalg.eig_cutoff(s[::-1])
        del gram
    # the min-norm fit, W^T = pinv(Xc^T Xc) Xc^T Yc
    return affine(rhs.T @ shared.pinv.T, x_mean, y_mean, "lstsq")


def fit_ridge(X, Y, alpha: float, source_model: str = "", target_model: str = "",
              shared: SharedFit | None = None, rows=None) -> LinearMap:
    """The one map fit: ridge for alpha > 0, least squares for alpha = 0.

    With ``rows=(ix, iy)`` the fit pairs X's row ix[j] with Y's row iy[j]
    (the rows of data.align or data.rows_of), reading both in place: the map
    equals the fit of X[ix] to Y[iy] to the byte, without either gathered
    copy. Without ``rows`` X and Y pair row by row. X and Y are 2-D arrays or
    data.FileRows; a FileRows gives the map of its array to the byte.

    A design with n <= d train rows is fitted through its DualFactor (solver
    "eigh"): W^T = P diag(f(lam)) U^T Yc, with f = 1/(lam + alpha),
    or for alpha = 0 f = 1/lam on the eigenvalues above the factor's cutoff
    and 0 on the rest, which is the rank-aware min-norm fit. With ``shared``
    (a SharedFit of this X and ix) the factor is built by the first fit and
    reused, so each map equals its fit without ``shared`` to the byte.

    A design with n > d rows Cholesky-factors its normal equations and solves
    them for all of Y's columns at once by block substitution on that factor
    (linalg.spd_solve). An unregularized fit whose Gram is singular takes the
    min-norm solution of those same normal equations instead: the Gram's
    pseudo-inverse, np.linalg.lstsq against the d x d identity, times Xc^T Yc.
    Its singular values at or below linalg.eig_cutoff count as 0, the dual
    factor's rule. The map's ``solver`` records which ("cholesky" or "lstsq").
    With ``shared`` the Cholesky factor is made once per run of fits at one
    alpha, and the failed attempt and the pseudo-inverse once per source.
    Every map equals its fit without ``shared`` to the byte.

    A Cholesky fit sets the map's ``train_mse``, the latent MSE of its own
    train rows, from norms its solve already forms (_normal_equations_mse):
    ||Yc||_F^2 from linalg.centered_products' float64 panels of Yc and
    ||L^-1 Xc^T Yc||_F^2 from the forward substitution. It is None, and the
    rows must be mapped for that value, where rounding could dominate it (a
    near-exact fit, or a rank-deficient design that passes Cholesky on
    float32 rounding) and for every "eigh" and "lstsq" fit.

    Memory: an n > d fit holds no copy of X or Y. Its Gram and Xc^T Yc are
    accumulated from float64 row blocks by linalg.centered_products, and the
    solve overwrites them with the Cholesky factor and W^T. W is copied out
    of W^T once the factor is freed, so the fit holds two of the d x d Gram,
    the d x k Xc^T Yc and W at a time, never three; a SharedFit that keeps
    the factor holds it next to W. The min-norm fallback rebuilds the Gram
    the failed factor overwrote, then holds its pseudo-inverse. An n <= d
    fit sums its dual Gram from float64 column blocks of the centered X,
    frees it after eigh, and fills P = Xc^T U from a second pass over those
    blocks; it reads Y in such blocks too. A pass over a data.FileRows holds
    a float32 gather of its train rows.
    """
    return _fit_affine(X, Y, float(alpha), source_model, target_model, shared, rows)


def fit_ols(X, Y, source_model: str = "", target_model: str = "") -> LinearMap:
    """Least-squares affine fit: fit_ridge with alpha = 0, byte for byte."""
    return _fit_affine(X, Y, 0.0, source_model, target_model)


def apply_map(m: LinearMap, X) -> np.ndarray:
    """Map rows of X through the affine map: X W^T + 1 b^T."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d_in:
        raise DataError(f"X shape {X.shape} incompatible with map d_in={m.d_in}")
    out = X @ m.W.T
    out += m.b
    return out


def latent_mse(predicted, target) -> float:
    """Mean over all n*d entries of the squared difference."""
    return mean_squared_difference(predicted, target)


def mapped_mse(m: LinearMap, X, Y, rows) -> float:
    """latent_mse(apply_map(m, X[ix]), Y[iy]) for rows=(ix, iy), to the byte.

    Each block of rows is mapped and compared on its own, in
    mean_squared_difference's blocks and summation order, so neither the
    mapped rows nor a gathered copy of X or Y is held whole.
    """
    ix, iy = rows
    if len(ix) != len(iy) or Y.ndim != 2 or Y.shape[1] != m.d_out:
        raise DataError(
            f"{len(ix)} mapped rows of width {m.d_out} against {len(iy)} of shape {Y.shape}"
        )
    return mean_squared_blocks(len(ix), m.d_out,
                               lambda blk: (apply_map(m, X[ix[blk]]), Y[iy[blk]]))


# --- LMAP serialization -----------------------------------------------------


def save_map(m: LinearMap, path) -> None:
    with open(path, "wb") as f:
        f.write(LMAP_MAGIC)
        f.write(struct.pack("<I", LMAP_VERSION))
        write_str(f, m.source_model)
        write_str(f, m.target_model)
        f.write(struct.pack("<dII", m.alpha, m.d_in, m.d_out))
        np.ascontiguousarray(m.b, dtype="<f8").tofile(f)
        np.ascontiguousarray(m.W, dtype="<f8").tofile(f)


def load_map(path) -> LinearMap:
    with open(path, "rb") as f:
        r = RecordReader(f, path, LMAP_MAGIC, LMAP_VERSION)
        source, target = r.string(), r.string()
        alpha, d_in, d_out = r.unpack("<dII")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise DataError(f"{path}: map alpha {alpha!r} is not a finite value >= 0")
        b = r.array("<f8", d_out)
        W = r.array("<f8", d_out, d_in)
        r.end()
    return LinearMap(source_model=source, target_model=target, W=W, b=b, alpha=alpha)
