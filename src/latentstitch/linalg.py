"""Dense symmetric linear-algebra kernels: centered Grams, SPD solves and
in-place Cholesky factors, symmetric eigendecomposition, PSD matrix square
roots and their traces, and nuclear norms, on NumPy alone.
An SPD solve factors its matrix in place and substitutes on that factor by
block matrix products, as NumPy has no triangular solve; it returns the
factor, which solves for further right-hand sides without factoring again.

All routines compute in float64 regardless of input dtype. Symmetric inputs
are not checked: callers pass Grams (centered_products', or A^T A and A A^T,
which matmul returns exactly symmetric), and the factorizations read the
lower triangle only. spd_solve, Cholesky.solve and cholesky_in_place
overwrite their arguments; the others are pure functions of their inputs.
Failures surface as NotSPD or NumericalError instead of raw LAPACK errors,
so callers can react (mapfit falls back to least squares on NotSPD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotSPD, NumericalError

# spd_solve substitutes over row blocks of this many rows: each diagonal
# block is applied through its inverse and each off-diagonal update is one
# matrix product. 128 measured: on one BLAS thread, 64 and 256 were no faster
# at d = 512 and 2048. d <= 128 is one block.
SOLVE_BLOCK = 128

#: Column panels of spd_solve's factorization and of centered_products'
#: sums, a multiple of SOLVE_BLOCK. A d <= PANEL Gram is factored by one
#: LAPACK call and summed by one product per row block, as whole-matrix code
#: would. Measured on one BLAS thread, at offline-score's normal equations
#: (5,000 rows, d = k = 2048): 2.2 s with 128-column panels and 256-row
#: blocks, 1.3 s with 512 and blocks of BLOCK_ROWS (a float64 copy of the
#: rows and two whole products took 1.1 s). A narrow panel makes each
#: product re-pack its wide left operand.
PANEL = 512

#: Every row kernel (centered_products, metrics.mean_squared_blocks, the
#: read-time value scan and probe-suite's train scores) takes this many rows
#: per block and per pass, with the paired rows of a second operand. A
#: product runs at GEMM speed over a large fixed inner dimension (Goto &
#: van de Geijn 2008, ACM TOMS 34(3)); on one BLAS thread, float32 2900 x 512
#: rows to a 12288-wide Y took 0.94 s in 512-row blocks and 1.45 s in the
#: 85-row blocks of 2**20 entries. At d = 12288 a block is 50 MB as float64.
BLOCK_ROWS = 512

#: A dual fit's design and Y are centered in float64 column blocks of about
#: this many bytes, each a multiple of 256 columns wide, so a blocked product
#: with Y keeps its bytes. centered_products' float64 panels of Y are such
#: blocks of a row block's rows, at most PANEL columns wide.
Y_BLOCK_BYTES = 4 << 20

# Eigenvalues of a nominally-PSD matrix may be negative up to this fraction
# of the largest eigenvalue; such values are clamped to zero, anything more
# negative raises NumericalError.
NEG_EIG_RTOL = 1e-6


@dataclass
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are ascending; eigenvectors are orthonormal columns, so
    ``V @ diag(w) @ V.T`` reconstructs the input, or None when only the
    eigenvalues were asked for.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DataError(f"{name} must be square and non-empty, got shape {a.shape}")
    return a


def _rows(A, rows, blk: slice) -> np.ndarray:
    """A[rows[blk]], or A[blk] when rows is None; a view of A when it is an
    array and those rows are one ascending contiguous run."""
    if rows is None:
        return A[blk]
    idx = rows[blk]
    if isinstance(A, np.ndarray) and len(idx) and (np.diff(idx) == 1).all():
        return A[idx[0]:idx[-1] + 1]
    return A[idx]


def row_blocks(n: int) -> list[slice]:
    """The slices of BLOCK_ROWS rows that cover n rows, in order."""
    return [slice(s, min(s + BLOCK_ROWS, n)) for s in range(0, n, BLOCK_ROWS)]


def _panels(width: int, size: int = PANEL) -> list[tuple[int, int]]:
    return [(j, min(j + size, width)) for j in range(0, width, size)]


def y_block_width(n: int) -> int:
    """Columns of a float64 column block of n rows: about Y_BLOCK_BYTES, and
    a multiple of 256."""
    return max(1, Y_BLOCK_BYTES // (8 * n * 256)) * 256


def centered_products(X, rows=None, Y=None, y_rows=None, gram: bool = True):
    """(x_mean, Xc^T Xc, y_mean, Xc^T Yc, ||Yc||_F^2) of the float64 values
    of X's rows ``rows`` and Y's rows ``y_rows`` (index arrays paired in
    order; all rows when None), where Xc and Yc are those rows minus their
    column means. The Gram is None when ``gram`` is False, and y_mean,
    Xc^T Yc and ||Yc||_F^2 (an np.float64, summed over the float64 panels of
    Yc) are None without Y. X and Y are float arrays or data.FileRows:
    either is only indexed by rows, one block at a time.

    Two passes over row_blocks, each block of X and its paired rows of Y
    read once per pass. The first pass sums the means; the second centers
    each block of X in float64, adds Xc^T Yc one float64 panel of the
    block's Y at a time (y_block_width of the block's rows, at most PANEL
    columns) and then the Gram's lower triangle, each product in pieces of
    at most PANEL rows. Each panel and block of Y is freed before the next
    is made. A Y of no columns gives a d x 0 Xc^T Yc. So no float64 copy of
    a whole set exists, and the temporaries are one row block of X, its
    rows of Y, one float64 panel of Y and one product of at most PANEL x
    PANEL. For at most BLOCK_ROWS rows and d <= PANEL the Gram is that of
    whole-copy code, one product. Its diagonal blocks are symmetric
    products and its upper triangle is mirrored from the lower one, so it
    is exactly symmetric.
    """
    n = X.shape[0] if rows is None else len(rows)
    d = X.shape[1]
    blocks = row_blocks(n)
    x_mean = sum(_rows(X, rows, blk).sum(axis=0, dtype=np.float64) for blk in blocks) / n
    g = y_mean = cross = y_sq = None
    if Y is not None:
        y_panels = _panels(Y.shape[1], min(PANEL, y_block_width(min(BLOCK_ROWS, n))))
        y_mean = sum(_rows(Y, y_rows, blk).sum(axis=0, dtype=np.float64) for blk in blocks) / n
        cross, y_sq = np.zeros((d, Y.shape[1])), np.float64(0.0)
    panels = _panels(d)
    for blk in blocks:
        xb = np.subtract(_rows(X, rows, blk), x_mean, dtype=np.float64)
        if Y is not None:
            y_blk = _rows(Y, y_rows, blk)
            for j, e in y_panels:
                yb = np.subtract(y_blk[:, j:e], y_mean[j:e], dtype=np.float64)
                for i, f in panels:
                    cross[i:f, j:e] += xb[:, i:f].T @ yb
                y_sq += np.vdot(yb, yb)
                del yb
            del y_blk
        if gram:
            if g is None:  # made once the first block's Y panels are freed
                g = np.zeros((d, d))
            for p, (j, e) in enumerate(panels):
                g[j:e, j:e] += xb[:, j:e].T @ xb[:, j:e]
                for i, f in panels[p + 1:]:
                    g[i:f, j:e] += xb[:, i:f].T @ xb[:, j:e]
        del xb
    if g is not None:
        for j, e in panels:
            g[j:e, e:] = g[e:, j:e].T
    return x_mean, g, y_mean, cross, y_sq


def _forward(low: np.ndarray, inverses: list[np.ndarray], x: np.ndarray) -> None:
    """Overwrite x (as many rows as the lower-triangular ``low``) with
    L^-1 x, by forward substitution over row blocks of SOLVE_BLOCK rows,
    given the inverses of L's diagonal blocks. Each block is applied through
    its inverse and each off-diagonal update is one matrix product, the
    level-3 scheme of Du Croz & Higham (1992, IMA J. Numer. Anal. 12:1-19),
    so the work runs at matrix-product speed."""
    for i, inv in zip(range(0, len(low), SOLVE_BLOCK), inverses):
        e = min(i + SOLVE_BLOCK, len(low))
        if i:
            x[i:e] -= low[i:e, :i] @ x[:i]
        x[i:e] = inv @ x[i:e]


def _backward(low: np.ndarray, inverses: list[np.ndarray], x: np.ndarray) -> None:
    """Overwrite x with L^-T x, the back substitution matching _forward."""
    d = len(low)
    for i, inv in zip(reversed(range(0, d, SOLVE_BLOCK)), reversed(inverses)):
        e = min(i + SOLVE_BLOCK, d)
        if e < d:
            x[i:e] -= low[e:, i:e].T @ x[e:]
        x[i:e] = inv.T @ x[i:e]


def _factor(a: np.ndarray) -> list[np.ndarray]:
    """Overwrite the lower triangle of a with the Cholesky factor L of the
    SPD matrix whose lower triangle it holds (A = L L^T), and return the
    inverses of L's SOLVE_BLOCK diagonal blocks; raises NotSPD on a
    non-positive pivot.

    Left-looking over column panels of PANEL columns: one product with the
    columns already factored updates a panel, np.linalg.cholesky factors
    its diagonal block, and forward substitution on that block gives the
    rows below it. Every temporary is at most d x PANEL. The upper triangle
    outside the diagonal blocks is left as it was."""
    d = a.shape[0]
    inverses = []
    for j, e in _panels(d):
        if j:
            a[j:, j:e] -= a[j:, :j] @ a[j:e, :j].T
        try:
            a[j:e, j:e] = np.linalg.cholesky(a[j:e, j:e])
        except np.linalg.LinAlgError as exc:
            raise NotSPD(str(exc)) from exc
        block = [np.linalg.inv(a[i:i + SOLVE_BLOCK, i:i + SOLVE_BLOCK])
                 for i in range(j, e, SOLVE_BLOCK)]
        if e < d:
            _forward(a[j:e, j:e], block, a[e:, j:e].T)
        inverses += block
    return inverses


def cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite the exactly symmetric a with its lower Cholesky factor, zeros
    above, and return True; or, on NotSPD, restore a from its saved diagonal
    blocks and the strict upper triangle _factor leaves, and return False."""
    panels = _panels(len(a))
    blocks = [a[j:e, j:e].copy() for j, e in panels]
    try:
        _factor(a)
    except NotSPD:
        for (j, e), block in zip(panels, blocks):
            a[j:e, j:e], a[e:, j:e] = block, a[j:e, e:].T
        return False
    for j, e in panels:
        a[j:e, e:] = 0.0
    return True


@dataclass
class Cholesky:
    """A = L L^T for an SPD A: L in the lower triangle of A's own buffer,
    with the inverses of L's SOLVE_BLOCK diagonal blocks."""

    low: np.ndarray
    inverses: list[np.ndarray]

    def solve(self, b: np.ndarray) -> np.float64:
        """Overwrite the float64 array b with A^-1 b, by block forward and
        back substitution on L, and return ||L^-1 b||_F^2 = tr(b^T A^-1 b),
        read between the two substitutions."""
        _forward(self.low, self.inverses, b)
        forward_sq = np.vdot(b, b)
        _backward(self.low, self.inverses, b)
        return forward_sq


def spd_solve(a, b) -> tuple[Cholesky, np.float64]:
    """Solve ``A @ X = B`` for symmetric positive-definite A (lower triangle
    read), in place, and return (A's Cholesky, ||L^-1 B||_F^2): A's lower
    triangle is overwritten with its factor L, and the float64 array B with
    X. An A that is not a float64 array is converted first, and the
    conversion is what gets overwritten. The returned factor solves for
    further right-hand sides (Cholesky.solve) without factoring A again.

    The blocked factorization raises NotSPD on a non-positive pivot (the
    signal to regularize or fall back to least squares) before B is touched;
    block forward and back substitution on L then solve, and the squared
    norm is read between them. Nothing the size of A or B is allocated: past
    d = PANEL every temporary is at most one panel, d x PANEL or
    SOLVE_BLOCK rows of B. A d <= PANEL matrix is factored by one LAPACK
    call, as np.linalg.cholesky would.
    """
    a = _as_square(a, "A")
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64):
        raise TypeError("B must be a float64 array: it is overwritten with X")
    if b.shape[0] != a.shape[0]:
        raise DataError(f"A is {a.shape[0]}x{a.shape[0]} but B has {b.shape[0]} rows")
    factor = Cholesky(a, _factor(a))
    return factor, factor.solve(b)


def sym_eig(s, vectors: bool = True) -> SymEig:
    """Eigendecomposition of a symmetric matrix (its lower triangle is
    read), eigenvalues ascending; with ``vectors=False`` the eigenvalues
    alone (eigvalsh), which is cheaper."""
    s = _as_square(s, "S")
    try:
        w, v = np.linalg.eigh(s) if vectors else (np.linalg.eigvalsh(s), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return SymEig(eigenvalues=w, eigenvectors=v)


def _psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a nominally-PSD matrix with small negatives
    clamped to zero; raises NumericalError on a larger negative one."""
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -NEG_EIG_RTOL * lam_max:
        raise NumericalError(
            f"eigenvalue {w[0]:.6e} is below -{NEG_EIG_RTOL:.0e} * max eigenvalue {lam_max:.6e}"
        )
    return np.clip(w, 0.0, None)


def psd_sqrt(s) -> np.ndarray:
    """Symmetric square root of a PSD matrix.

    Small negative eigenvalues (within NEG_EIG_RTOL of the top eigenvalue)
    are clamped to zero: empirical covariance products are only numerically
    PSD. Larger negative eigenvalues raise NumericalError.
    """
    eig = sym_eig(s)
    v = eig.eigenvectors
    root = (v * np.sqrt(_psd_eigenvalues(eig.eigenvalues))) @ v.T
    return (root + root.T) / 2.0


def eig_cutoff(w: np.ndarray) -> float:
    """k * eps * max(w) for the ascending eigenvalues w of a k x k Gram:
    eigenvalues at or below it are eigensolver rounding and count as zero."""
    return len(w) * np.finfo(np.float64).eps * max(float(w[-1]), 0.0)


def sqrt_trace(s) -> float:
    """tr S^1/2 of a nominally-PSD S (lower triangle): the square roots of
    its eigenvalues, with psd_sqrt's clamp rule. Eigenvalues at or below
    eig_cutoff count as zero; each would otherwise add about sqrt(k * eps)
    of the top square root."""
    w = _psd_eigenvalues(sym_eig(s, vectors=False).eigenvalues)
    w[w <= eig_cutoff(w)] = 0.0
    return float(np.sqrt(w).sum())


def nuclear_norm(m, b=None) -> float:
    """Sum of the singular values of m, or of m @ b.T when b is given (formed
    here and freed as soon as its Gram exists): sqrt_trace of the smaller
    Gram (m m^T or m^T m, which matmul returns exactly symmetric).
    """
    m = np.asarray(m, dtype=np.float64) if b is None else m @ b.T
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    del m
    return sqrt_trace(gram)
