"""Dense symmetric linear-algebra kernels: SPD solves, symmetric
eigendecomposition, PSD matrix square roots, covariance factors and nuclear
norms, on NumPy alone. An SPD solve substitutes on the Cholesky factor it
checks with, by block matrix products, as NumPy has no triangular solve.

All routines compute in float64 regardless of input dtype and are pure
functions of their inputs. Symmetric inputs are not checked: callers pass
Grams (A^T A, A A^T), which matmul returns exactly symmetric, and LAPACK
reads the lower triangle only. Failures surface as NotSPD or NumericalError
instead of raw LAPACK errors, so callers can react (mapfit falls back to
least squares on NotSPD).
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


def _substitute(low: np.ndarray, x: np.ndarray) -> None:
    """Overwrite x (d rows, a vector or k columns) with the solution of
    L L^T X = x for the lower-triangular d x d L ``low``: forward, then back
    substitution over row blocks of SOLVE_BLOCK rows. Each diagonal block is
    applied through its inverse and each off-diagonal update is one matrix
    product, the level-3 scheme of Du Croz & Higham (1992, IMA J. Numer.
    Anal. 12:1-19), so the work runs at matrix-product speed."""
    d = low.shape[0]
    starts = range(0, d, SOLVE_BLOCK)
    inverses = []
    for i in starts:
        e = min(i + SOLVE_BLOCK, d)
        inverses.append(np.linalg.inv(low[i:e, i:e]))
        if i:
            x[i:e] -= low[i:e, :i] @ x[:i]
        x[i:e] = inverses[-1] @ x[i:e]
    for i, inv in zip(reversed(starts), reversed(inverses)):
        e = min(i + SOLVE_BLOCK, d)
        if e < d:
            x[i:e] -= low[e:, i:e].T @ x[e:]
        x[i:e] = inv.T @ x[i:e]


def spd_solve(a, b) -> np.ndarray:
    """Solve ``A @ X = B`` for symmetric positive-definite A (lower triangle read).

    A Cholesky factorization A = L L^T raises NotSPD on a non-positive pivot
    (the signal to regularize or fall back to least squares); block forward
    and back substitution on L then solves. The solve holds L and one float64
    copy of B, which becomes X.
    """
    a = _as_square(a, "A")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise DataError(f"A is {a.shape[0]}x{a.shape[0]} but B has {b.shape[0]} rows")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc
    # B is copied only now: np.linalg.cholesky holds a working copy of A next to L
    x = b.copy()
    _substitute(low, x)
    return x


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


def cov_factor(s) -> np.ndarray:
    """A factor F with ``F.T @ F == S`` for a PSD matrix S: the transposed
    Cholesky factor, or psd_sqrt(S) when Cholesky fails (S singular, or
    indefinite, which psd_sqrt then reports as NumericalError)."""
    s = _as_square(s, "S")
    try:
        return np.linalg.cholesky(s).T
    except np.linalg.LinAlgError:
        return psd_sqrt(s)


def eig_cutoff(w: np.ndarray) -> float:
    """k * eps * max(w) for the ascending eigenvalues w of a k x k Gram:
    eigenvalues at or below it are eigensolver rounding and count as zero."""
    return len(w) * np.finfo(np.float64).eps * max(float(w[-1]), 0.0)


def nuclear_norm(m, b=None) -> float:
    """Sum of the singular values of m, or of m @ b.T when b is given (formed
    here and freed as soon as its Gram exists): the square roots of the
    eigenvalues of the smaller Gram (m m^T or m^T m, which matmul returns
    exactly symmetric), with psd_sqrt's clamp rule. Gram eigenvalues at or
    below eig_cutoff count as zero; each would otherwise add about
    sqrt(k * eps) of the top singular value.
    """
    m = np.asarray(m, dtype=np.float64) if b is None else m @ b.T
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    del m
    w = _psd_eigenvalues(sym_eig(gram, vectors=False).eigenvalues)
    w[w <= eig_cutoff(w)] = 0.0
    return float(np.sqrt(w).sum())
