"""Dense symmetric linear-algebra kernels: SPD solves, symmetric
eigendecomposition, PSD matrix square roots, covariance factors and nuclear
norms, on NumPy alone.

All routines compute in float64 regardless of input dtype and are pure
functions of their inputs. Failures surface as NotSPD / NotPSD /
NoConvergence instead of raw LAPACK errors, so callers can react (mapfit
falls back to least squares on NotSPD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPSD, NotSPD

# Inputs are required to be symmetric to this relative (max-abs) tolerance.
SYMMETRY_RTOL = 1e-9

# Eigenvalues of a nominally-PSD matrix may be negative up to this fraction
# of the largest eigenvalue; such values are clamped to zero, anything more
# negative raises NotPSD.
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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square and non-empty, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, name: str) -> None:
    scale = np.abs(a).max()
    if scale == 0.0:
        return
    skew = np.abs(a - a.T).max()
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric: relative skew {skew / scale:.3e}")


def spd_solve(a, b) -> np.ndarray:
    """Solve ``A @ X = B`` for symmetric positive-definite A.

    A Cholesky factorization raises NotSPD on a non-positive pivot (the
    signal to regularize or fall back to least squares); LU then solves.
    """
    a = _as_square(a, "A")
    _require_symmetric(a, "A")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"A is {a.shape[0]}x{a.shape[0]} but B has {b.shape[0]} rows")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc
    return np.linalg.solve(a, b)


def sym_eig(s, vectors: bool = True) -> SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending; with
    ``vectors=False`` the eigenvalues alone (eigvalsh), which is cheaper."""
    s = _as_square(s, "S")
    _require_symmetric(s, "S")
    try:
        w, v = np.linalg.eigh(s) if vectors else (np.linalg.eigvalsh(s), None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SymEig(eigenvalues=w, eigenvectors=v)


def _psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a nominally-PSD matrix with small negatives
    clamped to zero; raises NotPSD on a larger negative one."""
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -NEG_EIG_RTOL * lam_max:
        raise NotPSD(
            f"eigenvalue {w[0]:.6e} is below -{NEG_EIG_RTOL:.0e} * max eigenvalue {lam_max:.6e}"
        )
    return np.clip(w, 0.0, None)


def psd_sqrt(s) -> np.ndarray:
    """Symmetric square root of a PSD matrix.

    Small negative eigenvalues (within NEG_EIG_RTOL of the top eigenvalue)
    are clamped to zero: empirical covariance products are only numerically
    PSD. Larger negative eigenvalues raise NotPSD.
    """
    eig = sym_eig(s)
    v = eig.eigenvectors
    root = (v * np.sqrt(_psd_eigenvalues(eig.eigenvalues))) @ v.T
    return (root + root.T) / 2.0


def cov_factor(s) -> np.ndarray:
    """A factor F with ``F.T @ F == S`` for a PSD matrix S: the transposed
    Cholesky factor, or psd_sqrt(S) when Cholesky fails (S singular, or
    indefinite, which psd_sqrt then reports as NotPSD)."""
    s = _as_square(s, "S")
    try:
        return np.linalg.cholesky(s).T
    except np.linalg.LinAlgError:
        return psd_sqrt(s)


def nuclear_norm(m) -> float:
    """Sum of the singular values of a matrix: the square roots of the
    eigenvalues of its smaller Gram (m m^T or m^T m), with psd_sqrt's clamp
    rule. Gram eigenvalues within k * eps of the top one (k the Gram's size)
    are eigensolver rounding and count as zero; each would otherwise add
    about sqrt(k * eps) of the top singular value.
    """
    m = np.asarray(m, dtype=np.float64)
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    w = _psd_eigenvalues(sym_eig((gram + gram.T) / 2.0, vectors=False).eigenvalues)
    w[w <= len(w) * np.finfo(np.float64).eps * w[-1]] = 0.0
    return float(np.sqrt(w).sum())
