import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import linalg
from latentstitch.errors import NoConvergence, NotPSD, NotSPD


def test_spd_solve_identity():
    b = np.arange(6.0).reshape(3, 2)
    x = linalg.spd_solve(np.eye(3), b)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_spd_solve_diagonal():
    x = linalg.spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_spd_solve_random_residual_oracle():
    # multiply-back oracle: ||A X - B||_F / ||B||_F small
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    a = m.T @ m + np.eye(8)
    b = rng.standard_normal((8, 3))
    x = linalg.spd_solve(a, b)
    residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert residual <= 1e-8


# an indefinite matrix, and a singular PSD one shaped like a rank-deficient
# Gram: the signal that sends unregularized fits to the min-norm fallback
@pytest.mark.parametrize("a", [np.diag([1.0, -1.0]), np.ones((2, 2))],
                         ids=["indefinite", "psd_singular"])
def test_spd_solve_not_spd(a):
    with pytest.raises(NotSPD):
        linalg.spd_solve(a, np.eye(2))


def test_spd_solve_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_spd_solve_recovers_planted_solution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    # controlled condition number <= 1e6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(0.0, np.log(1e6), size=n))
    a = (q * eigs) @ q.T
    a = (a + a.T) / 2
    x0 = rng.standard_normal((n, 2))
    x = linalg.spd_solve(a, a @ x0)
    assert np.abs(x - x0).max() <= 1e-7 * max(1.0, np.abs(x0).max())


def test_sym_eig_identity():
    eig = linalg.sym_eig(np.eye(2))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0])


def test_sym_eig_diagonal_axis_aligned():
    eig = linalg.sym_eig(np.diag([1.0, 3.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0])
    np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)


def test_sym_eig_reconstruction_oracle():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((6, 6))
    s = (s + s.T) / 2
    eig = linalg.sym_eig(s)
    scale = np.abs(s).max()
    assert np.abs(eig.reconstruct() - s).max() <= 1e-8 * scale
    assert np.all(np.diff(eig.eigenvalues) >= 0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_sym_eig_orthonormal_eigenvectors(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    s = rng.standard_normal((n, n))
    s = (s + s.T) / 2
    v = linalg.sym_eig(s).eigenvectors
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10


def test_psd_sqrt_identity():
    np.testing.assert_allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_square_back_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 3))
    s = (m.T @ m + (m.T @ m).T) / 2
    r = linalg.psd_sqrt(s)
    assert np.abs(r @ r - s).max() <= 1e-7 * np.abs(s).max()
    # output is symmetric PSD
    np.testing.assert_allclose(r, r.T, atol=1e-12)
    assert np.linalg.eigvalsh(r).min() >= -1e-12


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_small_negatives():
    # clamped mass < 1e-8 of trace keeps the reconstruction error small
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = (q * np.array([1.0, 0.5, 0.25, -1e-9])) @ q.T
    s = (s + s.T) / 2
    r = linalg.psd_sqrt(s)
    assert np.abs(r @ r - s).max() <= 1e-6


def test_sym_eig_eigenvalues_only():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((7, 7))
    s = (s + s.T) / 2
    eig = linalg.sym_eig(s, vectors=False)
    assert eig.eigenvectors is None
    np.testing.assert_allclose(eig.eigenvalues, linalg.sym_eig(s).eigenvalues,
                               rtol=0, atol=1e-13 * np.abs(s).max())


@pytest.mark.parametrize("shape", [(7, 30), (30, 7), (20, 20)], ids=["wide", "tall", "square"])
def test_nuclear_norm_matches_svd(shape):
    m = np.random.default_rng(sum(shape)).standard_normal(shape)
    expected = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(linalg.nuclear_norm(m) - expected) <= 1e-12 * expected


def test_cov_factor_is_cholesky_for_spd_input():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((9, 5))
    s = m.T @ m
    f = linalg.cov_factor(s)
    np.testing.assert_array_equal(f, np.triu(f))
    assert np.abs(f.T @ f - s).max() <= 1e-13 * np.abs(s).max()


def test_cov_factor_falls_back_to_psd_sqrt():
    s = np.diag([4.0, 0.0, 1.0])  # singular: Cholesky meets a zero pivot
    f = linalg.cov_factor(s)
    np.testing.assert_allclose(f, np.diag([2.0, 0.0, 1.0]), atol=1e-12)
    with pytest.raises(NotPSD):
        linalg.cov_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_errors_are_numerical_error_subclasses():
    assert issubclass(NotSPD, Exception)
    assert issubclass(NoConvergence, Exception)
