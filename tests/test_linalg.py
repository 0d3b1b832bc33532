import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import data, linalg, metrics
from latentstitch.errors import NotSPD, NumericalError


def _solved(a, b):
    """spd_solve's X: the B it overwrites."""
    linalg.spd_solve(a, b)
    return b


def test_spd_solve_identity():
    b = np.arange(6.0).reshape(3, 2)
    x = _solved(np.eye(3), b.copy())
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_spd_solve_diagonal():
    x = _solved(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_spd_solve_random_residual_oracle():
    # multiply-back oracle: ||A X - B||_F / ||B||_F small
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    a = m.T @ m + np.eye(8)
    b = rng.standard_normal((8, 3))
    x = _solved(a.copy(), b.copy())
    residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert residual <= 1e-8


# an indefinite matrix, and a singular PSD one shaped like a rank-deficient
# Gram: the signal that sends unregularized fits to the min-norm fallback
@pytest.mark.parametrize("a", [np.diag([1.0, -1.0]), np.ones((2, 2))],
                         ids=["indefinite", "psd_singular"])
def test_spd_solve_not_spd(a):
    with pytest.raises(NotSPD):
        linalg.spd_solve(a, np.eye(2))


# d = 128 is one substitution block, 129 two, 1100 nine; B is a vector, one
# column, fewer columns than d, d columns and 3d columns
@pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 300, 1100])
@pytest.mark.parametrize("k", [None, 1, "d/2", "d", "3d"])
def test_spd_solve_matches_lu_solve(d, k):
    rng = np.random.default_rng(d)
    m = rng.standard_normal((3 * d, d))
    a = m.T @ m / (3 * d) + np.eye(d)  # condition number below 10
    cols = {None: None, 1: 1, "d/2": max(1, d // 2), "d": d, "3d": 3 * d}[k]
    b = rng.standard_normal(d if cols is None else (d, cols))
    expected = np.linalg.solve(a, b)
    low = np.linalg.cholesky(a)
    forward_sq = np.vdot(b, expected)  # ||L^-1 B||_F^2 = tr(B^T A^-1 B)
    factor, got_sq = linalg.spd_solve(a, b)
    x = b  # in place: B holds X, and A's lower triangle holds its Cholesky factor
    assert x.shape == expected.shape and x.dtype == np.float64
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    assert factor.low is a
    assert np.abs(np.tril(a) - low).max() <= 1e-13 * np.abs(low).max()
    assert abs(got_sq - forward_sq) <= 1e-12 * forward_sq


def test_spd_solve_holds_no_copy():
    # the factor overwrites A and the substitution B. At d = 2048 the largest
    # temporary is one (d - PANEL) x PANEL panel update, 6 MiB, next to the
    # 2 MiB of the diagonal blocks' inverses: 6.6 MiB measured, against
    # 32 MiB for A, B or a copy of either
    d = 2048
    rng = np.random.default_rng(5)
    m = rng.standard_normal((d + 64, d))
    a = m.T @ m
    b = rng.standard_normal((d, d))
    del m
    tracemalloc.start()
    try:
        linalg.spd_solve(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d * d / 4


def _cholesky_solve(a, b):
    low = np.linalg.cholesky(a)
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


# d <= 512 is one factor panel, 513 two and 1100 three; the substitution
# splits them into 128-row blocks
@pytest.mark.parametrize("d", [1, 127, 300, 512, 513, 1100])
def test_blocked_spd_solve_matches_whole_cholesky(d):
    rng = np.random.default_rng(d + 1)
    m = rng.standard_normal((2 * d + 5, d))
    a = m.T @ m / (2 * d + 5) + 0.5 * np.eye(d)
    b = rng.standard_normal((d, 5))
    expected = _cholesky_solve(a, b)
    x = _solved(a.copy(), b.copy())
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


# the same NotSPD decision as np.linalg.cholesky of the whole matrix: an
# indefinite matrix with one small negative eigenvalue, and a Gram with an
# exactly zero column in the first, second or last factor panel, whose pivot
# there is exactly 0
@pytest.mark.parametrize("d", [100, 600, 1100])
@pytest.mark.parametrize("kind", ["indefinite", "zero column"])
def test_blocked_spd_solve_makes_the_whole_cholesky_decision(d, kind):
    rng = np.random.default_rng(d)
    if kind == "indefinite":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        w = rng.uniform(1.0, 2.0, size=d)
        w[0] = -1e-3
        a = (q * w) @ q.T
        a = (a + a.T) / 2
        grams = [a]
    else:
        grams = []
        for col in (3, min(520, d - 1), d - 1):
            x = rng.standard_normal((d + 20, d))
            x[:, col] = 0.0
            grams.append(x.T @ x)
    for a in grams:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        b = rng.standard_normal((d, 2))
        b_before = b.copy()
        with pytest.raises(NotSPD):
            linalg.spd_solve(a.copy(), b)
        assert b.tobytes() == b_before.tobytes()  # B is untouched on NotSPD


def _whole_copy_products(x, rows, y, y_rows):
    xc = np.array(x[rows], dtype=np.float64)
    yc = np.array(y[y_rows], dtype=np.float64)
    x_mean, y_mean = xc.mean(axis=0), yc.mean(axis=0)
    xc -= x_mean
    yc -= y_mean
    return x_mean, xc.T @ xc, y_mean, xc.T @ yc, np.sum(yc * yc)


def _relative(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("n", [2, 257, 1025])
@pytest.mark.parametrize("d", [1, 255, 257, 300, 1100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_centered_products_match_the_whole_copy_formulas(n, d, dtype):
    # d = 1100 > 2 PANEL splits each product into pieces of PANEL rows, and
    # its Y, twice as wide, is read with each block of BLOCK_ROWS rows of X:
    # 1025 rows are three blocks, the last of one row
    rng = np.random.default_rng(n * d)
    x = (rng.standard_normal((n + 9, d)) * 3 + 1).astype(dtype)
    y = (rng.standard_normal((n + 9, d + 3 if d <= linalg.PANEL else 2 * d + 3)) - 2).astype(dtype)
    rows, y_rows = rng.permutation(n + 9)[:n], rng.permutation(n + 9)[:n]  # out of order
    x_before = x.copy()
    got = linalg.centered_products(x, rows, y, y_rows)
    want = _whole_copy_products(x, rows, y, y_rows)
    for g, w in zip(got, want):
        assert g.shape == w.shape and _relative(g, w) <= 1e-13
    assert np.array_equal(got[1], got[1].T)
    assert x.tobytes() == x_before.tobytes()
    # all rows, and no Y
    x_mean, gram, y_mean, cross, y_sq = linalg.centered_products(x[:n])
    whole = _whole_copy_products(x, np.arange(n), y, np.arange(n))
    assert y_mean is None and cross is None and y_sq is None
    assert _relative(x_mean, whole[0]) <= 1e-13 and _relative(gram, whole[1]) <= 1e-13
    assert linalg.centered_products(x, rows, y, y_rows, gram=False)[1] is None
    # sigma of a summary (its factor's Gram below d samples) is the
    # whole-copy covariance
    s = metrics.summarize(x[rows])
    sigma = s.factor.T @ s.factor if s.sigma is None else s.sigma
    assert _relative(s.mu, want[0]) <= 1e-13
    assert np.abs(sigma - want[1] / (n - 1)).max() <= 1e-13 * np.abs(want[1]).max() / (n - 1)


def test_centered_products_of_a_y_without_columns():
    x = np.random.default_rng(3).standard_normal((40, 5)).astype(np.float32)
    x_mean, gram, y_mean, cross, y_sq = linalg.centered_products(x, None, np.empty((40, 0)))
    assert gram.shape == (5, 5) and y_mean.shape == (0,) and cross.shape == (5, 0)
    assert y_sq == 0.0


def test_centered_products_hold_no_copy_of_the_set():
    # 3000 x 1024 float32 sets: a float64 copy of one is 24 MiB, the Gram
    # and Xc^T Yc 8 MiB each. The temporaries are a float64 row block of X
    # (512 rows, 4 MiB), that block's float32 rows of Y (2 MiB), one float64
    # panel of 512 of their columns (2 MiB) and one PANEL x PANEL product
    # (2 MiB): 26.1 MiB measured
    rng = np.random.default_rng(66)
    n, d = 3000, 1024
    x = rng.standard_normal((n, d), dtype=np.float32)
    y = rng.standard_normal((n, d), dtype=np.float32)
    rows = rng.permutation(n)
    tracemalloc.start()
    try:
        linalg.centered_products(x, rows, y, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * d * d + 20 * 2**20


@pytest.mark.parametrize("source", ["array", "file"])
def test_centered_products_read_a_wide_y_in_bounded_groups(tmp_path, source):
    # A narrow X (64 columns) and a wide Y (4,096 columns, 32 MiB of
    # float32), in blocks of BLOCK_ROWS = 512 rows. Xc^T Yc is 2 MiB and X's
    # block 0.25 MiB as float64; a block's whole rows of Y are 8 MiB as
    # float32, each centered in float64 panels of 512 columns (2 MiB):
    # 12.7 MiB measured, from an array or a file. A gather of all of
    # Y's rows is 32 MiB.
    rng = np.random.default_rng(67)
    n, d_x, d_y = 2000, 64, 4096
    x = rng.standard_normal((n, d_x), dtype=np.float32)
    y = rng.standard_normal((n, d_y), dtype=np.float32)
    rows = rng.permutation(n)
    want = linalg.centered_products(x, rows, y, rows, gram=False)
    if source == "file":
        ids = [str(i) for i in range(n)]
        data.write_latents(data.LatentDataset(model_id="y", ids=ids, X=y), tmp_path / "y.lsf")
        y = data.read_latents(tmp_path / "y.lsf").X
    tracemalloc.start()
    try:
        got = linalg.centered_products(x, rows, y, rows, gram=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(u.tobytes() == v.tobytes() for u, v in zip(got, want) if u is not None)
    assert peak < 8 * d_x * d_y + 12 * 2**20


def test_centered_products_hold_panel_sized_products_at_offline_score_width():
    # offline-score's fit: d = k = 2048 and about 1,200 train rows, in blocks
    # of 512 rows. Beyond the Gram and Xc^T Yc (32 MiB each) the kernel holds
    # a float64 row block of X (8 MiB), that block's float32 rows of Y
    # (4 MiB), one float64 panel of 512 of their columns (2 MiB) and one
    # PANEL x PANEL product (2 MiB): 16.2 MiB measured, and 20.2 MiB with
    # whole d x PANEL products (8 MiB).
    rng = np.random.default_rng(68)
    n, d = 1200, 2048
    x = rng.standard_normal((n, d), dtype=np.float32)
    y = rng.standard_normal((n, d), dtype=np.float32)
    rows = rng.permutation(n)
    tracemalloc.start()
    try:
        linalg.centered_products(x, rows, y, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * d * d + 16.5 * 2**20


# spd_solve and sym_eig check no symmetry and summarize and nuclear_norm
# form no (G + G^T)/2: every matrix the program passes them is a
# Gram of a C-contiguous float64 array, which matmul forms by computing one
# triangle and mirroring it. Sizes span several BLAS blocks.
@pytest.mark.parametrize("n, d", [(300, 16), (800, 1024), (2000, 256)])
def test_grams_the_program_forms_are_exactly_symmetric(n, d):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n // 2 + 7, d))
    cross = x @ y.T  # nuclear_norm's F_p F_q^T, whose smaller or larger Gram it takes
    for gram in (x.T @ x, x @ x.T, cross @ cross.T, cross.T @ cross):
        assert np.array_equal(gram, gram.T)


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
    x = _solved(a, a @ x0)
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
    v, scale = eig.eigenvectors, np.abs(s).max()
    assert np.abs((v * eig.eigenvalues) @ v.T - s).max() <= 1e-8 * scale
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
    with pytest.raises(NumericalError, match="eigenvalue -5.000000e-01 is below -1e-06"):
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
    # given as two factors, m = a b^T, the product is formed inside
    a, b = m[:, :5], np.random.default_rng(9).standard_normal((shape[1], 5))
    assert linalg.nuclear_norm(a, b) == linalg.nuclear_norm(a @ b.T)


@pytest.mark.parametrize("d", [40, 600])
def test_cholesky_in_place_is_the_lower_factor_or_restores_its_input(d):
    # d = 600 spans two panels, the second a partial one
    g = np.random.default_rng(d).standard_normal((d, d + 5))
    a = g @ g.T  # exactly symmetric
    low = a.copy()
    assert linalg.cholesky_in_place(low)
    assert _relative(low, np.linalg.cholesky(a)) <= 1e-12
    assert not np.triu(low, 1).any()
    singular = a.copy()
    singular[:, d - 3] = singular[d - 3, :] = 0.0  # a zero pivot in the last panel
    before = singular.tobytes()
    assert not linalg.cholesky_in_place(singular)
    assert singular.tobytes() == before


def test_errors_are_numerical_error_subclasses():
    assert issubclass(NotSPD, NumericalError)
