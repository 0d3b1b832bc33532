import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import linalg, mapfit, metrics
from latentstitch.errors import DataError, NumericalError
from latentstitch.linalg import psd_sqrt, sym_eig


def _summary(mu, sigma, n=None):
    """A summary of a given covariance, held as summarize holds its own."""
    return metrics.GaussianSummary(mu, sigma=sigma, n=n)


def test_pixel_rmse_trivials():
    a = np.random.default_rng(0).random((3, 8))
    assert metrics.pixel_rmse(a, a) == 0.0
    assert metrics.pixel_rmse(np.zeros((2, 4)), np.ones((2, 4))) == pytest.approx(1.0)


@pytest.mark.parametrize("score", [metrics.mean_squared_difference, metrics.pixel_rmse,
                                   mapfit.latent_mse])
def test_squared_difference_of_no_entries_raises(score):
    with pytest.raises(DataError, match="no entries to average"):
        score(np.zeros((0, 4)), np.zeros((0, 4)))


def test_latent_mse_and_pixel_rmse_share_one_sum():
    rng = np.random.default_rng(5)
    a, b = rng.random((40, 30)).astype(np.float32), rng.random((40, 30))
    mse = metrics.mean_squared_difference(a, b)
    assert mapfit.latent_mse(a, b) == mse
    assert metrics.pixel_rmse(a, b) == float(np.sqrt(mse))
    assert mse == pytest.approx(np.mean((a.astype(np.float64) - b) ** 2), rel=1e-12)


def test_pixel_rmse_brute_force_oracle():
    a = np.array([[0.1, 0.9], [0.4, 0.2]])
    b = np.array([[0.3, 0.5], [0.0, 0.6]])
    total = 0.0
    for i in range(2):
        for j in range(2):
            total += (a[i, j] - b[i, j]) ** 2
    assert metrics.pixel_rmse(a, b) == pytest.approx(np.sqrt(total / 4.0))


def test_pixel_rmse_sums_float32_rows_in_blocks():
    # 3000 x 2048 float32 inputs span six blocks; the float64 formula holds
    # four 49 MB arrays at once
    rng = np.random.default_rng(2)
    a = rng.random((3000, 2048), dtype=np.float32)
    b = rng.random((3000, 2048), dtype=np.float32)
    expected = np.sqrt(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    tracemalloc.start()
    try:
        value = metrics.pixel_rmse(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(expected, rel=1e-12)
    assert peak < 12 * 2**20


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_pixel_rmse_triangle_bound(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.random((3, 4, 6))
    assert metrics.pixel_rmse(a, c) <= metrics.pixel_rmse(a, b) + metrics.pixel_rmse(b, c) + 1e-12


def test_summarize_identical_rows():
    s = metrics.summarize(np.ones((2, 3)))
    np.testing.assert_array_equal(s.factor.T @ s.factor, np.zeros((3, 3)))


def test_summarize_two_point_variance():
    # rows (0,0) and (2,2): per-column mean 1, per-column variance 2 (n-1 divisor)
    s = metrics.summarize(np.array([[0.0, 0.0], [2.0, 2.0]]))
    np.testing.assert_allclose(s.mu, [1.0, 1.0])
    np.testing.assert_allclose(np.diag(s.sigma), [2.0, 2.0])


def test_summarize_brute_force_covariance_oracle():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((100, 3))
    s = metrics.summarize(f)
    mu = f.mean(axis=0)
    expected = np.zeros((3, 3))
    for i in range(100):
        diff = f[i] - mu
        expected += np.outer(diff, diff)
    expected /= 99
    assert np.abs(s.sigma - expected).max() <= 1e-12
    assert s.n == 100


def test_summarize_too_few_samples():
    with pytest.raises(DataError, match="need at least 2 samples for a covariance, got 1"):
        metrics.summarize(np.ones((1, 3)))


@pytest.mark.parametrize("n,d", [(7, 20), (40, 6)])
def test_summarize_leaves_a_float64_input_unchanged(n, d):
    f = np.random.default_rng(16).standard_normal((n, d)) + 3.0
    before = f.copy()
    metrics.summarize(f)
    assert f.tobytes() == before.tobytes()


def test_fid_self_distance_zero():
    rng = np.random.default_rng(3)
    s = metrics.summarize(rng.standard_normal((50, 4)))
    assert metrics.fid(s, s) <= 1e-8


def test_fid_one_dimensional_closed_form():
    p = _summary(np.array([0.0]), np.array([[1.0]]))
    q = _summary(np.array([1.0]), np.array([[1.0]]))
    assert metrics.fid(p, q) == pytest.approx(1.0, abs=1e-6)
    # general 1-D closed form: (mu1 - mu2)^2 + (s1 - s2)^2
    p2 = _summary(np.array([0.5]), np.array([[4.0]]))
    q2 = _summary(np.array([-1.0]), np.array([[9.0]]))
    assert metrics.fid(p2, q2) == pytest.approx(1.5**2 + 1.0**2, abs=1e-8)


def test_fid_mean_shift_only():
    rng = np.random.default_rng(4)
    sigma = rng.standard_normal((5, 5))
    sigma = sigma @ sigma.T + np.eye(5)
    delta = rng.standard_normal(5)
    p = _summary(np.zeros(5), sigma)
    q = _summary(delta, sigma.copy())
    assert metrics.fid(p, q) == pytest.approx(float(delta @ delta), abs=1e-8)


def test_fid_symmetry():
    rng = np.random.default_rng(5)
    p = metrics.summarize(rng.standard_normal((60, 4)))
    q = metrics.summarize(rng.standard_normal((60, 4)) * 1.5 + 0.3)
    fpq = metrics.fid(p, q)
    fqp = metrics.fid(q, p)
    assert abs(fpq - fqp) <= 1e-6 * (1.0 + fpq)


def test_fid_orthogonal_rotation_invariance():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((200, 6))
    b = rng.standard_normal((200, 6)) * 0.7 + 0.2
    rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = metrics.fid(metrics.summarize(a), metrics.summarize(b))
    rotated = metrics.fid(metrics.summarize(a @ rot.T), metrics.summarize(b @ rot.T))
    assert abs(base - rotated) <= 1e-6 * (1.0 + base)


def test_fid_rank_deficient_ridge_path():
    # fewer samples than dimensions: ridge keeps the computation stable
    rng = np.random.default_rng(7)
    f = rng.standard_normal((4, 9))
    s = metrics.summarize(f)
    assert s.n == 4 and s.n < s.d
    assert metrics.fid(s, s) <= 1e-8
    other = metrics.summarize(rng.standard_normal((5, 9)))
    assert metrics.fid(s, other) >= 0.0


@pytest.mark.parametrize("mu,factor", [(np.zeros((1, 3)), np.eye(3)),
                                       (np.zeros(3), np.zeros(3)),
                                       (np.zeros(3), np.zeros((3, 2)))])
def test_summary_needs_a_vector_mean_and_r_by_d_factor(mu, factor):
    with pytest.raises(DataError, match="mu shape .* incompatible with factor shape"):
        metrics.GaussianSummary(mu, factor)


@pytest.mark.parametrize("sigma", [np.eye(2), np.zeros((2, 3)), np.zeros(3)])
def test_summary_needs_a_d_by_d_sigma(sigma):
    with pytest.raises(DataError, match="mu shape .* incompatible with sigma shape"):
        metrics.GaussianSummary(np.zeros(3), sigma=sigma)


def test_fid_dimension_mismatch_and_not_psd():
    p = _summary(np.zeros(2), np.eye(2))
    q = _summary(np.zeros(3), np.eye(3))
    with pytest.raises(DataError, match="dimension mismatch: 2 vs 3"):
        metrics.fid(p, q)
    # an indefinite sigma is reported by fid: it is read against the other,
    # whose factor keeps its negative eigenvalue, in either argument order
    bad = _summary(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    for pair in ((bad, _summary(np.zeros(2), np.eye(2))), (_summary(np.zeros(2), np.eye(2)), bad)):
        with pytest.raises(NumericalError, match="eigenvalue -1.000000e\\+00 is below"):
            metrics.fid(*pair)


def _brute_force_fid(x, y):
    """||mu_x - mu_y||^2 + ||A_x||_F^2 + ||A_y||_F^2 - 2 * nuclear norm of A_x A_y^T,
    with A the centered rows over sqrt(n - 1), singular values by SVD."""
    ax = (x - x.mean(axis=0)) / np.sqrt(len(x) - 1)
    ay = (y - y.mean(axis=0)) / np.sqrt(len(y) - 1)
    diff = x.mean(axis=0) - y.mean(axis=0)
    nuclear = np.linalg.svd(ax @ ay.T, compute_uv=False).sum()
    return diff @ diff + np.sum(ax * ax) + np.sum(ay * ay) - 2.0 * nuclear


FEWER_SAMPLES_THAN_DIMS = [(5, 8, 12), (30, 17, 64), (40, 90, 128), (120, 60, 300)]


def _samples(n, m, d):
    rng = np.random.default_rng(1000 * n + m)
    return rng.standard_normal((n, d)), rng.standard_normal((m, d)) * 1.3 + 0.2


@pytest.mark.parametrize("n,m,d", FEWER_SAMPLES_THAN_DIMS)
def test_fid_cross_path_matches_svd_oracle(n, m, d):
    x, y = _samples(n, m, d)
    p, q = metrics.summarize(x), metrics.summarize(y)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(p, q) - expected) <= 1e-9 * abs(expected)
    assert abs(metrics.fid(q, p) - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize("n,m,d", FEWER_SAMPLES_THAN_DIMS)
def test_fid_cross_path_matches_covariance_path(n, m, d):
    x, y = _samples(n, m, d)
    p, q = metrics.summarize(x), metrics.summarize(y)
    cross = metrics.fid(p, q)
    # the same samples as (mu, sigma) summaries, with and without their sample
    # counts: sigma (rank n - 1 < d) is factored and no ridge is added, so the
    # value is the rows summaries' one
    for n_p, n_q in ((None, None), (n, m)):
        bare = metrics.fid(_summary(p.mu, p.factor.T @ p.factor, n_p),
                           _summary(q.mu, q.factor.T @ q.factor, n_q))
        assert abs(bare - cross) <= 1e-9 * cross


def test_fid_mixed_summaries_match_svd_oracle(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 10))
    y = rng.standard_normal((40, 10))
    few, many = metrics.summarize(x), metrics.summarize(y)
    assert few.factor.shape == (6, 10) and many.sigma.shape == (10, 10)
    sizes = []

    def recording_sym_eig(s, vectors=True):
        sizes.append(len(s))
        return sym_eig(s, vectors)

    monkeypatch.setattr(linalg, "sym_eig", recording_sym_eig)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(few, many) - expected) <= 1e-9 * expected
    assert abs(metrics.fid(many, few) - expected) <= 1e-9 * expected
    assert sizes == [6, 6]  # the 6 x 6 Gram of the cross matrix, no 10 x 10 solve


def test_summarize_keeps_rows_below_d_and_forms_sigma_on_read():
    rng = np.random.default_rng(9)
    f = rng.standard_normal((7, 20))
    s = metrics.summarize(f)
    assert s.factor.shape == (7, 20) and s.n == 7
    sigma = s.factor.T @ s.factor
    np.testing.assert_allclose(sigma, np.cov(f, rowvar=False), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(sigma, sigma.T)


def test_fid_cross_path_allocates_no_d_by_d_matrix():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((64, 3072))
    y = rng.standard_normal((64, 3072)) + 0.1
    tracemalloc.start()
    try:
        value = metrics.fid(metrics.summarize(x), metrics.summarize(y))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 16 * 2**20  # one 3072 x 3072 float64 matrix is 75 MB


@pytest.mark.parametrize("d", [512, 1024])
def test_summarize_holds_one_float64_copy_and_two_covariances(d):
    # full rank; the summary keeps sigma
    x = np.random.default_rng(d).standard_normal((3000, d), dtype=np.float32)
    tracemalloc.start()
    try:
        s = metrics.summarize(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.sigma.shape == (d, d)
    assert peak < x.size * 8 + 2 * d * d * 8


def test_summarize_keeps_sigma_and_fid_factors_it_in_place(monkeypatch):
    # Once Sigma exists (2 MiB at d = 512), summarize holds nothing more: the
    # summary keeps the Gram centered_products returns, scaled in place.
    n, d = 2000, 512
    x = np.random.default_rng(15).standard_normal((n, d), dtype=np.float32)
    accumulate, grams = metrics.centered_products, []

    def products_then_reset(*args, **kwargs):
        out = accumulate(*args, **kwargs)
        grams.append(out[1])
        tracemalloc.reset_peak()  # the row blocks are freed; the peak from here on
        return out

    monkeypatch.setattr(metrics, "centered_products", products_then_reset)
    tracemalloc.start()
    try:
        s = metrics.summarize(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.sigma is grams[0]
    assert peak < d * d * 8 + 2**16
    # Handed both sigmas, fid factors p's in its own buffer and forms L^T S L
    # there: past d = PANEL (8 MiB at d = 1024) the temporaries are the saved
    # diagonal blocks and two d x PANEL products, 8 MiB, so a d x d copy
    # (+8 MiB) fails the bound.
    d = 1024
    g = np.random.default_rng(16).standard_normal((2, d, d + 8))
    p, q = (metrics.GaussianSummary(np.zeros(d), sigma=a @ a.T) for a in g)
    sigma_p, factor, factored = p.sigma, linalg.cholesky_in_place, []
    monkeypatch.setattr(metrics, "cholesky_in_place", lambda a: factored.append(a) or factor(a))
    tracemalloc.start()
    try:
        metrics.fid(p, q, overwrite=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(factored) == 1 and factored[0] is sigma_p
    assert peak < 2 * d * linalg.PANEL * 8 + 2**20


# full rank, and a zero column, which makes sigma singular on every BLAS
@pytest.mark.parametrize("singular", [False, True])
def test_summarize_sigma_equals_the_symmetrized_covariance(singular):
    # the Gram linalg.centered_products returns is symmetric to the bit, so
    # the summary's sigma is (G + G^T) / 2 byte for byte: fid restores a
    # sigma it could not factor from its upper triangle
    n, d = 1500, 256
    x = np.random.default_rng(14).standard_normal((n, d)).astype(np.float32)
    if singular:
        x[:, 0] = 0.0
    gram = linalg.centered_products(x)[1]
    gram /= n - 1
    sigma = gram + gram.T
    sigma /= 2.0
    got = metrics.summarize(x).sigma
    assert got.tobytes() == sigma.tobytes()
    if singular:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        assert not linalg.cholesky_in_place(got)
        assert got.tobytes() == sigma.tobytes()


def test_fid_copies_only_the_sigma_it_factors():
    # read-only summaries: fid factors a copy of one sigma (8 MiB) and forms
    # L^T S L in it from two d x PANEL products (4 MiB each); a copy of the
    # other sigma (+8 MiB) fails the bound
    rng = np.random.default_rng(13)
    p, q = (metrics.summarize(rng.standard_normal((2000, 1024)) + shift) for shift in (0, 0.1))
    tracemalloc.start()
    try:
        metrics.fid(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 1024 * 1024 * 8


def test_fid_cross_path_matches_svd_oracle_on_low_rank_samples():
    # near-exact stitches: both sample sets span one rank-3 subspace, so the
    # cross matrix has 37 zero singular values that must not count as noise
    rng = np.random.default_rng(11)
    z = rng.standard_normal((50, 3))
    basis = rng.standard_normal((3, 200))
    x = z @ basis
    y = (z[:40] + 0.01 * rng.standard_normal((40, 3))) @ basis
    p, q = metrics.summarize(x), metrics.summarize(y)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(p, q) - expected) <= 1e-9 * abs(expected)
    assert metrics.fid(p, p) <= 1e-10 * np.trace(p.factor.T @ p.factor)


@pytest.mark.parametrize("n,m,d", [(60, 80, 12), (300, 500, 64)])
def test_fid_many_samples_matches_svd_oracle(n, m, d):
    x, y = _samples(n, m, d)
    p, q = metrics.summarize(x), metrics.summarize(y)
    assert p.sigma.shape == q.sigma.shape == (d, d)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(p, q) - expected) <= 1e-9 * expected
    assert abs(metrics.fid(q, p) - expected) <= 1e-9 * expected


def test_fid_many_samples_matches_svd_oracle_on_low_rank_samples():
    # n >= d, but both sample sets span one rank-3 subspace of 20 dimensions:
    # sigma is singular up to rounding, and its factor must not add noise
    rng = np.random.default_rng(13)
    z = rng.standard_normal((200, 3))
    basis = rng.standard_normal((3, 20))
    x = z @ basis
    y = (z[:150] + 0.01 * rng.standard_normal((150, 3))) @ basis
    p, q = metrics.summarize(x), metrics.summarize(y)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(p, q) - expected) <= 1e-9 * expected
    assert abs(metrics.fid(q, p) - expected) <= 1e-9 * expected


def test_fid_of_two_singular_sigmas_takes_the_psd_square_root(monkeypatch):
    x, y = _samples(80, 60, 12)
    x[:, 5] = 0.0  # a zero row and column in each sigma: Cholesky has a zero pivot
    y[:, 7] = 0.0
    for z in (x, y):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.cov(z, rowvar=False))
    roots = []

    def counting_psd_sqrt(s):
        roots.append(len(s))
        return psd_sqrt(s)

    monkeypatch.setattr(linalg, "psd_sqrt", counting_psd_sqrt)
    p, q = metrics.summarize(x), metrics.summarize(y)
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(p, q) - expected) <= 1e-10 * expected
    assert abs(metrics.fid(q, p) - expected) <= 1e-10 * expected
    assert roots == [12, 12]  # neither factors in place: the square root, once per call


@pytest.mark.parametrize("overwrite", [False, True])
@pytest.mark.parametrize("d", [40, 600])
def test_fid_of_two_sigmas_matches_svd_oracle(d, overwrite):
    # d = 600 spans two panels of PANEL = 512, the second a partial one
    x, y = _samples(d + 100, d + 200, d)
    expected = _brute_force_fid(x, y)
    for a, b in ((x, y), (y, x)):
        p, q = metrics.summarize(a), metrics.summarize(b)
        before = p.sigma.tobytes(), q.sigma.tobytes()
        assert abs(metrics.fid(p, q, overwrite=overwrite) - expected) <= 1e-10 * expected
        if overwrite:
            assert p.sigma is None and q.sigma is None  # handed over and freed
        else:
            assert (p.sigma.tobytes(), q.sigma.tobytes()) == before


@pytest.mark.parametrize("overwrite", [False, True])
def test_fid_restores_a_singular_sigma_and_factors_the_other(monkeypatch, overwrite):
    x, y = _samples(700, 800, 600)
    x[:, 550] = 0.0  # a zero pivot in the second panel, after the first is factored
    expected = _brute_force_fid(x, y)
    factor, outcomes = linalg.cholesky_in_place, []
    monkeypatch.setattr(metrics, "cholesky_in_place",
                        lambda a: outcomes.append(factor(a)) or outcomes[-1])
    for singular_first in (True, False):
        sx, sy = metrics.summarize(x), metrics.summarize(y)
        sigma_x, original = sx.sigma, sx.sigma.copy()
        outcomes.clear()
        value = metrics.fid(*((sx, sy) if singular_first else (sy, sx)), overwrite=overwrite)
        assert abs(value - expected) <= 1e-10 * expected
        assert outcomes == ([False, True] if singular_first else [True])
        assert sigma_x.tobytes() == original.tobytes()


def test_fid_of_a_sigma_and_a_row_factor_matches_svd_oracle():
    x, y = _samples(40, 700, 600)
    few, many = metrics.summarize(x), metrics.summarize(y)
    assert few.sigma is None and many.factor is None
    before = few.factor.tobytes(), many.sigma.tobytes()
    expected = _brute_force_fid(x, y)
    assert abs(metrics.fid(few, many, overwrite=True) - expected) <= 1e-10 * expected
    assert abs(metrics.fid(many, few) - expected) <= 1e-10 * expected
    assert (few.factor.tobytes(), many.sigma.tobytes()) == before  # no factor is made


def test_fid_of_a_summary_handed_over_twice():
    s = metrics.summarize(_samples(700, 1, 600)[0])
    assert metrics.fid(s, s, overwrite=True) <= 1e-8
