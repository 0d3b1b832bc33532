import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import mapfit
from latentstitch.errors import BadMagic, DimensionMismatch, NotSPD


def planted_problem(seed=0, n=200, d_in=8, d_out=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in))
    a = rng.standard_normal((d_out, d_in))
    c = rng.standard_normal(d_out)
    return x, x @ a.T + c, a, c


def test_fit_ols_identity_map():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 4))
    m = mapfit.fit_ols(x, x)
    np.testing.assert_allclose(m.W, np.eye(4), atol=1e-8)
    np.testing.assert_allclose(m.b, np.zeros(4), atol=1e-8)


def test_fit_ols_scalar_affine():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    m = mapfit.fit_ols(x, 2.0 * x + 3.0)
    np.testing.assert_allclose(m.W, [[2.0]], atol=1e-10)
    np.testing.assert_allclose(m.b, [3.0], atol=1e-10)


def test_fit_ols_recovers_planted_map():
    x, y, a, c = planted_problem()
    m = mapfit.fit_ols(x, y)
    assert np.abs(m.W - a).max() <= 1e-7
    assert np.abs(m.b - c).max() <= 1e-7


def test_fit_ols_rank_deficient_raises_then_fallback():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 8))  # n < d_in
    y = rng.standard_normal((5, 3))
    with pytest.raises(NotSPD):
        mapfit.fit_ols(x, y)
    m = mapfit.fit_ols(x, y, svd_fallback=True)
    # minimum-norm solution interpolates the training rows
    np.testing.assert_allclose(mapfit.apply_map(m, x), y, atol=1e-8)


@pytest.mark.parametrize("fit", [
    pytest.param(lambda x, y: mapfit.fit_ols(x, y), id="ols"),
    pytest.param(lambda x, y: mapfit.fit_ols(x[:5], y[:5], svd_fallback=True), id="ols-lstsq"),
    pytest.param(lambda x, y: mapfit.fit_ridge(x, y, 2.5), id="ridge"),
])
def test_fits_leave_float64_inputs_unchanged(fit):
    x, y, _, _ = planted_problem(seed=17)
    x_before, y_before = x.copy(), y.copy()
    fit(x, y)
    assert x.tobytes() == x_before.tobytes() and y.tobytes() == y_before.tobytes()


def test_fit_ridge_zero_alpha_matches_ols_exactly():
    x, y, _, _ = planted_problem(seed=3)
    ols = mapfit.fit_ols(x, y)
    ridge = mapfit.fit_ridge(x, y, 0.0)
    np.testing.assert_array_equal(ridge.W, ols.W)
    np.testing.assert_array_equal(ridge.b, ols.b)


def test_fit_ridge_scalar_closed_form():
    # centered scalar data: W = Sxy / (Sxx + alpha) = 2 / (2 + 1)
    x = np.array([[-1.0], [1.0]])
    y = np.array([[-1.0], [1.0]])
    m = mapfit.fit_ridge(x, y, 1.0)
    np.testing.assert_allclose(m.W, [[2.0 / 3.0]], atol=1e-12)


def test_fit_ridge_shrinkage_limit():
    x, y, _, _ = planted_problem(seed=4)
    m = mapfit.fit_ridge(x, y, 1e12)
    assert np.linalg.norm(m.W) <= 1e-6


def _augmented_oracle(x, y, alpha):
    # independent route: plain least squares on [Xc; sqrt(alpha) I] -> [Yc; 0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    aug_x = np.vstack([xc, np.sqrt(alpha) * np.eye(x.shape[1])])
    aug_y = np.vstack([yc, np.zeros((x.shape[1], y.shape[1]))])
    wt, *_ = np.linalg.lstsq(aug_x, aug_y, rcond=None)
    return wt.T


@pytest.mark.parametrize("alpha", [0.0, 1.0, 100.0, 2000.0, 50000.0])
def test_fit_ridge_augmented_system_oracle(alpha):
    x, y, _, _ = planted_problem(seed=5, n=120, d_in=10, d_out=4)
    m = mapfit.fit_ridge(x, y, alpha)
    expected = _augmented_oracle(x, y, alpha) if alpha > 0 else None
    if expected is None:
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        expected = np.linalg.lstsq(xc, yc, rcond=None)[0].T
    assert np.abs(m.W - expected).max() <= 1e-8


def test_fit_ridge_train_mse_non_decreasing_in_alpha():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 6))
    y = x @ rng.standard_normal((3, 6)).T + 0.3 * rng.standard_normal((80, 3))
    mses = []
    for alpha in (0.0, 0.1, 1.0, 10.0, 100.0, 1e4):
        m = mapfit.fit_ridge(x, y, alpha)
        mses.append(mapfit.latent_mse(mapfit.apply_map(m, x), y))
    assert all(b >= a - 1e-12 for a, b in zip(mses, mses[1:]))


def test_fit_ols_residual_orthogonality():
    x, y, _, _ = planted_problem(seed=7)
    y = y + 0.5 * np.random.default_rng(8).standard_normal(y.shape)
    m = mapfit.fit_ols(x, y)
    xc = x - x.mean(axis=0)
    resid = y - mapfit.apply_map(m, x)
    cross = xc.T @ resid
    assert np.abs(cross).max() <= 1e-6 * np.abs(xc.T @ y).max()


def test_apply_map_identity_and_constant():
    x = np.random.default_rng(9).standard_normal((4, 3))
    ident = mapfit.LinearMap(source_model="a", target_model="b", W=np.eye(3), b=np.zeros(3))
    np.testing.assert_array_equal(mapfit.apply_map(ident, x), x)
    const = mapfit.LinearMap(source_model="a", target_model="b", W=np.zeros((2, 3)), b=np.array([1.0, 5.0]))
    out = mapfit.apply_map(const, x)
    np.testing.assert_array_equal(out, np.tile([1.0, 5.0], (4, 1)))


def test_apply_map_composition_oracle():
    rng = np.random.default_rng(10)
    m1 = mapfit.LinearMap(source_model="a", target_model="b",
                          W=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
    m2 = mapfit.LinearMap(source_model="b", target_model="c",
                          W=rng.standard_normal((2, 4)), b=rng.standard_normal(2))
    x = rng.standard_normal((6, 3))
    chained = mapfit.apply_map(m2, mapfit.apply_map(m1, x))
    composed = mapfit.LinearMap(
        source_model="a", target_model="c",
        W=m2.W @ m1.W, b=m2.W @ m1.b + m2.b,
    )
    np.testing.assert_allclose(mapfit.apply_map(composed, x), chained, atol=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_apply_map_is_affine(lam):
    rng = np.random.default_rng(11)
    m = mapfit.LinearMap(source_model="a", target_model="b",
                         W=rng.standard_normal((3, 3)), b=rng.standard_normal(3))
    x1 = rng.standard_normal((5, 3))
    x2 = rng.standard_normal((5, 3))
    lhs = mapfit.apply_map(m, lam * x1 + (1 - lam) * x2)
    rhs = lam * mapfit.apply_map(m, x1) + (1 - lam) * mapfit.apply_map(m, x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_latent_mse_trivials_and_brute_force():
    x = np.random.default_rng(12).standard_normal((3, 2))
    assert mapfit.latent_mse(x, x) == 0.0
    assert mapfit.latent_mse(x + 1.0, x) == pytest.approx(1.0)
    y = x + np.array([[0.5, -1.0], [2.0, 0.0], [0.1, 0.3]])
    total = 0.0
    for i in range(3):
        for j in range(2):
            total += (x[i, j] + [[0.5, -1.0], [2.0, 0.0], [0.1, 0.3]][i][j] - x[i, j]) ** 2
    assert mapfit.latent_mse(y, x) == pytest.approx(total / 6.0)


def test_latent_mse_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        mapfit.latent_mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_default_alphas():
    alphas = mapfit.DEFAULT_MAP_ALPHAS
    assert alphas[("DM", "GAN")] == 2000.0
    assert alphas[("DM", "VAE")] == 100.0
    assert alphas[("DM", "VQVAE")] == 5000.0
    assert alphas[("DM", "NF")] == 5000.0
    assert alphas[("NF", "GAN")] == 50000.0
    assert alphas[("NF", "VAE")] == 5000.0
    assert alphas[("NF", "VQVAE")] == 50000.0
    assert alphas[("NF", "DM")] == 50000.0
    # unlisted pairs are unregularized
    assert ("VAE", "VQVAE") not in alphas and ("GAN", "DM") not in alphas


def test_lmap_round_trip(tmp_path):
    x, y, _, _ = planted_problem(seed=13)
    m = mapfit.fit_ridge(x, y, 7.5, source_model="src", target_model="dst")
    path = tmp_path / "m.lmap"
    mapfit.save_map(m, path)
    back = mapfit.load_map(path)
    assert (back.source_model, back.target_model, back.alpha) == ("src", "dst", 7.5)
    np.testing.assert_array_equal(back.W, m.W)
    np.testing.assert_array_equal(back.b, m.b)


def test_fits_record_solver_path_outside_lmap(tmp_path):
    rng = np.random.default_rng(14)
    x, y = rng.standard_normal((5, 8)), rng.standard_normal((5, 3))  # n < d_in
    fallback = mapfit.fit_ols(x, y, svd_fallback=True)
    assert fallback.solver == "lstsq"
    assert mapfit.fit_ridge(x, y, 1.0).solver == "cholesky"
    x_full, y_full, _, _ = planted_problem(seed=14)
    assert mapfit.fit_ols(x_full, y_full).solver == "cholesky"
    mapfit.save_map(fallback, tmp_path / "a.lmap")
    mapfit.save_map(dataclasses.replace(fallback, solver="cholesky"), tmp_path / "b.lmap")
    assert (tmp_path / "a.lmap").read_bytes() == (tmp_path / "b.lmap").read_bytes()
    assert mapfit.load_map(tmp_path / "a.lmap").solver == ""


def test_lmap_bad_magic(tmp_path):
    path = tmp_path / "m.lmap"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        mapfit.load_map(path)
