import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import linalg, mapfit
from latentstitch.errors import DataError


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


def test_fit_ols_rank_deficient_takes_min_norm_lstsq():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 8))  # n < d_in
    y = rng.standard_normal((5, 3))
    m = mapfit.fit_ols(x, y)
    assert m.solver == "eigh"
    # minimum-norm solution interpolates the training rows
    np.testing.assert_allclose(mapfit.apply_map(m, x), y, atol=1e-8)


def _spd_solved(gram, rhs):
    """linalg.spd_solve's solution: the right-hand side it overwrites."""
    linalg.spd_solve(gram, rhs)
    return rhs


def _reference_unregularized_fit(X, Y, solve=_spd_solved):
    """The alpha = 0 fit as a separate branch: the centered normal equations,
    built by linalg.centered_products as the fit builds them, solved by
    ``solve`` when np.linalg.cholesky accepts the Gram, else multiplied by the
    Gram's pseudo-inverse, lstsq against the identity."""
    x_mean, gram, y_mean, rhs, _ = linalg.centered_products(X, None, Y, None)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        pinv = np.linalg.lstsq(gram, np.eye(len(gram)), rcond=None)[0]
        W, solver = rhs.T @ pinv.T, "lstsq"
    else:
        W, solver = np.ascontiguousarray(solve(gram, rhs).T), "cholesky"
    return W, y_mean - W @ x_mean, solver


def _rank_k_float32_design():
    rng = np.random.default_rng(21)
    x = (rng.standard_normal((120, 3)) @ rng.standard_normal((3, 16))).astype(np.float32)
    return x, rng.standard_normal((120, 4)).astype(np.float32)


@pytest.mark.parametrize("design", [
    pytest.param(lambda: planted_problem(seed=19)[:2], id="full-rank"),
    pytest.param(lambda: planted_problem(seed=20, n=6, d_in=10)[:2], id="n<d"),
    pytest.param(_rank_k_float32_design, id="rank-k-float32"),
])
@pytest.mark.parametrize("fit", [
    pytest.param(lambda x, y: mapfit.fit_ridge(x, y, 0.0), id="fit_ridge-0"),
    pytest.param(mapfit.fit_ols, id="fit_ols"),
])
def test_unregularized_fit_matches_reference_branch_bytes(design, fit):
    x, y = design()
    W, b, solver = _reference_unregularized_fit(x, y)
    m = fit(x, y)
    if x.shape[0] <= x.shape[1]:
        # n <= d takes the dual factor: the same min-norm fit, within rounding
        assert (solver, m.solver) == ("lstsq", "eigh")
        want = np.column_stack([W, b])
        assert np.abs(np.column_stack([m.W, m.b]) - want).max() <= 1e-9 * np.abs(want).max()
        return
    assert m.W.tobytes() == W.tobytes() and m.b.tobytes() == b.tobytes()
    assert m.solver == solver
    if x.dtype == np.float64:
        assert solver == "cholesky"


def test_rank_k_float32_fit_reaches_the_min_norm_fallback(monkeypatch):
    # its Gram fails the blocked factor, which overwrites it; the fallback
    # rebuilds it, so the pseudo-inverse is that of the Gram itself
    x, y = _rank_k_float32_design()
    lstsq_grams = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(a, b, rcond=None):
        lstsq_grams.append(a.copy())
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    shared = mapfit.SharedFit(x)
    m = mapfit.fit_ridge(x, y, 0.0, shared=shared)
    assert m.solver == "lstsq" and shared.rank == 3
    assert len(lstsq_grams) == 1
    assert lstsq_grams[0].tobytes() == linalg.centered_products(x)[1].tobytes()


@pytest.mark.parametrize("shape", [(200, 8, 5), (900, 300, 40)], ids=["d8", "d300"])
def test_unregularized_cholesky_fit_matches_lu_solve(shape):
    # spd_solve's block substitution against the LU solve it replaced; d = 300
    # spans three substitution blocks
    n, d_in, d_out = shape
    x, y = planted_problem(seed=19, n=n, d_in=d_in, d_out=d_out)[:2]
    W, b, solver = _reference_unregularized_fit(x, y, solve=np.linalg.solve)
    m = mapfit.fit_ols(x, y)
    assert solver == m.solver == "cholesky"
    want = np.column_stack([W, b])
    assert np.abs(np.column_stack([m.W, m.b]) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("fit", [
    pytest.param(lambda x, y: mapfit.fit_ols(x, y), id="ols"),
    pytest.param(lambda x, y: mapfit.fit_ols(x[:5], y[:5]), id="ols-lstsq"),
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


# a target with no columns, as probe-suite stacks when none of a group's
# probes was fitted: every solver returns an empty map
@pytest.mark.parametrize("n, d, alpha, solver", [
    (30, 4, 1.0, "cholesky"), (30, 4, 0.0, "cholesky"), (3, 4, 0.0, "eigh")])
def test_fit_ridge_target_without_columns(n, d, alpha, solver):
    x = np.random.default_rng(n).standard_normal((n, d))
    m = mapfit.fit_ridge(x, np.empty((n, 0)), alpha)
    assert m.W.shape == (0, d) and m.b.shape == (0,) and m.solver == solver
    flat = np.hstack([x, np.zeros((n, 1))])  # singular Gram: the min-norm fallback
    assert mapfit.fit_ridge(flat, np.empty((n, 0)), 0.0).W.shape == (0, d + 1)


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
    with pytest.raises(DataError, match=r"shape mismatch: \(2, 2\) vs \(2, 3\)"):
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
    fallback = mapfit.fit_ols(x, y)
    assert fallback.solver == "eigh"
    assert mapfit.fit_ridge(x, y, 1.0).solver == "eigh"
    x_full, y_full, _, _ = planted_problem(seed=14)
    assert mapfit.fit_ols(x_full, y_full).solver == "cholesky"
    mapfit.save_map(fallback, tmp_path / "a.lmap")
    mapfit.save_map(dataclasses.replace(fallback, solver="cholesky"), tmp_path / "b.lmap")
    assert (tmp_path / "a.lmap").read_bytes() == (tmp_path / "b.lmap").read_bytes()
    assert mapfit.load_map(tmp_path / "a.lmap").solver == ""


def test_lmap_bad_magic(tmp_path):
    path = tmp_path / "m.lmap"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError, match="bad magic b'NOPE'"):
        mapfit.load_map(path)


def _targets(x, n_targets, d_out, seed):
    """n_targets float32 targets of d_out columns, each an affine image of x
    plus noise."""
    rng = np.random.default_rng(seed)
    return [(x @ rng.standard_normal((x.shape[1], d_out)) + rng.standard_normal(d_out)
             + 0.1 * rng.standard_normal((x.shape[0], d_out))).astype(np.float32)
            for _ in range(n_targets)]


def _singular_design(n, d, seed):
    """n x d standard normal rows with column 0 zeroed: exactly rank-deficient,
    so Cholesky of the Gram fails at its zero pivot."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    x[:, 0] = 0.0
    return x


def _count_calls(monkeypatch, module, name):
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("x, calls, solver", [
    # n <= d shares the dual factor instead, and takes no lstsq and no Cholesky
    pytest.param(np.random.default_rng(30).standard_normal((12, 20)), (0, 0), "eigh", id="n<d"),
    pytest.param(_singular_design(40, 8, seed=30), (1, 1), "lstsq", id="singular-n>d"),
])
def test_shared_pseudo_inverse_matches_per_target_min_norm_fits(monkeypatch, x, calls, solver):
    ys = _targets(x, 5, x.shape[0] // 2, seed=31)
    shared = mapfit.SharedFit(x)
    lstsq = _count_calls(monkeypatch, np.linalg, "lstsq")
    spd = _count_calls(monkeypatch, linalg, "spd_solve")
    got = [mapfit.fit_ridge(x, y, 0.0, shared=shared) for y in ys]
    assert (len(lstsq), len(spd)) == calls
    for m, y in zip(got, ys):
        want = mapfit.fit_ridge(x, y, 0.0)
        assert m.solver == want.solver == solver
        assert m.W.tobytes() == want.W.tobytes() and m.b.tobytes() == want.b.tobytes()


@pytest.mark.parametrize("n, d_in, alpha", [
    pytest.param(40, 8, 0.0, id="full-rank-ols"),
    pytest.param(40, 8, 25.0, id="ridge"),
    pytest.param(12, 20, 25.0, id="ridge-n<d"),
])
def test_cholesky_fits_stay_direct_and_sharing_changes_no_byte(n, d_in, alpha):
    x = np.random.default_rng(32).standard_normal((n, d_in))
    ys = _targets(x, 5, n // 2, seed=33)
    solver = "eigh" if n <= d_in else "cholesky"
    assert mapfit.fit_ridge(x, np.hstack(ys), alpha).solver == solver
    shared = mapfit.SharedFit(x)
    for y in ys:
        got, want = mapfit.fit_ridge(x, y, alpha, shared=shared), mapfit.fit_ridge(x, y, alpha)
        assert got.solver == solver
        assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()


def test_shared_fit_serves_one_design():
    x = np.random.default_rng(36).standard_normal((10, 12))
    shared = mapfit.SharedFit(x)
    y = _targets(x, 1, 4, seed=37)[0]
    with pytest.raises(ValueError):
        mapfit.fit_ridge(x.copy(), y, 0.0, shared=shared)
    # one SharedFit serves every alpha of its design
    for alpha in (1.0, 0.0):
        got, want = mapfit.fit_ridge(x, y, alpha, shared=shared), mapfit.fit_ridge(x, y, alpha)
        assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()


@pytest.mark.parametrize("column", ["zeroed", "duplicated"])
def test_min_norm_fit_matches_lstsq_of_the_centered_design(column):
    # an exactly rank-deficient float64 design: the Gram's pseudo-inverse
    # keeps all its nonzero singular values, so the fit is lstsq's on Xc
    x = _singular_design(50, 9, seed=45)
    if column == "duplicated":
        x[:, 0] = x[:, 1]
    rng = np.random.default_rng(46)
    y = x @ rng.standard_normal((9, 4)) + rng.standard_normal(4) + rng.standard_normal((50, 4))
    m = mapfit.fit_ols(x, y)
    assert m.solver == "lstsq"
    want = _reference_wb(x, y, 0.0)
    assert np.abs(np.column_stack([m.W, m.b]) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, alpha, attempts", [
    pytest.param(12, 0.0, 0, id="ols-n<=d"),
    pytest.param(20, 0.0, 0, id="ols-n=d"),
    pytest.param(21, 0.0, 1, id="ols-n>d"),
    pytest.param(12, 1.0, 0, id="ridge-n<=d"),
])
@pytest.mark.parametrize("d_out", [3, 30], ids=["narrow", "wide"])
def test_unregularized_fit_with_n_at_most_d_skips_the_cholesky_attempt(
        monkeypatch, n, alpha, attempts, d_out):
    calls = _count_calls(monkeypatch, linalg, "spd_solve")
    x = np.random.default_rng(38).standard_normal((n, 20))
    m = mapfit.fit_ridge(x, np.random.default_rng(39).standard_normal((n, d_out)), alpha)
    assert len(calls) == attempts
    assert m.solver == ("eigh" if n <= 20 else "cholesky")


def test_fit_reads_targets_in_column_blocks(monkeypatch):
    # blocks and panels of 256 columns: results equal the single-block fit to
    # the byte on the Cholesky and min-norm lstsq paths, and within rounding on
    # the dual path
    x = np.random.default_rng(40).standard_normal((300, 6))
    y = np.hstack(_targets(x, 3, 200, seed=41))
    x_singular = _singular_design(300, 6, seed=44)
    x_wide = np.random.default_rng(42).standard_normal((100, 120))
    y_wide = np.hstack(_targets(x_wide, 3, 200, seed=43))

    def fits():
        return [mapfit.fit_ols(x, y[:, :280]), mapfit.fit_ols(x_singular, y[:, :280]),
                mapfit.fit_ols(x_wide, y_wide)]

    direct, singular, dual = fits()
    monkeypatch.setattr(linalg, "Y_BLOCK_BYTES", 1)
    monkeypatch.setattr(linalg, "PANEL", 256)
    direct_blocked, singular_blocked, dual_blocked = fits()
    assert (direct.solver, singular.solver, dual.solver) == ("cholesky", "lstsq", "eigh")
    for got, want in ((direct_blocked, direct), (singular_blocked, singular)):
        assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    np.testing.assert_allclose(dual_blocked.W, dual.W, rtol=0, atol=1e-12)


# --- the dual factor of an n <= d design ------------------------------------------


def _reference_wb(x, y, alpha):
    """[W | b] by the n > d routes on any design: for alpha > 0 the centered
    normal equations with a Cholesky check and an LU solve, for alpha = 0 the
    min-norm lstsq solution."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    if alpha > 0:
        gram = xc.T @ xc + alpha * np.eye(x.shape[1])
        np.linalg.cholesky(gram)
        W = np.linalg.solve(gram, xc.T @ yc).T
    else:
        W = np.linalg.lstsq(xc, yc, rcond=None)[0].T
    return np.column_stack([W, y.mean(axis=0) - W @ x.mean(axis=0)])


@pytest.mark.parametrize("n, d, dtype", [
    pytest.param(30, 50, np.float64, id="n<d"),
    pytest.param(40, 40, np.float64, id="n=d"),
    pytest.param(12, 200, np.float32, id="n<<d-float32"),
])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 10.0, 50000.0])
def test_dual_fit_matches_cholesky_ridge_and_full_row_rank_lstsq(n, d, dtype, alpha):
    rng = np.random.default_rng(50)
    x = (3.0 * rng.standard_normal((n, d)) + 1.5).astype(dtype)
    y = (rng.standard_normal((n, 7)) - 2.0).astype(dtype)
    m = mapfit.fit_ridge(x, y, alpha)
    assert m.solver == "eigh"
    want = _reference_wb(x, y, alpha)
    assert np.abs(np.column_stack([m.W, m.b]) - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("n, d, offset, r, dtype", [
    # n > d: the Gram fails Cholesky and its pseudo-inverse keeps the same
    # rank. Without an offset: the float32 rounding of an offset design can
    # pass Cholesky, which then fits that rounding. d = 600: the dual design is
    # centered in three column blocks of at most 256 columns.
    pytest.param(n, d, offset, r, dtype, id=("n>d-" if n > d else "3-blocks-" if d > 512 else "")
                 + f"{r}-{dtype.__name__}")
    for n, d, offset in ((60, 150, 4.0), (60, 600, 4.0), (300, 40, 0.0)) for r in (1, 4, 16)
    for dtype in (np.float32, np.float64)
])
def test_dual_factor_keeps_the_planted_rank(monkeypatch, n, d, offset, r, dtype):
    if d > 512:
        monkeypatch.setattr(linalg, "Y_BLOCK_BYTES", 1)  # blocks of 256 columns
    rng = np.random.default_rng(51 + r)
    x = (rng.standard_normal((n, r)) @ rng.standard_normal((r, d)) + offset).astype(dtype)
    y = rng.standard_normal((n, 5))
    shared = mapfit.SharedFit(x)
    m = mapfit.fit_ridge(x, y, 0.0, shared=shared)
    xc = np.asarray(x, dtype=np.float64) - np.asarray(x, dtype=np.float64).mean(axis=0)
    if n > d:
        # the pseudo-inverse's rank and cutoff are those of eigh on the same Gram
        lam = np.linalg.eigvalsh(xc.T @ xc)
        assert m.solver == "lstsq" and shared.rank == r == (lam > linalg.eig_cutoff(lam)).sum()
        assert shared.cutoff == pytest.approx(linalg.eig_cutoff(lam), rel=1e-12)
        assert (m.rank, m.cutoff) == (shared.rank, shared.cutoff)  # the fit reports them
    else:
        assert m.solver == "eigh" and shared.dual.rank == r
        assert shared.dual.cutoff == n * np.finfo(np.float64).eps * shared.dual.lam[-1]
        assert (shared.dual.lam[:-r] == 0).all()
        assert (shared.dual.lam[-r:] > shared.dual.cutoff).all()
        assert (m.rank, m.cutoff) == (shared.dual.rank, shared.dual.cutoff)
        # the oracle: eigh of the whole copy's Gram, and the min-norm W it gives
        lam, U = np.linalg.eigh(xc @ xc.T)
        keep = lam > linalg.eig_cutoff(lam)
        assert keep.sum() == r
        assert np.abs(shared.dual.lam - np.where(keep, lam, 0.0)).max() <= 1e-12 * lam[-1]
        Uk, yc = U[:, keep], y - y.mean(axis=0)
        want = ((Uk.T @ yc) / lam[keep, None]).T @ (xc.T @ Uk).T
        assert np.abs(m.W - want).max() <= 1e-12 * np.abs(want).max()
    # the min-norm fit lies in the row space of the centered design
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    outside = m.W - (m.W @ vt[:r].T) @ vt[:r]
    assert np.abs(outside).max() <= 1e-9 * np.abs(m.W).max()


def test_shared_dual_factor_is_built_once_for_every_target_and_alpha(monkeypatch):
    x = np.random.default_rng(52).standard_normal((20, 30))
    ys = _targets(x, 3, 4, seed=53)
    factors = _count_calls(monkeypatch, mapfit, "_dual_factor")
    shared = mapfit.SharedFit(x)
    for alpha in (0.0, 2.0, 500.0):
        for y in ys:
            got, want = mapfit.fit_ridge(x, y, alpha, shared=shared), mapfit.fit_ridge(x, y, alpha)
            assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert len(factors) == 1 + 9  # the shared one, then one per unshared fit


# --- the Cholesky factor of a (source, alpha) group, and the train MSE ------------


def test_shared_cholesky_factor_serves_its_alpha_group(monkeypatch):
    # targets at alphas 0, 0, 5, 5, 0: one factor per run of one alpha, each
    # map and train MSE those of the fit without sharing
    x = np.random.default_rng(60).standard_normal((300, 20))
    ys = _targets(x, 5, 6, seed=61)
    alphas = [0.0, 0.0, 5.0, 5.0, 0.0]
    calls = _count_calls(monkeypatch, linalg, "spd_solve")
    shared = mapfit.SharedFit(x)
    got = [mapfit.fit_ridge(x, y, alpha, shared=shared) for y, alpha in zip(ys, alphas)]
    assert len(calls) == 3
    assert shared.cholesky[0] == 0.0 and shared.cholesky[2].low.shape == (20, 20)
    for m, y, alpha in zip(got, ys, alphas):
        want = mapfit.fit_ridge(x, y, alpha)
        assert m.solver == want.solver == "cholesky"
        assert m.W.tobytes() == want.W.tobytes() and m.b.tobytes() == want.b.tobytes()
        assert m.train_mse == want.train_mse is not None
    assert len(calls) == 3 + 5


def _mapped_train_mse(m, x, y):
    rows = np.arange(len(x))
    return mapfit.mapped_mse(m, x, y, (rows, rows))


# d = 40 is one factor panel, d = 600 two (PANEL = 512)
@pytest.mark.parametrize("n, d", [(300, 40), (1100, 600)], ids=["d<PANEL", "d>PANEL"])
@pytest.mark.parametrize("alpha", [0.0, 7.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cholesky_train_mse_equals_that_of_the_mapped_rows(n, d, alpha, dtype):
    rng = np.random.default_rng(n + d)
    x = (rng.standard_normal((n, d)) + 0.5).astype(dtype)
    y = (x @ rng.standard_normal((d, 30)) / np.sqrt(d) + rng.standard_normal(30)
         + 0.3 * rng.standard_normal((n, 30))).astype(dtype)
    m = mapfit.fit_ridge(x, y, alpha)
    assert m.solver == "cholesky" and m.train_mse is not None
    want = _mapped_train_mse(m, x, y)
    assert abs(m.train_mse - want) <= 1e-10 * want


def _orthogonal_like_design(n, k, d, seed):
    """Rank-k rows in d dimensions whose Gram passes Cholesky only on float32
    rounding, as synth's orthogonal encoders make: float32 [0, 1] pixels of
    k factors, rotated and rounded to float32 again. Returns (X, pixels)."""
    rng = np.random.default_rng(seed)
    pixels = rng.standard_normal((n, k)) @ np.linalg.qr(rng.standard_normal((d, k)))[0].T
    pixels = ((pixels - pixels.min()) / np.ptp(pixels)).astype(np.float32)
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (pixels @ rotation.T).astype(np.float32), pixels


@pytest.mark.parametrize("case", ["rank-k-float32", "rank-k-self", "full-rank-self"])
def test_train_mse_is_left_to_the_mapped_rows_when_its_rounding_is_too_large(case):
    # a rank-k design fits float32 rounding, and a self map has no residual:
    # either way the difference of the normal equations' norms is rounding
    x, pixels = _orthogonal_like_design(400, 4, 16, seed=62)
    if case == "full-rank-self":
        x = np.random.default_rng(63).standard_normal((300, 24)).astype(np.float32)
    y = pixels if case == "rank-k-float32" else x
    m = mapfit.fit_ridge(x, y, 0.0)
    assert m.solver == "cholesky" and m.train_mse is None
    assert _mapped_train_mse(m, x, y) < 1e-15


def test_train_mse_of_a_constant_target_is_left_to_the_mapped_rows():
    x = np.random.default_rng(64).standard_normal((50, 4))
    m = mapfit.fit_ridge(x, np.full((50, 2), 3.0), 0.0)
    assert m.solver == "cholesky" and m.train_mse is None
    assert mapfit.fit_ridge(x, np.empty((50, 0)), 0.0).train_mse is None


# --- fits by row index, and blocked scoring ------------------------------------


def _pooled(a, seed, extra):
    """a's rows scattered among ``extra`` other rows: (pool, rows) with
    pool[rows] equal to a."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(len(a) + extra)[:len(a)]
    pool = rng.standard_normal((len(a) + extra, a.shape[1])).astype(a.dtype)
    pool[rows] = a
    return pool, rows


def _same_map(got, want):
    assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert got.solver == want.solver


@pytest.mark.parametrize("x, solver", [
    pytest.param(np.random.default_rng(60).standard_normal((30, 50)), "eigh", id="dual"),
    pytest.param(np.random.default_rng(61).standard_normal((80, 12)).astype(np.float32),
                 "cholesky", id="cholesky"),
    pytest.param(_singular_design(40, 12, seed=62), "lstsq", id="lstsq"),
])
@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_rows_fit_is_byte_identical_to_gathered_fit(x, solver, alpha):
    x_pool, ix = _pooled(x, 64, 7)
    shared, gathered_shared = mapfit.SharedFit(x_pool, rows=ix), mapfit.SharedFit(x)
    for seed, y in enumerate(_targets(x, 2, 6, seed=65)):
        y_pool, iy = _pooled(y, 66 + seed, 5)
        want = mapfit.fit_ridge(x, y, alpha)
        _same_map(mapfit.fit_ridge(x_pool, y_pool, alpha, rows=(ix, iy)), want)
        _same_map(mapfit.fit_ridge(x_pool, y_pool, alpha, shared=shared, rows=(ix, iy)),
                  mapfit.fit_ridge(x, y, alpha, shared=gathered_shared))
        if alpha == 0:
            assert want.solver == solver


def test_shared_fit_serves_one_set_of_rows():
    x = np.random.default_rng(66).standard_normal((30, 8))
    y = _targets(x, 1, 3, seed=67)[0]
    ix = np.arange(20)
    shared = mapfit.SharedFit(x, rows=ix)
    mapfit.fit_ridge(x, y, 1.0, shared=shared, rows=(ix, ix))
    for rows in ((ix.copy(), ix), None):
        with pytest.raises(ValueError):
            mapfit.fit_ridge(x, y, 1.0, shared=shared, rows=rows)
    with pytest.raises(DataError, match="X has 20 rows, Y has 19"):
        mapfit.fit_ridge(x, y, 1.0, rows=(ix, ix[:-1]))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("alpha", [0.0, 10.0])
def test_rows_fit_holds_one_float64_design(alpha):
    # 3000 x 1024 float32 pools: the design is 24 MiB in float64, d x d 8 MiB.
    # The fit holds at most one float64 row block of the design, never all of
    # it: the Gram and Xc^T Yc (8 MiB each) are accumulated from row blocks of
    # 512 rows (4 MiB), with a panel of Y's rows and one product (about
    # 6 MiB together), and the solve overwrites both; 26.1 MiB measured. A
    # float64 design, a gathered float32 copy (12 MiB) or one more d x d
    # array would each break the bound.
    rng = np.random.default_rng(68)
    n, d = 3000, 1024
    x = rng.standard_normal((n + 100, d), dtype=np.float32)
    y = rng.standard_normal((n + 100, d), dtype=np.float32)
    rows = rng.permutation(n + 100)[:n], rng.permutation(n + 100)[:n]
    m, peak = _traced_peak(lambda: mapfit.fit_ridge(x, y, alpha, rows=rows))
    assert m.solver == "cholesky"
    assert peak < 2 * d * d * 8 + 20 * 2**20


def test_dual_factor_holds_no_float64_design():
    # A 300 x 8192 design is 18.75 MiB in float64, as is its factor's P. The
    # Gram and U are 0.7 MiB each and a column block 3.5 MiB: 1.42 times the
    # design measured. A whole centered copy next to P read 2.04 times.
    rng = np.random.default_rng(70)
    n, d = 300, 8192
    x = rng.standard_normal((n, d))
    f, peak = _traced_peak(lambda: mapfit._dual_factor(x, np.arange(n)))
    assert f.P.shape == (d, n) and f.rank == n - 1  # centering takes one
    assert peak < 1.6 * n * d * 8


def test_mapped_mse_equals_whole_score_and_holds_row_blocks():
    rng = np.random.default_rng(69)
    n, d_in, d_out = 3000, 1024, 768
    x = rng.standard_normal((n + 50, d_in), dtype=np.float32)
    y = rng.standard_normal((n + 50, d_out), dtype=np.float32)
    m = mapfit.LinearMap("a", "b", W=rng.standard_normal((d_out, d_in)) / 30,
                         b=rng.standard_normal(d_out))
    rows = rng.permutation(n + 50)[:n], rng.permutation(n + 50)[:n]
    want = mapfit.latent_mse(mapfit.apply_map(m, x[rows[0]]), y[rows[1]])
    got, peak = _traced_peak(lambda: mapfit.mapped_mse(m, x, y, rows))
    assert got == want
    # blocks of 512 rows, 7.6 MiB measured; the whole mapped set alone is 18 MB
    assert peak < 5 * 8 * 2**20
    head = rows[0][:7], rows[1][:7]
    assert mapfit.mapped_mse(m, x, y, head) == mapfit.latent_mse(
        mapfit.apply_map(m, x[head[0]]), y[head[1]])
    with pytest.raises(DataError, match="3000 mapped rows of width 768 against 3000 of shape"):
        mapfit.mapped_mse(m, x, y[:, :5], rows)
