import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import latentstitch
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import linalg, probes
from latentstitch.data import AttributeTable
from latentstitch.errors import DataError, NumericalError


def table_with_counts(n_pos, n_neg, attribute="attr"):
    ids = [f"p{i}" for i in range(n_pos)] + [f"n{i}" for i in range(n_neg)]
    values = np.array([[1]] * n_pos + [[-1]] * n_neg, dtype=np.int8)
    return AttributeTable(names=[attribute], ids=ids, values=values), ids


# --- balanced subsets ---------------------------------------------------------


def test_balanced_subset_80_percent_rule():
    table, ids = table_with_counts(300, 1000)
    sub = probes.balanced_subset(table, "attr", ids, seed=0)
    assert sub.per_class == 240


def test_balanced_subset_small_pool():
    table, ids = table_with_counts(10, 10)
    sub = probes.balanced_subset(table, "attr", ids, seed=0)
    assert sub.per_class == 8


def test_balanced_subset_single_class():
    table, ids = table_with_counts(10, 0)
    with pytest.raises(DataError, match="attribute 'attr': pool has 10 positive / 0 negative"):
        probes.balanced_subset(table, "attr", ids, seed=0)


def test_balanced_subset_explicit_per_class_capped():
    table, ids = table_with_counts(120, 90)
    sub = probes.balanced_subset(table, "attr", ids, seed=0, per_class=100)
    assert sub.per_class == 90
    sub = probes.balanced_subset(table, "attr", ids, seed=0, per_class=50)
    assert sub.per_class == 50


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_balanced_subset_deterministic_and_order_invariant(seed):
    table, ids = table_with_counts(40, 25)
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(len(ids))]
    a = probes.balanced_subset(table, "attr", ids, seed=7)
    b = probes.balanced_subset(table, "attr", shuffled, seed=7)
    assert a.pos_ids == b.pos_ids
    assert a.neg_ids == b.neg_ids
    assert set(a.pos_ids).isdisjoint(a.neg_ids)


# --- lasso ---------------------------------------------------------------------


def test_lasso_zero_alpha_matches_ols_slope():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    w, b, _, _ = probes.lasso_cd(x, y, alpha=0.0)
    xc = x - x.mean()
    slope = float(xc.ravel() @ (y - y.mean()) / (xc.ravel() @ xc.ravel()))
    assert abs(w[0] - slope) <= 1e-6
    assert abs(b - (y.mean() - slope * x.mean())) <= 1e-6


def test_lasso_scalar_soft_threshold_closed_form():
    # standardized single feature: <x,x>/n = 1, <x, y - ybar>/n = 0.3
    x = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = 0.3 * x.ravel() + 0.5
    w, b, _, _ = probes.lasso_cd(x, y, alpha=0.1)
    assert w[0] == pytest.approx(0.2, abs=1e-12)
    assert b == pytest.approx(0.5, abs=1e-12)


def test_lasso_null_threshold_exact_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 8))
    y = rng.standard_normal(50)
    yc = y - y.mean()
    xc = x - x.mean(axis=0)
    lam_max = np.abs(xc.T @ yc).max() / 50
    w, _, _, _ = probes.lasso_cd(x, y, alpha=lam_max * 1.000001)
    assert np.all(w == 0.0)


def test_lasso_zero_variance_feature_skipped():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    x[:, 1] = 2.5  # constant column
    y = x[:, 0] * 0.5
    w, _, _, _ = probes.lasso_cd(x, y, alpha=0.01)
    assert w[1] == 0.0


def kkt_violation_raw(x, y, w, b, alpha):
    # independent KKT check straight from the uncentered definition
    n = len(y)
    r = y - x @ w - b
    corr = x.T @ r / n
    worst = 0.0
    for j in range(x.shape[1]):
        if w[j] != 0.0:
            worst = max(worst, abs(abs(corr[j]) - alpha))
        else:
            worst = max(worst, max(abs(corr[j]) - alpha, 0.0))
    return worst


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_lasso_kkt_conditions(seed):
    rng = np.random.default_rng(seed)
    n, d = 60, 12
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:3] = rng.standard_normal(3)
    y = x @ beta + 0.2 * rng.standard_normal(n)
    alpha = 0.05
    tol = 1e-6
    w, b, _, kkt = probes.lasso_cd(x, y, alpha=alpha, tol=tol)
    raw = kkt_violation_raw(x, y, w, b, alpha)
    assert raw <= 10 * tol
    # the returned kkt is the value of the stop test the fit passed; the abs
    # floor covers fits that end within rounding of exact (kkt about 1e-17)
    assert kkt == pytest.approx(raw, rel=1e-6, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=80, max_value=160))
@settings(max_examples=15, deadline=None)
def test_lasso_kkt_conditions_partial_working_set(seed, d):
    rng = np.random.default_rng(seed)
    n = 100
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[rng.choice(d, size=4, replace=False)] = rng.standard_normal(4)
    y = x @ beta + 0.2 * rng.standard_normal(n)
    w, b, _, kkt = probes.lasso_cd(x, y, alpha=0.05, tol=1e-6)
    raw = kkt_violation_raw(x, y, w, b, 0.05)
    assert raw <= 1e-5
    assert kkt == pytest.approx(raw, rel=1e-6)


def test_lasso_objective_non_increasing():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((80, 20))
    y = x @ rng.standard_normal(20) + rng.standard_normal(80)
    objectives = []
    probes.lasso_cd(x, y, alpha=0.02, objectives=objectives)
    assert len(objectives) >= 1
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_lasso_no_convergence_reports_gap():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 10))
    y = rng.standard_normal(30)
    with pytest.raises(NumericalError,
                       match=r"in 2 sweeps \(max KKT violation \S+ > 10\*tol = 1\.0e-13\)$"):
        probes.lasso_cd(x, y, alpha=1e-4, tol=1e-14, max_iter=2)


def test_lasso_single_sweep_cap_reports_gap():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 40))
    y = rng.standard_normal(30)
    with pytest.raises(NumericalError,
                       match=r"in 1 sweeps \(max KKT violation \S+ > 10\*tol = 1\.0e-05\)$"):
        probes.lasso_cd(x, y, alpha=1e-3, max_iter=1)


# --- working set against the full cyclic sweep ----------------------------------


def _oracle_soft_threshold(x, t):
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def cyclic_lasso_oracle(X, y, alpha, tol=1e-6, max_iter=10000):
    """Reference: cyclic coordinate descent sweeping every non-constant column
    with residual updates, exiting on the same KKT <= 10*tol certificate.
    Returns (w, b, sweeps, updates), updates counting coordinate visits."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = np.asfortranarray(X - x_mean)
    col_ms = np.einsum("ij,ij->j", Xc, Xc) / n
    cols = np.nonzero(col_ms > 0.0)[0]
    w = np.zeros(d)
    r = y - y_mean
    for sweep in range(1, max_iter + 1):
        for j in cols:
            wj = w[j]
            rho = Xc[:, j] @ r / n + col_ms[j] * wj
            wj_new = _oracle_soft_threshold(rho, alpha) / col_ms[j]
            if wj_new != wj:
                r += Xc[:, j] * (wj - wj_new)
                w[j] = wj_new
        corr = Xc.T @ r / n
        active = w != 0.0
        viol = np.concatenate([np.abs(corr[active] - alpha * np.sign(w[active])),
                               np.abs(corr[~active]) - alpha, [0.0]])
        if viol.max() <= 10.0 * tol:
            return w, float(y_mean - x_mean @ w), sweep, sweep * len(cols)
    raise AssertionError("oracle did not converge")


def lasso_objective(x, y, w, b, alpha):
    r = y - x @ w - b
    return 0.5 * (r @ r) / len(y) + alpha * np.abs(w).sum()


def rank8_design(rng, n):
    """Rank-8 latents in 256 columns stored as float32 (the synthetic
    orthogonal encoders' shape); labels are factor signs."""
    mix = np.linalg.qr(rng.standard_normal((256, 8)))[0].T
    z = rng.standard_normal((n, 8))
    return (z @ mix).astype(np.float32), (z[:, 0] + 0.3 * z[:, 1] > 0).astype(float)


def dense_design(rng, n):
    """Full-rank 512 columns with a weak signal spread over all of them."""
    x = rng.standard_normal((n, 512))
    beta = rng.standard_normal(512) / np.sqrt(512)
    return x, (x @ beta + 0.5 * rng.standard_normal(n) > 0).astype(float)


@pytest.mark.parametrize("design", [rank8_design, dense_design])
def test_lasso_matches_cyclic_oracle(design):
    rng = np.random.default_rng(11)
    x, y = design(rng, 1400)
    x_hold, y_hold = x[1000:], y[1000:]
    x, y = x[:1000], y[:1000]
    alpha, tol = 0.001, 1e-6
    w, b, _, _ = probes.lasso_cd(x, y, alpha=alpha, tol=tol)
    w_ref, b_ref, _, _ = cyclic_lasso_oracle(x, y, alpha=alpha, tol=tol)
    x64 = x.astype(np.float64)
    assert kkt_violation_raw(x64, y, w, b, alpha) <= 10 * tol
    obj, obj_ref = lasso_objective(x64, y, w, b, alpha), lasso_objective(x64, y, w_ref, b_ref, alpha)
    assert abs(obj - obj_ref) <= 1e-4 * obj_ref
    x_hold = x_hold.astype(np.float64)
    agree = np.mean((x_hold @ w + b >= 0.5) == (x_hold @ w_ref + b_ref >= 0.5))
    assert agree >= 0.99


def test_lasso_sparse_fit_visits_few_coordinates(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((300, 256))
    y = x[:, :3] @ np.array([1.0, -0.7, 0.5]) + 0.1 * rng.standard_normal(300)
    visits = []
    real = probes._soft_threshold
    monkeypatch.setattr(probes, "_soft_threshold", lambda v, t: visits.append(1) or real(v, t))
    w, _, _, _ = probes.lasso_cd(x, y, alpha=0.05)
    _, _, _, oracle_visits = cyclic_lasso_oracle(x, y, alpha=0.05)
    assert np.count_nonzero(w) == 3
    assert len(visits) <= oracle_visits / 4


def test_lasso_all_constant_features():
    x = np.tile([2.5, -1.0, 0.0], (20, 1))
    y = np.arange(20.0) % 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, b, _, _ = probes.lasso_cd(x, y, alpha=0.01)
    assert np.all(w == 0.0)
    assert b == y.mean()


def test_lasso_fewer_than_ten_features():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 4))
    y = x @ np.array([0.5, 0.0, -1.0, 0.2]) + 0.1 * rng.standard_normal(40)
    w, b, _, _ = probes.lasso_cd(x, y, alpha=0.01)
    w_ref, b_ref, _, _ = cyclic_lasso_oracle(x, y, alpha=0.01)
    assert kkt_violation_raw(x, y, w, b, 0.01) <= 1e-5
    np.testing.assert_allclose(w, w_ref, atol=1e-4)


def test_lasso_objective_non_increasing_as_the_working_set_grows(monkeypatch):
    rng = np.random.default_rng(14)
    n, d = 200, 400
    x = rng.standard_normal((n, d))
    y = x[:, :30] @ rng.standard_normal(30) + 0.5 * rng.standard_normal(n)
    checked = []  # lengths of the KKT checks: d for each round's full check, |W| within it
    real = probes._kkt_violations
    monkeypatch.setattr(probes, "_kkt_violations",
                        lambda corr, w, alpha: checked.append(len(w)) or real(corr, w, alpha))
    objectives = []
    probes.lasso_cd(x, y, alpha=0.05, objectives=objectives)
    sizes = [size for size, _ in itertools.groupby(checked) if size < d]
    assert len(sizes) >= 3 and sizes[0] < sizes[1] < sizes[2], sizes
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


# --- covariance form and the shared split Gram ------------------------------------


def row_rounds_reference(X, y, alpha, tol=1e-6, max_iter=10000, objectives=None):
    """The working-set lasso as it ran on every design before the covariance
    form: a centered float64 copy of the rows, each round's correlations
    from a fresh residual and each working set's Gram from its columns."""
    Xc = np.array(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = Xc.shape
    x_mean = Xc.mean(axis=0)
    Xc -= x_mean
    y_mean = y.mean()
    yc = y - y_mean
    usable = np.einsum("ij,ij->j", Xc, Xc) > 0.0
    n_usable = int(usable.sum())
    w = np.zeros(d)
    sweeps = 0
    while True:
        corr = Xc.T @ (yc - Xc @ w) / n
        viol = probes._kkt_violations(corr, w, alpha)
        kkt = float(viol.max(initial=0.0))
        if kkt <= 10.0 * tol:
            return w, float(y_mean - x_mean @ w), sweeps, kkt
        assert sweeps < max_iter
        active = w != 0.0
        nnz = int(active.sum())
        grow = max(10, 2 * nnz)
        if 4 * (nnz + grow) >= n_usable:
            in_set = usable
        else:
            in_set = active.copy()
            viol[active] = 0.0
            worst = np.argsort(-viol, kind="stable")[:grow]
            in_set[worst[viol[worst] > 0.0]] = True
        W = np.flatnonzero(in_set)
        XW = Xc.take(W, axis=1)
        G = XW.T @ XW / n
        rows, diag = list(G), G.diagonal().tolist()
        g = corr[W]
        ws = w[W].tolist()
        while sweeps < max_iter:
            sweeps += 1
            for j, gjj in enumerate(diag):
                wj = ws[j]
                wj_new = _oracle_soft_threshold(g.item(j) + gjj * wj, alpha) / gjj
                if wj_new != wj:
                    g -= rows[j] * (wj_new - wj)
                    ws[j] = wj_new
            wW = np.array(ws)
            if objectives is not None:
                r = yc - XW @ wW
                objectives.append(0.5 * (r @ r) / n + alpha * float(np.abs(wW).sum()))
            if probes._kkt_violations(g, wW, alpha).max() <= 10.0 * tol:
                break
        w[W] = wW


def test_lasso_with_fewer_rows_than_columns_keeps_its_row_rounds():
    # the design of test_lasso_objective_non_increasing_as_the_working_set_grows
    rng = np.random.default_rng(14)
    n, d = 200, 400
    x = rng.standard_normal((n, d))
    y = x[:, :30] @ rng.standard_normal(30) + 0.5 * rng.standard_normal(n)
    objectives, expected = [], []
    w, b, sweeps, kkt = probes.lasso_cd(x, y, alpha=0.05, objectives=objectives)
    w_ref, b_ref, sweeps_ref, kkt_ref = row_rounds_reference(x, y, 0.05, objectives=expected)
    assert w.tobytes() == w_ref.tobytes()
    assert (b, sweeps, kkt, objectives) == (b_ref, sweeps_ref, kkt_ref, expected)
    # a probe's rows of a larger set, with a shared split Gram that it never forms
    x32 = np.vstack([x, rng.standard_normal((100, d))]).astype(np.float32)
    rows = rng.permutation(300)[:n]
    shared = probes.SharedGram(x32, np.arange(300))
    probe = probes.fit_lasso(x32, y, alpha=0.05, rows=rows, shared=shared)
    w_ref, b_ref, sweeps_ref, kkt_ref = row_rounds_reference(x32[rows], y, 0.05)
    assert probe.w.tobytes() == w_ref.tobytes()
    assert (probe.b, probe.sweeps, probe.kkt) == (b_ref, sweeps_ref, kkt_ref)
    assert shared._split is None
    xc = x32[rows].astype(np.float64) - x32[rows].astype(np.float64).mean(axis=0)
    assert probe.alpha_max == pytest.approx(np.abs(xc.T @ (y - y.mean())).max() / n, rel=1e-12)


def offset_design(rng, n, d):
    """float32 columns of standard deviations 0.5-2 whose means sit 100 of
    their standard deviations away from 0."""
    sd = rng.uniform(0.5, 2.0, d)
    x = rng.standard_normal((n, d)) * sd + 100.0 * sd * rng.choice([-1.0, 1.0], d)
    return x.astype(np.float32)


@pytest.mark.parametrize("standardize", [False, True])
def test_shared_gram_of_a_subset_equals_its_direct_gram(standardize):
    rng = np.random.default_rng(20)
    x = offset_design(rng, 700, 24)
    split = rng.permutation(700)[:600]  # scattered split rows
    rows = rng.permutation(split)[:470]  # a probe's rows, in its own order
    y = (x[rows, 0] + x[rows, 1] + rng.standard_normal(470) > x[:, 0].mean() + x[:, 1].mean())
    y = y.astype(float)
    m = probes.Moments.of(x, y, rows, probes.SharedGram(x, split))
    xs = x[rows].astype(np.float64)
    if standardize:
        np.testing.assert_allclose(m.standardize(), xs.std(axis=0), rtol=1e-12)
        xs = xs / xs.std(axis=0)
    xc = xs - xs.mean(axis=0)
    gram, corr = xc.T @ xc / 470, xc.T @ (y - y.mean()) / 470
    assert np.abs(m.gram - gram).max() <= 1e-12 * np.abs(gram).max()
    assert np.abs(m.corr - corr).max() <= 1e-12 * np.abs(corr).max()
    np.testing.assert_allclose(m.x_mean, xs.mean(axis=0), rtol=1e-12)
    assert (m.y_mean, m.y_sq) == pytest.approx((y.mean(), np.var(y)), rel=1e-12)
    assert m.alpha_max == pytest.approx(np.abs(corr).max(), rel=1e-12)
    assert np.array_equal(m.gram, m.gram.T)


def test_shared_gram_of_the_whole_split_and_of_rows_outside_it():
    rng = np.random.default_rng(21)
    x = offset_design(rng, 50, 4)
    x[:30, 2] = 1.5  # constant over the first 30 rows only
    split = np.arange(40)
    shared = probes.SharedGram(x, split)
    np.testing.assert_array_equal(shared.gram(split[::-1]),
                                  linalg.centered_products(x, split)[1])
    # a column constant over the subset reads 0, as in the subset's own Gram,
    # and its weight stays 0
    assert not shared.gram(np.arange(30))[2].any()
    assert not shared.gram(np.arange(30))[:, 2].any()
    y = (x[:30, 0] > np.median(x[:30, 0])).astype(float)
    probe = probes.fit_lasso(x, y, alpha=1e-3, rows=np.arange(30), shared=shared)
    assert probe.w[2] == 0.0
    for rows in ([0, 45], [0, 0, 1], []):
        with pytest.raises(DataError, match="not distinct rows of the 40-row split"):
            shared.gram(np.array(rows, dtype=np.intp))


def test_shared_gram_sums_its_split_at_most_once(monkeypatch):
    # probe-suite fits each of a model's probes from one SharedGram: the
    # first request sums the split, and every later one reuses that sum
    rng = np.random.default_rng(22)
    x = offset_design(rng, 300, 12)
    subsets = [rng.permutation(250)[:200] for _ in range(4)]
    expected = [probes.SharedGram(x, np.arange(250)).gram(rows) for rows in subsets]
    shared = probes.SharedGram(x, np.arange(250))
    split_sums = []
    real = probes.centered_products

    def counted(X, rows=None, **kwargs):
        if len(rows) == 250:
            split_sums.append(1)
        return real(X, rows, **kwargs)

    monkeypatch.setattr(probes, "centered_products", counted)
    grams = [shared.gram(subsets[i % 4]) for i in range(8)]
    assert len(split_sums) == 1
    for i, g in enumerate(grams):
        np.testing.assert_array_equal(g, expected[i % 4])


@pytest.mark.parametrize("design", [rank8_design, dense_design])
def test_fit_lasso_on_a_shared_gram_matches_the_standalone_fit(design):
    rng = np.random.default_rng(15)
    x, labels = design(rng, 1300)
    rows = rng.permutation(1200)[:1000]
    y = labels[rows]
    alone = probes.fit_lasso(x[rows], y, alpha=0.001)
    probe = probes.fit_lasso(x, y, alpha=0.001, rows=rows,
                             shared=probes.SharedGram(x, np.arange(1200)))
    assert probe.sweeps == alone.sweeps
    assert np.count_nonzero(probe.w) == np.count_nonzero(alone.w) > 0
    assert np.abs(probe.w - alone.w).max() <= 1e-9 * np.abs(alone.w).max()
    assert probe.alpha_max == pytest.approx(alone.alpha_max, rel=1e-12)
    raw = kkt_violation_raw(x[rows].astype(np.float64), y, probe.w, probe.b, 0.001)
    assert raw <= 10 * 1e-6
    assert probe.kkt == pytest.approx(raw, rel=1e-6, abs=1e-12)


def test_a_probe_on_a_shared_gram_holds_no_float64_copy_of_its_rows():
    # a demo-sized probe: 1,550 of 2,000 split rows at d = 256. The row
    # rounds held a centered float64 copy of the rows (3.2 MB) and each
    # working set's columns of it; the covariance form holds d x d arrays
    # (0.5 MB each) and blocks of linalg.BLOCK_ROWS of the excluded rows and
    # of the probe's rows
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2000, 256)).astype(np.float32)
    rows = rng.permutation(2000)[:1550]
    y = (x[rows, :8].sum(axis=1) > 0).astype(float)
    shared = probes.SharedGram(x, np.arange(2000))
    shared.gram(rows)  # the split's Gram, formed once per model
    tracemalloc.start()
    try:
        probe = probes.fit_lasso(x, y, alpha=0.001, rows=rows, shared=shared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(probe.w) > 100
    assert peak < 1550 * 256 * 8


def test_lasso_imports_no_masked_arrays():
    """np.union1d and np.unique import numpy.ma lazily, which costs memory in
    every command that fits a probe."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from latentstitch import linalg, probes
        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 200))
        probes.lasso_cd(x, x[:, :3].sum(axis=1), alpha=0.05)
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fit_lasso_standardize_smoke():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
    y = (x[:, 0] > 0).astype(float)
    probe = probes.fit_lasso(x, y, alpha=0.05, standardize=True, attribute="a", model_id="m")
    assert probes.accuracy(probe, x, y) >= 0.9


# 9000 rows of 10 columns span two of the KKT check's row blocks
@pytest.mark.parametrize("n", [80, 9000])
@pytest.mark.parametrize("standardize", [False, True])
def test_fit_lasso_records_the_kkt_violation_of_its_design(standardize, n):
    rng = np.random.default_rng(6)
    x = (rng.standard_normal((n, 10)) * np.linspace(0.2, 5.0, 10)).astype(np.float32)
    y = (x[:, 1] + 0.3 * rng.standard_normal(n) > 0).astype(float)
    probe = probes.fit_lasso(x, y, alpha=0.02, tol=1e-6, standardize=standardize)
    design = np.asarray(x, dtype=np.float64)
    w = probe.w
    if standardize:
        sd = design.std(axis=0)
        design, w = design / sd, w * sd
    assert probe.kkt == pytest.approx(kkt_violation_raw(design, y, w, probe.b, 0.02),
                                      rel=1e-6, abs=1e-12)
    assert probe.kkt <= 10 * 1e-6
    assert np.isnan(probes.Probe(attribute="a", model_id="m", w=w, b=0.0, alpha=0.0).kkt)


# --- prediction and scoring ------------------------------------------------------


def test_predict_constant_probes():
    x = np.random.default_rng(6).standard_normal((5, 3))
    high = probes.Probe(attribute="a", model_id="m", w=np.zeros(3), b=0.7, alpha=0.0)
    low = probes.Probe(attribute="a", model_id="m", w=np.zeros(3), b=0.2, alpha=0.0)
    assert probes.predict(high, x).tolist() == [1] * 5
    assert probes.predict(low, x).tolist() == [0] * 5


def test_predict_matches_brute_force():
    x = np.array([[1.0, -2.0], [0.5, 0.5], [-1.0, 3.0]])
    probe = probes.Probe(attribute="a", model_id="m", w=np.array([0.2, 0.4]), b=0.1, alpha=0.0)
    expected = [1 if x[i] @ probe.w + probe.b >= 0.5 else 0 for i in range(3)]
    assert probes.predict(probe, x).tolist() == expected


def test_predict_tie_classifies_positive():
    probe = probes.Probe(attribute="a", model_id="m", w=np.array([1.0]), b=0.0, alpha=0.0)
    assert probes.predict(probe, np.array([[0.5]])).tolist() == [1]


def test_accuracy_trivials():
    probe = probes.Probe(attribute="a", model_id="m", w=np.array([1.0]), b=0.0, alpha=0.0)
    x = np.array([[1.0], [-1.0]])
    assert probes.accuracy(probe, x, [1, 0]) == 1.0
    assert probes.accuracy(probe, x, [0, 1]) == 0.0
    with pytest.raises(DataError, match="no samples to score"):
        probes.accuracy(probe, np.zeros((0, 1)), [])


def test_match_percent_trivials():
    probe = probes.Probe(attribute="a", model_id="m", w=np.array([1.0]), b=0.0, alpha=0.0)
    x = np.array([[1.0], [-1.0], [2.0]])
    assert probes.match_percent(probe, x, x) == 100.0
    assert probes.match_percent(probe, x, -x) == 0.0
    with pytest.raises(DataError, match="3 native rows vs 2 mapped rows"):
        probes.match_percent(probe, x, x[:2])


def test_match_percent_coin_flip_oracle():
    # independent fair coins on both sides: expectation 50, +/-7 over 5 seeds
    observed = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        probe = probes.Probe(attribute="a", model_id="m", w=np.array([1.0]), b=0.5, alpha=0.0)
        native = rng.choice([-1.0, 1.0], size=(200, 1))
        mapped = rng.choice([-1.0, 1.0], size=(200, 1))
        observed.append(probes.match_percent(probe, native, mapped))
    assert abs(np.mean(observed) - 50.0) <= 7.0


def test_accuracy_delta():
    assert probes.accuracy_delta(0.8, 0.8) == 0.0
    assert probes.accuracy_delta(0.8, 0.88) == pytest.approx(10.0)
    assert probes.accuracy_delta(0.5, 0.45) == pytest.approx(-10.0)
    with pytest.raises(NumericalError, match="native accuracy must be positive"):
        probes.accuracy_delta(0.0, 0.5)


# --- serialization -----------------------------------------------------------------


def test_probe_round_trip(tmp_path):
    probe = probes.Probe(
        attribute="Smiling", model_id="NF",
        w=np.array([0.0, -0.25, 1.5]), b=0.125, alpha=0.1,
    )
    path = tmp_path / "p.lprb"
    probes.save_probe(probe, path)
    back = probes.load_probe(path)
    assert (back.attribute, back.model_id, back.alpha, back.threshold) == ("Smiling", "NF", 0.1, 0.5)
    np.testing.assert_array_equal(back.w, probe.w)
    assert back.b == probe.b


def test_probe_report(tmp_path):
    rows = [
        {"model": "m", "attribute": "a", "alpha": 0.005, "train_n_per_class": 240,
         "holdout_accuracy": 0.875},
    ]
    path = tmp_path / "report.csv"
    probes.write_probe_report(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "model,attribute,alpha,train_n_per_class,holdout_accuracy"
    assert "m,a,0.005,240,0.875" in text
