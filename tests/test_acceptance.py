"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (each test name identifies its
criterion) or `-s` to see the explicit pass lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from latentstitch import cli, data, mapfit, metrics, pipeline, probes, synth

from test_metrics import _summary


def _announce(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_ridge_matches_augmented_ols_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.standard_normal((500, 64))
    y = x @ rng.standard_normal((32, 64)).T + rng.standard_normal((500, 32))
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    for alpha in (0.0, 100.0, 2000.0, 50000.0):
        m = mapfit.fit_ridge(x, y, alpha)
        if alpha > 0:
            aug_x = np.vstack([xc, np.sqrt(alpha) * np.eye(64)])
            aug_y = np.vstack([yc, np.zeros((64, 32))])
        else:
            aug_x, aug_y = xc, yc
        expected = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0].T
        assert np.abs(m.W - expected).max() <= 1e-8, f"alpha={alpha}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(1, f"ridge equals augmented-OLS oracle for four alphas in {elapsed:.2f}s")


# -- 2 ------------------------------------------------------------------------


def _kkt_violation_raw(x, y, w, b, alpha):
    n = len(y)
    corr = x.T @ (y - x @ w - b) / n
    worst = 0.0
    for j in range(x.shape[1]):
        if w[j] != 0.0:
            worst = max(worst, abs(abs(corr[j]) - alpha))
        else:
            worst = max(worst, max(abs(corr[j]) - alpha, 0.0))
    return worst


def test_criterion_02_lasso_kkt_suite():
    tol = 1e-6
    alphas = (0.005, 0.02, 0.1)
    rng = np.random.default_rng(202)
    for problem in range(100):
        x = rng.standard_normal((400, 100))
        beta = np.zeros(100)
        support = rng.choice(100, size=5, replace=False)
        beta[support] = rng.standard_normal(5)
        y = ((x @ beta + 0.5 * rng.standard_normal(400)) > 0).astype(float)
        alpha = alphas[problem % 3]
        w, b, _, _ = probes.lasso_cd(x, y, alpha=alpha, tol=tol)
        assert _kkt_violation_raw(x, y, w, b, alpha) <= 10 * tol, f"problem {problem}"
        if problem % 10 == 0:
            yc = y - y.mean()
            lam_max = np.abs((x - x.mean(axis=0)).T @ yc).max() / 400
            w0, _, _, _ = probes.lasso_cd(x, y, alpha=lam_max * (1 + 1e-9), tol=tol)
            assert np.all(w0 == 0.0), f"null threshold violated on problem {problem}"
    _announce(2, "100 lasso fits satisfy KKT within 10*tol; null threshold exact")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_fid_analytic_suite():
    rng = np.random.default_rng(303)
    s = metrics.summarize(rng.standard_normal((80, 5)))
    assert metrics.fid(s, s) <= 1e-8
    one_a = _summary(np.array([0.0]), np.array([[1.0]]))
    one_b = _summary(np.array([1.0]), np.array([[1.0]]))
    assert abs(metrics.fid(one_a, one_b) - 1.0) <= 1e-6
    cov = rng.standard_normal((6, 6))
    cov = cov @ cov.T + np.eye(6)
    delta = rng.standard_normal(6)
    shift = metrics.fid(
        _summary(np.zeros(6), cov),
        _summary(delta, cov.copy()),
    )
    assert abs(shift - float(delta @ delta)) <= 1e-8
    a = rng.standard_normal((300, 6))
    b = rng.standard_normal((300, 6)) * 0.8 + 0.1
    rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = metrics.fid(metrics.summarize(a), metrics.summarize(b))
    rotated = metrics.fid(metrics.summarize(a @ rot.T), metrics.summarize(b @ rot.T))
    assert abs(base - rotated) <= 1e-6 * (1.0 + base)
    _announce(3, "fid self-distance, 1-D closed form, mean shift, rotation invariance")


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_exact_stitch_oracle(tmp_path):
    start = time.perf_counter()
    world = synth.gen_world(2200, 8, 256, seed=404)
    specs = [
        synth.SynthModelSpec(model_id="encA", kind="orthogonal", d=256, seed=405, d_pix=256),
        synth.SynthModelSpec(model_id="encB", kind="orthogonal", d=256, seed=406, d_pix=256),
    ]
    synth.emit_datasets(world, specs, tmp_path)
    (tmp_path / "experiment.cfg").write_text(
        "seed = 0\n"
        "pixels = pixels.lsf\n"
        "attributes = attributes.txt\n"
        "split.train = 2000\n"
        "split.holdout = 200\n"
        "model.encA.latents = encA.lsf\n"
        f"model.encA.synth = {synth.spec_to_string(specs[0])}\n"
        "model.encB.latents = encB.lsf\n"
        f"model.encB.synth = {synth.spec_to_string(specs[1])}\n"
        "probe_alpha.encA = 0.001\n"
        "probe_alpha.encB = 0.001\n"
    )
    cfg = pipeline.load_config(tmp_path / "experiment.cfg")
    grid = pipeline.run_stitch_grid(cfg, tmp_path / "grid")
    assert grid.errors == []
    assert grid.grids["latent_mse"].get("encA", "encB") <= 1e-8
    assert grid.grids["latent_mse"].get("encB", "encA") <= 1e-8
    assert grid.grids["pixel_rmse"].get("encA", "encB") <= 1e-6
    assert grid.grids["pixel_rmse"].get("encB", "encA") <= 1e-6
    suite = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    row = suite.match_grid.row_ids.index("encA->encB")
    matches = suite.match_grid.values[row]
    assert np.isfinite(matches).all()
    assert matches.min() >= 95.0, f"worst match {matches.min()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _announce(4, f"exact stitch: mse<=1e-8, rmse<=1e-6, all 8 matches>=95% in {elapsed:.1f}s")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_random_encoder_chance_baseline():
    n_seeds = 5
    acc = []          # (seed, attr) accuracy of probes on the random space
    match_as_src = [] # random space as mapping source
    match_as_dst = [] # random space as mapping target
    for seed in range(n_seeds):
        world = synth.gen_world(1200, 4, 64, seed=seed)
        img = world.image_dataset()
        table = world.attribute_table()
        train_ids, hold_ids = img.ids[:1000], img.ids[1000:]
        orth = synth.encode(
            synth.SynthModelSpec(model_id="orth", kind="orthogonal", d=64, seed=100 + seed), img
        )
        rand = synth.encode(
            synth.SynthModelSpec(model_id="rand", kind="random", d=128, seed=200 + seed), img
        )
        rows_o = {s: i for i, s in enumerate(orth.ids)}
        rows_r = {s: i for i, s in enumerate(rand.ids)}
        m_ro = mapfit.fit_ols(rand.X[:1000], orth.X[:1000])
        m_or = mapfit.fit_ols(orth.X[:1000], rand.X[:1000])
        acc_row, src_row, dst_row = [], [], []
        for attr in world.attribute_names:
            sub = probes.balanced_subset(table, attr, train_ids, seed=seed)
            hold = probes.balanced_subset(table, attr, hold_ids, seed=seed, per_class=100)
            p_rand = probes.fit_lasso(
                rand.X[[rows_r[s] for s in sub.ids]], sub.labels(), alpha=0.001
            )
            acc_row.append(
                probes.accuracy(p_rand, rand.X[[rows_r[s] for s in hold.ids]], hold.labels())
            )
            p_orth = probes.fit_lasso(
                orth.X[[rows_o[s] for s in sub.ids]], sub.labels(), alpha=0.001
            )
            hids = hold.ids
            src_row.append(probes.match_percent(
                p_orth,
                orth.X[[rows_o[s] for s in hids]],
                mapfit.apply_map(m_ro, rand.X[[rows_r[s] for s in hids]]),
            ))
            dst_row.append(probes.match_percent(
                p_rand,
                rand.X[[rows_r[s] for s in hids]],
                mapfit.apply_map(m_or, orth.X[[rows_o[s] for s in hids]]),
            ))
        acc.append(acc_row)
        match_as_src.append(src_row)
        match_as_dst.append(dst_row)
    mean_acc = np.mean(acc, axis=0)          # per attribute, averaged over seeds
    assert np.all(mean_acc >= 0.45) and np.all(mean_acc <= 0.55), mean_acc
    for name, match in (("source", match_as_src), ("target", match_as_dst)):
        mean_match = np.mean(match, axis=0)
        assert np.all(mean_match >= 40.0) and np.all(mean_match <= 60.0), (name, mean_match)
    _announce(5, f"random-space probes: acc {np.round(mean_acc, 3).tolist()}, match near 50%")


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_noising_degrades_probe_accuracy():
    t_grid = [0, 5, 10, 20, 50]
    n_seeds = 5
    # acc[t_index][seed][attr]
    acc = np.zeros((len(t_grid), n_seeds, 4))
    for seed in range(n_seeds):
        world = synth.gen_world(1200, 4, 64, seed=600 + seed)
        img = world.image_dataset()
        table = world.attribute_table()
        train_ids, hold_ids = img.ids[:1000], img.ids[1000:]
        for ti, t in enumerate(t_grid):
            spec = synth.SynthModelSpec(
                model_id="noise", kind="noising", d=64, seed=700 + seed, t=t
            )
            lat = synth.encode(spec, img)
            rows = {s: i for i, s in enumerate(lat.ids)}
            for ai, attr in enumerate(world.attribute_names):
                sub = probes.balanced_subset(table, attr, train_ids, seed=seed)
                hold = probes.balanced_subset(table, attr, hold_ids, seed=seed, per_class=100)
                probe = probes.fit_lasso(
                    lat.X[[rows[s] for s in sub.ids]], sub.labels(), alpha=0.001
                )
                acc[ti, seed, ai] = probes.accuracy(
                    probe, lat.X[[rows[s] for s in hold.ids]], hold.labels()
                )
    seed_mean = acc.mean(axis=1)  # (t, attr)
    # t=0 beats t=50 for every factor attribute
    assert np.all(seed_mean[0] > seed_mean[-1]), seed_mean
    # average accuracy is non-increasing along the t grid
    curve = seed_mean.mean(axis=1)
    assert np.all(np.diff(curve) <= 1e-12), curve
    _announce(6, f"noising curve (seed-averaged) {np.round(curve, 3).tolist()} non-increasing")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_balanced_sampling_contract():
    rng = np.random.default_rng(707)
    for trial in range(200):
        n_pos = int(rng.integers(1, 500))
        n_neg = int(rng.integers(1, 500))
        ids = [f"p{i}" for i in range(n_pos)] + [f"n{i}" for i in range(n_neg)]
        values = np.array([[1]] * n_pos + [[-1]] * n_neg, dtype=np.int8)
        table = data.AttributeTable(names=["a"], ids=ids, values=values)
        expected = int(Fraction(8, 10) * min(n_pos, n_neg))
        if expected < 1:
            with pytest.raises(Exception):
                probes.balanced_subset(table, "a", ids, seed=trial)
            continue
        sub = probes.balanced_subset(table, "a", ids, seed=trial)
        assert sub.per_class == expected
        hold = probes.balanced_subset(table, "a", ids, seed=trial, per_class=100)
        assert hold.per_class == min(100, n_pos, n_neg)
        if n_pos >= 100 and n_neg >= 100:
            assert len(hold.pos_ids) == 100 and len(hold.neg_ids) == 100
    _announce(7, "per_class = floor(0.8*min) exactly; holdout 100/100 when available")


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_plateau_detection_contract():
    series = [0.50, 0.60, 0.70, 0.705, 0.707, 0.708]  # saturates at index 2 of 6
    first = pipeline.plateau_index(series, eps=0.01)
    second = pipeline.plateau_index(series, eps=0.01)
    assert first == 2 and second == 2
    _announce(8, "plateau_epoch = 2 on the saturating 6-point series, deterministic")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_pipeline_determinism(tmp_path):
    gen = tmp_path / "gen"
    assert cli.main(["synth-gen", "--out", str(gen), "--seed", "9",
                     "--n", "260", "--k", "3", "--dpix", "36"]) == 0
    cfg = str(gen / "experiment.cfg")
    csvs = {}
    for run in ("one", "two"):
        grid_out = tmp_path / f"grid_{run}"
        suite_out = tmp_path / f"suite_{run}"
        dyn_out = tmp_path / f"dyn_{run}"
        assert cli.main(["stitch-grid", "--config", cfg, "--out", str(grid_out)]) == 0
        assert cli.main(["probe-suite", "--config", cfg, "--out", str(suite_out)]) == 0
        assert cli.main(["dynamics", "--config", cfg, "--out", str(dyn_out),
                         "--checkpoints", str(gen / "noise.lsf"), str(gen / "orthA.lsf")]) == 0
        csvs[run] = {
            p.name: p.read_bytes()
            for root in (grid_out, suite_out, dyn_out)
            for p in sorted(root.glob("*.csv"))
        }
    assert csvs["one"].keys() == csvs["two"].keys()
    assert len(csvs["one"]) >= 8
    for name in csvs["one"]:
        assert csvs["one"][name] == csvs["two"][name], f"{name} differs between runs"
    _announce(9, f"{len(csvs['one'])} CSV outputs byte-identical across repeated runs")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_scale_check_2048_to_512():
    rng = np.random.default_rng(1010)
    x = rng.standard_normal((2000, 2048)).astype(np.float32)
    planted = rng.standard_normal((512, 2048)).astype(np.float32) / math.sqrt(2048)
    y = x @ planted.T + 0.1 * rng.standard_normal((2000, 512)).astype(np.float32)
    start = time.perf_counter()
    m = mapfit.fit_ridge(x, y, alpha=100.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    # sanity: the fit actually explains the planted structure
    mse = mapfit.latent_mse(mapfit.apply_map(m, x), y)
    assert mse < 0.02
    _announce(10, f"2000x2048 -> 512 ridge fit in {elapsed:.2f}s (< 60s)")
