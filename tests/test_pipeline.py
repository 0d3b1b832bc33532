import json
import logging

import numpy as np
import pytest

from latentstitch import cli, data, mapfit, pipeline, probes, synth
from latentstitch import metrics
from latentstitch.errors import ConfigError, InconsistentIds, IoError


@pytest.fixture(scope="module")
def roster(tmp_path_factory):
    """Small five-model synthetic roster emitted to disk with a config."""
    out = tmp_path_factory.mktemp("roster")
    world = synth.gen_world(260, 3, 36, seed=17)
    specs = [
        synth.SynthModelSpec(model_id="orthA", kind="orthogonal", d=36, seed=18, d_pix=36),
        synth.SynthModelSpec(model_id="orthB", kind="orthogonal", d=36, seed=19, d_pix=36),
        synth.SynthModelSpec(model_id="lossy", kind="lossy", d=9, seed=20, rank=1, d_pix=36),
        synth.SynthModelSpec(model_id="rand", kind="random", d=24, seed=21),
        synth.SynthModelSpec(model_id="noise", kind="noising", d=36, seed=22, t=10, d_pix=36),
    ]
    paths = synth.emit_datasets(world, specs, out)
    lines = [
        "seed = 5",
        f"pixels = {paths['pixels'].name}",
        f"attributes = {paths['attributes'].name}",
        "split.train = 200",
        "split.holdout = 60",
    ]
    for spec in specs:
        lines.append(f"model.{spec.model_id}.latents = {spec.model_id}.lsf")
        lines.append(f"model.{spec.model_id}.synth = {synth.spec_to_string(spec)}")
        lines.append(f"probe_alpha.{spec.model_id} = 0.001")
    cfg_path = out / "experiment.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    return {"dir": out, "config": cfg_path, "world": world, "specs": specs}


# --- config parsing -------------------------------------------------------------


def test_parse_config_full(tmp_path):
    text = """
# comment line
seed = 11
pixels = pix.lsf
attributes = attrs.txt
split.train = 100
split.holdout = 20
plateau.eps = 0.02
model.a.latents = a.lsf
model.a.decoder_only = true
model.b.latents = sub/b.lsf
model.b.synth = orthogonal:seed=3,d=16
alpha.a.b = 12.5
probe_alpha.a = 0.005
attributes.subset = f1, f2
"""
    cfg = pipeline.parse_config(text, base_dir=tmp_path)
    assert cfg.seed == 11
    assert cfg.pixels_path == tmp_path / "pix.lsf"
    assert cfg.split.n_train == 100 and cfg.split.n_holdout == 20
    assert cfg.plateau_eps == 0.02
    assert cfg.model_ids() == ["a", "b"]
    assert cfg.entry("a").decoder_only is True
    assert cfg.entry("b").latents_path == tmp_path / "sub" / "b.lsf"
    assert cfg.entry("b").synth.kind == "orthogonal"
    assert cfg.alpha_overrides[("a", "b")] == 12.5
    assert cfg.probe_alpha["a"] == 0.005
    assert cfg.attribute_subset == ["f1", "f2"]


@pytest.mark.parametrize(
    "line",
    [
        "unknown_key = 1",
        "split.train = many",
        "alpha.only_one = 2",
        "model.bad..latents = x.lsf",
        "model.a.unknown = 1",
        "alpha.a.b = -5\nmodel.a.latents = a.lsf\nmodel.b.latents = b.lsf",
        "alpha.a.ghost = 5\nmodel.a.latents = a.lsf",
        "no_equals_sign",
    ],
)
def test_parse_config_rejects_malformed(line):
    with pytest.raises(ConfigError):
        pipeline.parse_config(line)


def test_validate_paths_missing(tmp_path):
    cfg = pipeline.parse_config("model.a.latents = ghost.lsf", base_dir=tmp_path)
    with pytest.raises(ConfigError, match="ghost.lsf"):
        pipeline.validate_paths(cfg)


def test_resolve_probe_alpha_roster_defaults():
    cfg = pipeline.ExperimentConfig()
    assert pipeline.resolve_probe_alpha(cfg, "VAE") == 0.005
    assert pipeline.resolve_probe_alpha(cfg, "VQVAE") == 0.005
    assert pipeline.resolve_probe_alpha(cfg, "DM") == 0.02
    assert pipeline.resolve_probe_alpha(cfg, "NF") == 0.1
    assert pipeline.resolve_probe_alpha(cfg, "mystery") == 0.01
    cfg.probe_alpha["NF"] = 0.3
    assert pipeline.resolve_probe_alpha(cfg, "NF") == 0.3


def test_resolve_map_alpha_override_then_roster_default_then_zero():
    cfg = pipeline.ExperimentConfig()
    assert pipeline.resolve_map_alpha(cfg, "NF", "GAN") == 50000.0
    assert pipeline.resolve_map_alpha(cfg, "GAN", "NF") == 0.0
    cfg.alpha_overrides[("NF", "GAN")] = 7.0
    cfg.alpha_overrides[("GAN", "NF")] = 3.0
    assert pipeline.resolve_map_alpha(cfg, "NF", "GAN") == 7.0
    assert pipeline.resolve_map_alpha(cfg, "GAN", "NF") == 3.0
    assert pipeline.resolve_map_alpha(cfg, "DM", "GAN") == 2000.0


# --- CSV emission -----------------------------------------------------------------


def test_emit_csv_grid_round_trip(tmp_path):
    grid = pipeline.MetricGrid(
        name="m", row_ids=["r1", "r2"], col_ids=["c1", "c2"],
        values=np.array([[1.25, np.nan], [0.1234567891, 3.0]]),
    )
    path = tmp_path / "grid.csv"
    pipeline.emit_csv(grid, path)
    back = pipeline.read_csv_grid(path)
    assert back.row_ids == grid.row_ids and back.col_ids == grid.col_ids
    assert np.isnan(back.values[0, 1])
    assert back.values[0, 0] == 1.25
    # nine significant digits
    assert back.values[1, 0] == pytest.approx(0.123456789, abs=1e-12)


def test_emit_csv_absent_cell_is_empty_field(tmp_path):
    grid = pipeline.MetricGrid(
        name="m", row_ids=["r"], col_ids=["a", "b"], values=np.array([[np.nan, 2.0]])
    )
    path = tmp_path / "grid.csv"
    pipeline.emit_csv(grid, path)
    assert "r,,2" in path.read_text()


def test_emit_csv_byte_deterministic(tmp_path):
    grid = pipeline.MetricGrid(
        name="m", row_ids=["r"], col_ids=["a"], values=np.array([[1.0 / 3.0]])
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    pipeline.emit_csv(grid, p1)
    pipeline.emit_csv(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_unwritable_path(tmp_path):
    grid = pipeline.MetricGrid(name="m", row_ids=[], col_ids=[], values=np.zeros((0, 0)))
    with pytest.raises(IoError):
        pipeline.emit_csv(grid, tmp_path / "missing_dir" / "x.csv")


# --- plateau rule ------------------------------------------------------------------


def test_plateau_constant_series():
    assert pipeline.plateau_index([0.5, 0.5, 0.5, 0.5], eps=0.01) == 0


def test_plateau_rising_then_flat():
    assert pipeline.plateau_index([0.2, 0.4, 0.6, 0.605, 0.607, 0.608], eps=0.01) == 2


def test_plateau_never_flat_lands_on_last():
    assert pipeline.plateau_index([0.0, 0.1, 0.2, 0.35], eps=0.01) == 3


def test_plateau_drop_counts_as_small_increment():
    # increments below eps include negative ones
    assert pipeline.plateau_index([0.2, 0.8, 0.79, 0.785], eps=0.01) == 1


# --- stitch grid -------------------------------------------------------------------


def test_identity_stitch_cell(tmp_path):
    rng = np.random.default_rng(0)
    ds = data.LatentDataset(
        model_id="dupA", ids=[f"i{j}" for j in range(60)],
        X=rng.standard_normal((60, 6)).astype(np.float32),
    )
    data.write_latents(ds, tmp_path / "dupA.lsf")
    twin = data.LatentDataset(model_id="dupB", ids=ds.ids, X=ds.X)
    data.write_latents(twin, tmp_path / "dupB.lsf")
    cfg = pipeline.parse_config(
        "model.dupA.latents = dupA.lsf\n"
        "model.dupB.latents = dupB.lsf\n"
        "split.train = 50\nsplit.holdout = 10\n",
        base_dir=tmp_path,
    )
    result = pipeline.run_stitch_grid(cfg, tmp_path / "out")
    assert result.grids["latent_mse"].get("dupA", "dupB") <= 1e-10
    assert result.grids["latent_mse"].get("dupB", "dupA") <= 1e-10


def test_stitch_grid_cell_counts(roster):
    cfg = pipeline.load_config(roster["config"])
    result = pipeline.run_stitch_grid(cfg, roster["dir"] / "grid_out")
    mse = result.grids["latent_mse"].values
    rmse = result.grids["pixel_rmse"].values
    fid_grid = result.grids["fid"].values
    assert mse.shape == (5, 5)
    # every ordered pair gets a latent MSE
    assert np.isfinite(mse).sum() == 25
    # pixel metrics exist only where the decoder is invertible in-process:
    # 4 decodable targets x 5 encoders
    assert np.isfinite(rmse).sum() == 20
    assert np.isfinite(fid_grid).sum() == 20
    rand_col = result.grids["pixel_rmse"].col_ids.index("rand")
    assert not np.isfinite(rmse[:, rand_col]).any()
    assert result.errors == []


def test_stitch_grid_exact_pair_and_artifacts(roster):
    out = roster["dir"] / "grid_out2"
    cfg = pipeline.load_config(roster["config"])
    result = pipeline.run_stitch_grid(cfg, out)
    # orthogonal pair is exactly stitchable
    assert result.grids["latent_mse"].get("orthA", "orthB") <= 1e-8
    assert result.grids["pixel_rmse"].get("orthA", "orthB") <= 1e-6
    # serialized artifacts exist for every pair
    assert len(list((out / "maps").glob("*.lmap"))) == 25
    assert len(list((out / "mapped").glob("*.lsf"))) == 25
    assert (out / "metadata.json").is_file()


def test_stitch_grid_offline_recompute_matches_csv(roster):
    # the reported latent MSE must be recomputable from the serialized map
    # and the LSF inputs alone
    out = roster["dir"] / "grid_out3"
    cfg = pipeline.load_config(roster["config"])
    pipeline.run_stitch_grid(cfg, out)
    grid = pipeline.read_csv_grid(out / "latent_mse.csv")
    latents = {m.model_id: data.read_latents(m.latents_path) for m in cfg.models}
    for src in grid.row_ids:
        for dst in grid.col_ids:
            m = mapfit.load_map(out / "maps" / f"{src}__{dst}.lmap")
            a, b = data.align(latents[src], latents[dst])
            _, a_hold = data.split(a, cfg.split)
            _, b_hold = data.split(b, cfg.split)
            recomputed = mapfit.latent_mse(mapfit.apply_map(m, a_hold.X), b_hold.X)
            reported = grid.get(src, dst)
            assert reported == pytest.approx(recomputed, rel=1e-8, abs=1e-12)


def test_stitch_grid_cell_failure_isolation(roster, tmp_path):
    # a model with too few rows for the split fails its cells, others survive
    rng = np.random.default_rng(1)
    tiny = data.LatentDataset(
        model_id="tiny", ids=[f"{i:06d}" for i in range(40)],
        X=rng.standard_normal((40, 4)).astype(np.float32),
    )
    data.write_latents(tiny, roster["dir"] / "tiny.lsf")
    text = roster["config"].read_text() + "model.tiny.latents = tiny.lsf\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_stitch_grid(cfg, tmp_path / "out")
    mse = result.grids["latent_mse"]
    tiny_row = mse.row_ids.index("tiny")
    assert not np.isfinite(mse.values[tiny_row]).any()
    assert np.isfinite(mse.values[:5, :5]).sum() == 25
    assert any("tiny" in e and "InsufficientRows" in e for e in result.errors)
    assert (tmp_path / "out" / "cell_errors.txt").is_file()


def test_stitch_grid_lpips_passthrough(roster, tmp_path):
    lpips_path = roster["dir"] / "lpips.csv"
    lpips_path.write_text("encoder,decoder,value\northA,orthB,0.123\n")
    text = roster["config"].read_text() + "lpips = lpips.csv\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_stitch_grid(cfg, tmp_path / "out")
    assert result.grids["lpips"].get("orthA", "orthB") == pytest.approx(0.123)
    assert np.isfinite(result.grids["lpips"].values).sum() == 1
    assert (tmp_path / "out" / "lpips.csv").is_file()


def test_stitch_grid_threads_match_serial(roster, tmp_path):
    cfg = pipeline.load_config(roster["config"])
    serial = pipeline.run_stitch_grid(cfg, tmp_path / "serial")
    threaded = pipeline.run_stitch_grid(cfg, tmp_path / "threaded", threads=4)
    for name in ("latent_mse", "pixel_rmse", "fid"):
        a = (tmp_path / "serial" / f"{name}.csv").read_bytes()
        b = (tmp_path / "threaded" / f"{name}.csv").read_bytes()
        assert a == b


def test_stitch_grid_decoder_only_model(roster, tmp_path):
    # GAN-style entry: its own (latent, image) pairs come from its sampling;
    # with id-based alignment the fit path is identical, the flag is metadata
    text = roster["config"].read_text() + "model.rand.decoder_only = true\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    assert cfg.entry("rand").decoder_only is True
    result = pipeline.run_stitch_grid(cfg, tmp_path / "out")
    mse = result.grids["latent_mse"]
    assert np.isfinite(mse.values[mse.row_ids.index("rand")]).all()
    meta = (tmp_path / "out" / "metadata.json").read_text()
    assert '"decoder_only": true' in meta


def test_default_latent_dims_roster():
    assert data.DEFAULT_LATENT_DIMS == {
        "GAN": 512, "VAE": 512, "VQVAE": 768, "NF": 12288, "DM": 12288,
    }


# --- probe suite --------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_result(roster, tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    cfg = pipeline.load_config(roster["config"])
    return pipeline.run_probe_suite(cfg, out), out


def test_probe_suite_native_match_is_total(suite_result):
    result, _ = suite_result
    grid = result.match_grid
    for mid in ("orthA", "orthB", "lossy", "rand", "noise"):
        row = grid.row_ids.index(f"{mid}->{mid}")
        values = grid.values[row]
        assert np.all(values[np.isfinite(values)] == 100.0)


def test_probe_suite_orthogonal_pair_matches(suite_result):
    result, _ = suite_result
    grid = result.match_grid
    row = grid.row_ids.index("orthA->orthB")
    finite = grid.values[row][np.isfinite(grid.values[row])]
    assert finite.size == 3
    assert finite.min() >= 95.0


def test_probe_suite_report_and_grids(suite_result):
    result, out = suite_result
    assert (out / "probe_report.csv").read_text().startswith(
        "model,attribute,alpha,train_n_per_class,holdout_accuracy"
    )
    assert result.accuracy_grid.values.shape == (5, 3)
    # orthogonal latent spaces are linearly separable at this scale
    for mid in ("orthA", "orthB"):
        row = result.accuracy_grid.row_ids.index(mid)
        assert result.accuracy_grid.values[row].min() >= 0.9
    assert result.delta_grid.values.shape == (25, 3)
    for name in ("probe_accuracy_grid", "match_grid", "delta_grid"):
        assert (out / f"{name}.csv").is_file()
    assert (out / "probes").glob("*.lprb")
    assert (out / "metadata.json").is_file()


def test_probe_suite_records_lasso_counters(suite_result):
    result, out = suite_result
    counters = json.loads((out / "metadata.json").read_text())["probe_lasso"]
    assert sorted(counters) == sorted(f"{r['model']}/{r['attribute']}" for r in result.report_rows)
    for key, entry in counters.items():
        mid, attr = key.split("/")
        probe = probes.load_probe(out / "probes" / f"{mid}__{attr}.lprb")
        assert entry["nnz"] == np.count_nonzero(probe.w)
        assert entry["sweeps"] >= 1


def test_probe_suite_delta_zero_on_diagonal(suite_result):
    result, _ = suite_result
    grid = result.delta_grid
    for mid in ("orthA", "orthB"):
        row = grid.row_ids.index(f"{mid}->{mid}")
        np.testing.assert_allclose(grid.values[row], 0.0, atol=1e-12)


# --- dynamics -------------------------------------------------------------------------


def make_checkpoints(tmp_path, world, t_values, seed=50):
    img = world.image_dataset()
    paths = []
    for i, t in enumerate(t_values):
        spec = synth.SynthModelSpec(model_id="nf", kind="noising", d=world.d_pix, seed=seed, t=t)
        path = tmp_path / f"ckpt_{i}.lsf"
        data.write_latents(synth.encode(spec, img), path)
        paths.append(path)
    return paths


def test_dynamics_saturating_curve(roster, tmp_path):
    world = roster["world"]
    ckpts = make_checkpoints(tmp_path, world, [50, 20, 0, 0, 0, 0, 0, 0])
    cfg = pipeline.load_config(roster["config"])
    cfg.probe_alpha["nf"] = 0.001
    series = pipeline.run_dynamics(cfg, ckpts)
    assert series.accuracies.shape == (3, 8)
    # saturates 25% into the schedule: plateau in the first quarter
    for attr, idx in zip(series.attributes, series.plateau_indices):
        assert idx <= 2, f"{attr} plateaued at {idx}"
    out = tmp_path / "dynamics.csv"
    pipeline.emit_csv(series, out)
    header = out.read_text().splitlines()[0]
    assert header == "attribute,0,1,2,3,4,5,6,7,plateau_epoch"


def test_dynamics_inconsistent_ids(roster, tmp_path):
    world = roster["world"]
    ckpts = make_checkpoints(tmp_path, world, [50, 0])
    other = data.read_latents(ckpts[1])
    renamed = data.LatentDataset(model_id="nf", ids=[f"x{i}" for i in range(other.n)], X=other.X)
    data.write_latents(renamed, ckpts[1])
    cfg = pipeline.load_config(roster["config"])
    with pytest.raises(InconsistentIds):
        pipeline.run_dynamics(cfg, ckpts)


def test_dynamics_needs_two_checkpoints(roster, tmp_path):
    cfg = pipeline.load_config(roster["config"])
    with pytest.raises(ConfigError):
        pipeline.run_dynamics(cfg, [tmp_path / "one.lsf"])


def test_dynamics_label_count_must_match(roster, tmp_path):
    world = roster["world"]
    ckpts = make_checkpoints(tmp_path, world, [50, 0])
    cfg = pipeline.load_config(roster["config"])
    with pytest.raises(ConfigError):
        pipeline.run_dynamics(cfg, ckpts, labels=["only-one"])


# --- reruns, warnings, threads ------------------------------------------------------


def test_clean_rerun_removes_stale_cell_errors(roster, tmp_path):
    rng = np.random.default_rng(1)
    tiny = data.LatentDataset(
        model_id="tiny", ids=[f"{i:06d}" for i in range(40)],
        X=rng.standard_normal((40, 4)).astype(np.float32),
    )
    data.write_latents(tiny, roster["dir"] / "tiny.lsf")
    text = roster["config"].read_text() + "model.tiny.latents = tiny.lsf\n"
    out = tmp_path / "out"
    pipeline.run_stitch_grid(pipeline.parse_config(text, base_dir=roster["dir"]), out)
    assert (out / "cell_errors.txt").is_file()
    result = pipeline.run_stitch_grid(pipeline.load_config(roster["config"]), out)
    assert result.errors == []
    assert not (out / "cell_errors.txt").exists()


def _unconfigured_warnings(caplog, model_id):
    return [r for r in caplog.records
            if "no probe alpha configured" in r.getMessage() and repr(model_id) in r.getMessage()]


def test_missing_probe_alpha_warns_once_per_space(roster, tmp_path, caplog):
    text = roster["config"].read_text().replace("probe_alpha.orthA = 0.001\n", "")
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    with caplog.at_level(logging.WARNING, logger="latentstitch.pipeline"):
        result = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    assert len(result.accuracy_grid.col_ids) > 1
    assert len(_unconfigured_warnings(caplog, "orthA")) == 1

    caplog.clear()
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 0])
    with caplog.at_level(logging.WARNING, logger="latentstitch.pipeline"):
        pipeline.run_dynamics(cfg, ckpts)
    assert len(_unconfigured_warnings(caplog, "nf")) == 1


def test_probe_suite_threads_match_serial(roster, tmp_path):
    config = str(roster["config"])
    for threads in ("1", "2"):
        assert cli.main(["probe-suite", "--config", config, "--out", str(tmp_path / threads),
                         "--threads", threads]) == 0
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert any(p.suffix == ".csv" for p in files)
    for rel in files:
        assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel


# --- one train/holdout split per run ----------------------------------------------


@pytest.fixture(scope="module")
def reordered_copy(roster):
    """A reordered 95% subset of the noise export, configurable as model `noiseP`."""
    noise = data.read_latents(roster["dir"] / "noise.lsf")
    keep = np.random.default_rng(3).permutation(noise.n)[: noise.n * 95 // 100]
    copy = data.LatentDataset(model_id="noiseP", ids=[noise.ids[i] for i in keep], X=noise.X[keep])
    data.write_latents(copy, roster["dir"] / "noiseP.lsf")
    return copy


def _config_with_copy(roster, n_train):
    text = roster["config"].read_text().replace("split.train = 200", f"split.train = {n_train}")
    path = roster["dir"] / f"with_copy_{n_train}.cfg"
    path.write_text(text + "model.noiseP.latents = noiseP.lsf\n")
    return path


def test_stitch_grid_scores_every_cell_on_the_first_models_holdout(roster, reordered_copy, tmp_path):
    # 180+60 rows fit in the 247-row copy, but it lacks some of orthA's split ids
    cfg = pipeline.load_config(_config_with_copy(roster, 180))
    result = pipeline.run_stitch_grid(cfg, tmp_path)
    expected = data.read_latents(roster["dir"] / "orthA.lsf").ids[180:240]
    mapped = sorted((tmp_path / "mapped").glob("*.lsf"))
    assert len(mapped) == 25
    for path in mapped:
        assert data.read_latents(path).ids == expected, path.name
    copy_cells = {f"{a}->{b}" for a in cfg.model_ids() for b in cfg.model_ids() if "noiseP" in (a, b)}
    assert {e.split(":")[0] for e in result.errors} == copy_cells
    assert all(": InsufficientRows: 'noiseP' lacks " in e for e in result.errors)
    split = json.loads((tmp_path / "metadata.json").read_text())["split"]
    assert split == {"train": 180, "holdout": 60, "from": "orthA"}


def test_probe_suite_isolates_a_model_missing_split_ids(roster, reordered_copy, tmp_path):
    # the copy holds 247 rows, fewer than the 200+60 split
    cfg = pipeline.load_config(_config_with_copy(roster, 200))
    result = pipeline.run_probe_suite(cfg, tmp_path)
    for name in ("probe_report", "probe_accuracy_grid", "match_grid", "delta_grid"):
        assert (tmp_path / f"{name}.csv").is_file()
    attributes = result.accuracy_grid.col_ids
    probe_errors = [e for e in result.errors if e.startswith("probe ")]
    map_errors = [e for e in result.errors if e.startswith("map ")]
    assert len(probe_errors) == len(attributes)
    assert all(e.startswith("probe noiseP/") for e in probe_errors)
    assert len(map_errors) == 11
    assert all("noiseP" in e.split(":")[0] for e in map_errors)
    assert len(probe_errors) + len(map_errors) == len(result.errors)
    assert all("InsufficientRows" in e for e in result.errors)
    acc = result.accuracy_grid.values
    assert not np.isfinite(acc[result.accuracy_grid.row_ids.index("noiseP")]).any()
    assert np.isfinite(acc[:5]).all()
    assert not list((tmp_path / "probes").glob("noiseP__*"))
    split = json.loads((tmp_path / "metadata.json").read_text())["split"]
    assert split["from"] == "orthA"


def test_fit_map_splits_in_source_order(roster, reordered_copy, tmp_path, capsys):
    config = _config_with_copy(roster, 180)
    assert cli.main(["fit-map", "--config", str(config), "--src", "noiseP", "--dst", "orthA",
                     "--out", str(tmp_path)]) == 0
    orth_a = data.read_latents(roster["dir"] / "orthA.lsf")
    target = data.take(orth_a, [orth_a.ids.index(sid) for sid in reordered_copy.ids[:240]])
    ref = mapfit.fit_ols(reordered_copy.X[:180], target.X[:180])
    m = mapfit.load_map(tmp_path / "noiseP__orthA.lmap")
    np.testing.assert_allclose(m.W, ref.W, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(m.b, ref.b, rtol=1e-9, atol=1e-12)
    hold_mse = mapfit.latent_mse(mapfit.apply_map(m, reordered_copy.X[180:240]), target.X[180:])
    assert f"holdout={hold_mse:.9g}" in capsys.readouterr().out


def test_probe_subsets_are_drawn_once_per_attribute(roster, reordered_copy, tmp_path,
                                                    monkeypatch):
    calls = []

    def counted(table, attribute, *args, **kwargs):
        calls.append(attribute)
        return probes.balanced_subset(table, attribute, *args, **kwargs)

    monkeypatch.setattr(pipeline, "balanced_subset", counted)
    # factor_00 made single-class: its train draw fails, the others draw train and holdout
    table = data.read_attribute_table(roster["dir"] / "attributes.txt")
    values = table.values.copy()
    values[:, 0] = 1
    single = data.AttributeTable(names=table.names, ids=table.ids, values=values)
    data.write_attribute_table(single, tmp_path / "single.txt")
    text = _config_with_copy(roster, 200).read_text() + f"attributes = {tmp_path / 'single.txt'}\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_probe_suite(cfg, tmp_path)
    assert sorted(calls) == ["factor_00", "factor_01", "factor_01", "factor_02", "factor_02"]
    # the error is still reported per probe, after a model's own missing-split-ids error
    probe_errors = [e.split(": ")[:2] for e in result.errors if e.startswith("probe ")]
    assert probe_errors == (
        [[f"probe {mid}/factor_00", "SingleClassPool"] for mid in cfg.model_ids()[:5]]
        + [[f"probe noiseP/{a}", "InsufficientRows"] for a in ("factor_00", "factor_01", "factor_02")]
    )

    calls.clear()
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 20, 0])
    pipeline.run_dynamics(pipeline.load_config(roster["config"]), ckpts)
    assert len(calls) == 2 * 3


# d_pix is 36: a 60-row holdout's summaries hold covariances, a 30-row one's their
# rows. The ids name the two FID paths that once existed.
@pytest.mark.parametrize("holdout", [pytest.param(60, id="60-covariance"),
                                     pytest.param(30, id="30-cross")])
def test_stitch_grid_summarizes_true_images_once_and_records_fid_path(
        roster, tmp_path, monkeypatch, holdout):
    text = roster["config"].read_text().replace("split.holdout = 60", f"split.holdout = {holdout}")
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    calls = []

    def counting_summarize(features):
        calls.append(len(features))
        return metrics.summarize(features)

    monkeypatch.setattr(pipeline, "summarize", counting_summarize)
    result = pipeline.run_stitch_grid(cfg, tmp_path / "grid")
    assert result.errors == []
    assert np.isfinite(result.grids["fid"].values).sum() == 20
    assert calls == [holdout] * 21  # the true holdout once, then one per decoded cell
    meta = json.loads((tmp_path / "grid" / "metadata.json").read_text())
    ids = cfg.model_ids()
    assert meta["fid_n"] == {f"{s}->{t}": holdout for s in ids for t in ids if t != "rand"}
    assert "fid_path" not in meta and "fid_ridge" not in meta


# --- stitched probes against mapped holdouts ----------------------------------------


@pytest.fixture(scope="module")
def wide_source(roster):
    """Model `wide`: orthA's latents plus 204 noise columns, so its 200 train rows
    are fewer than its 240 dimensions and an unregularized map from it takes the
    min-norm lstsq fallback."""
    orth_a = data.read_latents(roster["dir"] / "orthA.lsf")
    noise = np.random.default_rng(4).standard_normal((orth_a.n, 204)).astype(np.float32)
    wide = data.LatentDataset(model_id="wide", ids=orth_a.ids, X=np.hstack([orth_a.X, noise]))
    data.write_latents(wide, roster["dir"] / "wide.lsf")
    return "model.wide.latents = wide.lsf\nprobe_alpha.wide = 0.001\n"


# noise's targets split into a ridge group (orthA, orthB) and an OLS group (the rest)
RIDGE_OVERRIDES = "alpha.noise.orthA = 100000\nalpha.noise.orthB = 100000\n"


def _suite_reference(cfg, out, result):
    """Match and delta grids from full maps: fit_pair_map, apply_map on the
    source's holdout rows, then the target probe on the mapped latents."""
    latents = {m.model_id: data.read_latents(m.latents_path) for m in cfg.models}
    table = data.read_attribute_table(cfg.attributes_path)
    ids = cfg.model_ids()
    split = data.split_ids(latents[ids[0]], cfg.split)
    attributes = result.accuracy_grid.col_ids
    match = np.full((len(ids) ** 2, len(attributes)), np.nan)
    delta = np.full_like(match, np.nan)
    for pi, (src, dst) in enumerate((s, t) for s in ids for t in ids):
        m = pipeline.fit_pair_map(latents[src], latents[dst],
                                  pipeline.resolve_map_alpha(cfg, src, dst), split[0])
        for ai, attr in enumerate(attributes):
            probe = probes.load_probe(out / "probes" / f"{dst}__{attr}.lprb")
            hold = pipeline.draw_subsets(table, attr, split, cfg.seed)[1]
            x_native = latents[dst].X[data.rows_of(latents[dst], hold.ids)]
            x_mapped = mapfit.apply_map(m, latents[src].X[data.rows_of(latents[src], hold.ids)])
            match[pi, ai] = probes.match_percent(probe, x_native, x_mapped)
            acc_mapped = probes.accuracy(probe, x_mapped, hold.labels())
            delta[pi, ai] = probes.accuracy_delta(result.accuracy_grid.get(dst, attr), acc_mapped)
    return match, delta


@pytest.mark.parametrize("extra", ["", "ridge", "wide"])
def test_probe_suite_stitched_probes_match_mapped_holdouts(roster, wide_source, tmp_path, extra):
    text = roster["config"].read_text() + {"": "", "ridge": RIDGE_OVERRIDES,
                                           "wide": wide_source}[extra]
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_probe_suite(cfg, tmp_path)
    assert result.errors == []
    match, delta = _suite_reference(cfg, tmp_path, result)
    assert np.isfinite(match).all()
    np.testing.assert_array_equal(result.match_grid.values, match)
    np.testing.assert_array_equal(result.delta_grid.values, delta)
    solvers = json.loads((tmp_path / "metadata.json").read_text())["map_solver"]
    if extra == "wide":
        assert {solvers[f"wide->{t}"] for t in cfg.model_ids()} == {"lstsq"}
    if extra == "ridge":
        # the ridge fit leaves its stitched probes near constant: far from the OLS pair's
        row = result.delta_grid.row_ids.index
        assert (result.delta_grid.values[row("noise->orthA")]
                < result.delta_grid.values[row("orthB->orthA")] - 10).all()


def test_map_solver_recorded_per_pair(roster, wide_source, tmp_path):
    text = roster["config"].read_text() + wide_source + "alpha.wide.orthB = 10\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    pipeline.run_stitch_grid(cfg, tmp_path / "grid")
    pipeline.run_probe_suite(cfg, tmp_path / "suite")
    for command in ("grid", "suite"):
        solvers = json.loads((tmp_path / command / "metadata.json").read_text())["map_solver"]
        assert len(solvers) == 36
        assert solvers["wide->orthA"] == "lstsq"  # unregularized, 200 rows < 240 dims
        assert solvers["wide->orthB"] == "cholesky"  # ridge
        assert solvers["orthA->wide"] == "cholesky"  # full-rank source
        assert solvers["noise->orthB"] == "cholesky"
    suite = json.loads((tmp_path / "suite" / "metadata.json").read_text())
    assert "stitched_probes" in suite
