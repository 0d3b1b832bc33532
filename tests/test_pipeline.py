import csv
import json
import logging
import weakref
from pathlib import Path

import numpy as np
import pytest

from latentstitch import cli, data, linalg, mapfit, pipeline, probes, synth
from latentstitch import metrics
from latentstitch.errors import ConfigError, DataError


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
        "split.train = 0",
        "split.holdout = 0",
        "plateau.eps = 0",
        "plateau.eps = -1",
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


def test_read_run_names_a_missing_latents_file(tmp_path):
    cfg = pipeline.parse_config("model.a.latents = ghost.lsf", base_dir=tmp_path)
    with pytest.raises(ConfigError, match="^missing input files: .*ghost.lsf$"):
        pipeline.read_run(cfg, [m.latents_path for m in cfg.models])


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
    with pytest.raises(DataError, match="cannot write .*x.csv"):
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


def test_plateau_skips_nan_accuracies():
    # a NaN is an empty probe's cell, no point of the curve
    nan = float("nan")
    assert pipeline.plateau_index([0.2, nan, 0.6, 0.605], eps=0.01) == 2
    assert pipeline.plateau_index([nan, 0.6, nan, 0.605], eps=0.01) == 1
    assert pipeline.plateau_index([nan, nan], eps=0.01) is None


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


def test_stitch_grid_drops_each_map_before_decoding(monkeypatch, roster, tmp_path):
    # a d_out x d_in map is not needed to decode its mapped holdout
    maps, decoded = [], []
    fit, decode = pipeline.fit_ridge, pipeline.decode

    def fitting(*args, **kwargs):
        m = fit(*args, **kwargs)
        maps.append(weakref.ref(m))
        return m

    def decoding(*args, **kwargs):
        decoded.append([ref() for ref in maps if ref() is not None])
        return decode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_ridge", fitting)
    monkeypatch.setattr(pipeline, "decode", decoding)
    cfg = pipeline.load_config(roster["config"])
    assert pipeline.run_stitch_grid(cfg, tmp_path).errors == []
    assert len(decoded) == 5 * 4 and not any(decoded)  # every target but rand decodes


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
            ia, ib = data.align(latents[src], latents[dst])
            hold = slice(cfg.split.n_train, cfg.split.n_train + cfg.split.n_holdout)
            recomputed = mapfit.latent_mse(mapfit.apply_map(m, latents[src].X[ia[hold]]),
                                           latents[dst].X[ib[hold]])
            reported = grid.get(src, dst)
            assert reported == pytest.approx(recomputed, rel=1e-8, abs=1e-12)


def test_stitch_grid_pixel_cells_replay_from_written_files(roster, tmp_path, capsys):
    # every pixel_rmse and fid cell is what `latentstitch rmse` and `fid` print
    # for the decoded mapped holdout file against the true holdout pixels
    out = tmp_path / "grid"
    cfg = pipeline.load_config(roster["config"])
    pipeline.run_stitch_grid(cfg, out)
    images = data.read_images(cfg.pixels_path)
    world = roster["world"]
    shape = (world.height, world.width, world.channels)
    _, hold_ids = data.split_ids(data.read_latents(cfg.models[0].latents_path), cfg.split)
    real = tmp_path / "real.lsf"
    data.write_images(data.take(images, [images.row_index[sid] for sid in hold_ids]), real, shape)
    cells = {name: list(csv.reader((out / f"{name}.csv").read_text().splitlines()))
             for name in ("pixel_rmse", "fid")}
    assert [row[0] for row in cells["fid"][1:]] == cells["fid"][0][1:] == cfg.model_ids()
    replayed = 0
    for i, src in enumerate(cfg.model_ids(), 1):
        for j, entry in enumerate(cfg.models, 1):
            if entry.synth.kind == "random":
                assert cells["pixel_rmse"][i][j] == cells["fid"][i][j] == ""
                continue
            mapped = data.read_latents(out / "mapped" / f"{src}__{entry.model_id}.lsf")
            decoded = tmp_path / "decoded.lsf"
            data.write_images(synth.decode(entry.synth, mapped), decoded, shape)
            for name, command in (("pixel_rmse", "rmse"), ("fid", "fid")):
                assert cli.main([command, str(decoded), str(real)]) == 0
                assert capsys.readouterr().out == cells[name][i][j] + "\n", (src, entry.model_id)
                replayed += 1
    assert replayed == 2 * 5 * 4


def test_stitch_grid_decoder_of_another_pixel_width_is_a_cell_error(roster, tmp_path):
    # a decoder of 16-wide pixels cannot be scored against the 36-wide pixel
    # file: its pixel cells are NaN, and each one's error names the mismatch
    spec = synth.SynthModelSpec(model_id="narrow", kind="orthogonal", d=16, seed=23)
    narrow = synth.encode(spec, synth.gen_world(260, 3, 16, seed=17).image_dataset())
    data.write_latents(narrow, tmp_path / "narrow.lsf")
    text = roster["config"].read_text() + (
        f"model.narrow.latents = {tmp_path / 'narrow.lsf'}\n"
        f"model.narrow.synth = {synth.spec_to_string(spec)}\n"
    )
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_stitch_grid(cfg, tmp_path / "out")
    col = cfg.model_ids().index("narrow")
    assert np.isfinite(result.grids["latent_mse"].values[:, col]).all()
    for name in ("pixel_rmse", "fid"):
        assert np.isnan(result.grids[name].values[:, col]).all()
    lines = (tmp_path / "out" / "cell_errors.txt").read_text().splitlines()
    assert [line.split(": ")[:3] for line in lines] == [
        [f"{src}->narrow", "DataError", "shape mismatch"] for src in cfg.model_ids()
    ]


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
    assert any(e.startswith("tiny->") and ": DataError: 'tiny' lacks " in e for e in result.errors)
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


def test_stitch_grid_lpips_file_with_invalid_utf8_is_a_config_error(roster, tmp_path):
    # so is an unknown pair; either fails before any map is fitted or written
    for row, message in ((b"orthA,orth\xff,0.1", "utf-8"),
                         (b"orthA,nosuch,0.1", "unknown model pair 'orthA' -> 'nosuch'")):
        (tmp_path / "lpips.csv").write_bytes(b"encoder,decoder,value\n" + row + b"\n")
        text = roster["config"].read_text() + f"lpips = {tmp_path / 'lpips.csv'}\n"
        cfg = pipeline.parse_config(text, base_dir=roster["dir"])
        with pytest.raises(ConfigError, match=message):
            pipeline.run_stitch_grid(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_stitch_grid_rerun_without_lpips_removes_its_lpips_csv(roster, tmp_path):
    # a rerun into the same --out leaves no grid of the previous run behind
    (tmp_path / "lpips.csv").write_text("orthA,orthB,0.5\n")
    text = roster["config"].read_text()
    with_lpips = pipeline.parse_config(text + f"lpips = {tmp_path / 'lpips.csv'}\n",
                                       base_dir=roster["dir"])
    assert "lpips" in pipeline.run_stitch_grid(with_lpips, tmp_path / "out").grids
    assert (tmp_path / "out" / "lpips.csv").is_file()
    result = pipeline.run_stitch_grid(pipeline.parse_config(text, base_dir=roster["dir"]),
                                      tmp_path / "out")
    assert sorted(result.grids) == ["fid", "latent_mse", "pixel_rmse"]
    assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == [
        "fid.csv", "latent_mse.csv", "pixel_rmse.csv"]


def test_lpips_row_of_a_model_named_encoder_is_kept(tmp_path):
    # only the first row may be the header: a later row whose encoder is the
    # model "encoder" is data
    path = tmp_path / "lpips.csv"
    path.write_text("encoder,decoder,value\nencoder,dec,0.25\n\ndec,encoder,0.5\n")
    pairs = pipeline._read_lpips_pairs(path, ["encoder", "dec"])
    assert pairs == {("encoder", "dec"): 0.25, ("dec", "encoder"): 0.5}
    path.write_text("encoder,dec,0.25\n")
    assert pipeline._read_lpips_pairs(path, ["encoder", "dec"]) == {("encoder", "dec"): 0.25}


@pytest.mark.parametrize("text, message", [
    ("encoder,decoder,value\ndec,encoder,0.5\ndec,encoder,0.75\n",
     "model pair 'dec' -> 'encoder' listed twice"),
    ("dec,encoder,0.5\nencoder,decoder,value\n",
     "unknown model pair 'encoder' -> 'decoder'"),
], ids=["repeated_pair", "header_after_data"])
def test_lpips_file_with_a_repeated_pair_or_late_header_is_a_config_error(tmp_path, text,
                                                                          message):
    path = tmp_path / "lpips.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        pipeline._read_lpips_pairs(path, ["encoder", "dec"])


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


@pytest.mark.parametrize("noising", [True, False])
def test_metadata_records_the_noising_schedule_with_a_noising_model(roster, tmp_path, noising):
    lines = roster["config"].read_text().splitlines()
    if not noising:
        lines = [ln for ln in lines if ".noise." not in ln]
    cfg = pipeline.parse_config("\n".join(lines) + "\n", base_dir=roster["dir"])
    pipeline.run_stitch_grid(cfg, tmp_path / "grid")
    pipeline.run_probe_suite(cfg, tmp_path / "suite")
    expected = {"beta_end": 0.02, "beta_start": 0.0001, "steps_used": 50, "total_steps": 1000}
    for out in ("grid", "suite"):
        meta = json.loads((tmp_path / out / "metadata.json").read_text())
        assert meta["noising_schedule"] == (expected if noising else None)


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
        assert 0.0 <= entry["kkt"] <= 10 * 1e-6  # train_probe's default tol
        assert entry["alpha_max"] > probe.alpha  # no roster probe is empty


def test_probe_suite_grids_replay_from_written_files(roster, suite_result, tmp_path):
    # every match_grid and delta_grid cell is what the written probes give on
    # the holdout mapped through stitch-grid's written map. probe-suite fits
    # the composed probe directly; every roster map takes the Cholesky path,
    # on which that fit equals the map's composition, so cells agree exactly
    _, suite_out = suite_result
    cfg = pipeline.load_config(roster["config"])
    grid_out = tmp_path / "grid"
    pipeline.run_stitch_grid(cfg, grid_out)
    latents = {m.model_id: data.read_latents(m.latents_path) for m in cfg.models}
    table = data.read_attribute_table(cfg.attributes_path)
    split = data.split_ids(latents[cfg.model_ids()[0]], cfg.split)
    match = pipeline.read_csv_grid(suite_out / "match_grid.csv")
    delta = pipeline.read_csv_grid(suite_out / "delta_grid.csv")
    replayed = 0
    for pair in match.row_ids:
        src, dst = pair.split("->")
        m = mapfit.load_map(grid_out / "maps" / f"{src}__{dst}.lmap")
        for attr in match.col_ids:
            probe = probes.load_probe(suite_out / "probes" / f"{dst}__{attr}.lprb")
            hold = pipeline.draw_subsets(table, attr, split, cfg.seed)[1]
            x_native = latents[dst].X[data.rows_of(latents[dst], hold.ids)]
            mapped = mapfit.apply_map(m, latents[src].X[data.rows_of(latents[src], hold.ids)])
            acc_native = probes.accuracy(probe, x_native, hold.labels())
            acc_mapped = probes.accuracy(probe, mapped, hold.labels())
            for grid, replay in ((match, probes.match_percent(probe, x_native, mapped)),
                                 (delta, probes.accuracy_delta(acc_native, acc_mapped))):
                assert grid.get(pair, attr) == float(format(replay, ".9g")), (grid.name, pair, attr)
                replayed += 1
    assert replayed == 2 * 25 * 3


def test_probe_suite_delta_zero_on_diagonal(suite_result):
    result, _ = suite_result
    grid = result.delta_grid
    for mid in ("orthA", "orthB"):
        row = grid.row_ids.index(f"{mid}->{mid}")
        np.testing.assert_allclose(grid.values[row], 0.0, atol=1e-12)


def test_probe_suite_reports_an_empty_probe_and_scores_no_cell_with_it(roster, suite_result,
                                                                       tmp_path, caplog):
    # at alpha >= alpha_max a lasso probe has w = 0: its holdout accuracy and
    # file are kept, but a match or delta cell with it as the target is NaN
    _, full_out = suite_result
    text = roster["config"].read_text().replace("probe_alpha.orthA = 0.001",
                                                "probe_alpha.orthA = 10")
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    with caplog.at_level(logging.WARNING, logger="latentstitch.pipeline"):
        result = pipeline.run_probe_suite(cfg, tmp_path)
    attributes = result.accuracy_grid.col_ids
    meta = json.loads((tmp_path / "metadata.json").read_text())["probe_lasso"]
    lines = [f"probe orthA/{a}: empty: alpha 10 >= alpha_max {meta[f'orthA/{a}']['alpha_max']:.9g}"
             for a in attributes]
    assert result.errors == lines
    assert (tmp_path / "suite_errors.txt").read_text() == "\n".join(lines) + "\n"
    assert [r.getMessage() for r in caplog.records if "empty" in r.getMessage()] == lines
    for attr in attributes:
        assert not probes.load_probe(tmp_path / "probes" / f"orthA__{attr}.lprb").w.any()
    assert np.isfinite(result.accuracy_grid.values).all()
    for grid, name in ((result.match_grid, "match_grid"), (result.delta_grid, "delta_grid")):
        full = pipeline.read_csv_grid(full_out / f"{name}.csv")
        for i, pair in enumerate(grid.row_ids):
            if pair.endswith("->orthA"):
                assert np.isnan(grid.values[i]).all(), pair
            else:  # every other cell keeps its written bytes
                assert list(map(pipeline._fmt, grid.values[i])) == \
                    list(map(pipeline._fmt, full.values[i])), pair


def test_dynamics_and_train_probe_log_an_empty_probe(roster, tmp_path, caplog, capsys):
    config = roster["dir"] / "empty_nf.cfg"
    config.write_text(roster["config"].read_text() + "probe_alpha.nf = 10\n")
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 0])
    with caplog.at_level(logging.WARNING, logger="latentstitch.pipeline"):
        assert cli.main(["dynamics", "--config", str(config), "--out", str(tmp_path / "dyn"),
                         "--checkpoints", *map(str, ckpts)]) == 0
    attributes = data.read_attribute_table(roster["dir"] / "attributes.txt").names
    empty = [r.getMessage() for r in caplog.records if ": empty: " in r.getMessage()]
    assert [line.split(":")[0] for line in empty] == [f"probe nf/{a}" for a in attributes] * 2
    assert all(" empty: alpha 10 >= alpha_max " in line for line in empty)
    # no probe is scored, so every accuracy and plateau cell is empty
    with open(tmp_path / "dyn" / "dynamics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["attribute", "0", "1", "plateau_epoch"]] + [[a, "", "", ""] for a in attributes]
    assert capsys.readouterr().out.splitlines()[:-1] == [
        f"{a}: no plateau: the probe of every checkpoint is empty" for a in attributes]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="latentstitch.pipeline"):
        assert cli.main(["train-probe", "--config", str(roster["config"]), "--out", str(tmp_path),
                         "--model", "orthA", "--attribute", "factor_01", "--alpha", "10"]) == 0
    assert [r.getMessage().split(" >= ")[0] for r in caplog.records] == [
        "probe orthA/factor_01: empty: alpha 10"]


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


def test_dynamics_takes_each_plateau_over_its_non_empty_probes(roster, tmp_path):
    # the middle checkpoint's latents scaled by 1e-6 put its alpha_max far
    # below alpha = 0.001, so its probes are empty: their cells stay NaN, and
    # each plateau is that of the first and last checkpoints' accuracies
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 0, 0])
    middle = data.read_latents(ckpts[1])
    data.write_latents(data.LatentDataset(model_id="nf", ids=middle.ids,
                                          X=np.asarray(middle.X) * 1e-6), ckpts[1])
    cfg = pipeline.load_config(roster["config"])
    series = pipeline.run_dynamics(cfg, ckpts)
    acc = series.accuracies
    assert np.isnan(acc[:, 1]).all() and not np.isnan(acc[:, [0, 2]]).any()
    assert series.plateau_indices == [
        [0, 2][pipeline.plateau_index(row[[0, 2]], cfg.plateau_eps)] for row in acc]


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
    with pytest.raises(DataError, match="sample ids differ from the first checkpoint"):
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


# --- reruns, warnings, --threads ---------------------------------------------------


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


def test_probe_suite_accepts_threads_and_ignores_it(roster, tmp_path):
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
    assert all(": DataError: 'noiseP' lacks " in e for e in result.errors)
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
    assert all(": DataError: 'noiseP' lacks " in e for e in result.errors)
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
    probe_errors = [e.split(": ")[:3] for e in result.errors if e.startswith("probe ")]
    assert probe_errors == (
        [[f"probe {mid}/factor_00", "DataError", "attribute 'factor_00'"] for mid in cfg.model_ids()[:5]]
        + [[f"probe noiseP/{a}", "DataError", "'noiseP' lacks 13 of 260 split ids"]
           for a in ("factor_00", "factor_01", "factor_02")]
    )
    assert all(e.endswith(" positive / 0 negative") for e in result.errors if ": attribute " in e)

    calls.clear()
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 20, 0])
    pipeline.run_dynamics(pipeline.load_config(roster["config"]), ckpts)
    assert len(calls) == 2 * 3


def test_probe_suite_where_every_probe_fails(roster, tmp_path):
    # every attribute single-class: no probe is fitted, so each map fits a
    # target of no columns, on the Cholesky path (200 train rows > every d)
    table = data.read_attribute_table(roster["dir"] / "attributes.txt")
    single = data.AttributeTable(names=table.names, ids=table.ids,
                                 values=np.ones_like(table.values))
    data.write_attribute_table(single, tmp_path / "single.txt")
    text = roster["config"].read_text() + f"attributes = {tmp_path / 'single.txt'}\n"
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    attributes = result.accuracy_grid.col_ids
    assert [e.split(": ")[0] for e in result.errors] == [
        f"probe {mid}/{attr}" for mid in cfg.model_ids() for attr in attributes]
    assert all(": DataError: attribute " in e and e.endswith(" positive / 0 negative")
               for e in result.errors)
    assert np.isnan(result.accuracy_grid.values).all()
    map_fits = json.loads((tmp_path / "suite" / "metadata.json").read_text())["map_fits"]
    assert {fit["solver"] for fit in map_fits} == {"cholesky"}


def test_split_ids_are_checked_once_per_dataset(roster, reordered_copy, tmp_path, monkeypatch):
    checked = []

    def counted(ds, ids):
        if len(ids) == n_split:
            checked.append(ds.model_id)
        return data.rows_of(ds, ids)

    monkeypatch.setattr(pipeline, "rows_of", counted)
    cfg = pipeline.load_config(_config_with_copy(roster, 200))
    n_split = cfg.split.n_train + cfg.split.n_holdout
    result = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    assert checked == cfg.model_ids()
    # noiseP lacks split ids: each of its probes still fails with its own line
    attributes = data.read_attribute_table(roster["dir"] / "attributes.txt").names
    assert [e for e in result.errors if e.startswith("probe ")] == [
        f"probe noiseP/{a}: DataError: 'noiseP' lacks 13 of 260 split ids" for a in attributes]

    checked.clear()
    cfg = pipeline.load_config(roster["config"])
    n_split = cfg.split.n_train + cfg.split.n_holdout
    pipeline.run_dynamics(cfg, make_checkpoints(tmp_path, roster["world"], [50, 20, 0]))
    assert checked == []  # every checkpoint holds the first one's ids


def test_probe_commands_gather_each_sets_split_rows_once(roster, tmp_path, monkeypatch):
    # a 150+60 split of 260 rows: each file is read once by its check (one
    # row block at d = 36), then its split rows are gathered once, while its
    # own probes train, and freed before the next set's are gathered
    gathers, held = {}, []
    getitem = data.FileRows.__getitem__

    def counted(rows, key):
        out = getitem(rows, key)
        gathers.setdefault(Path(rows.path).name, []).append(len(out))
        if len(out) == 210:
            assert all(ref() is None for ref in held), "another set's split rows are held"
            held.append(weakref.ref(out))
        return out

    monkeypatch.setattr(data.FileRows, "__getitem__", counted)
    text = roster["config"].read_text().replace("split.train = 200", "split.train = 150")
    cfg = pipeline.parse_config(text, base_dir=roster["dir"])
    result = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    assert result.errors == []
    # the stitched fits then read each source's 150 train rows from its file,
    # one row block per pass: every roster map has alpha 0, so each source
    # makes one fit, a pass for the means and one for the products
    assert gathers == {f"{mid}.lsf": [260, 210, 150, 150] for mid in cfg.model_ids()}

    gathers.clear()
    held.clear()
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 20, 0])
    pipeline.run_dynamics(cfg, ckpts)
    assert gathers == {p.name: [260, 210] for p in ckpts}


def test_probe_commands_sum_one_split_gram_per_model(roster, tmp_path, monkeypatch):
    # every roster probe has more rows than dimensions, so it runs in
    # covariance form: each model's (or checkpoint's) 200 train rows are
    # summed into one Gram, and each probe then sums the Gram of the split
    # rows its subset leaves out and its own rows' correlations with y
    calls = []
    real = probes.centered_products

    def counted(X, rows=None, **kwargs):
        calls.append((len(rows), "Y" in kwargs))
        return real(X, rows, **kwargs)

    monkeypatch.setattr(probes, "centered_products", counted)
    cfg = pipeline.load_config(roster["config"])
    result = pipeline.run_probe_suite(cfg, tmp_path / "suite")
    n_probes = len(result.report_rows)
    assert n_probes == 15 and result.errors == []
    per_class = {r["attribute"]: r["train_n_per_class"] for r in result.report_rows}
    subsets = sorted(2 * per_class[r["attribute"]] for r in result.report_rows)
    assert sorted(n for n, y in calls if y) == subsets
    assert sorted(n for n, y in calls if not y) == sorted([200] * 5 + [200 - s for s in subsets])

    calls.clear()
    ckpts = make_checkpoints(tmp_path, roster["world"], [50, 20, 0])
    pipeline.run_dynamics(cfg, ckpts)
    subsets = sorted(2 * n for n in per_class.values()) * 3
    assert sorted(n for n, y in calls if y) == sorted(subsets)
    assert sorted(n for n, y in calls if not y) == sorted([200] * 3 + [200 - s for s in subsets])


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
    are fewer than its 240 dimensions and every map from it takes the dual
    factor, min-norm when unregularized."""
    orth_a = data.read_latents(roster["dir"] / "orthA.lsf")
    noise = np.random.default_rng(4).standard_normal((orth_a.n, 204)).astype(np.float32)
    wide = data.LatentDataset(model_id="wide", ids=orth_a.ids, X=np.hstack([orth_a.X, noise]))
    data.write_latents(wide, roster["dir"] / "wide.lsf")
    return "model.wide.latents = wide.lsf\nprobe_alpha.wide = 0.001\n"


@pytest.fixture(scope="module")
def singular_source(roster):
    """Model `flat`: orthA's latents plus a zero column, so its 200 train rows
    outnumber its 37 dimensions but its Gram is singular: every unregularized
    map from it takes the min-norm lstsq fallback."""
    orth_a = data.read_latents(roster["dir"] / "orthA.lsf")
    flat = data.LatentDataset(model_id="flat", ids=orth_a.ids,
                              X=np.hstack([orth_a.X, np.zeros((orth_a.n, 1), np.float32)]))
    data.write_latents(flat, roster["dir"] / "flat.lsf")
    return "model.flat.latents = flat.lsf\nprobe_alpha.flat = 0.001\n"


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
        assert {solvers[f"wide->{t}"] for t in cfg.model_ids()} == {"eigh"}
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
        assert solvers["wide->orthA"] == "eigh"  # unregularized, 200 rows < 240 dims
        assert solvers["wide->orthB"] == "eigh"  # ridge, from the same dual factor
        assert solvers["orthA->wide"] == "cholesky"  # full-rank source
        assert solvers["noise->orthB"] == "cholesky"
    suite = json.loads((tmp_path / "suite" / "metadata.json").read_text())
    assert "stitched_probes" in suite


# --- stitch-grid shares one fit factor per source ----------------------------------


def _wide_roster_config(roster, wide_source, extra=""):
    text = roster["config"].read_text() + wide_source + extra
    return pipeline.parse_config(text, base_dir=roster["dir"])


def test_stitch_grid_maps_match_per_cell_fits(roster, wide_source, tmp_path):
    # The roster's own alphas, all 0. wide has 200 train rows for 240
    # dimensions, so its maps are min-norm and share one dual factor; every
    # other source's maps share one Cholesky factor, and equal fit-map's.
    cfg = _wide_roster_config(roster, wide_source)
    result = pipeline.run_stitch_grid(cfg, tmp_path)
    assert result.errors == []
    latents = {m.model_id: data.read_latents(m.latents_path) for m in cfg.models}
    train_ids = data.split_ids(latents["orthA"], cfg.split)[0]
    ids = cfg.model_ids()
    for src in ids:
        for dst in ids:
            want = pipeline.fit_pair_map(latents[src], latents[dst], 0.0, train_ids)
            got = mapfit.load_map(tmp_path / "maps" / f"{src}__{dst}.lmap")
            want_wb, got_wb = (np.column_stack([m.W, m.b]) for m in (want, got))
            assert got_wb.tobytes() == want_wb.tobytes(), (src, dst)

    meta = json.loads((tmp_path / "metadata.json").read_text())
    fits = meta["map_fits"]
    assert [(f["source"], f["alpha"], f["targets"]) for f in fits] == [(s, 0.0, ids) for s in ids]
    assert {f["source"]: f["solver"] for f in fits} == {
        s: "eigh" if s == "wide" else "cholesky" for s in ids}
    assert all(meta["map_solver"][f"{f['source']}->{t}"] == f["solver"]
               for f in fits for t in f["targets"])


@pytest.mark.parametrize("extra, groups", [
    ("", 5),  # one alpha per source: 25 fits, one factor per source
    ("alpha.noise.orthB = 10\nalpha.noise.rand = 3\nalpha.orthA.lossy = 10\n", 8),
], ids=["roster", "split-alphas"])
def test_stitch_grid_factors_each_cholesky_group_once(monkeypatch, roster, tmp_path, extra,
                                                     groups):
    cfg = pipeline.parse_config(roster["config"].read_text() + extra, base_dir=roster["dir"])
    solves = []
    original = linalg.spd_solve
    monkeypatch.setattr(linalg, "spd_solve", lambda a, b: solves.append(1) or original(a, b))
    assert pipeline.run_stitch_grid(cfg, tmp_path).errors == []
    fits = json.loads((tmp_path / "metadata.json").read_text())["map_fits"]
    assert [f["solver"] for f in fits] == ["cholesky"] * groups
    assert len(solves) == groups
    monkeypatch.setattr(linalg, "spd_solve", original)
    latents = {m.model_id: data.read_latents(m.latents_path) for m in cfg.models}
    train_ids = data.split_ids(latents["orthA"], cfg.split)[0]
    for src in cfg.model_ids():
        for dst in cfg.model_ids():
            alpha = pipeline.resolve_map_alpha(cfg, src, dst)
            want = pipeline.fit_pair_map(latents[src], latents[dst], alpha, train_ids)
            got = mapfit.load_map(tmp_path / "maps" / f"{src}__{dst}.lmap")
            assert got.alpha == alpha
            assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()


def test_stitch_grid_map_fits_split_by_alpha(roster, wide_source, tmp_path):
    cfg = _wide_roster_config(roster, wide_source, "alpha.wide.orthB = 10\n")
    pipeline.run_stitch_grid(cfg, tmp_path)
    fits = json.loads((tmp_path / "metadata.json").read_text())["map_fits"]
    wide = [f for f in fits if f["source"] == "wide"]
    cutoffs = {f.pop("cutoff") for f in wide}
    assert len(cutoffs) == 1 and cutoffs.pop() > 0  # one factor for both groups
    assert wide == [
        {"source": "wide", "alpha": 0.0, "targets": ["orthA", "lossy", "rand", "noise", "wide"],
         "solver": "eigh", "rank": 199},
        {"source": "wide", "alpha": 10.0, "targets": ["orthB"], "solver": "eigh", "rank": 199},
    ]
    assert len(fits) == 7


# wide's targets in three alpha groups: 0 (orthA, lossy, rand, wide), 10 and 3
THREE_WIDE_GROUPS = "alpha.wide.orthB = 10\nalpha.wide.noise = 3\n"


@pytest.mark.parametrize("command", ["stitch-grid", "probe-suite"])
def test_each_narrow_source_is_factored_once(monkeypatch, roster, wide_source, tmp_path,
                                              command):
    cfg = _wide_roster_config(roster, wide_source, THREE_WIDE_GROUPS)
    factored = []
    original = mapfit._dual_factor

    def counting(X, rows):
        factored.append((len(rows), X.shape[1]))
        return original(X, rows)

    monkeypatch.setattr(mapfit, "_dual_factor", counting)
    run = {"stitch-grid": pipeline.run_stitch_grid, "probe-suite": pipeline.run_probe_suite}
    assert run[command](cfg, tmp_path).errors == []
    assert factored == [(200, 240)]  # wide, the one source with n <= d
    fits = json.loads((tmp_path / "metadata.json").read_text())["map_fits"]
    assert [f["alpha"] for f in fits if f["source"] == "wide"] == [0.0, 10.0, 3.0]


@pytest.mark.parametrize("dst, alpha", [("orthA", 0.0), ("orthB", 10.0)])
def test_fit_map_writes_stitch_grid_bytes_for_a_narrow_source(roster, wide_source,
                                                             singular_source, tmp_path,
                                                             dst, alpha):
    # also from a singular n > d source, whose maps to orthA and orthB are
    # both min-norm: one shared pseudo-inverse gives the bytes of fit-map's own
    cfg_path = roster["dir"] / "three_wide_groups.cfg"
    cfg_path.write_text(roster["config"].read_text() + wide_source + singular_source
                        + THREE_WIDE_GROUPS)
    assert cli.main(["stitch-grid", "--config", str(cfg_path), "--out", str(tmp_path / "grid")]) == 0
    for src, src_alpha in (("wide", alpha), ("flat", 0.0)):
        assert cli.main(["fit-map", "--config", str(cfg_path), "--src", src, "--dst", dst,
                         "--out", str(tmp_path / "map")]) == 0
        name = f"{src}__{dst}.lmap"
        assert mapfit.load_map(tmp_path / "map" / name).alpha == src_alpha
        assert ((tmp_path / "map" / name).read_bytes()
                == (tmp_path / "grid" / "maps" / name).read_bytes())
    # the flat group records the rank and cutoff of eigh on the same Gram
    cfg = pipeline.load_config(cfg_path)
    flat = data.read_latents(roster["dir"] / "flat.lsf")
    rows = data.rows_of(flat, data.split_ids(data.read_latents(roster["dir"] / "orthA.lsf"),
                                             cfg.split)[0])
    xc = flat.X[rows].astype(np.float64)
    xc -= xc.mean(axis=0)
    lam = np.linalg.eigvalsh(xc.T @ xc)
    fits = json.loads((tmp_path / "grid" / "metadata.json").read_text())["map_fits"]
    (group,) = [f for f in fits if f["source"] == "flat"]
    assert (group["solver"], group["rank"]) == ("lstsq", (lam > linalg.eig_cutoff(lam)).sum())
    assert group["cutoff"] == pytest.approx(linalg.eig_cutoff(lam), rel=1e-12)


def test_probe_suite_map_fits_equal_stitch_grid_map_fits(roster, wide_source, singular_source,
                                                        tmp_path):
    # both commands take their maps from one step, so they record the same
    # fits: wide's eigh groups at three alphas, the full-rank sources'
    # cholesky groups and flat's lstsq group, with rank and cutoff
    cfg = _wide_roster_config(roster, wide_source, singular_source + THREE_WIDE_GROUPS)
    assert pipeline.run_stitch_grid(cfg, tmp_path / "grid").errors == []
    assert pipeline.run_probe_suite(cfg, tmp_path / "suite").errors == []
    grid, suite = (json.loads((tmp_path / command / "metadata.json").read_text())
                   for command in ("grid", "suite"))
    assert [f["solver"] for f in grid["map_fits"]] == ["cholesky"] * 5 + ["eigh"] * 3 + ["lstsq"]
    assert all("rank" in f and "cutoff" in f for f in grid["map_fits"] if f["solver"] != "cholesky")
    assert suite["map_fits"] == grid["map_fits"]
    assert suite["map_solver"] == grid["map_solver"]


@pytest.mark.parametrize("command, cell", [("stitch-grid", "wide->orthB"),
                                           ("probe-suite", "map wide->orthB")])
def test_out_of_memory_fails_only_its_pairs(monkeypatch, roster, wide_source, tmp_path,
                                            command, cell):
    # wide's alpha = 10 group holds orthB alone; its fit runs out of memory
    cfg = _wide_roster_config(roster, wide_source, THREE_WIDE_GROUPS)
    original = pipeline.fit_ridge

    def starved(X, Y, alpha, **kwargs):
        if kwargs["source_model"] == "wide" and alpha == 10.0:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return original(X, Y, alpha, **kwargs)

    monkeypatch.setattr(pipeline, "fit_ridge", starved)
    run = {"stitch-grid": pipeline.run_stitch_grid, "probe-suite": pipeline.run_probe_suite}
    result = run[command](cfg, tmp_path)
    assert result.errors == [f"{cell}: DataError: out of memory: Unable to allocate 1.00 TiB"]
    fits = json.loads((tmp_path / "metadata.json").read_text())["map_fits"]
    assert [f["alpha"] for f in fits if f["source"] == "wide"] == [0.0, 3.0]


def _check_gappy_model_fails_only_its_cells(roster, wide_source, tmp_path, gone):
    """A copy of noise without the rows `gone`, as model `gappy`, fails each of
    its cells and leaves every other cell's map and map_fits entry as it is."""
    noise = data.read_latents(roster["dir"] / "noise.lsf")
    keep = [i for i in range(noise.n) if i not in gone]
    gappy = data.LatentDataset(model_id="gappy", ids=[noise.ids[i] for i in keep], X=noise.X[keep])
    data.write_latents(gappy, tmp_path / "gappy.lsf")
    without = _wide_roster_config(roster, wide_source)
    with_gappy = _wide_roster_config(roster, wide_source,
                                     f"model.gappy.latents = {tmp_path / 'gappy.lsf'}\n")
    assert pipeline.run_stitch_grid(without, tmp_path / "without").errors == []
    result = pipeline.run_stitch_grid(with_gappy, tmp_path / "with")
    ids = with_gappy.model_ids()
    assert [e.split(":")[0] for e in result.errors] == [
        f"{s}->{t}" for s in ids for t in ids if "gappy" in (s, t)]
    assert all(": DataError: 'gappy' lacks " in e for e in result.errors)
    # the other targets of each group fit exactly as without the model
    maps = sorted((tmp_path / "without" / "maps").glob("*.lmap"))
    assert len(maps) == 36
    for path in maps:
        assert path.read_bytes() == (tmp_path / "with" / "maps" / path.name).read_bytes()
    assert not list((tmp_path / "with" / "maps").glob("*gappy*.lmap"))
    fits = json.loads((tmp_path / "with" / "metadata.json").read_text())["map_fits"]
    assert all(f["source"] != "gappy" and "gappy" not in f["targets"] for f in fits)


def test_stitch_grid_model_missing_train_ids_fails_only_its_cells(roster, wide_source, tmp_path):
    _check_gappy_model_fails_only_its_cells(roster, wide_source, tmp_path, gone=(3, 150))


def test_stitch_grid_model_missing_holdout_ids_fails_only_its_cells(roster, wide_source, tmp_path):
    # gappy's maps fit, but no cell of it maps or scores the holdout: none is
    # written, so none may be listed as fitted
    _check_gappy_model_fails_only_its_cells(roster, wide_source, tmp_path, gone=(205, 250))
