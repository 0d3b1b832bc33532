import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import latentstitch
from latentstitch import cli, data, metrics, pipeline
from latentstitch.data import LatentDataset, read_latents, write_latents


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = cli.main([
        "synth-gen", "--out", str(out), "--seed", "3",
        "--n", "260", "--k", "3", "--dpix", "36",
    ])
    assert code == 0
    return out


def test_synth_gen_outputs(generated):
    for name in ("pixels.lsf", "attributes.txt", "manifest.txt", "experiment.cfg",
                 "orthA.lsf", "orthB.lsf", "lossy.lsf", "rand.lsf", "noise.lsf"):
        assert (generated / name).is_file(), name
    cfg = pipeline.load_config(generated / "experiment.cfg")
    assert len(cfg.models) == 5
    pipeline.validate_paths(cfg, need_pixels=True, need_attributes=True)


def test_cli_stitch_grid_and_probe_suite(generated, tmp_path):
    out = tmp_path / "grid"
    assert cli.main(["stitch-grid", "--config", str(generated / "experiment.cfg"),
                     "--out", str(out)]) == 0
    for name in ("latent_mse", "pixel_rmse", "fid"):
        assert (out / f"{name}.csv").is_file()
    out2 = tmp_path / "suite"
    assert cli.main(["probe-suite", "--config", str(generated / "experiment.cfg"),
                     "--out", str(out2)]) == 0
    assert (out2 / "match_grid.csv").is_file()


def test_cli_fit_map_and_train_probe(generated, tmp_path, capsys):
    out = tmp_path / "fit"
    assert cli.main(["fit-map", "--config", str(generated / "experiment.cfg"),
                     "--out", str(out), "--src", "orthA", "--dst", "orthB"]) == 0
    assert (out / "orthA__orthB.lmap").is_file()
    printed = capsys.readouterr().out
    assert "latent mse" in printed
    assert cli.main(["train-probe", "--config", str(generated / "experiment.cfg"),
                     "--out", str(out), "--model", "orthA", "--attribute", "factor_00"]) == 0
    assert (out / "orthA__factor_00.lprb").is_file()


def test_cli_dynamics(generated, tmp_path):
    out = tmp_path / "dyn"
    ckpts = [str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    code = cli.main([
        "dynamics", "--config", str(generated / "experiment.cfg"), "--out", str(out),
        "--checkpoints", *ckpts, "--labels", "1,6",
    ])
    assert code == 0
    text = (out / "dynamics.csv").read_text()
    assert text.splitlines()[0] == "attribute,1,6,plateau_epoch"
    # identical checkpoints: constant series plateaus at the first label
    assert all(line.endswith(",1") for line in text.splitlines()[1:])


@pytest.mark.parametrize("command", ["probe-suite", "dynamics", "train-probe"])
def test_cli_unknown_attribute_is_a_config_error(generated, tmp_path, capsys, command):
    # the generated config with absolute file paths, plus a subset naming a missing attribute
    text = re.sub(r"^(pixels|attributes|model\.\w+\.latents) = ", rf"\g<0>{generated}/",
                  (generated / "experiment.cfg").read_text(), flags=re.M)
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(text + "attributes.subset = factor_00,nosuch\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "dynamics":
        args += ["--checkpoints", str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    if command == "train-probe":
        args += ["--model", "orthA", "--attribute", "nosuch"]
    assert cli.main(args) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_fid_and_rmse(generated, capsys):
    pix = str(generated / "pixels.lsf")
    assert cli.main(["fid", pix, pix]) == 0
    assert float(capsys.readouterr().out.strip()) <= 1e-8
    assert cli.main(["rmse", pix, pix]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_cli_rmse_on_reordered_export_scores_aligned_rows(tmp_path, capsys):
    # a reordered 95% export of 1,100 rows x 1,024 columns spans two blocks;
    # scoring through align's row index arrays equals scoring aligned copies
    rng = np.random.default_rng(6)
    ids = [f"{i:06d}" for i in range(1100)]
    images = data.ImageDataset(ids=ids, pixels=rng.random((1100, 1024), dtype=np.float32),
                               height=32, width=32, channels=1)
    keep = rng.permutation(1100)[:1045]
    noisy = images.pixels[keep] + rng.normal(0, 0.1, (1045, 1024)).astype(np.float32)
    export = LatentDataset(model_id="export", ids=[ids[i] for i in keep], X=noisy)
    data.write_images(images, tmp_path / "pixels.lsf")
    write_latents(export, tmp_path / "export.lsf")
    pixels = read_latents(tmp_path / "pixels.lsf")
    a, b = data.align(export, pixels)
    expected = metrics.pixel_rmse(a.X, b.X)
    rows = data.align(export, pixels, as_rows=True)
    assert metrics.pixel_rmse(export, pixels, rows=rows) == expected
    assert cli.main(["rmse", str(tmp_path / "export.lsf"), str(tmp_path / "pixels.lsf")]) == 0
    assert capsys.readouterr().out == f"{expected:.9g}\n"


def test_cli_exit_code_config_error(tmp_path):
    assert cli.main(["stitch-grid", "--config", str(tmp_path / "ghost.cfg"),
                     "--out", str(tmp_path)]) == 1


def test_cli_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.lsf"
    bad.write_bytes(b"not an lsf file at all")
    assert cli.main(["fid", str(bad), str(bad)]) == 2


def test_cli_exit_code_numerical_error(generated, tmp_path):
    # starved iteration budget forces NoConvergence
    code = cli.main([
        "train-probe", "--config", str(generated / "experiment.cfg"),
        "--out", str(tmp_path), "--model", "rand", "--attribute", "factor_00",
        "--alpha", "0.0001", "--tol", "1e-14", "--max-iter", "1",
    ])
    assert code == 3


def test_cli_seed_override_changes_subsets(generated, tmp_path):
    # same command, different --seed: balanced subsets (and hence accuracies) differ
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert cli.main(["probe-suite", "--config", str(generated / "experiment.cfg"),
                         "--out", str(out), "--seed", seed]) == 0
        outs.append((out / "probe_report.csv").read_text())
    assert outs[0] != outs[1]


def test_cli_rejects_negative_seed(generated, tmp_path):
    assert cli.main(["probe-suite", "--config", str(generated / "experiment.cfg"),
                     "--out", str(tmp_path), "--seed", "-4"]) == 1


def test_cli_runs_without_scipy(tmp_path):
    """NumPy is the only runtime dependency: with every `import scipy` failing,
    synth-gen, fit-map (an SPD solve) and fid all exit 0."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from latentstitch import cli
        gen, fit = sys.argv[1], sys.argv[2]
        codes = [
            cli.main(["synth-gen", "--out", gen, "--seed", "3",
                      "--n", "260", "--k", "3", "--dpix", "36"]),
            cli.main(["fit-map", "--config", gen + "/experiment.cfg", "--out", fit,
                      "--src", "orthA", "--dst", "orthB", "--alpha", "1"]),
            cli.main(["fid", gen + "/pixels.lsf", gen + "/pixels.lsf"]),
        ]
        print("exit codes", codes)
    """)
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "gen"), str(tmp_path / "fit")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0]", proc.stdout + proc.stderr


def test_cli_fid_fewer_samples_than_dims_matches_brute_force(tmp_path, capsys):
    rng = np.random.default_rng(12)
    paths = []
    for name, n, d in (("a", 40, 96), ("b", 55, 96), ("c", 40, 80)):
        path = tmp_path / f"{name}.lsf"
        ids = [f"{name}{i:03d}" for i in range(n)]
        write_latents(LatentDataset(model_id=name, ids=ids,
                                    X=rng.standard_normal((n, d)).astype(np.float32)), path)
        paths.append(str(path))
    x = read_latents(paths[0]).X.astype(np.float64)
    y = read_latents(paths[1]).X.astype(np.float64)
    ax = (x - x.mean(axis=0)) / np.sqrt(len(x) - 1)
    ay = (y - y.mean(axis=0)) / np.sqrt(len(y) - 1)
    diff = x.mean(axis=0) - y.mean(axis=0)
    brute = (diff @ diff + np.sum(ax * ax) + np.sum(ay * ay)
             - 2.0 * np.linalg.svd(ax @ ay.T, compute_uv=False).sum())
    assert cli.main(["fid", paths[0], paths[1]]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == f"{brute:.9g}"
    assert cli.main(["fid", paths[0], paths[2]]) == 2
    assert "dimension mismatch: 96 vs 80" in capsys.readouterr().err


def test_cli_fid_mixed_sample_counts_matches_brute_force(tmp_path, capsys):
    # one LSF with fewer rows than columns, one with more: no ridge moves the value
    rng = np.random.default_rng(13)
    paths, rows = [], []
    for name, n in (("few", 40), ("many", 150)):
        x = rng.standard_normal((n, 96)).astype(np.float32)
        ids = [f"{name}{i:03d}" for i in range(n)]
        path = tmp_path / f"{name}.lsf"
        write_latents(LatentDataset(model_id=name, ids=ids, X=x), path)
        paths.append(str(path))
        rows.append(x.astype(np.float64))
    ax, ay = ((r - r.mean(axis=0)) / np.sqrt(len(r) - 1) for r in rows)
    diff = rows[0].mean(axis=0) - rows[1].mean(axis=0)
    brute = (diff @ diff + np.sum(ax * ax) + np.sum(ay * ay)
             - 2.0 * np.linalg.svd(ax @ ay.T, compute_uv=False).sum())
    for args in (paths, paths[::-1]):
        assert cli.main(["fid", *args]) == 0
        assert capsys.readouterr().out.strip() == f"{brute:.9g}"
