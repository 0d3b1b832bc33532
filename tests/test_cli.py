import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentstitch
from latentstitch import cli, data, mapfit, metrics, pipeline
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
    latents, split, attributes, subsets = pipeline.read_run(
        cfg, [m.latents_path for m in cfg.models], attributes=(None, "attributes.subset"),
        extra=(cfg.pixels_path,))
    assert [ds.model_id for ds in latents] == cfg.model_ids()
    assert list(subsets) == attributes and all(isinstance(s, tuple) for s in subsets.values())


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


@pytest.mark.parametrize("src, dst, mapped", [
    ("noise", "orthA", 1),  # full rank: the train MSE comes from the normal equations
    ("orthA", "orthB", 2),  # rank k plus float32 rounding: its train rows are mapped
    ("noise", "noise", 2),  # an exact self map: no residual to take a difference of
])
def test_fit_map_train_mse_equals_that_of_its_mapped_rows(generated, tmp_path, capsys,
                                                          monkeypatch, src, dst, mapped):
    scored = []
    monkeypatch.setattr(cli, "mapped_mse", lambda *a: scored.append(1) or mapfit.mapped_mse(*a))
    assert cli.main(["fit-map", "--config", str(generated / "experiment.cfg"),
                     "--out", str(tmp_path), "--src", src, "--dst", dst]) == 0
    assert len(scored) == mapped
    printed = capsys.readouterr().out.splitlines()[-1]
    cfg = pipeline.load_config(generated / "experiment.cfg")
    x, y = (read_latents(cfg.entry(m).latents_path) for m in (src, dst))
    train_ids = data.split_ids(x, cfg.split)[0]
    m = mapfit.load_map(tmp_path / f"{src}__{dst}.lmap")
    train = mapfit.mapped_mse(m, x.X, y.X, (data.rows_of(x, train_ids), data.rows_of(y, train_ids)))
    assert printed.startswith(f"latent mse: train={train:.9g} holdout=")


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


def _config_copy(generated, tmp_path, extra: str) -> Path:
    """The generated config with absolute file paths, plus the extra lines."""
    text = re.sub(r"^(pixels|attributes|model\.\w+\.latents) = ", rf"\g<0>{generated}/",
                  (generated / "experiment.cfg").read_text(), flags=re.M)
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(text + extra)
    return cfg


@pytest.mark.parametrize("command", ["probe-suite", "dynamics", "train-probe"])
def test_cli_unknown_attribute_is_a_config_error(generated, tmp_path, capsys, command):
    cfg = _config_copy(generated, tmp_path, "attributes.subset = factor_00,nosuch\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "dynamics":
        args += ["--checkpoints", str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    if command == "train-probe":
        args += ["--model", "orthA", "--attribute", "nosuch"]
    assert cli.main(args) == 1
    assert "config error" in capsys.readouterr().err


COMMAND_FLAGS = {
    "fit-map": ["--src", "orthA", "--dst", "noise"],
    "train-probe": ["--model", "orthA", "--attribute", "factor_00"],
}


@pytest.mark.parametrize("command, fault, code", [
    ("probe-suite", "pixels", 0),
    ("probe-suite", "lpips", 0),
    ("stitch-grid", "attributes", 0),
    ("fit-map", "model.lossy.latents", 0),
    ("train-probe", "model.lossy.latents", 0),
    ("train-probe", "attributes", 1),
    ("dynamics", "attributes", 1),
    ("dynamics", "checkpoint", 1),
])
def test_config_command_checks_exactly_the_files_it_reads(generated, tmp_path, capsys, command,
                                                          fault, code):
    # one missing file: a command that never opens it runs as if it were not
    # named, and one that reads it names it before --out is made
    ghost = tmp_path / "nosuch.lsf"
    cfg = _config_copy(generated, tmp_path, "" if fault == "checkpoint" else f"{fault} = {ghost}\n")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out), *COMMAND_FLAGS.get(command, [])]
    if command == "dynamics":
        args += ["--checkpoints", str(generated / "noise.lsf"),
                 str(ghost if fault == "checkpoint" else generated / "noise.lsf")]
    assert cli.main(args) == code
    first = capsys.readouterr().err.partition("\n")[0]
    assert first == ("" if code == 0 else f"config error: missing input files: {ghost}")
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("command, message", [
    ("probe-suite", "config needs an attributes path for this command"),
    ("dynamics", "config needs an attributes path for this command"),
    ("train-probe", "config needs an attributes path for this command"),
    ("stitch-grid", "config defines no models"),
    ("probe-suite", "config defines no models"),
])
def test_config_without_a_needed_key_names_it(generated, tmp_path, capsys, command, message):
    key = "attributes" if "attributes" in message else r"model\.\w+\.\w+"
    text = re.sub(rf"^{key} = .*\n", "", _config_copy(generated, tmp_path, "").read_text(),
                  flags=re.M)
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(text)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out"),
            *COMMAND_FLAGS.get(command, [])]
    if command == "dynamics":
        args += ["--checkpoints", str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.partition("\n")[0] == f"config error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["probe-suite", "dynamics"])
def test_cli_repeated_attribute_is_a_config_error(generated, tmp_path, capsys, command):
    cfg = _config_copy(generated, tmp_path, "attributes.subset = factor_00,factor_01,factor_00\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "dynamics":
        args += ["--checkpoints", str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "config error: attributes.subset names an attribute more than once: ['factor_00']" in err
    assert not (tmp_path / "out" / "probe_accuracy_grid.csv").exists()
    assert not (tmp_path / "out" / "dynamics.csv").exists()


@pytest.mark.parametrize("subset", ["factor_00,nosuch", "factor_00,factor_00"],
                         ids=["unknown", "repeated"])
def test_probe_suite_config_error_makes_no_probes_dir(generated, tmp_path, subset):
    cfg = _config_copy(generated, tmp_path, f"attributes.subset = {subset}\n")
    assert cli.main(["probe-suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "probes").exists()


@pytest.mark.parametrize("side", ["train", "holdout"])
@pytest.mark.parametrize("command", ["fit-map", "stitch-grid", "probe-suite"])
def test_cli_empty_split_side_is_a_config_error(generated, tmp_path, capsys, command, side):
    # a later key wins, so this overrides the generated split size
    cfg = _config_copy(generated, tmp_path, f"split.{side} = 0\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "fit-map":
        args += ["--src", "orthA", "--dst", "orthB"]
    assert cli.main(args) == 1
    assert "config error: split sizes must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FIT_MAP = ["fit-map", "--src", "orthA", "--dst", "orthB"]
TRAIN_PROBE = ["train-probe", "--model", "orthA", "--attribute", "factor_00"]


@pytest.mark.parametrize("args", [
    FIT_MAP + ["--alpha", "nan"],
    FIT_MAP + ["--alpha", "inf"],
    FIT_MAP + ["--alpha=-1"],
    TRAIN_PROBE + ["--alpha", "nan"],
    TRAIN_PROBE + ["--tol", "nan"],
    TRAIN_PROBE + ["--tol", "inf"],
    TRAIN_PROBE + ["--tol", "0"],
    TRAIN_PROBE + ["--tol=-1"],
    TRAIN_PROBE + ["--max-iter", "0"],
    ["synth-gen", "--probe-alpha", "nan"],
    ["synth-gen", "--probe-alpha", "inf"],
    ["synth-gen", "--probe-alpha=-0.5"],
    ["synth-gen", "--n", "0"],
    ["synth-gen", "--n", "1"],  # its config would have no train rows
    ["synth-gen", "--k", "0"],
    ["synth-gen", "--dpix", "0"],
    ["synth-gen", "--dpix", "4", "--k", "8"],
    ["synth-gen", "--noise-t=-1"],
    ["synth-gen", "--noise-t", "51"],
], ids=" ".join)
def test_cli_bad_numeric_flag_is_a_config_error(generated, tmp_path, capsys, args):
    # rejected before anything is fitted or written
    if args[0] != "synth-gen":
        args = args + ["--config", str(generated / "experiment.cfg")]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model_id", ["a-b", "a.b", "a,b", "a>b", "", "pixels"])
def test_synth_gen_rejects_a_model_id_its_config_would(tmp_path, capsys, model_id):
    # the written config could not be loaded, so nothing is written
    out = tmp_path / "out"
    assert cli.main(["synth-gen", "--out", str(out), "--n", "40", "--k", "2", "--dpix", "8",
                     "--model", f"{model_id}=orthogonal:seed=1,d=8,dpix=8"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    # the default roster's lossy model keeps rank max(1, k // 2), which must be < k
    ["--n", "50", "--k", "1", "--dpix", "16"],
    # a non-square dpix is stored as an (dpix, 1, 1) image, and H is a u16 field
    ["--n", "3", "--k", "1", "--dpix", "70001", "--model", "a=random:seed=1,d=4"],
], ids=["default-roster-k1", "dpix-beyond-u16"])
def test_synth_gen_that_cannot_finish_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert cli.main(["synth-gen", "--out", str(out), *flags]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, code", [("latents", 2), ("attributes", 2), ("config", 1)])
def test_cli_invalid_utf8_exits_with_its_code(generated, tmp_path, capsys, kind, code):
    cfg = _config_copy(generated, tmp_path, "")
    if kind == "latents":
        # an id whose bytes are not UTF-8, at the same length as the one it replaces
        raw = (generated / "orthA.lsf").read_bytes()
        sid = read_latents(generated / "orthA.lsf").ids[3].encode()
        (tmp_path / "orthA.lsf").write_bytes(raw.replace(sid, b"\xff" * len(sid), 1))
        cfg.write_text(cfg.read_text() + f"model.orthA.latents = {tmp_path / 'orthA.lsf'}\n")
    elif kind == "attributes":
        text = (generated / "attributes.txt").read_bytes()
        (tmp_path / "attrs.txt").write_bytes(text.replace(b"factor_00", b"factor_\xc3\x28", 1))
        cfg.write_text(cfg.read_text() + f"attributes = {tmp_path / 'attrs.txt'}\n")
    else:
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
    args = TRAIN_PROBE + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert ("config error" if code == 1 else "data error") in err and "utf-8" in err.lower()


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
    images = LatentDataset(model_id=data.PIXEL_MODEL_ID, ids=ids,
                           X=rng.random((1100, 1024), dtype=np.float32))
    keep = rng.permutation(1100)[:1045]
    noisy = images.X[keep] + rng.normal(0, 0.1, (1045, 1024)).astype(np.float32)
    export = LatentDataset(model_id="export", ids=[ids[i] for i in keep], X=noisy)
    data.write_images(images, tmp_path / "pixels.lsf", (32, 32, 1))
    write_latents(export, tmp_path / "export.lsf")
    pixels = read_latents(tmp_path / "pixels.lsf")
    ia, ib = data.align(export, pixels)
    expected = metrics.pixel_rmse(export.X[ia], pixels.X[ib])
    assert metrics.pixel_rmse(export, pixels, rows=(ia, ib)) == expected
    assert cli.main(["rmse", str(tmp_path / "export.lsf"), str(tmp_path / "pixels.lsf")]) == 0
    assert capsys.readouterr().out == f"{expected:.9g}\n"


def test_cli_exit_code_config_error(tmp_path):
    assert cli.main(["stitch-grid", "--config", str(tmp_path / "ghost.cfg"),
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, message", [
    (["stitch-grid", "--out", "x"],
     "latentstitch stitch-grid: the following arguments are required: --config"),
    (["fit-map", "--config", "c", "--out", "x", "--src", "a", "--dst", "b", "--alpha", "abc"],
     "latentstitch fit-map: argument --alpha: invalid float value: 'abc'"),
    (["nosuch"], "latentstitch: argument command: invalid choice: 'nosuch'"),
], ids=["missing-flag", "non-numeric", "unknown-subcommand"])
def test_cli_usage_error_is_a_config_error(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stopped:
        cli.main(["stitch-grid", "-h"])
    assert stopped.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
def test_cli_out_of_memory_is_a_data_error(tmp_path):
    """fit-map of 10 train rows at d = 60,000 asks for a 60,000 x 60,000
    float64 map (28.8 GB); under a 4 GiB address-space limit that request
    fails at once, so the child allocates nothing large."""
    rng = np.random.default_rng(2)
    ids = [f"{i:02d}" for i in range(12)]
    for name in ("a", "b"):
        write_latents(LatentDataset(model_id=name, ids=ids,
                                    X=rng.standard_normal((12, 60_000), dtype=np.float32)),
                      tmp_path / f"{name}.lsf")
    (tmp_path / "experiment.cfg").write_text(
        "split.train = 10\nsplit.holdout = 2\n"
        "model.a.latents = a.lsf\nmodel.b.latents = b.lsf\n")
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        from latentstitch import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", script, "fit-map", "--config", str(tmp_path / "experiment.cfg"),
         "--out", str(tmp_path / "fit"), "--src", "a", "--dst", "b"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath, **one_thread),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error: out of memory: "), proc.stderr
    assert "(60000, 60000)" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("labels", ["a,a", "a,"])
def test_cli_dynamics_rejects_empty_or_repeated_labels(generated, tmp_path, capsys, labels):
    ckpts = [str(generated / "noise.lsf"), str(generated / "noise.lsf")]
    assert cli.main(["dynamics", "--config", str(generated / "experiment.cfg"),
                     "--out", str(tmp_path / "dyn"), "--checkpoints", *ckpts,
                     "--labels", labels]) == 1
    assert "config error: checkpoint labels must be non-empty and distinct" in (
        capsys.readouterr().err)
    assert not (tmp_path / "dyn" / "dynamics.csv").exists()


def test_cli_dynamics_reports_a_failed_draw_before_any_warning(generated, tmp_path):
    # a one-class attribute cannot be drawn balanced, and the checkpoints'
    # space has no probe alpha: the run's first stderr line is the data
    # error, not the fallback-alpha warning. The child's stderr is read
    # whole, as the CLI's logging writes it.
    attr_lines = (generated / "attributes.txt").read_text().splitlines()
    rows = [" ".join([ln.split()[0], "1", *ln.split()[2:]]) for ln in attr_lines[2:]]
    (tmp_path / "attributes.txt").write_text("\n".join(attr_lines[:2] + rows) + "\n")
    cfg = _config_copy(generated, tmp_path, f"attributes = {tmp_path / 'attributes.txt'}\n"
                                            "attributes.subset = factor_00\n")
    noise = read_latents(generated / "noise.lsf")
    ckpts = [str(tmp_path / f"ckpt{i}.lsf") for i in range(2)]
    for path in ckpts:
        write_latents(LatentDataset(model_id="ckpt", ids=noise.ids, X=noise.X[:]), path)
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from latentstitch import cli; sys.exit(cli.main())",
         "dynamics", "--config", str(cfg), "--out", str(tmp_path / "dyn"),
         "--checkpoints", *ckpts],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error: "), proc.stderr
    assert "no probe alpha configured" not in proc.stderr


def test_cli_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.lsf"
    bad.write_bytes(b"not an lsf file at all")
    assert cli.main(["fid", str(bad), str(bad)]) == 2


@pytest.mark.parametrize("command", ["fit-map", "fid", "rmse"])
@pytest.mark.parametrize("damage, message", [
    ("nan-last-row", "latents for 'b' contain NaN or Inf"),
    ("truncated", r"expected \d+ bytes, \d+ left"),
    ("trailing", "2 bytes after the end of the record"),
])
def test_cli_bad_file_is_a_data_error_before_any_output(tmp_path, capsys, command, damage,
                                                        message):
    # 1,100 x 1,024 sets: the payload spans two chunks of the finiteness check.
    # The damaged file is read second, after a good one.
    rng = np.random.default_rng(31)
    ids = [f"{i:06d}" for i in range(1100)]
    for name in ("a", "b"):
        write_latents(LatentDataset(model_id=name, ids=ids,
                                    X=rng.random((1100, 1024), dtype=np.float32)),
                      tmp_path / f"{name}.lsf")
    bad = tmp_path / "b.lsf"
    raw = bytearray(bad.read_bytes())
    if damage == "nan-last-row":
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    elif damage == "truncated":
        del raw[-100:]
    else:
        raw += b"\0\0"
    bad.write_bytes(bytes(raw))
    (tmp_path / "experiment.cfg").write_text(
        "model.a.latents = a.lsf\nmodel.b.latents = b.lsf\nsplit.train = 1000\nsplit.holdout = 100\n")
    argv = {"fit-map": ["fit-map", "--config", str(tmp_path / "experiment.cfg"),
                        "--out", str(tmp_path / "fit"), "--src", "a", "--dst", "b"],
            "fid": ["fid", str(tmp_path / "a.lsf"), str(bad)],
            "rmse": ["rmse", str(tmp_path / "a.lsf"), str(bad)]}[command]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.match(f"data error: {re.escape(str(bad))}: {message}", err), err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("command", ["stitch-grid", "probe-suite"])
@pytest.mark.parametrize("fault", ["truncated-latents", "truncated-pixels", "short-first-model"])
def test_grid_command_input_error_makes_no_out_dir(generated, tmp_path, capsys, command, fault):
    # each input is read and checked before --out is made. probe-suite reads
    # no pixel file, so a truncated one is no error of its run
    bad = tmp_path / "bad.lsf"
    if fault == "short-first-model":  # 200 rows for the config's 234 + 26 split
        orth_a = read_latents(generated / "orthA.lsf")
        write_latents(data.take(orth_a, np.arange(200)), bad)
        key, message = "model.orthA.latents", "data error: need 234+26 rows, dataset has 200"
    else:
        key, name = {"truncated-latents": ("model.orthB.latents", "orthB.lsf"),
                     "truncated-pixels": ("pixels", "pixels.lsf")}[fault]
        bad.write_bytes((generated / name).read_bytes()[:-100])
        message = f"data error: {bad}: expected "
    cfg = _config_copy(generated, tmp_path, f"{key} = {bad}\n")
    out = tmp_path / "out"
    code = 0 if (command, fault) == ("probe-suite", "truncated-pixels") else 2
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith(message)
    assert out.exists() == (code == 0)


def test_cli_exit_code_numerical_error(generated, tmp_path):
    # a starved iteration budget stops the lasso short of convergence
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
    # the config's own seed line, which reached NumPy's seeding as a ValueError
    cfg = _config_copy(generated, tmp_path, "seed = -1\n")
    assert cli.main(["probe-suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


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


def _resident_growth_mb(*argv) -> float:
    """Run cli.main(argv) in a child process with one BLAS thread, require
    exit 0, and return the growth of the child's peak resident set over its
    post-import baseline, in MB. tracemalloc cannot see that peak: LAPACK's
    working copies are malloc'd outside it. The child reads its peak as
    VmHWM, the ru_maxrss of its own address space: ru_maxrss itself keeps the
    forking test process's peak across exec."""
    script = textwrap.dedent("""
        import sys
        from latentstitch import cli
        def peak_mb():
            with open("/proc/self/status") as f:
                return next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM:")) / 1024
        base = peak_mb()
        code = cli.main(sys.argv[1:])
        print(code, peak_mb() - base)
    """)
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath, **one_thread),
    )
    code, growth_mb = proc.stdout.split()[-2:]
    assert code == "0", proc.stdout + proc.stderr
    return float(growth_mb)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_fit_map_resident_memory(tmp_path):
    """fit-map's peak resident growth over its post-import baseline.

    Two 6,000 x 1,024 float32 sets with split 5,500/500 and one BLAS thread.
    Both are read from their files by rows, so neither is held. While the
    normal equations accumulate the fit holds, in MB: the Gram and XcT Yc at
    8.4 each, a float64 row block of 512 source rows 4.2, that block's
    float32 rows of the target 2.1, read once per pass, one float64 panel of
    512 of their columns 2.1, and one PANEL x PANEL product 2.1: about 27,
    30.3 measured (38.9 with blocks of 1,024 rows, 41.5 with whole d x PANEL
    products, 88.6 when both sets were held as read). The solve overwrites
    the Gram with its factor and XcT Yc with the solution. The bound adds
    10 MB, so holding either set (+24.6 MB) or a copy of the train rows
    (+22.5 MB as float32, +45 MB as float64) fails it; one more 8.4 MB d x d
    array would not.
    """
    rng = np.random.default_rng(21)
    ids = [f"{i:06d}" for i in range(6000)]
    for name in ("a", "b"):
        X = rng.standard_normal((6000, 1024), dtype=np.float32)
        write_latents(LatentDataset(model_id=name, ids=ids, X=X), tmp_path / f"{name}.lsf")
    (tmp_path / "experiment.cfg").write_text(
        "model.a.latents = a.lsf\nmodel.b.latents = b.lsf\n"
        "split.train = 5500\nsplit.holdout = 500\n"
    )
    growth_mb = _resident_growth_mb(
        "fit-map", "--config", str(tmp_path / "experiment.cfg"), "--out", str(tmp_path / "fit"),
        "--src", "a", "--dst", "b", "--alpha", "0")
    assert growth_mb <= 30 + 10


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_fid_resident_memory(tmp_path):
    """fid's peak resident growth over its post-import baseline.

    Two 6,000 x 1,024 float32 sets with one BLAS thread. Each set is read
    from its file by rows, and no summary copies its samples: Sigma is
    accumulated from row blocks and kept. Summarizing the second set holds,
    in MB, the first Sigma and the second Gram, 8.4 each, a float64 row
    block (8.4), a float32 one (4.2) and one Gram panel product (2.1): about
    32, 33.4 measured. fid then works inside the two Sigmas (16.8) with at
    most two d x PANEL panels (4.2 each) next to them, and frees one Sigma
    before the other's eigenvalues are taken: about 25, under the first
    peak. The bound adds 10 MB, so the four d x d arrays that factoring a
    second Sigma with LAPACK held next to the first factor (46.0 measured),
    holding one set as read (+24.6 MB) or a float64 copy of a set (+49.2 MB)
    fail it.
    """
    rng = np.random.default_rng(22)
    ids = [f"{i:06d}" for i in range(6000)]
    paths = []
    for name in ("a", "b"):
        X = rng.standard_normal((6000, 1024), dtype=np.float32)
        write_latents(LatentDataset(model_id=name, ids=ids, X=X), tmp_path / f"{name}.lsf")
        paths.append(str(tmp_path / f"{name}.lsf"))
    assert _resident_growth_mb("fid", *paths) <= 32 + 10


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_rmse_resident_memory(tmp_path):
    """rmse's peak resident growth over its post-import baseline.

    Two 6,000 x 1,024 float32 sets, the second in reversed id order, with one
    BLAS thread. Neither is held: each file is checked in row chunks, and
    scoring reads one block of each set's aligned rows from the files (4.2 MB
    each) and forms their float64 difference (8.4 MB): about 17 MB, 18.6
    measured (65.3 when both sets were read whole). The bound adds 10 MB, so
    holding either set (+24.6 MB), or gathering both aligned sets before
    scoring (+49.2 MB), fails it.
    """
    rng = np.random.default_rng(23)
    ids = [f"{i:06d}" for i in range(6000)]
    paths = []
    for name, order in (("a", ids), ("b", ids[::-1])):
        X = rng.uniform(size=(6000, 1024)).astype(np.float32)
        write_latents(LatentDataset(model_id=name, ids=order, X=X), tmp_path / f"{name}.lsf")
        paths.append(str(tmp_path / f"{name}.lsf"))
    assert _resident_growth_mb("rmse", *paths) <= 19 + 10


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_stitch_grid_resident_memory(tmp_path):
    """stitch-grid's peak resident growth over its post-import baseline.

    Two noising models at d = 1,024 and their pixels, 6,000 rows each (three
    24.6 MB sets), split 5,800/200, with one BLAS thread. Every set is read
    from its file by rows. The first fit holds what fit-map's does: the Gram
    and XcT Yc at 8.4 MB each, a float64 row block of 512 source rows 4.2,
    that block's target rows 2.1 (float32), one float64 panel of them 2.1
    and one product 2.1: about 27. Next to it sit the true holdout images,
    gathered once (200 x 1,024 float32, 0.8), and their summary (a 200-row
    float64 factor, 1.6); a cell's holdout rows, its decode and its scores
    hold a few 200-row arrays of at most 1.6 each, and earlier fits leave
    freed blocks to the allocator: about 39 MB, 39.3 measured (45.9 with
    blocks of 1,024 rows; 116.2 when all three sets were held as read). The
    bound adds 10 MB, so holding any one set (+24.6 MB) fails it.
    """
    assert cli.main([
        "synth-gen", "--out", str(tmp_path), "--seed", "4", "--n", "6000", "--k", "8",
        "--dpix", "1024", "--model", "a=noising:seed=1,d=1024,dpix=1024,t=20",
        "--model", "b=noising:seed=2,d=1024,dpix=1024,t=10"]) == 0
    growth_mb = _resident_growth_mb("stitch-grid", "--config", str(tmp_path / "experiment.cfg"),
                                    "--out", str(tmp_path / "grid"))
    assert growth_mb <= 39 + 10


def _four_noising_sets(tmp_path) -> Path:
    """Four noising sets at d = 512 (6,000 x 512 float32, 12.3 MB each) and
    their attributes, split 5,800/200; the returned config probes one
    attribute."""
    assert cli.main([
        "synth-gen", "--out", str(tmp_path), "--seed", "4", "--n", "6000", "--k", "8",
        "--dpix", "512", *[arg for i, t in enumerate((20, 10, 5, 30)) for arg in (
            "--model", f"m{i}=noising:seed={i + 1},d=512,dpix=512,t={t}")]]) == 0
    config = tmp_path / "experiment.cfg"
    config.write_text(config.read_text() + "attributes.subset = factor_00\n")
    return config


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_probe_suite_resident_memory(tmp_path):
    """probe-suite's peak resident growth over its post-import baseline.

    Four models of 6,000 x 512 float32 rows (12.3 MB each), split
    5,800/200, one attribute and one BLAS thread; every probe has more rows
    than dimensions. The read-time checks leave about 4 of row-block
    temporaries to the allocator. Each model's split rows are gathered
    (12.3) while its probe trains on the split's Gram (2.1), summed from
    views of the gather in float64 blocks of 512 rows (2.1), and the lasso
    and the probe's own sums hold about 6 more. Its train scores are formed
    one such block at a time, never a float64 copy of the 5,800 train rows
    (23.8). Later models and the stitched fits, which read the train rows
    from the files by row blocks, add about 6 as the heap fragments, and the
    four holdouts kept for the match cells are 0.4 each: about 34 MB, 33.7
    measured (56.8 with the whole float64 train rows and blocks of 2,048
    rows; 94.8 when every model's split rows were gathered first and held).
    The bound adds 10 MB, so holding a second model's split rows (+12.3 MB)
    fails it.
    """
    config = _four_noising_sets(tmp_path)
    growth_mb = _resident_growth_mb("probe-suite", "--config", str(config),
                                    "--out", str(tmp_path / "suite"))
    assert growth_mb <= 34 + 10


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_dynamics_resident_memory(tmp_path):
    """dynamics' peak resident growth over its post-import baseline.

    The four sets of test_probe_suite_resident_memory as checkpoints, with
    one attribute and one BLAS thread. Each checkpoint's 6,000 split rows
    are gathered (12.3 MB) while its probe trains and freed before the next
    checkpoint's. Its train-split Gram (2.1) is summed from views of the
    gather, one float64 block of 512 rows (2.1) at a time; the checks, the
    lasso and the probe's sums leave about 12 of temporaries to the
    allocator: about 28 MB, 28.4 measured (34.2 with float32 copies and
    float64 blocks of 2,048 rows; 72.1 when every checkpoint's rows were
    gathered first). The bound adds 10 MB, so holding a second
    checkpoint's rows (+12.3 MB) fails it.
    """
    config = _four_noising_sets(tmp_path)
    growth_mb = _resident_growth_mb(
        "dynamics", "--config", str(config), "--out", str(tmp_path / "dynamics"),
        "--checkpoints", *(str(tmp_path / f"m{i}.lsf") for i in range(4)))
    assert growth_mb <= 28 + 10


def test_cli_fid_checks_widths_before_summarizing(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(14)
    paths = []
    for name, d in (("a", 6), ("b", 5)):
        X = rng.standard_normal((20, d)).astype(np.float32)
        write_latents(LatentDataset(model_id=name, ids=[f"{i}" for i in range(20)], X=X),
                      tmp_path / f"{name}.lsf")
        paths.append(str(tmp_path / f"{name}.lsf"))
    summarized = []
    monkeypatch.setattr(cli, "summarize", lambda X: summarized.append(X) or metrics.summarize(X))
    assert cli.main(["fid", *paths]) == 2
    assert capsys.readouterr().err.strip() == "data error: dimension mismatch: 6 vs 5"
    assert summarized == []


def test_cli_fid_fewer_samples_than_dims_matches_brute_force(tmp_path, capsys):
    rng = np.random.default_rng(12)
    paths = []
    for name, n, d in (("a", 40, 96), ("b", 55, 96), ("c", 40, 80)):
        path = tmp_path / f"{name}.lsf"
        ids = [f"{name}{i:03d}" for i in range(n)]
        write_latents(LatentDataset(model_id=name, ids=ids,
                                    X=rng.standard_normal((n, d)).astype(np.float32)), path)
        paths.append(str(path))
    x = read_latents(paths[0]).X[:].astype(np.float64)
    y = read_latents(paths[1]).X[:].astype(np.float64)
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


# --- the exit-code contract under mutated config lines and numeric flags ------------

#: A small roster keeps every command fast: the README's random encoder at
#: d = 512 makes probe-suite's lasso take seconds on this world.
FUZZ_MODELS = ["orthA=orthogonal:seed=1,d=64,dpix=64", "lossy=lossy:seed=3,d=16,dpix=64,r=4",
               "rand=random:seed=4,d=32", "noise=noising:seed=5,d=64,dpix=64,t=25"]
FUZZ_KEYS = ["seed", "pixels", "attributes", "lpips", "attributes.subset", "split.train",
             "split.holdout", "plateau.eps", "alpha.orthA.noise", "alpha.orthA.gone",
             "probe_alpha.orthA", "model.orthA.latents", "model.extra.latents",
             "model.noise.synth", "model.lossy.decoder_only", "model..latents", "unknown"]
FUZZ_VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e308", "1e-320",
                     "99999", "true", "maybe", "orthA.lsf", "missing.lsf", "experiment.cfg",
                     "attributes.txt", "pixels.lsf", ".", "factor_00,nosuch",
                     "orthogonal:seed=2,d=64,dpix=64", "noising:seed=2,d=64,dpix=64,t=99",
                     "lossy:seed=1,d=4,dpix=64,r=9", "random:seed=1,d=0", "bogus:d=3"]),
    st.text(max_size=10),
)
CONFIG_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("dup"), st.integers(0, 99)),
    st.tuples(st.just("value"), st.integers(0, 99), FUZZ_VALUES),
    st.tuples(st.just("key"), st.integers(0, 99), st.sampled_from(FUZZ_KEYS)),
    st.tuples(st.just("add"), st.sampled_from(FUZZ_KEYS), FUZZ_VALUES),
    st.tuples(st.just("line"), st.integers(0, 99), st.text(max_size=20)),
)


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    models = [arg for spec in FUZZ_MODELS for arg in ("--model", spec)]
    assert cli.main(["synth-gen", "--out", str(out), "--seed", "4", "--n", "300",
                     "--dpix", "64", *models]) == 0
    return out


def _fuzz_args(world, command, out):
    args = [command, "--config", str(world / "fuzzed.cfg"), "--out", str(out)]
    if command == "fit-map":
        args += ["--src", "orthA", "--dst", "noise"]
    elif command == "train-probe":
        args += ["--model", "orthA", "--attribute", "factor_00"]
    elif command == "dynamics":
        args += ["--checkpoints", str(world / "noise.lsf"), str(world / "orthA.lsf")]
    return args


def _mutate_lines(lines, mutations):
    lines = list(lines)
    for kind, *arg in mutations:
        at = arg[0] % len(lines) if lines and isinstance(arg[0], int) else None
        if kind == "drop" and at is not None:
            del lines[at]
        elif kind == "dup" and at is not None:
            lines.insert(at, lines[at])
        elif kind == "value" and at is not None:
            lines[at] = lines[at].partition("=")[0] + "= " + arg[1]
        elif kind == "key" and at is not None:
            lines[at] = arg[1] + " =" + lines[at].partition("=")[2]
        elif kind == "add":
            lines.append(f"{arg[0]} = {arg[1]}")
        elif kind == "line" and at is not None:
            lines[at] = arg[1]
    return lines


COMMANDS = ["stitch-grid", "probe-suite", "fit-map", "train-probe", "dynamics"]


@given(st.sampled_from(COMMANDS), st.lists(CONFIG_MUTATION, min_size=1, max_size=3))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_mutated_config_ends_in_a_documented_exit_code(fuzz_world, command, mutations):
    lines = (fuzz_world / "experiment.cfg").read_text(encoding="utf-8").splitlines()
    text = "\n".join(_mutate_lines(lines, mutations)) + "\n"
    (fuzz_world / "fuzzed.cfg").write_text(text, encoding="utf-8")
    assert cli.main(_fuzz_args(fuzz_world, command, fuzz_world / "out")) in (0, 1, 2, 3)


INTS = st.integers(-3, 1 << 40)
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-320, 1e308, 1e-3, 50000.0]))
#: command -> numeric flag -> values. Sizes and counts stay small so that no
#: value asks for a large world or a long lasso run.
NUMERIC_FLAGS = {
    "synth-gen": {"--seed": INTS, "--n": st.integers(-2, 400), "--k": st.integers(-2, 12),
                  "--dpix": st.integers(-2, 96), "--noise-t": st.integers(-3, 60),
                  "--probe-alpha": FLOATS},
    "fit-map": {"--seed": INTS, "--threads": st.integers(-2, 3), "--alpha": FLOATS},
    "train-probe": {"--seed": INTS, "--alpha": FLOATS, "--tol": FLOATS,
                    "--max-iter": st.integers(-2, 50)},
    "stitch-grid": {"--seed": INTS, "--threads": st.integers(-2, 3)},
    "probe-suite": {"--seed": INTS, "--threads": st.integers(-2, 3)},
    "dynamics": {"--seed": INTS, "--threads": st.integers(-2, 3)},
}


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_numeric_flags_end_in_a_documented_exit_code(fuzz_world, data):
    command = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = NUMERIC_FLAGS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True))
    numbers = [f"{flag}={data.draw(flags[flag])!r}" for flag in chosen]
    if command == "synth-gen":
        args = ["synth-gen", "--out", str(fuzz_world / "gen"), *numbers]
    else:
        (fuzz_world / "fuzzed.cfg").write_bytes((fuzz_world / "experiment.cfg").read_bytes())
        args = _fuzz_args(fuzz_world, command, fuzz_world / "out") + numbers
    assert cli.main(args) in (0, 1, 2, 3)
