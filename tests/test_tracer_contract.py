"""Every function the benchmark tracer wraps must still exist, and the traced
counters the benchmark predicts busy must stay busy, so a rename, a deletion or
a lost call path fails the test suite and not only a traced benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from latentstitch import cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CHILD = ROOT / "perfbench" / "child.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracer = _tracer_module()
    missing = [
        f"latentstitch.{mod}.{attr}"
        for _, mod, attr, _ in tracer.WRAPS
        if not callable(getattr(importlib.import_module(f"latentstitch.{mod}"), attr, None))
    ]
    assert missing == []
    assert {mod for _, mod, _, _ in tracer.WRAPS} <= set(tracer.MODULES)


def test_traced_stitch_grid_calls_every_map_solver(tmp_path):
    # A small paper-like world: a full-rank source (Cholesky), ridge maps from
    # NF, whose 63 train rows below its 64 dimensions take the dual factor,
    # and the lossy VAE, rank 2 of 16 (min-norm lstsq).
    assert cli.main(["synth-gen", "--out", str(tmp_path), "--seed", "1", "--n", "70",
                     "--k", "4", "--dpix", "64",
                     "--model", "GAN=random:seed=2,d=16",
                     "--model", "VAE=lossy:seed=3,d=16,r=2,dpix=64",
                     "--model", "NF=orthogonal:seed=4,d=64,dpix=64"]) == 0
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(CHILD), str(ROOT / "src"), str(trace), "cli",
                    "stitch-grid", "--config", str(tmp_path / "experiment.cfg"),
                    "--out", str(tmp_path / "grid"), "--threads", "1"],
                   check=True, capture_output=True)
    record = json.loads(trace.read_text())
    assert record["missing"] == [] and record["unpatched"] == []
    counters = record["counters"]
    for name in ("mapfit.fit.calls", "linalg.spd_solve.calls", "mapfit.lstsq.calls"):
        assert counters.get(name, 0) > 0, name
