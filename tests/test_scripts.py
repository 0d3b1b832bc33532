import os
import subprocess
import sys
from pathlib import Path

import latentstitch

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_script_writes_every_report(tmp_path):
    src = str(Path(latentstitch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synth_experiment.py"), "--out", str(tmp_path),
         "--n", "300", "--k", "4", "--dpix", "16"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = {
        "grid": ("latent_mse", "pixel_rmse", "fid"),
        "suite": ("probe_report", "probe_accuracy_grid", "match_grid", "delta_grid"),
        "dynamics": ("dynamics",),
    }
    for folder, names in reports.items():
        for name in names:
            assert (tmp_path / folder / f"{name}.csv").is_file(), f"{folder}/{name}.csv"
