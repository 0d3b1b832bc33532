"""Every function the benchmark tracer wraps must still exist, so a rename or
deletion fails the test suite and not only a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
