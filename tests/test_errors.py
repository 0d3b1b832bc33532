"""The failure contract: three branches, one per exit code, and one leaf that
mapfit catches by name. A failure's kind is carried by its message."""

import ast
import inspect
from pathlib import Path

from latentstitch import errors

TOOLKIT_ERRORS = {"LatentStitchError", "ConfigError", "DataError", "NumericalError", "NotSPD"}
PROGRAMMER_ERRORS = {"ValueError", "TypeError"}
SRC = Path(errors.__file__).parent


def test_errors_module_defines_exactly_the_five_classes():
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__}
    assert defined == TOOLKIT_ERRORS
    for branch in (errors.ConfigError, errors.DataError, errors.NumericalError):
        assert branch.__bases__ == (errors.LatentStitchError,)
    assert errors.NotSPD.__bases__ == (errors.NumericalError,)


def test_every_raise_names_a_branch_or_a_programmer_error():
    raised = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # `raise X(...)`; a bare re-raise or a raise of a held instance names no class
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else ast.unparse(func)
                raised.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    stray = {name: sites for name, sites in raised.items()
             if name not in TOOLKIT_ERRORS | PROGRAMMER_ERRORS}
    assert not stray
    assert {"ConfigError", "DataError", "NumericalError", "NotSPD"} <= raised.keys()
