"""Spans around latentstitch's public functions, installed from outside.

The program imports many functions by name (``from .mapfit import fit_ols``)
and reaches others through module attributes (``linalg.spd_solve``,
``np.linalg.lstsq``). Wrapping a function only in its defining module would
miss every by-name lookup, so `install` replaces the original function object
in *every* loaded ``latentstitch`` module namespace that holds it, and
`unpatched_sites` proves afterwards that no namespace still does.

Spans are kept in memory as ``[name, start, end, parent_index]`` with
``time.perf_counter`` timestamps and written out once, when the traced
process ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import Counter

MODULES = ("data", "synth", "mapfit", "linalg", "metrics", "probes", "pipeline", "cli")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _array_bytes(ds) -> int:
    for attr in ("X", "pixels", "values"):
        arr = getattr(ds, attr, None)
        if arr is not None:
            return int(arr.nbytes)
    return 0


def _count_read(c, args, kwargs, result):
    c["data.read.bytes"] += _file_bytes(args[0])


def _count_write(c, args, kwargs, result):
    c["data.write.bytes"] += _file_bytes(args[1])


def _count_take(c, args, kwargs, result):
    c["data.take.bytes"] += _array_bytes(result)


def _count_sym_eig(c, args, kwargs, result):
    d = len(result.eigenvalues)
    c["linalg.sym_eig.d3_sum"] += d ** 3


def _count_fid(c, args, kwargs, result):
    p, q = args[0], args[1]
    if any(s.n is not None and s.n < s.d for s in (p, q)):
        c["metrics.fid.ridge.calls"] += 1


def _count_lasso(c, args, kwargs, result):
    w, _, sweeps, _ = result
    c["probes.lasso.sweeps"] += sweeps
    c["probes.lasso.nnz"] += int((w != 0.0).sum())
    c["probes.lasso.columns_swept"] += sweeps * len(w)


#: (span name, defining module, function name, counter hook).
WRAPS = (
    ("data.read", "data", "read_latents", _count_read),
    ("data.read", "data", "read_images", _count_read),
    ("data.read", "data", "read_attribute_table", _count_read),
    ("data.write", "data", "write_latents", _count_write),
    ("data.write", "data", "write_images", _count_write),
    ("data.write", "data", "write_attribute_table", _count_write),
    ("data.write", "probes", "save_probe", _count_write),
    ("data.align", "data", "align", None),
    ("data.take", "data", "take", _count_take),
    ("synth.gen_world", "synth", "gen_world", None),
    ("synth.encode", "synth", "encode", None),
    ("synth.decode", "synth", "decode", None),
    ("mapfit.fit", "mapfit", "fit_ols", None),
    ("mapfit.fit", "mapfit", "fit_ridge", None),
    ("mapfit.apply", "mapfit", "apply_map", None),
    ("mapfit.save", "mapfit", "save_map", _count_write),
    ("linalg.spd_solve", "linalg", "spd_solve", None),
    ("linalg.sym_eig", "linalg", "sym_eig", _count_sym_eig),
    ("linalg.psd_sqrt", "linalg", "psd_sqrt", None),
    ("metrics.summarize", "metrics", "summarize", None),
    ("metrics.fid", "metrics", "fid", _count_fid),
    ("metrics.pixel_rmse", "metrics", "pixel_rmse", None),
    ("probes.fit_lasso", "probes", "fit_lasso", None),
    ("probes.lasso_cd", "probes", "lasso_cd", _count_lasso),
    ("probes.subset", "probes", "balanced_subset", None),
    ("probes.eval", "probes", "accuracy", None),
    ("probes.eval", "probes", "match_percent", None),
    ("probes.eval", "probes", "accuracy_delta", None),
    ("pipeline", "pipeline", "load_config", None),
    ("pipeline", "pipeline", "fit_pair_map", None),
    ("pipeline", "pipeline", "run_stitch_grid", None),
    ("pipeline", "pipeline", "run_probe_suite", None),
    ("pipeline", "pipeline", "run_dynamics", None),
    ("pipeline", "cli", "main", None),
)


class Tracer:
    """In-memory span recorder with per-name counters, for one thread (the
    benchmark runs every command with ``--threads 1``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []  # indices of the open spans
        self._originals: list = []

    def wrap(self, name, fn, hook=None):
        spans, counters, stack = self.spans, self.counters, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            counters[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".failed"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every function in WRAPS at each of its lookup sites; return
        the WRAPS entries the program no longer defines."""
        mods = {m: importlib.import_module(f"latentstitch.{m}") for m in MODULES}
        missing = []
        for name, mod, attr, hook in WRAPS:
            original = getattr(mods[mod], attr, None)
            if original is None:
                missing.append(f"latentstitch.{mod}.{attr}")
                continue
            wrapped = self.wrap(name, original, hook)
            self._originals.append(original)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        # mapfit reaches the min-norm fallback as np.linalg.lstsq; give mapfit
        # its own numpy view so only that lookup is counted.
        np_mod = mods["mapfit"].np
        linalg_view = _ModuleView(np_mod.linalg)
        linalg_view.lstsq = self.wrap("mapfit.lstsq", np_mod.linalg.lstsq)
        np_view = _ModuleView(np_mod)
        np_view.linalg = linalg_view
        mods["mapfit"].np = np_view
        return missing

    def unpatched_sites(self) -> list[str]:
        """Module attributes that still hold an original (unwrapped) function."""
        originals = {id(f) for f in self._originals}
        return [
            f"{module.__name__}.{key}"
            for module in _package_modules()
            for key, value in vars(module).items()
            if id(value) in originals
        ]


class _ModuleView(types.ModuleType):
    """A module stand-in that serves overridden attributes and delegates the rest."""

    def __init__(self, target):
        super().__init__(target.__name__)
        self._target = target

    def __getattr__(self, key):
        return getattr(self._target, key)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "latentstitch" or n.startswith("latentstitch."))]


def layer_totals(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
