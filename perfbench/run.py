#!/usr/bin/env python3
"""latentstitch benchmark: timed CLI workloads with output checks, plus a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src/latentstitch``. Each run sets the workload's inputs up several times
(``setup_s`` is their median), then repeats the workload's command sequence
until the timed commands add up to ``--seconds``. Every command starts in a
fresh interpreter with one BLAS thread and ``--threads 1``, writes into a
fresh output directory, and is checked against the synthetic world's ground
truth and against outputs recorded from the seed code.

``--trace 1`` instead runs one untraced and one traced set-up plus pass; the
traced children wrap the package's public functions (see tracer.py) and the
per-layer metrics come from their spans. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
record (environment, every sample, check messages) goes to
``.perfbench-results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import layer_totals
from workloads import WORKLOADS, Checks, Outcome, compare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"

SETUPS = 3            # set-ups per run; setup_s is their median
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 100

#: End-to-end metrics reported with --trace 0.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics reported with --trace 1: name -> (unit, how it is computed).
#: ``self:`` sums the self time of the listed spans, ``count:`` sums a counter,
#: ``ratio:`` divides two counters; ``import`` is interpreter start plus
#: ``import latentstitch.cli`` summed over the traced commands, ``overhead``
#: the traced minus the untraced wall time of the same set-up and pass.
PER_LAYER = {
    "data.read.s": ("s", "self:data.read"),
    "data.read.calls": ("count", "count:data.read.calls"),
    "data.read.bytes": ("bytes", "count:data.read.bytes"),
    "data.write.s": ("s", "self:data.write"),
    "data.write.bytes": ("bytes", "count:data.write.bytes"),
    "data.align.s": ("s", "self:data.align"),
    "data.take.calls": ("count", "count:data.take.calls"),
    "data.take.bytes": ("bytes", "count:data.take.bytes"),
    "synth.gen_world.s": ("s", "self:synth.gen_world"),
    "synth.encode.s": ("s", "self:synth.encode"),
    "synth.decode.s": ("s", "self:synth.decode"),
    "synth.decode.calls": ("count", "count:synth.decode.calls"),
    "mapfit.fit.s": ("s", "self:mapfit.fit,mapfit.lstsq"),
    "mapfit.fit.calls": ("count", "count:mapfit.fit.calls"),
    "mapfit.fit.lstsq_fallback.calls": ("count", "count:mapfit.lstsq.calls"),
    "mapfit.apply.s": ("s", "self:mapfit.apply"),
    "mapfit.save.s": ("s", "self:mapfit.save"),
    "linalg.spd_solve.s": ("s", "self:linalg.spd_solve"),
    "linalg.spd_solve.calls": ("count", "count:linalg.spd_solve.calls"),
    "linalg.spd_solve.failed": ("count", "count:linalg.spd_solve.failed"),
    "linalg.sym_eig.s": ("s", "self:linalg.sym_eig"),
    "linalg.sym_eig.calls": ("count", "count:linalg.sym_eig.calls"),
    "linalg.sym_eig.d3_sum": ("count", "count:linalg.sym_eig.d3_sum"),
    "linalg.psd_sqrt.s": ("s", "self:linalg.psd_sqrt"),
    "metrics.summarize.s": ("s", "self:metrics.summarize"),
    "metrics.fid.s": ("s", "self:metrics.fid"),
    "metrics.fid.calls": ("count", "count:metrics.fid.calls"),
    "metrics.fid.ridge.calls": ("count", "count:metrics.fid.ridge.calls"),
    "metrics.pixel_rmse.s": ("s", "self:metrics.pixel_rmse"),
    "probes.fit_lasso.s": ("s", "self:probes.fit_lasso,probes.lasso_cd"),
    "probes.fit_lasso.calls": ("count", "count:probes.fit_lasso.calls"),
    "probes.lasso.sweeps": ("count", "count:probes.lasso.sweeps"),
    "probes.lasso.nnz_ratio": ("ratio", "ratio:probes.lasso.nnz/probes.lasso.columns_swept"),
    "probes.subset.s": ("s", "self:probes.subset"),
    "probes.eval.s": ("s", "self:probes.eval"),
    "pipeline.self_s": ("s", "self:pipeline"),
    "cli.import_s": ("s", "import"),
    "trace.overhead_s": ("s", "overhead"),
}


class Runner:
    """Starts one child at a time and records its wall time and peak RSS."""

    def __init__(self, log_dir: Path, trace_dir: Path | None = None):
        self.log_dir = log_dir
        self.trace_dir = trace_dir
        self.outcomes: list[Outcome] = []
        self.traces: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        # imports read cached bytecode, as an installed package's would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def __call__(self, args: list[str], mode: str = "cli") -> Outcome:
        n = len(self.outcomes)
        trace_file = self.trace_dir / f"{n}.json" if self.trace_dir and mode == "cli" else None
        out_path, err_path = self.log_dir / f"{n}.out", self.log_dir / f"{n}.err"
        cmd = [sys.executable, str(CHILD), str(SRC), str(trace_file or "-"), mode, *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # keep a running maximum over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(args=args, mode=mode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                          returncode=proc.returncode,
                          stdout=out_path.read_text(errors="replace"),
                          stderr=err_path.read_text(errors="replace"))
        if trace_file is not None:
            trace = json.loads(trace_file.read_text()) if trace_file.is_file() else None
            if trace is not None:
                outcome.import_s = trace["imported"] - start
                self.traces.append(trace)
        self.outcomes.append(outcome)
        return outcome


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _setup(workload, world, data: Path, runner: Runner, checks: Checks) -> float:
    first = len(runner.outcomes)
    start = time.perf_counter()
    try:
        workload.setup(data, world, runner)
    except OSError as exc:  # a set-up command that failed left a file missing
        checks.expect(False, f"set-up raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    checks.operations(len(runner.outcomes) - first, [
        f"set-up {o.args[0]}: exit code {o.returncode}: {o.stderr.strip()[-300:]}"
        for o in runner.outcomes[first:] if o.returncode != 0
    ])
    return elapsed


def _pass(workload, data: Path, out: Path, runner: Runner, checks: Checks) -> tuple[dict, dict]:
    """Run the workload's commands once; return their outcomes and the checked values."""
    outcomes = {metric: runner(args) for metric, args in workload.commands(data, out)}
    try:
        values = workload.check(data, out, outcomes, checks)
    except Exception as exc:  # a missing or malformed output is a failed check, not a crash
        checks.expect(False, f"output check raised {type(exc).__name__}: {exc}")
        values = {}
    return outcomes, values


def _load_reference(workload: str, world: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(world))


def _digest(values: dict) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def timed_run(workload, world: int, seconds: float, work: Path, checks: Checks) -> dict:
    runner = Runner(_fresh(work / "logs"))
    setup_s = []
    for i in range(SETUPS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
        setup_s.append(_setup(workload, world, _fresh(work / f"setup{i}"), runner, checks))
    data = work / f"setup{SETUPS - 1}"
    reference = _load_reference(workload.name, world)
    samples: dict[str, list[float]] = {}
    rss: dict[str, float] = {}
    digests = []
    measured = 0.0
    while measured < seconds:
        outcomes, values = _pass(workload, data, _fresh(work / "pass"), runner, checks)
        pass_wall = sum(o.wall_s for o in outcomes.values())
        measured += pass_wall
        samples.setdefault("wall_s", []).append(pass_wall)
        for metric, o in outcomes.items():
            samples.setdefault(metric, []).append(o.wall_s)
            rss[metric] = max(rss.get(metric, 0.0), o.rss_mb)
        if not digests:
            compare(values, reference, checks)
        else:
            checks.expect(_digest(values) == digests[0], "outputs differ between passes")
        digests.append(_digest(values))
    samples["setup_s"] = setup_s
    return {
        "samples": samples,
        "metrics": {
            "wall_s": statistics.median(samples["wall_s"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": max(rss.values()),
        },
        "per_command_s": {m: statistics.median(samples[m]) for m in rss},
        "peak_rss_mb_per_command": rss,
    }


def _layer_metrics(traces: list[dict], import_s: float, overhead_s: float) -> tuple[dict, dict]:
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for trace in traces:
        for name, value in layer_totals(trace["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    metrics = {}
    for name, (_, how) in PER_LAYER.items():
        kind, _, spec = how.partition(":")
        if kind == "self":
            metrics[name] = sum(self_s.get(s, 0.0) for s in spec.split(","))
        elif kind == "count":
            metrics[name] = counters.get(spec, 0)
        elif kind == "ratio":
            num, den = (counters.get(s, 0) for s in spec.split("/"))
            metrics[name] = num / den if den else 0.0
        elif kind == "import":
            metrics[name] = import_s
        else:
            metrics[name] = overhead_s
    return metrics, {**counters, **metrics}


def traced_run(workload, world: int, work: Path, checks: Checks) -> dict:
    walls, digests = {}, {}
    for label, traced in (("untraced", False), ("traced", True)):
        runner = Runner(_fresh(work / label / "logs"),
                        _fresh(work / label / "spans") if traced else None)
        data, out = _fresh(work / label / "data"), _fresh(work / label / "pass")
        _setup(workload, world, data, runner, checks)
        _, values = _pass(workload, data, out, runner, checks)
        walls[label] = sum(o.wall_s for o in runner.outcomes)
        digests[label] = _digest(values)
        if not traced:
            compare(values, _load_reference(workload.name, world), checks)
        shutil.rmtree(work / label)
    checks.expect(digests["traced"] == digests["untraced"], "tracing changed the outputs")
    cli_outcomes = [o for o in runner.outcomes if o.mode == "cli"]
    checks.expect(all(o.import_s is not None for o in cli_outcomes),
                  "a traced command wrote no spans")
    metrics, lookup = _layer_metrics(
        runner.traces, sum(o.import_s or 0.0 for o in cli_outcomes),
        walls["traced"] - walls["untraced"])
    for trace in runner.traces:
        for name in trace["missing"]:
            checks.expect(False, f"tracer: {name} no longer exists")
        for site in trace["unpatched"]:
            checks.expect(False, f"tracer: {site} still holds an unwrapped function")
    for name in workload.busy:
        checks.expect(lookup.get(name, 0) > 0, f"trace: {name} predicted busy but is 0")
    for name in workload.idle:
        checks.expect(lookup.get(name, 0) == 0,
                      f"trace: {name} predicted idle but is {lookup.get(name)}")
    return {"metrics": metrics, "walls": walls}


def _output(args: list[str], **env) -> str | None:
    """Stripped stdout of a command, or None when it fails or is not installed."""
    try:
        done = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, **env))
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seconds, world, sizes) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    l3 = _output(["getconf", "LEVEL3_CACHE_SIZE"])
    # the ceiling keeps git from reporting an enclosing repository's commit
    git = _output(["git", "rev-parse", "HEAD"], GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    src_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    for p in src_files:
        src_hash.update(p.relative_to(SRC).as_posix().encode() + p.read_bytes())
    env.update({
        "git_sha": git,
        "src_sha256": src_hash.hexdigest()[:16],
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src_files),
        "nproc": os.cpu_count(),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "blas_threads": int(BLAS_THREADS),
        "cli_threads": 1,
        "seconds": seconds,
        "world": world,
        "sizes": sizes,
    })
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "latentstitch" / "cli.py").is_file():
        print(f"perfbench: no latentstitch sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workload = WORKLOADS[args.workload]
    world = workload.world(args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    checks = Checks()
    try:
        if args.trace:
            result = traced_run(workload, world, work, checks)
            units = {m: unit for m, (unit, _) in PER_LAYER.items()}
        else:
            result = timed_run(workload, world, args.seconds, work, checks)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": workload.why, "environment": environment(args.seconds, world, workload.sizes),
        "attempted": checks.attempted, "failed": checks.failed,
        "check_failures": checks.messages, **result,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    _report(record, units)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    }))
    return 0


def _report(record: dict, units: dict) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} world={env['world']} "
          f"trace={record['trace']}  ({record['why']})")
    print(f"  env: python {env.get('python')} numpy {env.get('numpy')} scipy {env.get('scipy')} "
          f"{env.get('blas')} blas_threads={env['blas_threads']} --threads {env['cli_threads']} "
          f"nproc={env['nproc']} l3={env['l3_bytes']} git={env['git_sha']} src={env['src_sha256']}")
    print(f"  sizes: {env['sizes']}")
    print(f"  src_lines: {env['src_lines']} (information only)")
    samples = record.get("samples", {})
    for name, value in record["metrics"].items():
        extra = ""
        if name in samples:
            s = samples[name]
            extra = f"  (median of n={len(s)}, min {min(s):.4f}, max {max(s):.4f})"
        print(f"  {name}: {value:.6g} {units[name]}{extra}")
    for name, value in record.get("per_command_s", {}).items():
        s = samples[name]
        print(f"  {name}: {value:.6g} s  (median of n={len(s)}, min {min(s):.4f}, "
              f"max {max(s):.4f}; information only)")
    for name, value in record.get("peak_rss_mb_per_command", {}).items():
        print(f"  peak_rss_mb[{name.removesuffix('_s')}]: {value:.1f} MB (information only)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  error_rate: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for message in record["check_failures"][:20]:
        print(f"  FAILED: {message}")


if __name__ == "__main__":
    sys.exit(main())
