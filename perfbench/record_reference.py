#!/usr/bin/env python3
"""Record the checked output values of every workload world into reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it on the code whose outputs are the reference (the seed code for the
file in this directory). Each world is set up once and passed once; its
ground-truth checks must hold, or nothing is written for it.
"""

import json
import shutil
import sys

import run
from workloads import WORKLOADS, Checks


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    work = run.WORK / "record-reference"
    for name in names:
        workload = WORKLOADS[name]
        recorded = reference.setdefault(name, {})
        for world in workload.worlds():
            runner = run.Runner(run._fresh(work / "logs"))
            checks = Checks()
            data = run._fresh(work / "data")
            run._setup(workload, world, data, runner, checks)
            _, values = run._pass(workload, data, run._fresh(work / "pass"), runner, checks)
            if checks.failed:
                print(f"{name} world {world}: checks failed: {checks.messages[:5]}",
                      file=sys.stderr)
                return 1
            recorded[str(world)] = values
            print(f"{name} world {world}: {len(values)} values", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
