"""Child process for one benchmark step, run in a fresh interpreter.

    python3 perfbench/child.py SRC TRACE cli ARGS...      latentstitch ARGS...
    python3 perfbench/child.py SRC -     permute IN OUT SEED

SRC is the checkout's ``src`` directory, put first on ``sys.path`` and
verified as the origin of the imported package. TRACE is ``-`` for an
untraced run, or a file that receives the spans, counters and import time
as JSON when the command ends. ``permute`` rewrites an LSF file with its
rows shuffled and 5% of its ids dropped, as an independent export would be.
"""

import json
import os
import sys
import time


def _permute(src_path, dst_path, seed) -> int:
    import numpy as np

    from latentstitch.data import LatentDataset, read_latents, write_latents

    ds = read_latents(src_path)
    order = np.random.default_rng(int(seed)).permutation(ds.n)
    keep = order[: ds.n - ds.n // 20]
    write_latents(LatentDataset(model_id=ds.model_id, ids=[ds.ids[i] for i in keep],
                                X=ds.X[keep]), dst_path)
    return 0


def main() -> int:
    src, trace_path, mode, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import latentstitch.cli

    imported = time.perf_counter()
    origin = os.path.realpath(latentstitch.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: latentstitch imported from {origin}, not {src}", file=sys.stderr)
        return 70
    if mode == "permute":
        return _permute(*rest)
    if trace_path == "-":
        return latentstitch.cli.main(rest)

    from tracer import Tracer

    tracer = Tracer()
    missing = tracer.install()
    rc = 1
    try:
        rc = latentstitch.cli.main(rest)
    finally:
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({
                "imported": imported,
                "missing": missing,
                "unpatched": tracer.unpatched_sites(),
                "spans": tracer.spans,
                "counters": tracer.counters,
            }, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
