#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `dpl` command line.

    python3 perfbench/run.py --workload pipeline_fs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The `dpl` CLI entry point is
driven in this one process, one command after another (a closed loop with
one client), under ``perfbench/runs/<workload>-s<seed>-t<trace>/``. BLAS
is pinned to one thread before numpy loads, and the outputs of every
command are checked (checks.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones (tracing.py) with ``--trace 1``. Exits 2
without a result if dpl cannot be imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: two threads double
# the CPU time of the program's small matmuls for no wall-time gain.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="pipeline_fs or train_ctx_frozen")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="training work: iterations = seconds x the workload's rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # set-up time starts here and includes importing dpl (and numpy with it)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import dpl
        import dpl.cli
    except ImportError as e:
        print(f"perfbench: cannot import dpl from {SRC}: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(dpl.__file__).resolve().parent != SRC / "dpl":
        print(f"perfbench: dpl was imported from {dpl.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import workload
    from tracing import Tracer

    if args.workload not in workload.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workload.WORKLOADS)}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(dpl)
    result = workload.run(dpl, workload.WORKLOADS[args.workload], args.seed,
                          args.seconds, import_s, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
