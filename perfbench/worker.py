"""Fresh-interpreter worker of the brightbeam benchmark.

    python3 perfbench/worker.py MODE --work DIR [--seed N --seconds S
        --min-rounds R --max-rounds R] [--trace]

MODE ``probe`` imports the package, loads the scenarios and exits: the
set-up sample.  MODE ``sweep`` or ``mc_validate`` then runs that warm
workload in process.  With ``--trace`` the layers are wrapped right after
the import and the spans are written to DIR at exit.  The last stdout
line is a JSON record: ready time, OpenBLAS threads and operations.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import spans
import workloads

sys.path.insert(0, str(workloads.SRC))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def timed(call):
    """(duration_ns, result or None if it raised)."""
    start = time.perf_counter_ns()
    try:
        result = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"operation failed: {exc!r}", file=sys.stderr)
        result = None
    return time.perf_counter_ns() - start, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "sweep", "mc_validate"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--max-rounds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from brightbeam import harness, scenario

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    scenarios = {name: scenario.load_scenario(args.work / f"{name}.json")
                 for name in workloads.SCENARIO_NAMES}
    record = {"ready_ns": time.perf_counter_ns(), "blas_threads": blas_threads()}
    if args.mode != "probe":
        refs = workloads.load_refs()
        rng = random.Random(args.seed)

        def sweep_op(variant):
            dt, text = timed(lambda: harness.sweep_csv(
                scenarios[variant["scenario"]], variant["param"], variant["start"],
                variant["stop"], variant["steps"]))
            return dt, variant["steps"], text is not None and workloads.digest(text) == variant["sha256"]

        def mc_op(op):
            name, seed = op
            s = replace(scenarios[name], mc_samples=workloads.MC_SAMPLES, seed=seed)
            dt, row = timed(lambda: harness.run_scenario(s))
            ok = row is not None and workloads.check_sampled(
                name, row.sum_value, row.mc_sum, row.mc_stderr, refs)
            return dt, workloads.MC_SAMPLES, ok

        if args.mode == "sweep":
            make_round, run_op = (lambda: workloads.sweep_round(rng, refs)), sweep_op
        else:
            make_round, run_op = (lambda: workloads.mc_round(rng)), mc_op
        record["ops"] = workloads.closed_loop(make_round, run_op, args.seconds,
                                              args.min_rounds, args.max_rounds)
        if tracer is not None:
            tracer.dump(args.work / f"spans-{os.getpid()}.bin", {})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
