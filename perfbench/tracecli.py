"""Run one brightbeam CLI invocation with its layers traced.

    python3 perfbench/tracecli.py DUMP CLI_ARGS...

Behaves like ``python -m brightbeam.cli CLI_ARGS...`` (same stdout and
exit code) and writes the spans plus the start-up, import and run times
to DUMP at exit.
"""

import time

STARTED_NS = time.perf_counter_ns()

import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    import_start = time.perf_counter_ns()
    import brightbeam.cli

    import_end = time.perf_counter_ns()
    tracer = spans.Tracer()
    tracer.install()
    code = 0
    run_start = time.perf_counter_ns()
    try:
        brightbeam.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    run_end = time.perf_counter_ns()
    sys.stdout.flush()
    tracer.dump(dump, {"started_ns": STARTED_NS, "import_ns": import_end - import_start,
                       "run_ns": run_end - run_start})
    return code


if __name__ == "__main__":
    sys.exit(main())
