"""Command-line front end, on the standard library's argparse.

Verbs: simulate, sweep, table1, validate.  Exit codes: 0 success,
1 stdout closed early, 2 usage or validation error (including a reading
that overflows), 3 degenerate configuration.  A verb imports the harness,
and so numpy, after its scenario files and a sweep's grid are checked:
invalid input exits without it.

The process entry (the ``brightbeam`` console script, ``python -m
brightbeam.cli``) calls ``main()`` without arguments.  It runs with the
cyclic garbage collector off and freezes the heap before it exits, so the
interpreter's shutdown collections skip numpy's objects: no output of a
verb depends on a finalizer.  ``main(argv)``, called in process, leaves
the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import replace

from .errors import DegenerateModeError, DomainError, ScenarioError
from .scenario import (SWEEP_PARAMS, check_grid, load_fixtures, load_scenario, with_fields,
                       write_whole)

EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def _round6(obj):
    """Render all floats at 6 significant digits."""
    if isinstance(obj, float):
        return float(format(obj, ".6g"))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    return obj


def _load(path, **flags):
    """Load a scenario file; the flags given override its fields."""
    return with_fields(load_scenario(path), {k: v for k, v in flags.items() if v is not None})


def simulate(args):
    """Run one scenario and print its witness report as JSON."""
    s = _load(args.scenario, mc_samples=args.mc_samples, seed=args.seed)
    from .harness import run_scenario
    row = run_scenario(s)
    print(json.dumps(_round6(row.to_dict()), indent=2, sort_keys=True))


def sweep(args):
    """Sweep one parameter and emit the fixed-schema CSV."""
    s = load_scenario(args.scenario)
    check_grid(args.param, args.start, args.stop, args.steps)
    from .harness import sweep_csv
    text = sweep_csv(s, args.param, args.start, args.stop, args.steps)
    if args.out:
        try:
            write_whole(args.out, text)
        except OSError as exc:
            raise ScenarioError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def table1(args):
    """Reproduce the method-comparison table from the fitted fixtures."""
    scenarios = load_fixtures(args.fixtures)
    from .harness import compare_methods, run_scenario
    # Escape what would break a row (a newline, a tab, a terminal control)
    # and what stdout cannot encode, as json.dumps does in simulate and
    # validate; only a label can hold such text, and it is escaped before
    # the table pads it.
    encoding = sys.stdout.encoding or "utf-8"

    def escape(label):
        label = "".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                        for c in label)
        return label.encode(encoding, "backslashreplace").decode(encoding)

    print(compare_methods([replace(row, label=escape(row.label))
                           for row in map(run_scenario, scenarios)]))


def validate(args):
    """Check the analytic witness sum against the sampling oracle."""
    if args.mc_samples < 2:
        raise ScenarioError("validate needs --mc-samples >= 2")
    s = _load(args.scenario, mc_samples=args.mc_samples, seed=args.seed)
    from .harness import run_scenario
    row = run_scenario(s)
    n_sigma = abs(row.mc_sum - row.sum_value) / row.mc_stderr if row.mc_stderr > 0 else float("inf")
    report = {
        "analytic_sum": row.sum_value,
        "mc_sum": row.mc_sum,
        "mc_stderr": row.mc_stderr,
        "n_sigma": n_sigma,
        "consistent_3_sigma": bool(n_sigma <= 3.0),
    }
    print(json.dumps(_round6(report), indent=2, sort_keys=True))


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: "--scen" is an unknown flag, not "--scenario".
    parser = argparse.ArgumentParser(prog="brightbeam", allow_abbrev=False)
    verbs = parser.add_subparsers(metavar="VERB", required=True)

    def verb(run):
        sub = verbs.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                               allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    for sub, mc_samples, seed in ((verb(simulate), None, None), (verb(validate), 1_000_000, 0)):
        sub.add_argument("--scenario", required=True)
        sub.add_argument("--mc-samples", type=int, default=mc_samples)
        sub.add_argument("--seed", type=int, default=seed)
    sub = verb(sweep)
    sub.add_argument("--scenario", required=True)
    sub.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sub.add_argument("--from", dest="start", required=True, type=float)
    sub.add_argument("--to", dest="stop", required=True, type=float)
    sub.add_argument("--steps", required=True, type=int)
    sub.add_argument("--out", help="CSV output file (stdout if omitted)")
    # "-inf", "-.5" and "-1e308" are values of --from and --to, not unknown flags.
    sub._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    verb(table1).add_argument("--fixtures")
    return parser


def main(argv=None):
    """Run one verb on argv, or as the process entry on ``sys.argv[1:]``
    when argv is None, and exit 1, 2 or 3 on an error (module docstring)."""
    if argv is None:
        # A one-shot process frees nothing it still needs: collecting over
        # numpy's objects while it imports, and again at shutdown, is waste.
        gc.disable()
    try:
        args = _parser().parse_args(argv)
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: exit 1 without a traceback, and send what
        # is still buffered to devnull so that the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (ScenarioError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except DegenerateModeError as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        sys.exit(EXIT_DEGENERATE)
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    main()
