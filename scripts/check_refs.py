"""Replay every reference output in perfbench/refs.json and report what moved.

    python3 scripts/check_refs.py

Checks, against the references the benchmark uses:

- the SHA-256 of every reference sweep (all lengths, 10 to 1000 steps),
- the bytes of ``table1``, of each ``simulate`` JSON and of the CLI sweep,
- each scenario's analytic witness sum, to 1e-9.

Each mismatch is printed with the rows or values that moved; a sweep is
known only by its digest, so a moved sweep is printed as its reference
entry.  The references are read, never written.  Exit status: 0 when
everything matches, 1 otherwise.
"""

from __future__ import annotations

import difflib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from brightbeam.cli import main as cli_main  # noqa: E402
from brightbeam.harness import run_scenario, sweep_csv  # noqa: E402
from brightbeam.scenario import scenario_from_dict  # noqa: E402

SUM_TOL = 1e-9


def cli_stdout(args: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli_main(args)
    except SystemExit as exc:
        return f"<exit {exc.code}>\n{out.getvalue()}{err.getvalue()}"
    return out.getvalue()


def text_mismatch(what: str, ref: str, got: str) -> list[str]:
    """The changed lines of one CLI output, as a unified diff."""
    if got == ref:
        return []
    diff = difflib.unified_diff(ref.splitlines(), got.splitlines(),
                                "reference", "now", n=0, lineterm="")
    return [f"{what}: output differs"] + [f"  {line}" for line in diff]


def check_cli(refs: dict, paths: dict[str, Path]) -> list[str]:
    problems = text_mismatch("table1", refs["table1"], cli_stdout(["table1"]))
    for name, ref in sorted(refs["simulate"].items()):
        got = cli_stdout(["simulate", "--scenario", str(paths[name])])
        problems += text_mismatch(f"simulate {name}", ref, got)
    name, param, start, stop, steps = workloads.CLI_SWEEP
    got = cli_stdout(["sweep", "--scenario", str(paths[name]), "--param", param,
                      "--from", start, "--to", stop, "--steps", steps])
    return problems + text_mismatch(f"sweep {name} {param}", refs["sweep"], got)


def check_sums(refs: dict, scenarios: dict) -> list[str]:
    problems = []
    for name, ref in sorted(refs.items()):
        got = run_scenario(scenarios[name]).sum_value
        if not abs(got - ref) <= SUM_TOL:
            problems.append(f"analytic sum {name}: reference {ref!r}, now {got!r}, "
                            f"off by {got - ref:.3g}")
    return problems


def check_sweeps(refs: list[dict], scenarios: dict) -> list[str]:
    problems = []
    for v in refs:
        text = sweep_csv(scenarios[v["scenario"]], v["param"], v["start"], v["stop"],
                         v["steps"])
        if workloads.digest(text) != v["sha256"]:
            problems.append("sweep digest differs: " + json.dumps(v, sort_keys=True))
    return problems


def main() -> int:
    refs = workloads.load_refs()
    scenarios = {name: scenario_from_dict(flat)
                 for name, flat in workloads.scenario_dicts().items()}
    with tempfile.TemporaryDirectory() as workdir:
        cli_problems = check_cli(refs["cli"], workloads.write_scenarios(Path(workdir)))
    groups = [
        (f"CLI outputs (table1, {len(refs['cli']['simulate'])} simulate, sweep)", cli_problems),
        (f"{len(refs['analytic_sum'])} analytic sums to {SUM_TOL:g}",
         check_sums(refs["analytic_sum"], scenarios)),
        (f"{len(refs['sweeps'])} sweep digests", check_sweeps(refs["sweeps"], scenarios)),
    ]
    for title, problems in groups:
        print(f"{title}: {'ok' if not problems else f'{len(problems)} mismatch(es)'}")
        for line in problems:
            print(f"  {line}")
    return 1 if any(problems for _, problems in groups) else 0


if __name__ == "__main__":
    sys.exit(main())
