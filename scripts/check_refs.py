"""Replay every reference output and report what moved.

    python3 -W error scripts/check_refs.py

The one replay: tier-1 runs each of its check_* groups (tests/test_golden.py).
Checks the bytes of ``table1``, of each ``simulate`` JSON and of the CLI
sweep, each scenario's analytic witness sum to 1e-9 and the SHA-256 of every
reference sweep (10 to 1000 steps), all against perfbench/refs.json, which
the benchmark uses, and the SHA-256 of the Monte-Carlo sweeps pinned here.
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
# SHA-256 of the 12-step theta sweep_csv from 0.3 to 2.8 with mc_samples 2000
# and seed 5; perfbench/refs.json pins sweeps without Monte-Carlo columns only.
MC_SWEEP = ("theta", 0.3, 2.8, 12)
MC_SWEEP_DIGESTS = {
    "method_a": "1247b2f64108b5ba1f0006a8528cf6755efca77ea94984a506f8468c612d80dd",
    "method_a_opt": "296a7c3b39bd1f0d33d3fbbaed655be4fb10b71ebcc211dd161bf2e5080ff7f1",
    "method_b": "4665b77597d1346bbfb35ab9c75db49d711c5f68f5fb000d3700567fe7bbfc6e",
    "method_c_port_c": "79ff3d96a6a2af780f5511104b9af15ed14b48ec697e7d5b7ec195ae3bf37340",
}
REFS = workloads.load_refs()
FLATS = workloads.scenario_dicts()
SCENARIOS = {name: scenario_from_dict(flat) for name, flat in FLATS.items()}


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


# Each check_* replays one output or group and returns a line for each output
# that moved.

def check_table1() -> list[str]:
    return text_mismatch("table1", REFS["cli"]["table1"], cli_stdout(["table1"]))


def check_simulate(name: str) -> list[str]:
    with tempfile.TemporaryDirectory() as workdir:
        path = workloads.write_scenarios(Path(workdir))[name]
        got = cli_stdout(["simulate", "--scenario", str(path)])
    return text_mismatch(f"simulate {name}", REFS["cli"]["simulate"][name], got)


def check_cli_sweep() -> list[str]:
    name, param, start, stop, steps = workloads.CLI_SWEEP
    with tempfile.TemporaryDirectory() as workdir:
        path = workloads.write_scenarios(Path(workdir))[name]
        got = cli_stdout(["sweep", "--scenario", str(path), "--param", param,
                          "--from", start, "--to", stop, "--steps", steps])
    return text_mismatch(f"sweep {name} {param}", REFS["cli"]["sweep"], got)


def check_cli() -> list[str]:
    problems = check_table1()
    for name in sorted(REFS["cli"]["simulate"]):
        problems += check_simulate(name)
    return problems + check_cli_sweep()


def check_sums() -> list[str]:
    problems = []
    for name, ref in sorted(REFS["analytic_sum"].items()):
        got = run_scenario(SCENARIOS[name]).sum_value
        if not abs(got - ref) <= SUM_TOL:
            problems.append(f"analytic sum {name}: reference {ref!r}, now {got!r}, "
                            f"off by {got - ref:.3g}")
    return problems


def check_sweeps() -> list[str]:
    problems = []
    for v in REFS["sweeps"]:
        text = sweep_csv(SCENARIOS[v["scenario"]], v["param"], v["start"], v["stop"],
                         v["steps"])
        if workloads.digest(text) != v["sha256"]:
            problems.append("sweep digest differs: " + json.dumps(v, sort_keys=True))
    return problems


def check_mc_sweep(name: str) -> list[str]:
    s = scenario_from_dict(dict(FLATS[name], mc_samples=2000, seed=5))
    got = workloads.digest(sweep_csv(s, *MC_SWEEP))
    ref = MC_SWEEP_DIGESTS[name]
    return [] if got == ref else [f"MC sweep digest {name}: reference {ref}, now {got}"]


def check_mc_sweeps() -> list[str]:
    return [line for name in sorted(MC_SWEEP_DIGESTS) for line in check_mc_sweep(name)]


def main() -> int:
    groups = [
        (f"CLI outputs (table1, {len(REFS['cli']['simulate'])} simulate, sweep)", check_cli()),
        (f"{len(REFS['analytic_sum'])} analytic sums to {SUM_TOL:g}", check_sums()),
        (f"{len(REFS['sweeps'])} sweep digests", check_sweeps()),
        (f"{len(MC_SWEEP_DIGESTS)} MC sweep digests", check_mc_sweeps()),
    ]
    for title, problems in groups:
        print(f"{title}: {'ok' if not problems else f'{len(problems)} mismatch(es)'}")
        for line in problems:
            print(f"  {line}")
    return 1 if any(problems for _, problems in groups) else 0


if __name__ == "__main__":
    sys.exit(main())
