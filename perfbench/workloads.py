"""Inputs and output checks of the brightbeam benchmark.

Every workload works on the same five scenarios: the four bundled
fixtures plus fixture A with ``gain: "optimize"``, which is the only one
that runs the gain optimiser.  A workload is a closed loop over rounds;
each round has the same composition, and the seed picks the order and
the free inputs (sweep variants, Monte-Carlo seeds) of every round.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "brightbeam" / "fixtures"
REFS = Path(__file__).resolve().parent / "refs.json"

FIXTURE_NAMES = ("method_a", "method_b", "method_c_port_c", "method_c_port_d")
SCENARIO_NAMES = FIXTURE_NAMES + ("method_a_opt",)
WORKLOADS = ("cold_cli", "sweep", "mc_validate")

# Tail percentile per workload: the highest one that keeps at least ten
# operations beyond it in a run of min_rounds() rounds.
TAIL_PCT = {"cold_cli": 75, "sweep": 90, "mc_validate": 90}
# Rough duration of one round on a 2-core VM.  It only fixes how many
# rounds a traced run does, so that run's counts do not depend on timing.
NOMINAL_ROUND_S = {"cold_cli": 9.0, "sweep": 5.0, "mc_validate": 0.8}

# 25 log-spaced sweep lengths from 10 to 1000 steps, dealt to the scenarios
# in turn, so operation times spread smoothly and no percentile sits on a
# jump between two groups of equal operations.
SWEEP_CELLS = tuple((SCENARIO_NAMES[i % len(SCENARIO_NAMES)], round(10 * 100 ** (i / 24)))
                    for i in range(25))
SWEEP_VARIANTS = 6
# Ranges a sweep may span.  The optimised-gain scenario never sweeps
# `gain`, which would replace the optimiser by a fixed gain.
PARAM_RANGES = {
    "theta": (0.05, 3.09),
    "phi": (0.2, 2.9),
    "gain": (0.2, 5.0),
    "squeezing_db": (0.0, 8.0),
    "eta": (0.3, 1.0),
    "excess_phase_db": (0.0, 30.0),
    "entangle_ratio": (0.05, 0.95),
}
MC_SAMPLES = 1_000_000
CLI_SWEEP = ("method_b", "theta", "0.1", "3.0", "30")
# Documented error paths of the CLI and the exit code each must give.
ERROR_SCENARIOS = {
    "bad_ratio": ({"entangle_ratio": 1.5}, 2),
    "dark_port": ({"method": "C", "phi": 0.0}, 3),
}


def ops_per_round(workload: str) -> int:
    # cold_cli: table1, simulate per scenario, one sweep, one validate, errors.
    return {"cold_cli": 1 + len(SCENARIO_NAMES) + 2 + len(ERROR_SCENARIOS),
            "sweep": len(SWEEP_CELLS),
            "mc_validate": len(SCENARIO_NAMES)}[workload]


def min_rounds(workload: str) -> int:
    """Rounds needed for ten operations beyond the tail percentile."""
    min_ops = -(-1000 // (100 - TAIL_PCT[workload]))
    return -(-min_ops // ops_per_round(workload))


def trace_rounds(workload: str, seconds: float) -> int:
    """Fixed round count of each phase of a traced run."""
    return max(1, round(seconds / 2 / NOMINAL_ROUND_S[workload]))


def scenario_dicts() -> dict[str, dict]:
    flats = {}
    for name in FIXTURE_NAMES:
        flats[name] = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    flats["method_a_opt"] = dict(flats["method_a"], gain="optimize",
                                 label="A phase-measuring, optimised gain")
    return flats


def write_scenarios(workdir: Path) -> dict[str, Path]:
    """Write every scenario and error scenario file; return name -> path."""
    flats = scenario_dicts()
    flats.update({name: flat for name, (flat, _) in ERROR_SCENARIOS.items()})
    paths = {}
    for name, flat in flats.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    return paths


def load_refs() -> dict:
    return json.loads(REFS.read_text(encoding="utf-8"))


def sweep_round(rng, refs: dict) -> list[dict]:
    """One sweep variant per cell of SWEEP_CELLS, in seeded order."""
    cells: dict[tuple, list] = {}
    for variant in refs["sweeps"]:
        cells.setdefault((variant["scenario"], variant["steps"]), []).append(variant)
    ops = [rng.choice(cells[key]) for key in sorted(cells)]
    rng.shuffle(ops)
    return ops


def mc_round(rng) -> list[tuple[str, int]]:
    """Each scenario once, with a Monte-Carlo seed drawn from the workload seed."""
    ops = [(name, rng.randrange(2 ** 31)) for name in SCENARIO_NAMES]
    rng.shuffle(ops)
    return ops


def cli_round(rng, paths: dict[str, Path]) -> list[tuple[str, str, list[str]]]:
    """(kind, reference key, CLI arguments) of every invocation of one round."""
    ops = [("table1", "table1", ["table1"])]
    ops += [("simulate", name, ["simulate", "--scenario", str(paths[name])])
            for name in SCENARIO_NAMES]
    name, param, start, stop, steps = CLI_SWEEP
    ops.append(("sweep", name, ["sweep", "--scenario", str(paths[name]), "--param", param,
                                "--from", start, "--to", stop, "--steps", steps]))
    ops.append(("validate", "method_a",
                ["validate", "--scenario", str(paths["method_a"]),
                 "--seed", str(rng.randrange(2 ** 31))]))
    ops += [("error", name, ["simulate", "--scenario", str(paths[name])])
            for name in ERROR_SCENARIOS]
    rng.shuffle(ops)
    return ops


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mc_consistent(analytic, mc_sum, mc_stderr) -> bool:
    if not all(isinstance(x, float) for x in (analytic, mc_sum, mc_stderr)):
        return False
    return mc_stderr > 0 and abs(mc_sum - analytic) <= 5.0 * mc_stderr


def check_cli(kind: str, key: str, code: int, out: str, refs: dict) -> bool:
    """Exit code and stdout of one invocation against the references."""
    if kind == "error":
        return code == ERROR_SCENARIOS[key][1] and out == ""
    if code != 0:
        return False
    if kind == "validate":
        try:
            report = json.loads(out)
        except ValueError:
            return False
        analytic = report.get("analytic_sum") if isinstance(report, dict) else None
        # The CLI prints 6 significant digits; the stderr formula may change.
        return (analytic == float(format(refs["analytic_sum"][key], ".6g"))
                and mc_consistent(analytic, report.get("mc_sum"), report.get("mc_stderr")))
    if kind == "simulate":
        return out == refs["cli"]["simulate"][key]
    return out == refs["cli"][kind]


def check_sampled(key: str, sum_value, mc_sum, mc_stderr, refs: dict) -> bool:
    """Analytic sum to 1e-9 of the reference, sampled sum within 5 stderr."""
    return (mc_consistent(sum_value, mc_sum, mc_stderr)
            and abs(sum_value - refs["analytic_sum"][key]) <= 1e-9)


def closed_loop(make_round, run_op, seconds: float, min_rounds: int,
                max_rounds: int | None = None) -> list[tuple]:
    """Run whole rounds, one operation at a time, until `seconds` have passed.

    ``run_op(op)`` returns the operation's (duration_ns, work, ok) record.
    """
    records = []
    start = time.perf_counter()
    rounds = 0
    while (max_rounds is None or rounds < max_rounds) and (
            rounds < min_rounds or time.perf_counter() - start < seconds):
        records += [run_op(op) for op in make_round()]
        rounds += 1
    return records
