"""Regenerate refs.json, the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py

The references were generated at the commit that added the benchmark;
every later commit must reproduce them.  Regenerate them only when an
output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))

from brightbeam import harness, scenario  # noqa: E402

POOL_SEED = 0


def cli(args) -> str:
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    done = subprocess.run([sys.executable, "-m", "brightbeam.cli", *args], env=env,
                          cwd=workloads.ROOT, capture_output=True, text=True, check=True)
    return done.stdout


def sweep_variant(rng, name: str, s, steps: int) -> dict:
    """Draw a parameter and range until every point of the sweep evaluates."""
    params = [p for p in workloads.PARAM_RANGES if not (p == "gain" and s.gain == "optimize")]
    while True:
        param = rng.choice(params)
        lo, hi = workloads.PARAM_RANGES[param]
        start, stop = (round(rng.uniform(lo, hi), 4) for _ in range(2))
        if start == stop:
            continue
        try:
            text = harness.sweep_csv(s, param, start, stop, steps)
        except Exception:  # a range where some point fails is redrawn
            continue
        return {"scenario": name, "param": param, "start": start, "stop": stop,
                "steps": steps, "sha256": workloads.digest(text)}


def main():
    workdir = workloads.ROOT / ".perfbench_work" / "refs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = workloads.write_scenarios(workdir)
        scenarios = {name: scenario.load_scenario(paths[name])
                     for name in workloads.SCENARIO_NAMES}
        name, param, start, stop, steps = workloads.CLI_SWEEP
        refs = {
            "cli": {
                "table1": cli(["table1"]),
                "simulate": {n: cli(["simulate", "--scenario", str(paths[n])])
                             for n in workloads.SCENARIO_NAMES},
                "sweep": cli(["sweep", "--scenario", str(paths[name]), "--param", param,
                              "--from", start, "--to", stop, "--steps", steps]),
            },
            "analytic_sum": {n: harness.run_scenario(s).sum_value for n, s in scenarios.items()},
        }
        rng = random.Random(POOL_SEED)
        refs["sweeps"] = [sweep_variant(rng, n, scenarios[n], steps)
                          for n, steps in workloads.SWEEP_CELLS
                          for _ in range(workloads.SWEEP_VARIANTS)]
    finally:
        shutil.rmtree(workdir)
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
