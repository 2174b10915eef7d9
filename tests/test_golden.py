"""Golden outputs: the CLI bytes and sweep digests recorded in perfbench/refs.json.

The references are read, never written.  Any change to the physics, the
number formatting or the evaluation order that moves a printed digit
fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from brightbeam.cli import cli
from brightbeam.harness import fixtures_dir, sweep_csv
from brightbeam.scenario import scenario_from_dict

REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json")
                  .read_text(encoding="utf-8"))
CLI_SWEEP = ("method_b", "theta", "0.1", "3.0", "30")


def _scenario_dicts() -> dict[str, dict]:
    flats = {p.stem: json.loads(p.read_text(encoding="utf-8"))
             for p in sorted(fixtures_dir().glob("*.json"))}
    flats["method_a_opt"] = dict(flats["method_a"], gain="optimize",
                                 label="A phase-measuring, optimised gain")
    return flats


SCENARIOS = _scenario_dicts()


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, flat in SCENARIOS.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(flat), encoding="utf-8")
    return paths


def _stdout(args) -> str:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result.stdout


def test_table1_bytes():
    assert _stdout(["table1"]) == REFS["cli"]["table1"]


@pytest.mark.parametrize("name", sorted(REFS["cli"]["simulate"]))
def test_simulate_bytes(name, scenario_files):
    out = _stdout(["simulate", "--scenario", str(scenario_files[name])])
    assert out == REFS["cli"]["simulate"][name]


def test_cli_sweep_bytes(scenario_files):
    name, param, start, stop, steps = CLI_SWEEP
    out = _stdout(["sweep", "--scenario", str(scenario_files[name]), "--param", param,
                   "--from", start, "--to", stop, "--steps", steps])
    assert out == REFS["cli"]["sweep"]


def test_sweep_digests():
    variants = REFS["sweeps"]
    assert len(variants) == 150
    mismatched = []
    for v in variants:
        text = sweep_csv(scenario_from_dict(SCENARIOS[v["scenario"]]),
                         v["param"], v["start"], v["stop"], v["steps"])
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != v["sha256"]:
            mismatched.append(v)
    assert mismatched == []
