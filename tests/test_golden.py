"""Golden outputs: the CLI bytes and sweep digests recorded in perfbench/refs.json,
and the digests of Monte-Carlo sweeps pinned here.

The references are read, never written.  Any change to the physics, the
number formatting or the evaluation order that moves a printed digit
fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from brightbeam.cli import main
from brightbeam.harness import fixtures_dir, sweep_csv
from brightbeam.scenario import scenario_from_dict

REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json")
                  .read_text(encoding="utf-8"))
CLI_SWEEP = ("method_b", "theta", "0.1", "3.0", "30")
# SHA-256 of the 12-step theta sweep_csv from 0.3 to 2.8 with mc_samples 2000
# and seed 5; perfbench/refs.json pins sweeps without Monte-Carlo columns only.
MC_SWEEP = ("theta", 0.3, 2.8, 12)
MC_SWEEP_DIGESTS = {
    "method_a": "1247b2f64108b5ba1f0006a8528cf6755efca77ea94984a506f8468c612d80dd",
    "method_a_opt": "296a7c3b39bd1f0d33d3fbbaed655be4fb10b71ebcc211dd161bf2e5080ff7f1",
    "method_b": "4665b77597d1346bbfb35ab9c75db49d711c5f68f5fb000d3700567fe7bbfc6e",
    "method_c_port_c": "79ff3d96a6a2af780f5511104b9af15ed14b48ec697e7d5b7ec195ae3bf37340",
}


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


def _stdout(capsys, args) -> str:
    try:
        main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def test_table1_bytes(capsys):
    assert _stdout(capsys, ["table1"]) == REFS["cli"]["table1"]


@pytest.mark.parametrize("name", sorted(REFS["cli"]["simulate"]))
def test_simulate_bytes(name, scenario_files, capsys):
    out = _stdout(capsys, ["simulate", "--scenario", str(scenario_files[name])])
    assert out == REFS["cli"]["simulate"][name]


def test_cli_sweep_bytes(scenario_files, capsys):
    name, param, start, stop, steps = CLI_SWEEP
    out = _stdout(capsys, ["sweep", "--scenario", str(scenario_files[name]), "--param", param,
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


@pytest.mark.parametrize("name", sorted(MC_SWEEP_DIGESTS))
def test_monte_carlo_sweep_digests(name):
    s = scenario_from_dict(dict(SCENARIOS[name], mc_samples=2000, seed=5))
    text = sweep_csv(s, *MC_SWEEP)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MC_SWEEP_DIGESTS[name]
