import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import brightbeam
from brightbeam import SqueezedInputSpec
from brightbeam.cli import cli, main
from brightbeam.harness import fixtures_dir
from brightbeam.scenario import Scenario, save_scenario


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    beam = SqueezedInputSpec(amplitude=100.0, squeezing_db=3.7,
                             antisqueezing_db=3.7, correlated_group=1)
    save_scenario(Scenario(method="B", input_a=beam, input_b=beam,
                           label="cli-test"), path)
    return path


def test_simulate_emits_rounded_json(runner, scenario_file):
    result = runner.invoke(cli, ["simulate", "--scenario", str(scenario_file)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "B"
    assert report["witnessed"] is True
    assert report["sum"] == pytest.approx(2 * 10 ** -0.37, rel=1e-5)
    # 6 significant digits end to end
    assert len(str(report["sum"]).replace(".", "").lstrip("0")) <= 6


def test_simulate_with_mc(runner, scenario_file):
    result = runner.invoke(cli, [
        "simulate", "--scenario", str(scenario_file),
        "--mc-samples", "20000", "--seed", "5"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["mc_stderr"] > 0
    assert abs(report["mc_sum"] - report["sum"]) < 5 * report["mc_stderr"]


def test_sweep_to_stdout_and_file(runner, scenario_file, tmp_path):
    args = ["sweep", "--scenario", str(scenario_file), "--param", "theta",
            "--from", "0.2", "--to", "3.0", "--steps", "5"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0
    out_path = tmp_path / "sweep.csv"
    result2 = runner.invoke(cli, args + ["--out", str(out_path)])
    assert result2.exit_code == 0
    assert out_path.read_text() == result.output
    lines = result.output.rstrip("\n").split("\n")
    assert lines[0].startswith("method,param,value,")
    assert len(lines) == 6


def test_sweep_rejects_unknown_param(runner, scenario_file):
    result = runner.invoke(cli, [
        "sweep", "--scenario", str(scenario_file), "--param", "amplitude",
        "--from", "1", "--to", "2", "--steps", "3"])
    assert result.exit_code != 0


def test_table1_bundled_fixtures(runner):
    result = runner.invoke(cli, ["table1"])
    assert result.exit_code == 0
    for label in ("method", "A", "B", "C"):
        assert label in result.output


def test_validate(runner, scenario_file):
    result = runner.invoke(cli, [
        "validate", "--scenario", str(scenario_file),
        "--mc-samples", "50000", "--seed", "1"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["consistent_3_sigma"] is True


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"entangle_ratio": 1.5}\n')
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    assert "entangle_ratio" in capsys.readouterr().err


def test_exit_code_degenerate(tmp_path, capsys):
    dark = tmp_path / "dark.json"
    dark.write_text('{"method": "C", "phi": 0.0}\n')
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(dark)])
    assert exc.value.code == 3
    assert "degenerate" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "/nonexistent/path.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flat", [
    {"mc_samples": 1}, {"mc_samples": 1.5}, {"mc_samples": True},
    {"seed": -1, "mc_samples": 1000}, {"seed": 1.5},
])
def test_bad_mc_settings_in_file_exit_2(tmp_path, capsys, flat):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(flat))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--mc-samples", "1"], ["--mc-samples", "-3"], ["--mc-samples", "1.5"],
    ["--seed", "-1", "--mc-samples", "1000"],
])
def test_bad_mc_flags_exit_2(scenario_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(scenario_file), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flat", [
    {"theta": float("nan")}, {"theta": float("inf")}, {"theta": "x"}, {"theta": 10 ** 400},
    {"method": "B", "phi": float("nan")}, {"phi": True},
    {"imbalance": float("nan")}, {"imbalance": -1}, {"imbalance": -1, "gain": "optimize"},
    {"gain": True}, {"gain": float("inf")},
    {"entangle_ratio": float("nan")}, {"excess_correlation": "x"},
    {"frequency_mhz": float("nan")},
    {"input_a.squeezing_db": 1e6, "input_a.antisqueezing_db": 1e6},
    {"input_b.antisqueezing_db": 1e6}, {"input_a.squeezing_db": float("nan")},
    {"input_a.amplitude": float("inf")}, {"input_b.excess_phase_db": float("inf")},
    {"input_a.correlated_group": [1, 2]}, {"input_a.correlated_group": {"a": 1}},
    {"input_a.correlated_group": [1]}, {"input_b.correlated_group": "x"},
    {"input_a.correlated_group": 1.5}, {"input_b.correlated_group": True},
    {"budget_a.visibility": True}, {"budget_a.visibility": "0.5"},
    {"budget_a.prop_loss": True}, {"budget_b.prop_loss": "0.5"},
    {"budget_b.quantum_efficiency": float("nan")},
], ids=lambda flat: ",".join(f"{k}={v!r}"[:40] for k, v in flat.items()))
def test_bad_scalar_fields_exit_2(tmp_path, capsys, flat):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(flat))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert any(key.partition(".")[0] in err for key in flat)


@pytest.mark.parametrize("flat", [
    {"gain": 1e200}, {"method": "B", "imbalance": 1e200},
    {"method": "C", "input_a.amplitude": 1e200, "input_b.amplitude": 1e200},
], ids=lambda flat: ",".join(f"{k}={v!r}" for k, v in flat.items()))
def test_overflowing_reading_exits_2(tmp_path, capsys, flat):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(flat))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: photocurrent variance overflows: carrier amplitude, "
                   "gain or noise level too large\n")


FIXTURE_B = str(fixtures_dir() / "method_b.json")


@pytest.mark.parametrize("param, start, stop, value", [
    ("eta", "0.5", "1.5", "1.5"),
    ("squeezing_db", "-1", "1", "-1.0"),
    ("squeezing_db", "nan", "1", "nan"),
    ("excess_phase_db", "-3", "3", "-3.0"),
    ("theta", "inf", "3", "inf"),
    ("phi", "0", "-inf", "-inf"),
])
def test_out_of_range_sweep_values_exit_2(capsys, param, start, stop, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", FIXTURE_B, "--param", param,
              "--from", start, "--to", stop, "--steps", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot sweep {param} to {value}: ")


def test_sweep_through_a_dark_port_exits_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"method": "C"}\n')
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(path), "--param", "phi",
              "--from", "-0.5", "--to", "0.5", "--steps", "3"])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("degenerate configuration: interferometer output port is dark; "
                   "shot-noise normalization degenerate\n")


def _run_then_list_scipy(tmp_path, *argv) -> tuple[str, list[str]]:
    """Import the CLI in a fresh interpreter and run it on argv, if given;
    return its stdout and the scipy modules loaded by the end."""
    code = ("import json, sys\n"
            "from brightbeam.cli import main\n"
            "if sys.argv[1:]:\n"
            "    main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(brightbeam.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out, _, loaded = done.stdout.rstrip("\n").rpartition("\n")
    return out, json.loads(loaded)


def test_no_scipy_at_start_up(tmp_path):
    assert _run_then_list_scipy(tmp_path)[1] == []
    out, loaded = _run_then_list_scipy(tmp_path, "table1")
    assert "method" in out
    assert loaded == []


def test_optimised_gain_still_runs(tmp_path):
    flat = json.loads((fixtures_dir() / "method_a.json").read_text(encoding="utf-8"))
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(dict(flat, gain="optimize")))
    out, loaded = _run_then_list_scipy(tmp_path, "simulate", "--scenario", str(path))
    assert json.loads(out)["gain"] == 0.960531
    assert "scipy.optimize" in loaded
