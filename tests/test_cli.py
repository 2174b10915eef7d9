import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import brightbeam
from brightbeam import SqueezedInputSpec
from brightbeam.cli import main
from brightbeam.harness import (SWEEP_PARAMS, compare_methods, fixtures_dir,
                                run_fixture_table, sweep_csv)
from brightbeam.scenario import Scenario, known_keys, load_scenario, save_scenario

# The source tree, for CLI runs in a fresh interpreter.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(brightbeam.__file__).resolve().parents[1]))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    beam = SqueezedInputSpec(amplitude=100.0, squeezing_db=3.7,
                             antisqueezing_db=3.7, correlated_group=1)
    save_scenario(Scenario(method="B", input_a=beam, input_b=beam,
                           label="cli-test"), path)
    return path


def test_simulate_emits_rounded_json(scenario_file, capsys):
    main(["simulate", "--scenario", str(scenario_file)])
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "B"
    assert report["witnessed"] is True
    assert report["sum"] == pytest.approx(2 * 10 ** -0.37, rel=1e-5)
    # 6 significant digits end to end
    assert len(str(report["sum"]).replace(".", "").lstrip("0")) <= 6


def test_simulate_with_mc(scenario_file, capsys):
    main(["simulate", "--scenario", str(scenario_file), "--mc-samples", "20000", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert report["mc_stderr"] > 0
    assert abs(report["mc_sum"] - report["sum"]) < 5 * report["mc_stderr"]


def test_sweep_to_stdout_and_file(scenario_file, tmp_path, capsys):
    args = ["sweep", "--scenario", str(scenario_file), "--param", "theta",
            "--from", "0.2", "--to", "3.0", "--steps", "5"]
    main(args)
    output = capsys.readouterr().out
    out_path = tmp_path / "sweep.csv"
    main(args + ["--out", str(out_path)])
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == output
    lines = output.rstrip("\n").split("\n")
    assert lines[0].startswith("method,param,value,")
    assert len(lines) == 6


@pytest.mark.parametrize("out", ["missing/sweep.csv", "."])
def test_sweep_out_not_writable_exits_2(scenario_file, tmp_path, capsys, out):
    # A missing directory and a directory itself: the OSError exits 2, not a traceback.
    out_path = tmp_path / out
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(scenario_file), "--param", "theta",
              "--from", "0.2", "--to", "3.0", "--steps", "5", "--out", str(out_path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_non_string_label_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": 5}\n')
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: label must be a string, got 5\n"
    # In a fixtures directory the label used to reach the table's width sum.
    (tmp_path / "a.json").write_text('{"method": "B", "label": "fine"}\n')
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: label must be a string, got 5\n"


def test_lone_surrogate_label_exits_2(tmp_path, capsys):
    # Valid JSON whose label no UTF-8 stdout can print: table1 used to end
    # in a UnicodeEncodeError traceback.
    (tmp_path / "a.json").write_text('{"method": "B", "label": "fine"}\n')
    (tmp_path / "b.json").write_text('{"label": "x\\ud800"}\n')
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: label must be UTF-8 encodable text, got 'x\\ud800'\n")


@pytest.mark.parametrize("encoding, label", [("ascii", "caf\\xe9"), ("utf-8", "café")])
def test_table1_escapes_what_stdout_cannot_encode(tmp_path, encoding, label):
    # On an ASCII stdout a non-ASCII label is written as a backslash escape,
    # as json.dumps escapes it in simulate and validate, and padded as
    # written, so every row stays aligned; on a UTF-8 stdout the table is
    # unchanged.  table1 used to end in a UnicodeEncodeError.
    for path in fixtures_dir().glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    fixture = tmp_path / "method_a.json"
    fixture.write_text(json.dumps({**json.loads(fixture.read_text()), "label": "café"}))
    done = subprocess.run([sys.executable, "-m", "brightbeam.cli", "table1",
                           "--fixtures", str(tmp_path)], capture_output=True, timeout=120,
                          env={**CHILD_ENV, "PYTHONIOENCODING": encoding})
    table = compare_methods([replace(row, label=row.label.replace("café", label))
                             for row in run_fixture_table(tmp_path)])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode(encoding) == table + "\n"
    header, _, *lines = table.splitlines()
    assert {len(line) for line in lines if not line.startswith("note:")} == {len(header)}


FIXTURE_B = str(fixtures_dir() / "method_b.json")
SWEEP_B = ["sweep", "--scenario", FIXTURE_B, "--param", "theta"]
RANGE = ["--from", "1", "--to", "2", "--steps", "3"]


@pytest.mark.parametrize("argv", [
    pytest.param([], id="no-verb"),
    pytest.param(["bogus"], id="unknown-verb"),
    pytest.param(["sweep", "--param", "theta", *RANGE], id="no-scenario"),
    pytest.param([*SWEEP_B, *RANGE[:4]], id="no-steps"),
    pytest.param(["sweep", "--scenario", FIXTURE_B, "--param", "amplitude", *RANGE],
                 id="param-amplitude"),
    pytest.param(["simulate", "--scenario", FIXTURE_B, "--mc-samples", "x"], id="mc-samples-x"),
    pytest.param([*SWEEP_B, *RANGE[:4], "--steps", "1e3"], id="steps-1e3"),
    pytest.param(["sweep", "--scen", FIXTURE_B, "--param", "theta", *RANGE], id="abbreviation"),
    pytest.param([*SWEEP_B, *RANGE, "--bogus"], id="unknown-flag"),
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_negative_sweep_bounds_run(capsys):
    main([*SWEEP_B, "--from", "-3e0", "--to", "-1e-1", "--steps", "3"])
    assert capsys.readouterr().out == sweep_csv(load_scenario(FIXTURE_B), "theta", -3.0, -0.1, 3)


def test_table1_bundled_fixtures(capsys):
    main(["table1"])
    output = capsys.readouterr().out
    for label in ("method", "A", "B", "C"):
        assert label in output


def test_validate(scenario_file, capsys):
    main(["validate", "--scenario", str(scenario_file), "--mc-samples", "50000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
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


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-too-deep"])
def test_unreadable_scenario_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: scenario file {bad} is not valid JSON: ")


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
    {"gain": 1e200, "input_a.amplitude": 1e200},
    {"method": "B", "imbalance": 1e200, "input_a.amplitude": 1e200},
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


def test_reading_lost_to_rounding_exits_2(tmp_path, capsys):
    # 1e300-sized covariance entries cancel to exactly 0.0 in the joint reading.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_a.antisqueezing_db": 3000, "input_b.antisqueezing_db": 3000}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(bad)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: photocurrent variance is lost to rounding: covariance "
                   "entries are too large for double precision\n")


@pytest.mark.parametrize("param, start, stop, value", [
    ("eta", "0.5", "1.5", "1.5"),
    ("squeezing_db", "-1", "1", "-1.0"),
    ("squeezing_db", "nan", "1", "nan"),
    ("excess_phase_db", "-3", "3", "-3.0"),
    ("theta", "inf", "3", "inf"),
    ("phi", "0", "-inf", "-inf"),
    ("theta", "-1e308", "1e308", "1e+308"),
])
def test_out_of_range_sweep_values_exit_2(capsys, param, start, stop, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", FIXTURE_B, "--param", param,
              "--from", start, "--to", stop, "--steps", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot sweep {param} to {value}: ")
    assert "Warning" not in err


# Counts of 10**20 and more fail at once; smaller huge counts may allocate
# gigabytes before they fail, so they are not tried.
@pytest.mark.parametrize("argv, message", [
    (["sweep", "--scenario", FIXTURE_B, "--param", "theta", "--from", "0.1", "--to", "1",
      "--steps", str(10 ** 30)], f"error: cannot sweep theta in steps = {10 ** 30}: "),
    (["validate", "--scenario", FIXTURE_B, "--mc-samples", str(10 ** 20)],
     f"error: cannot draw mc_samples = {10 ** 20}: "),
])
def test_counts_numpy_cannot_size_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


def test_mc_samples_numpy_cannot_size_in_a_file_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"method": "B", "mc_samples": 10 ** 20}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot draw mc_samples = {10 ** 20}: ")


def test_sampler_lost_to_rounding_exits_2(tmp_path, capsys):
    # The state passes the uncertainty check, but the sampler's eigenvalues
    # of its 1e20-sized entries dip below zero by rounding alone.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"method": "B", "input_a.antisqueezing_db": 200,
                                "input_b.antisqueezing_db": 200, "mc_samples": 100}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: covariance entries are too large for double precision: "
                   "rounding breaks positive semi-definiteness\n")


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


# Prints the numpy, scipy and click packages loaded (a blocked one is None, not loaded).
PRINT_LOADED = ("print(json.dumps(sorted({m.split('.')[0] for m, module in sys.modules.items()\n"
                "    if module is not None\n"
                "    and m.split('.')[0] in ('numpy', 'scipy', 'click')})))\n")


def _run_then_list_loaded(tmp_path, *argv, blocked=()) -> tuple[str, str, list[str]]:
    """Import the CLI in a fresh interpreter, where every import of a module
    in ``blocked`` fails, and run it on argv, if given; return its stdout,
    ending in "exit <code>" if it exits, its stderr, and the numpy, scipy
    and click packages loaded by the end."""
    code = ("import json, sys\n"
            f"sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
            "from brightbeam.cli import main\n"
            "if sys.argv[1:]:\n"
            "    try:\n"
            "        main(sys.argv[1:])\n"
            "    except SystemExit as exc:\n"
            "        print(f'exit {exc.code}')\n"
            + PRINT_LOADED)
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    out, _, loaded = done.stdout.rstrip("\n").rpartition("\n")
    return out, done.stderr, json.loads(loaded)


def test_no_scipy_at_start_up(tmp_path):
    assert _run_then_list_loaded(tmp_path)[2] == []
    out, _, loaded = _run_then_list_loaded(tmp_path, "table1")
    assert "method" in out
    assert loaded == ["numpy"]


# Invalid inputs: a scenario file, the verb and the flags after --scenario,
# and a part of the message on stderr.
INVALID_INPUTS = [
    ({"entangle_ratio": 1.5}, ["simulate"], "error: entangle_ratio must be in [0, 1], got 1.5\n"),
    ({"input_a.antisqueezing_db": 4000}, ["simulate"],
     "error: input_a: 4000 dB is out of the representable variance range\n"),
    ({}, ["sweep", "--param", "bogus", "--from", "0", "--to", "1", "--steps", "2"],
     "error: argument --param: invalid choice: 'bogus'"),
    ({}, ["validate", "--mc-samples", "1"], "error: validate needs --mc-samples >= 2\n"),
    ({}, ["sweep", "--param", "theta", "--from", "0", "--to", "1", "--steps", "1"],
     "error: sweep needs at least 2 steps, got 1\n"),
    ({}, ["sweep", "--param", "theta", "--from", "nan", "--to", "1", "--steps", "3"],
     "error: cannot sweep theta to nan: the start bound must be finite\n"),
    ({}, ["sweep", "--param", "theta", "--from", "-1e308", "--to", "1e308", "--steps", "3"],
     "error: cannot sweep theta to 1e+308: the span from -1e+308 overflows\n"),
]


@pytest.mark.parametrize("flat, argv, message", INVALID_INPUTS,
                         ids=["ratio", "antisqueezing", "param", "mc_samples", "steps",
                              "from_nan", "span"])
def test_invalid_input_exits_2_before_numpy_loads(tmp_path, flat, argv, message):
    # The scenario and its checks import no numpy: blocked or not, an
    # invalid input exits 2 with the same message, and numpy never loads.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(flat))
    argv = [argv[0], "--scenario", str(path), *argv[1:]]
    out, err, loaded = _run_then_list_loaded(tmp_path, *argv)
    assert (out, loaded) == ("exit 2", [])
    assert message in err
    assert _run_then_list_loaded(tmp_path, *argv, blocked=["numpy"]) == (out, err, loaded)


def test_repeated_key_exits_2_naming_it(tmp_path, capsys):
    # json.load keeps the last value of a repeated key; a scenario file
    # with one is an error, not a silent choice of the second theta.
    path = tmp_path / "twice.json"
    path.write_text('{"theta": 1.0, "theta": 0.2}')
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: scenario file {path} repeats the key 'theta'\n")


def test_monte_carlo_threads_load_no_executor(tmp_path):
    # concurrent.futures (with logging) adds about 10 ms to a cold process;
    # the draws run on plain threads, so neither start-up nor a method-A
    # validate, whose two draws run side by side, loads it.
    code = ("import sys\n"
            "from brightbeam.cli import main\n"
            "print('concurrent.futures' in sys.modules)\n"
            "main(sys.argv[1:])\n"
            "print('concurrent.futures' in sys.modules)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, "validate", "--scenario",
         str(fixtures_dir() / "method_a.json"), "--mc-samples", "2000"],
        cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")
    assert "mc_sum" in done.stdout


def test_optimised_gain_still_runs(tmp_path):
    flat = json.loads((fixtures_dir() / "method_a.json").read_text(encoding="utf-8"))
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(dict(flat, gain="optimize")))
    out, _, loaded = _run_then_list_loaded(tmp_path, "simulate", "--scenario", str(path))
    assert json.loads(out)["gain"] == 0.960531
    assert loaded == ["numpy"]


def test_every_verb_runs_with_scipy_blocked(tmp_path):
    flat = json.loads((fixtures_dir() / "method_a.json").read_text(encoding="utf-8"))
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(dict(flat, gain="optimize")))
    verbs = [["table1"], ["simulate", "--scenario", str(path)],
             ["sweep", "--scenario", str(path), "--param", "theta",
              "--from", "0.5", "--to", "2.5", "--steps", "4"],
             ["validate", "--scenario", str(path), "--mc-samples", "2000"]]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # every import of scipy now fails\n"
            "sys.modules['click'] = None  # and every import of click\n"
            "from brightbeam.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    main(argv)\n"
            "    print('verb done')\n"
            + PRINT_LOADED)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(verbs)], cwd=tmp_path,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("verb done") == len(verbs)
    assert '"gain": 0.960531' in done.stdout
    assert done.stdout.endswith('verb done\n["numpy"]\n')


@pytest.mark.parametrize("argv", [["table1"], ["simulate", "--scenario", FIXTURE_B],
                                  [*SWEEP_B, *RANGE]], ids=lambda argv: argv[0])
def test_closed_stdout_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the child's first write to stdout fails with EPIPE
    try:
        done = subprocess.run([sys.executable, "-m", "brightbeam.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=CHILD_ENV, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.fixture
def restore_gc():
    """Give the collector back to the test process after a process-entry run."""
    yield
    gc.unfreeze()
    gc.enable()


def _exit_code(argv=None) -> int:
    """The exit code of main(argv): 0 when it returns."""
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


# One run for each exit code but 1 (a closed stdout): success, a
# validation error and a degenerate setup; a scenario file, the verb and
# the flags after --scenario, and the exit code.
EXIT_RUNS = [({"method": "B"}, ["simulate"], 0),
             ({}, ["sweep", "--param", "theta", "--from", "0", "--to", "1", "--steps", "1"], 2),
             ({"method": "C", "phi": 0.0}, ["simulate"], 3)]


def _scenario_argv(tmp_path, flat, argv):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(flat))
    return [argv[0], "--scenario", str(path), *argv[1:]]


@pytest.mark.parametrize("flat, argv, code", EXIT_RUNS, ids=["exit_0", "exit_2", "exit_3"])
def test_process_entry_exits_with_the_collector_off_and_the_heap_frozen(
        tmp_path, monkeypatch, capsys, restore_gc, flat, argv, code):
    # main() without arguments is the console script and python -m: it
    # runs without the cyclic collector and freezes the heap before it
    # exits, so the interpreter's shutdown collections skip it.
    monkeypatch.setattr(sys, "argv", ["brightbeam", *_scenario_argv(tmp_path, flat, argv)])
    assert _exit_code() == code
    assert not gc.isenabled()
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("flat, argv, code", EXIT_RUNS, ids=["exit_0", "exit_2", "exit_3"])
def test_main_with_argv_leaves_the_collector_as_found(tmp_path, capsys, flat, argv, code):
    frozen = gc.get_freeze_count()
    assert _exit_code(_scenario_argv(tmp_path, flat, argv)) == code
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_flat_witness_sum_keeps_unit_gain(tmp_path, capsys):
    # Coherent inputs: every gain gives the sum 2, and unit gain wins the tie.
    path = tmp_path / "coherent.json"
    path.write_text(json.dumps({"method": "A", "gain": "optimize"}))
    main(["simulate", "--scenario", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert (report["gain"], report["sum"]) == (1.0, 2.0)


def test_gain_search_on_huge_noise_is_silent(tmp_path, capsys):
    # The array search computes parabolic steps it then discards, some of
    # them 0/0; like scipy's search on Python floats, it must not warn.
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"gain": "optimize", "input_a.antisqueezing_db": 150,
                                "input_b.antisqueezing_db": 150}))
    main(["simulate", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert (report["gain"], report["sum"]) == (1.0, 2.01206)


def test_shared_phase_noise_overflow_exits_2(tmp_path, capsys):
    # Both inputs share group 1; the product of their 1e160 classical
    # variances overflows.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input_a.excess_phase_db": 1600,
                                "input_b.excess_phase_db": 1600}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: covariance entries are not finite: noise levels overflow "
                   "double precision\n")


@pytest.mark.parametrize("method", ["B", "C"])
def test_state_lost_to_rounding_exits_2(tmp_path, capsys, method):
    # The interfered 1e300-sized entries miss positive semi-definiteness
    # by rounding alone.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"method": method, "input_a.antisqueezing_db": 3000,
                                "input_b.antisqueezing_db": 3000}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: covariance entries are too large for double precision: "
                   "rounding breaks positive semi-definiteness\n")


def test_dark_pair_exits_3_before_the_gain_search(tmp_path):
    # At theta = 1e-9 mode 2's carrier is 5e-10 of the total: dark.
    path = tmp_path / "dark.json"
    path.write_text(json.dumps({"gain": "optimize", "theta": 1e-9}))
    out, _, loaded = _run_then_list_loaded(tmp_path, "simulate", "--scenario", str(path))
    assert out == "exit 3"
    assert loaded == ["numpy"]


HOSTILE = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10 ** 400, -10 ** 400,
           10 ** 20, "x", "", True, False, None, [], [1.0], {"a": 1}]
PLAIN = [0, 0.0, 0.5, 1, 2.5, 100.0, -1.0, "A", "B", "C", "c", "d", "optimize"]
# Counts that cannot allocate: small ones, ones numpy cannot size, non-integers.
COUNTS = [0, 2, 3, 1000, 10 ** 20, 10 ** 30, 1.5, float("nan"), "x", True, None, [2]]


# dB values near the edges: around 40 dB map outputs cross
# mapped_unchecked_scale, and from about 3000 dB one variance still fits a
# float but the sum of two does not.
EDGE_DB = hs.floats(35.0, 45.0) | hs.floats(3000.0, 3090.0)


@hs.composite
def hostile_scenarios(draw):
    # A few keys at a time, so that one hostile value often meets valid defaults.
    keys = draw(hs.lists(hs.sampled_from(sorted(known_keys())), unique=True,
                         min_size=1, max_size=3))
    values = (hs.sampled_from(PLAIN) | hs.floats(0, 10) | hs.sampled_from(HOSTILE)
              | hs.floats())
    return {k: draw(hs.sampled_from(COUNTS) if k in ("mc_samples", "seed") else values)
            for k in keys}


@hs.composite
def edge_scenarios(draw):
    """Inputs with dB fields near their edges, each input's antisqueezing at
    least its squeezing, so that the uncertainty relation rarely ends the run."""
    flat = {}
    for arm in "ab":
        if draw(hs.booleans()):
            low, high = sorted([draw(EDGE_DB), draw(EDGE_DB)])
            flat.update({f"input_{arm}.squeezing_db": low, f"input_{arm}.antisqueezing_db": high})
        if draw(hs.booleans()):
            flat[f"input_{arm}.excess_phase_db"] = draw(EDGE_DB)
    return flat


def _exit_code_and_stderr(argv) -> tuple[int, str]:
    """Run main(argv) with warnings raised as errors; return its exit code
    and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300)
@given(flat=hostile_scenarios() | edge_scenarios(), param=hs.sampled_from(SWEEP_PARAMS))
# One variance of 3080 dB fits a float, but the symmetrized covariance
# overflows and its eigendecomposition fails.
@example(flat={"input_a.squeezing_db": 3000, "input_a.antisqueezing_db": 3080}, param="theta")
def test_any_scenario_file_exits_0_2_or_3(tmp_path_factory, flat, param):
    """No scenario file ends in a traceback or a warning, in simulate, a
    short sweep or validate."""
    path = tmp_path_factory.mktemp("hostile") / "s.json"
    path.write_text(json.dumps(flat))
    for argv in (["simulate"], ["sweep", "--param", param, "--from", "0.5", "--to", "1",
                                "--steps", "3"], ["validate", "--mc-samples", "2"]):
        code, err = _exit_code_and_stderr([*argv, "--scenario", str(path)])
        assert code in (0, 2, 3), argv
        assert "Warning" not in err, argv


# Flag values that read as negative or non-finite numbers, as flags or as
# nothing, and counts from COUNTS that numpy cannot size.
FLAG_VALUES = ["-inf", "nan", "1e400", "-1e308", "", "-", "--", " -1", "0x10", "1_000",
               str(10 ** 20), str(10 ** 30)]
# Each verb's flags, with values that run; validate always gets a small --mc-samples.
VERB_FLAGS = {
    "simulate": {"--mc-samples": ["0", "2000"], "--seed": ["0", "7"]},
    "validate": {"--mc-samples": ["2000"], "--seed": ["0", "7"]},
    "sweep": {"--param": list(SWEEP_PARAMS), "--from": ["-1", "0.5"], "--to": ["-1", "2"],
              "--steps": ["3"]},
}
FIXTURE_PATHS = sorted(str(path) for path in fixtures_dir().glob("*.json"))


@hs.composite
def hostile_argv(draw):
    verb = draw(hs.sampled_from(sorted(VERB_FLAGS)))
    # Half the values run, so that hostile ones also meet parsed flags.
    argv = [verb, "--scenario", draw(hs.sampled_from(FIXTURE_PATHS) | hs.sampled_from(FLAG_VALUES))]
    for flag, values in VERB_FLAGS[verb].items():
        argv += [flag, draw(hs.sampled_from(values) | hs.sampled_from(FLAG_VALUES))]
    return argv


@settings(max_examples=300)
@given(argv=hostile_argv())
def test_any_flags_exit_0_2_or_3(argv):
    """No flag value ends in a traceback or a warning."""
    code, err = _exit_code_and_stderr(argv)
    assert code in (0, 2, 3)
    assert "Warning" not in err
