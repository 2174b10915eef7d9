import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from brightbeam.errors import ScenarioError
from brightbeam.scenario import (
    METHODS,
    PORTS,
    Scenario,
    fixtures_dir,
    known_keys,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from fit_fixtures import ANTISQUEEZE_DB, EXCESS_DB, MEASUREMENTS  # noqa: E402


def test_defaults():
    s = Scenario()
    assert s.method == "A"
    assert s.gain == 1.0
    assert s.entangle_ratio == 0.5
    assert s.theta == pytest.approx(math.pi / 2)
    assert s.phi == pytest.approx(math.pi / 2)
    assert s.input_a.amplitude == 100.0
    assert s.input_a.squeezing_db == 0.0
    assert s.budget_a.effective() == 1.0
    assert s.excess_correlation == 1.0


def test_empty_dict_gives_defaults():
    assert scenario_from_dict({}) == Scenario()


def test_dotted_keys_reach_nested_records():
    s = scenario_from_dict({
        "method": "B",
        "input_a.squeezing_db": 3.7,
        "input_a.antisqueezing_db": 5.0,
        "budget_a.prop_loss": 0.1,
        "budget_b.quantum_efficiency": 0.9,
    })
    assert s.input_a.squeezing_db == 3.7
    assert s.input_b.squeezing_db == 0.0
    assert s.budget_a.propagation == pytest.approx(0.9)
    assert s.budget_b.quantum_efficiency == 0.9


def test_unknown_key_named_in_error():
    with pytest.raises(ScenarioError, match="input_a.squeeze_db"):
        scenario_from_dict({"input_a.squeeze_db": 3.0})


def test_unknown_non_string_key_named_in_error():
    # A mapping built in Python may mix key types; the error names the key
    # that sorts first as text.
    with pytest.raises(ScenarioError, match="unknown scenario key: 1$"):
        scenario_from_dict({1: 2, "x": 3})


def test_out_of_range_ratio_names_field():
    with pytest.raises(ScenarioError, match="entangle_ratio"):
        scenario_from_dict({"entangle_ratio": 1.2})


def test_bad_gain_rejected():
    with pytest.raises(ScenarioError, match="gain"):
        Scenario(gain="best")
    with pytest.raises(ScenarioError, match="gain"):
        Scenario(gain=-2.0)
    assert Scenario(gain="optimize").gain == "optimize"


def test_bad_port_and_method():
    with pytest.raises(ScenarioError, match="port"):
        Scenario(port="e")
    with pytest.raises(ScenarioError, match="method"):
        Scenario(method="D")


def test_nested_validation_reported_as_scenario_error():
    # Heisenberg-violating input must surface as a config error, not a
    # bare ValueError
    with pytest.raises(ScenarioError, match="input_a"):
        scenario_from_dict({"input_a.squeezing_db": 6.0, "input_a.antisqueezing_db": 1.0})


def test_dict_roundtrip():
    s = scenario_from_dict({
        "method": "C",
        "port": "d",
        "theta": 1.2,
        "phi": 0.8,
        "gain": "optimize",
        "imbalance": 0.04,
        "excess_correlation": 0.93,
        "input_b.excess_phase_db": 23.0,
        "budget_a.visibility": 0.95,
        "label": "roundtrip",
        "frequency_mhz": 17.5,
    })
    assert scenario_from_dict(scenario_to_dict(s)) == s


# Valid values of each file key, by its last dotted part; an input's
# antisqueezing_db is drawn as its excess over the squeezing_db.
VALID = {
    "method": hs.sampled_from(METHODS), "port": hs.sampled_from(PORTS),
    "theta": hs.floats(-10, 10), "phi": hs.floats(-10, 10),
    "entangle_ratio": hs.floats(0, 1), "excess_correlation": hs.floats(0, 1),
    "imbalance": hs.floats(-0.99, 10), "gain": hs.floats(0.01, 10) | hs.just("optimize"),
    "seed": hs.integers(0, 2 ** 63), "mc_samples": hs.sampled_from([0, 2, 1000]),
    "label": hs.text(max_size=8), "frequency_mhz": hs.none() | hs.floats(0, 100),
    "amplitude": hs.floats(0, 1e6), "squeezing_db": hs.floats(0, 20),
    "antisqueezing_db": hs.floats(0, 20), "excess_phase_db": hs.floats(0, 40),
    "correlated_group": hs.none() | hs.integers(-3, 3),
    "prop_loss": hs.floats(0, 1), "visibility": hs.floats(0, 1),
    "quantum_efficiency": hs.floats(0, 1),
}


@hs.composite
def valid_files(draw):
    keys = draw(hs.lists(hs.sampled_from(sorted(known_keys())), unique=True))
    flat = {key: draw(VALID[key.rpartition(".")[2]]) for key in keys}
    for record in ("input_a", "input_b"):
        if f"{record}.squeezing_db" in flat:
            flat[f"{record}.antisqueezing_db"] = (
                flat[f"{record}.squeezing_db"] + flat.get(f"{record}.antisqueezing_db", 0.0))
    return flat


@given(flat=valid_files())
def test_any_valid_file_roundtrips(flat):
    s = scenario_from_dict(flat)
    assert scenario_from_dict(scenario_to_dict(s)) == s
    assert set(scenario_to_dict(s)) == known_keys()


@pytest.mark.parametrize("value", [-0.5, 1.5])
def test_out_of_range_prop_loss_named_as_given(value):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"budget_b.prop_loss": value})
    assert str(exc.value) == f"budget_b: prop_loss must be a number in [0, 1], got {value!r}"


def test_file_roundtrip(tmp_path):
    s = Scenario(method="B", theta=0.7, label="disk")
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ScenarioError, match="JSON object"):
        load_scenario(path)
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="valid JSON"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


@pytest.mark.parametrize("text, key", [
    ('{"theta": 1.0, "theta": 0.2}', "theta"),
    ('{"budget_a.visibility": 0.9, "method": "B", "budget_a.visibility": 0.8}',
     "budget_a.visibility"),
])
def test_load_rejects_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"scenario file {path} repeats the key {key!r}"


def test_bundled_fixture_files_load():
    paths = sorted(fixtures_dir().glob("*.json"))
    assert len(paths) == 4
    for p in paths:
        s = load_scenario(p)
        assert s.label
        assert s.frequency_mhz is not None
        with open(p, encoding="utf-8") as fh:
            raw = json.load(fh)
        assert raw["method"] == s.method


def test_bundled_fixtures_carry_their_measurements():
    # The fields a fixture was not fitted in are the measured run's own.
    assert sorted(p.name for p in fixtures_dir().glob("*.json")) == sorted(MEASUREMENTS)
    for name, measured in MEASUREMENTS.items():
        flat = json.loads((fixtures_dir() / name).read_text(encoding="utf-8"))
        expected = {key: measured[key] for key in ("method", "port", "frequency_mhz", "label")}
        for side, squeezing_db in zip("ab", measured["inputs"], strict=True):
            expected.update({f"input_{side}.squeezing_db": squeezing_db,
                             f"input_{side}.antisqueezing_db": ANTISQUEEZE_DB,
                             f"input_{side}.excess_phase_db": EXCESS_DB})
        assert {key: flat.get(key) for key in expected} == expected, name


@pytest.mark.parametrize("value", [1, -1, 1.5, 2.0, True, "100"])
def test_bad_mc_samples_rejected(value):
    with pytest.raises(ScenarioError, match="mc_samples"):
        scenario_from_dict({"mc_samples": value})


def test_mc_samples_at_most_2_to_the_53():
    # Beyond 2**53 the count is not exact as a float: refused with the
    # file's other checks, before numpy loads.
    assert scenario_from_dict({"mc_samples": 2 ** 53}).mc_samples == 2 ** 53
    count = 2 ** 53 + 1
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"mc_samples": count})
    assert str(exc.value) == (
        f"cannot draw mc_samples = {count}: count must be at most 2**53, got {count}")


@pytest.mark.parametrize("value", [-1, 1.5, True, "3"])
def test_bad_seed_rejected(value):
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict({"seed": value})


def test_mc_settings_accepted_and_revalidated_on_replace():
    s = scenario_from_dict({"mc_samples": 2, "seed": 0})
    assert (s.mc_samples, s.seed) == (2, 0)
    assert scenario_from_dict({"mc_samples": 0}).mc_samples == 0
    with pytest.raises(ScenarioError, match="mc_samples"):
        replace(s, mc_samples=1)
    with pytest.raises(ScenarioError, match="seed"):
        replace(s, seed=-1)


@pytest.mark.parametrize("value", [5, None, True, ["x"]])
def test_non_string_label_rejected(value):
    with pytest.raises(ScenarioError, match="label must be a string"):
        scenario_from_dict({"label": value})


@pytest.mark.parametrize("label", ["x\ud800", "\udfff"])
def test_label_utf8_cannot_encode_rejected(label):
    # JSON's "\ud800" escape decodes to a lone surrogate; the strategy
    # hs.text() never draws one.
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"label": label})
    assert str(exc.value) == f"label must be UTF-8 encodable text, got {label!r}"
