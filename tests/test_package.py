"""The package's public names and what importing it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brightbeam

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "detection": {"MzGeometry", "correct_electronic_noise", "method_b_channels",
                  "method_c_single_port", "mz_geometry"},
    "entangle": {"GeneralizedCombination", "WitnessReport", "duan_simon", "generate_entangled",
                 "normalized_combination_variances", "optimal_gains_for_theta",
                 "squeezing_variances", "theta_adapted_bound"},
    "errors": {"BrightBeamError", "DegenerateModeError", "DomainError", "ScenarioError"},
    "harness": {"ReportRow", "compare_methods", "run_scenario", "sweep", "sweep_csv"},
    "scenario": {"LossBudget", "Scenario", "SqueezedInputSpec", "db_to_var", "load_scenario",
                 "save_scenario", "scenario_from_dict", "scenario_to_dict"},
    "states": {"BrightGaussianState", "DetectionResult", "apply_beamsplitter", "apply_loss",
               "apply_phase", "compose", "make_coherent", "sample_fluctuations",
               "shot_noise_reference", "squeezed_inputs", "var_to_db"},
}


def test_every_public_name_is_its_defining_modules_object():
    assert brightbeam._MODULES == {name: module for module, names in PUBLIC.items()
                                   for name in names}
    listed = dir(brightbeam)
    for name, module in brightbeam._MODULES.items():
        value = getattr(importlib.import_module(f"brightbeam.{module}"), name)
        assert getattr(brightbeam, name) is value, name
        assert value.__module__ == f"brightbeam.{module}", name
        assert name in listed, name
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        brightbeam.not_a_name
    with pytest.raises(ImportError):
        from brightbeam import not_a_name  # noqa: F401


@pytest.mark.parametrize("module", ["brightbeam", "brightbeam.scenario"])
def test_import_loads_no_physics(module):
    # A fresh interpreter: this one has loaded every module already.
    physics = [f"brightbeam.{name}" for name in ("states", "detection", "entangle", "harness")]
    code = (f"import json, sys, {module}\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            f"    if m.split('.')[0] == 'numpy' or m in {physics!r})))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(brightbeam.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == []
