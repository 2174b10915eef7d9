"""brightbeam: Gaussian simulation and entanglement verification for bright beams.

Each public name loads its defining module on first use, so ``import
brightbeam`` loads no numpy: ``scenario`` and ``errors`` never do.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the module that defines it.
_MODULES = {name: module for module, names in {
    "detection": ("MzGeometry", "correct_electronic_noise", "method_b_channels",
                  "method_c_single_port", "mz_geometry"),
    "entangle": ("GeneralizedCombination", "WitnessReport", "duan_simon", "generate_entangled",
                 "normalized_combination_variances", "optimal_gains_for_theta",
                 "squeezing_variances", "theta_adapted_bound"),
    "errors": ("BrightBeamError", "DegenerateModeError", "DomainError", "ScenarioError"),
    "harness": ("ReportRow", "compare_methods", "run_scenario", "sweep", "sweep_csv"),
    "scenario": ("LossBudget", "Scenario", "SqueezedInputSpec", "db_to_var", "load_scenario",
                 "save_scenario", "scenario_from_dict", "scenario_to_dict"),
    "states": ("BrightGaussianState", "DetectionResult", "apply_beamsplitter", "apply_loss",
               "apply_phase", "compose", "make_coherent", "sample_fluctuations",
               "shot_noise_reference", "squeezed_inputs", "var_to_db"),
}.items() for name in names}


def __getattr__(name: str):
    """A public name, read from the module that defines it."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
