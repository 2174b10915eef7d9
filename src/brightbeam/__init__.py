"""brightbeam: Gaussian simulation and entanglement verification for bright beams."""

from .detection import (
    LossBudget,
    MzGeometry,
    correct_electronic_noise,
    method_b_channels,
    method_c_single_port,
    mz_geometry,
)
from .entangle import (
    GeneralizedCombination,
    WitnessReport,
    duan_simon,
    generate_entangled,
    normalized_combination_variances,
    optimal_gains_for_theta,
    squeezing_variances,
    theta_adapted_bound,
)
from .errors import (
    BrightBeamError,
    DegenerateModeError,
    DomainError,
    ScenarioError,
)
from .harness import ReportRow, compare_methods, run_scenario, sweep, sweep_csv
from .scenario import Scenario, load_scenario, save_scenario, scenario_from_dict, scenario_to_dict
from .states import (
    BrightGaussianState,
    DetectionResult,
    SqueezedInputSpec,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    compose,
    make_coherent,
    sample_fluctuations,
    shot_noise_reference,
    squeezed_inputs,
)
from .units import db_to_var, var_to_db

__version__ = "0.1.0"
