"""Scenario configuration: a full experiment description in one flat file.

The on-disk format is a flat JSON object whose keys are exactly the
scenario field names, with dotted paths for the nested input and budget
records (e.g. ``input_a.squeezing_db``, ``budget_a.visibility``).
Budgets are configured with ``prop_loss`` (a loss), stored internally as
a propagation efficiency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .detection import LossBudget
from .errors import ScenarioError
from .states import INPUT_FIELDS, SqueezedInputSpec
from .units import is_finite_real

METHODS = ("A", "B", "C")
PORTS = ("c", "d")
# Float fields that must hold finite numbers (frequency_mhz may also be None).
_REAL_FIELDS = ("theta", "entangle_ratio", "phi", "excess_correlation", "imbalance",
                "frequency_mhz")


def _default_input() -> SqueezedInputSpec:
    return SqueezedInputSpec(amplitude=100.0, correlated_group=1)


@dataclass(frozen=True)
class Scenario:
    method: str = "A"
    input_a: SqueezedInputSpec = field(default_factory=_default_input)
    input_b: SqueezedInputSpec = field(default_factory=_default_input)
    theta: float = math.pi / 2
    entangle_ratio: float = 0.5
    phi: float = math.pi / 2
    budget_a: LossBudget = field(default_factory=LossBudget)
    budget_b: LossBudget = field(default_factory=LossBudget)
    gain: float | str = 1.0
    excess_correlation: float = 1.0
    imbalance: float = 0.0
    port: str = "c"
    seed: int = 0
    mc_samples: int = 0
    label: str = ""
    frequency_mhz: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ScenarioError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not (is_finite_real(value) or (name == "frequency_mhz" and value is None)):
                raise ScenarioError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 <= self.entangle_ratio <= 1.0:
            raise ScenarioError(
                f"entangle_ratio must be in [0, 1], got {self.entangle_ratio}"
            )
        if not 0.0 <= self.excess_correlation <= 1.0:
            raise ScenarioError(
                f"excess_correlation must be in [0, 1], got {self.excess_correlation}"
            )
        if self.port not in PORTS:
            raise ScenarioError(f"port must be one of {PORTS}, got {self.port!r}")
        if isinstance(self.gain, str):
            if self.gain != "optimize":
                raise ScenarioError(f"gain must be a number or 'optimize', got {self.gain!r}")
        elif not is_finite_real(self.gain) or self.gain <= 0:
            raise ScenarioError(
                f"gain must be a positive finite number or 'optimize', got {self.gain!r}")
        if self.imbalance <= -1:
            raise ScenarioError(f"imbalance must be > -1, got {self.imbalance}")
        if not _is_int(self.mc_samples) or self.mc_samples < 0 or self.mc_samples == 1:
            raise ScenarioError(f"mc_samples must be 0 or an integer >= 2, got {self.mc_samples!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ScenarioError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.label, str):
            raise ScenarioError(f"label must be a string, got {self.label!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INPUT_KEYS = (*INPUT_FIELDS, "correlated_group")
_BUDGET_KEYS = ("prop_loss", "visibility", "quantum_efficiency")
_SCALAR_KEYS = ("method", "theta", "entangle_ratio", "phi", "gain",
                "excess_correlation", "imbalance", "port", "seed",
                "mc_samples", "label", "frequency_mhz")


def known_keys() -> set[str]:
    keys = set(_SCALAR_KEYS)
    for prefix in ("input_a", "input_b"):
        keys.update(f"{prefix}.{k}" for k in _INPUT_KEYS)
    for prefix in ("budget_a", "budget_b"):
        keys.update(f"{prefix}.{k}" for k in _BUDGET_KEYS)
    return keys


def scenario_from_dict(flat: dict) -> Scenario:
    """Build a validated Scenario from a flat dotted-key mapping."""
    unknown = set(flat) - known_keys()
    if unknown:
        raise ScenarioError(f"unknown scenario key: {sorted(unknown)[0]!r}")

    def subdict(prefix, names):
        return {k: flat[f"{prefix}.{k}"] for k in names if f"{prefix}.{k}" in flat}

    def build_input(prefix):
        kwargs = subdict(prefix, _INPUT_KEYS)
        try:
            return replace(_default_input(), **kwargs)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"{prefix}: {exc}") from exc

    def build_budget(prefix):
        kwargs = subdict(prefix, _BUDGET_KEYS)
        prop_loss = kwargs.pop("prop_loss", 0.0)
        if not is_finite_real(prop_loss):
            raise ScenarioError(
                f"{prefix}: prop_loss must be a number in [0, 1], got {prop_loss!r}")
        try:
            return LossBudget(propagation=1.0 - prop_loss, **kwargs)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"{prefix}: {exc}") from exc

    scalars = {k: flat[k] for k in _SCALAR_KEYS if k in flat}
    try:
        return Scenario(
            input_a=build_input("input_a"),
            input_b=build_input("input_b"),
            budget_a=build_budget("budget_a"),
            budget_b=build_budget("budget_b"),
            **scalars,
        )
    except (ScenarioError, ValueError, TypeError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(s: Scenario) -> dict:
    """Flat dotted-key mapping; parse(serialize(s)) is semantically idempotent."""
    flat: dict = {k: getattr(s, k) for k in _SCALAR_KEYS}
    for prefix in ("input_a", "input_b"):
        spec = getattr(s, prefix)
        for k in _INPUT_KEYS:
            flat[f"{prefix}.{k}"] = getattr(spec, k)
    for prefix in ("budget_a", "budget_b"):
        budget = getattr(s, prefix)
        flat[f"{prefix}.prop_loss"] = 1.0 - budget.propagation
        flat[f"{prefix}.visibility"] = budget.visibility
        flat[f"{prefix}.quantum_efficiency"] = budget.quantum_efficiency
    return flat


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            flat = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or bytes that are not UTF-8; RecursionError: nesting too deep.
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(flat, dict):
        raise ScenarioError(f"scenario file {path} must contain a JSON object")
    return scenario_from_dict(flat)


def save_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")
