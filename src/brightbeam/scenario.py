"""Scenario configuration: a full experiment description in one flat file.

The on-disk format is a flat JSON object whose keys are exactly the
scenario field names, with dotted paths for the nested input and budget
records (e.g. ``input_a.squeezing_db``, ``budget_a.visibility``).
Budgets are configured with ``prop_loss`` (a loss), stored internally as
a propagation efficiency.  ``with_fields`` sets fields by dotted path for
scenario files, sweeps and command-line flags alike.

This module owns the file format, its records and their checks, and
imports only the standard library and ``errors``: a file that fails
validation exits before numpy loads.  The physics modules read the
records' fields.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
import sys
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import DomainError, ScenarioError

METHODS = ("A", "B", "C")
PORTS = ("c", "d")
# Float fields that must hold finite numbers (frequency_mhz may also be None).
_REAL_FIELDS = ("theta", "entangle_ratio", "phi", "excess_correlation", "imbalance",
                "frequency_mhz")
# The numeric fields of a SqueezedInputSpec and of a LossBudget.
INPUT_FIELDS = ("amplitude", "squeezing_db", "antisqueezing_db", "excess_phase_db")
BUDGET_FIELDS = ("propagation", "visibility", "quantum_efficiency")
PSD_TOL = 1e-9
# The most Monte-Carlo samples a draw takes: beyond it a count is not
# exact as a float.
MC_SAMPLES_MAX = 2 ** 53
# The scenario fields each sweep parameter sets, as dotted paths.
_SWEPT_FIELDS = {
    "theta": ("theta",),
    "phi": ("phi",),
    "gain": ("gain",),
    # Minimum-uncertainty sweep: antisqueezing tracks the squeezing.
    "squeezing_db": ("input_a.squeezing_db", "input_a.antisqueezing_db",
                     "input_b.squeezing_db", "input_b.antisqueezing_db"),
    "eta": ("budget_a.propagation", "budget_b.propagation"),
    "excess_phase_db": ("input_a.excess_phase_db", "input_b.excess_phase_db"),
    "entangle_ratio": ("entangle_ratio",),
}
SWEEP_PARAMS = tuple(_SWEPT_FIELDS)


def is_finite_real(x) -> bool:
    """True for a finite int or float; bools, strings and NaN/inf are not."""
    # float and int first: they match without the slower ABC check.
    if isinstance(x, bool) or not isinstance(x, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def db_to_var(db):
    """Convert a relative noise level in dB, or a numpy array of them, to a
    linear variance ratio.  A number stays in Python floats, so the records'
    checks run without numpy; an array overflows to inf without a warning."""
    array = hasattr(db, "dtype")  # numpy is loaded, since db is its object
    try:
        with sys.modules["numpy"].errstate(over="ignore") if array else nullcontext():
            v = 10.0 ** (db / 10.0)
    except OverflowError:  # a Python float
        v = math.inf
    overflow = v == math.inf
    if overflow.any() if array else overflow:
        bad = float(db[overflow].flat[0]) if array else db
        raise DomainError(f"{bad} dB is out of the representable variance range")
    return v


def _input_uncertainty_holds(x, y_quantum):
    """Where an input's own uncertainty relation x * y_quantum >= 1 holds, to PSD_TOL."""
    return x * y_quantum >= 1.0 - PSD_TOL


@dataclass(frozen=True)
class SqueezedInputSpec:
    """Parameterization of a fiber-squeezed input beam.

    squeezing_db is the amplitude-quadrature noise reduction below shot
    noise; antisqueezing_db the quantum part of the phase-quadrature noise
    above shot noise; excess_phase_db an additional classical phase-noise
    pedestal (thermal fiber noise).  Inputs sharing a correlated_group
    label share one classical phase-noise realization, correlated by the
    excess_correlation of ``states.squeezed_inputs``.
    """

    amplitude: float
    squeezing_db: float = 0.0
    antisqueezing_db: float = 0.0
    excess_phase_db: float = 0.0
    correlated_group: int | None = None

    def __post_init__(self):
        for name in INPUT_FIELDS:
            value = getattr(self, name)
            if not is_finite_real(value) or value < 0:
                raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
        group = self.correlated_group
        if group is not None and (not isinstance(group, int) or isinstance(group, bool)):
            raise DomainError(f"correlated_group must be an integer or null, got {group!r}")
        if not _input_uncertainty_holds(self.x_variance, self.y_variance_quantum):
            raise DomainError(
                "Heisenberg violation: squeezing %.3f dB needs antisqueezing >= %.3f dB"
                % (self.squeezing_db, self.squeezing_db)
            )

    @property
    def x_variance(self) -> float:
        return db_to_var(-self.squeezing_db)

    @property
    def y_variance_quantum(self) -> float:
        return db_to_var(self.antisqueezing_db)


@dataclass(frozen=True)
class LossBudget:
    """Pre-detection efficiency budget: propagation x visibility^2 x QE."""

    propagation: float = 1.0
    visibility: float = 1.0
    quantum_efficiency: float = 1.0

    def __post_init__(self):
        for name in BUDGET_FIELDS:
            v = getattr(self, name)
            if not is_finite_real(v) or not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be a number in [0, 1], got {v!r}")

    def effective(self, include_visibility: bool = True) -> float:
        return _efficiency(self, include_visibility)


def _efficiency(budget, include_visibility: bool = True):
    """LossBudget.effective of a budget whose fields may be arrays over a stack."""
    eta = budget.propagation * budget.quantum_efficiency
    return eta * budget.visibility ** 2 if include_visibility else eta


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
        if self.mc_samples > MC_SAMPLES_MAX:
            raise ScenarioError(f"cannot draw mc_samples = {self.mc_samples}: "
                                f"count must be at most 2**53, got {self.mc_samples}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ScenarioError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.label, str):
            raise ScenarioError(f"label must be a string, got {self.label!r}")
        try:
            self.label.encode("utf-8")
        except UnicodeEncodeError:
            # A JSON escape such as "\ud800" decodes to a lone surrogate,
            # which a UTF-8 stdout cannot write.
            raise ScenarioError(f"label must be UTF-8 encodable text, got {self.label!r}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def with_fields(s: Scenario, paths: dict) -> Scenario:
    """A copy of the scenario with the field at each dotted path (``"theta"``,
    ``"input_a.squeezing_db"``) set to its value.  Each record touched is
    replaced once, in field order, then the scenario; a record's error
    names the record."""
    top, records = {}, {}
    for path, value in paths.items():
        record, _, name = path.rpartition(".")
        (records.setdefault(record, {}) if record else top)[name] = value
    for record in sorted(records, key=_FIELD_NAMES.index):
        try:
            top[record] = replace(getattr(s, record), **records[record])
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"{record}: {exc}") from exc
    try:
        return replace(s, **top)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


def check_grid(param: str, start: float, stop: float, steps: int) -> None:
    """Refuse a sweep of fewer than 2 steps, with a bound that is not
    finite, or over a span that overflows; numpy sizes the rest."""
    if steps < 2:
        raise ScenarioError(f"sweep needs at least 2 steps, got {steps}")
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise ScenarioError(
                f"cannot sweep {param} to {bound!r}: the {name} bound must be finite")
    if not math.isfinite(stop - start):
        raise ScenarioError(
            f"cannot sweep {param} to {stop!r}: the span from {start!r} overflows")


def scenario_to_dict(s: Scenario) -> dict:
    """Flat dotted-key mapping of every field, a budget's propagation
    written as its loss ``prop_loss``; parse(serialize(s)) is semantically
    idempotent."""
    flat: dict = {}
    for f in fields(s):
        value = getattr(s, f.name)
        if not is_dataclass(value):
            flat[f.name] = value
            continue
        flat.update({f"{f.name}.{g.name}": getattr(value, g.name) for g in fields(value)})
        if isinstance(value, LossBudget):
            flat[f"{f.name}.prop_loss"] = 1.0 - flat.pop(f"{f.name}.propagation")
    return flat


_DEFAULT = Scenario()
_FIELD_NAMES = [f.name for f in fields(Scenario)]
_KNOWN_KEYS = frozenset(scenario_to_dict(_DEFAULT))


def known_keys() -> frozenset[str]:
    """The keys of a scenario file."""
    return _KNOWN_KEYS


def scenario_from_dict(flat: dict) -> Scenario:
    """Build a validated Scenario from a flat dotted-key mapping."""
    unknown = set(flat) - _KNOWN_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario key: {sorted(unknown, key=str)[0]!r}")
    paths = dict(flat)
    for key in sorted(flat):
        record, _, name = key.rpartition(".")
        if name == "prop_loss":
            prop_loss = paths.pop(key)
            if not is_finite_real(prop_loss) or not 0.0 <= prop_loss <= 1.0:
                raise ScenarioError(
                    f"{record}: prop_loss must be a number in [0, 1], got {prop_loss!r}")
            paths[f"{record}.propagation"] = 1.0 - prop_loss
    return with_fields(_DEFAULT, paths)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; a key given twice is an error."""
    def unique_keys(pairs: list) -> dict:
        flat = {}
        for key, value in pairs:
            if key in flat:
                raise ScenarioError(f"scenario file {path} repeats the key {key!r}")
            flat[key] = value
        return flat

    try:
        with open(path, encoding="utf-8") as fh:
            flat = json.load(fh, object_pairs_hook=unique_keys)
    except ScenarioError:
        raise
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or bytes that are not UTF-8; RecursionError: nesting too deep.
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(flat, dict):
        raise ScenarioError(f"scenario file {path} must contain a JSON object")
    return scenario_from_dict(flat)


def fixtures_dir():
    """Bundled fixture directory, as a pathlib.Path (loaded here, for table1 alone)."""
    from pathlib import Path
    return Path(__file__).parent / "fixtures"


def load_fixtures(directory=None) -> list[Scenario]:
    """The scenario of every ``*.json`` file in the directory (by default the
    bundled one), in name order: the rows of the comparison table."""
    from pathlib import Path
    directory = Path(directory) if directory is not None else fixtures_dir()
    paths = sorted(directory.glob("*.json"))
    if len(paths) < 2:
        raise ScenarioError(f"method comparison needs at least 2 fixture scenarios, "
                            f"found {len(paths)} in {directory}")
    return [load_scenario(p) for p in paths]


def write_whole(path, text: str) -> None:
    """Write text to the file at path whole or not at all.

    The text goes into a new file beside path, which then takes its
    place, so a symlink there is replaced, not followed.  The new file is
    opened with mode "x", so its permissions follow the umask.  If a step
    fails, the new file is removed and path keeps what it held.  A path
    that names no regular file, such as a pipe or a device, is written in
    place.
    """
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(temp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


def save_scenario(s: Scenario, path):
    write_whole(path, json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")
