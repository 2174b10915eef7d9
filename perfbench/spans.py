"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions where each consuming module looks
them up (modules import them by name, so ``harness.apply_loss`` and
``detection.apply_loss`` are both replaced).  Each call records a
span: name, start, end, parent and a work count.  Spans stay in typed
arrays until ``dump`` writes them at exit; ``layers.py`` reads them back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

COLUMNS = (("name", "H"), ("start", "q"), ("end", "q"), ("parent", "q"), ("work", "q"))

# (defining module, function) -> span name.  Each function is wrapped in
# every brightbeam module that binds it, since modules import by name.
LAYERS = {
    ("brightbeam.harness", "run_scenario"): "harness.run_scenario",
    ("brightbeam.harness", "with_param"): "harness.with_param",
    ("brightbeam.harness", "sweep_csv"): "harness.sweep_csv",
    ("brightbeam.scenario", "load_scenario"): "scenario.load_scenario",
    ("brightbeam.entangle", "generate_entangled"): "entangle.generate_entangled",
    ("brightbeam.entangle", "squeezing_variances"): "entangle.squeezing_variances",
    ("scipy.optimize", "minimize_scalar"): "gain_opt",
    ("brightbeam.detection", "method_a_joint"): "detection.method_a_joint",
    ("brightbeam.detection", "method_b_channels"): "detection.method_b_channels",
    ("brightbeam.detection", "method_c_single_port"): "detection.method_c_single_port",
    ("brightbeam.states", "compose"): "states.compose",
    ("brightbeam.states", "apply_beamsplitter"): "states.apply_beamsplitter",
    ("brightbeam.states", "apply_loss"): "states.apply_loss",
    ("brightbeam.states", "sample_fluctuations"): "states.sample_fluctuations",
}


def _draws(args, kwargs) -> int:
    """Rows x quadratures of one sample_fluctuations(state, count, seed) call."""
    state = kwargs.get("state", args[0] if args else None)
    count = kwargs.get("count", args[1] if len(args) > 1 else 0)
    return count * 2 * state.n_modes


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.current = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrapper(self, fn, span: str, work=None):
        """A function that calls fn and records one span per call.

        ``work(args, kwargs)`` gives the span's work count (default 0).
        """
        name_id = self._name_id(span)
        cols = self.cols
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(cols["start"])
            parent = self.current
            cols["name"].append(name_id)
            cols["parent"].append(parent)
            cols["work"].append(work(args, kwargs) if work else 0)
            cols["end"].append(0)
            self.current = index
            cols["start"].append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                cols["end"][index] = clock()
                self.current = parent

        return traced

    def install(self):
        """Wrap the layers in every loaded brightbeam module."""
        import brightbeam

        modules = [m for name, m in list(sys.modules.items())
                   if name == "brightbeam" or name.startswith("brightbeam.")]
        for (module, attr), span in LAYERS.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            traced = self.wrapper(fn, span, _draws if attr == "sample_fluctuations" else None)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, traced)
        cls = brightbeam.BrightGaussianState
        cls.__post_init__ = self.wrapper(cls.__post_init__, "states.construct")

    def dump(self, path, meta: dict):
        """Write a JSON header line, then each column's raw bytes."""
        header = {"names": self.names, "count": len(self.cols["start"]), "meta": meta}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def load(path) -> tuple[dict, dict]:
    """Read a dump back: (header, column name -> array)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in COLUMNS:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["count"])
    return header, cols
