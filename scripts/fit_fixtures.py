"""Record how the frozen reference-scenario fixtures were derived.

MEASUREMENTS is the reference bright-beam measurement campaign, one row per
file in src/brightbeam/fixtures/.  `fit` fits a row's free setup parameters
by least squares to its measured variances, with weak priors pulling them
toward their nominal values.

Every reference output was made from the fixture files as they stand, and
running this script overwrites them.  The package's arithmetic has moved in
its last bits since the fit, so a rerun moves method A's parameters in the
9th-10th digit, and 9 of the 150 reference sweep digests with them (B and C
come out unchanged).  Do not commit a rerun.

Run from the repository root:  python3 scripts/fit_fixtures.py
It needs scipy, which the package itself does not: pip install -e .[fit]
"""

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "brightbeam" / "fixtures"
sys.path.insert(0, str(OUT_DIR.parents[1]))

ANTISQUEEZE_DB = 5.0
EXCESS_DB = 23.0

# A free parameter: (scenario keys, transform of the fitted value or None,
# nominal value, prior weight, start, (low, high)).
SPLIT = (("entangle_ratio",), None, 0.5, 0.3, 0.5, (0.40, 0.60))
CORRELATION = (("excess_correlation",), None, 1.0, 0.1, 0.98, (0.8, 1.0))
FREE_A = ((("budget_a.visibility", "budget_b.visibility"), None, 0.95, 0.3, 0.95, (0.85, 1.0)),
          SPLIT, (("imbalance",), None, 0.0, 0.1, 0.02, (0.0, 0.2)), CORRELATION)
FREE_BC = (*(((f"budget_{arm}.prop_loss",), lambda eta: 1.0 - eta, 0.92, 0.2, 0.92, (0.7, 1.0))
             for arm in "ab"),
           SPLIT, (("imbalance",), None, 0.0, 0.1, 0.01, (0.0, 0.2)), CORRELATION)

# Input squeezing (dB) of inputs a and b; measured variances (V+, V-), or a
# single C port's one variance, each residual scaled by `weight`.
MEASUREMENTS = {
    "method_a.json": {"method": "A", "port": None, "inputs": (2.5, 2.7),
                      "variances": (0.55, 0.74), "weight": 1.0, "frequency_mhz": 20.5,
                      "label": "A phase-measuring interferometers", "free": FREE_A},
    "method_b.json": {"method": "B", "port": None, "inputs": (3.7, 3.8),
                      "variances": (0.47, 0.62), "weight": 1.0, "frequency_mhz": 17.5,
                      "label": "B interferometric correlations", "free": FREE_BC},
    "method_c_port_c.json": {"method": "C", "port": "c", "inputs": (3.7, 3.8),
                             "variances": (0.525,), "weight": 3.0, "frequency_mhz": 17.5,
                             "label": "C direct test, port c", "free": FREE_BC},
    "method_c_port_d.json": {"method": "C", "port": "d", "inputs": (3.7, 3.8),
                             "variances": (0.55,), "weight": 3.0, "frequency_mhz": 17.5,
                             "label": "C direct test, port d", "free": FREE_BC},
}


def _run(flat):
    from brightbeam.harness import run_scenario
    from brightbeam.scenario import scenario_from_dict
    return run_scenario(scenario_from_dict(flat))


def fit(row):
    """Fit one MEASUREMENTS row: its fixture dict and the least-squares result."""
    from scipy.optimize import least_squares
    cfg = {"method": row["method"]}
    for side, squeezing_db in zip("ab", row["inputs"]):
        cfg[f"input_{side}.squeezing_db"] = squeezing_db
        cfg[f"input_{side}.antisqueezing_db"] = ANTISQUEEZE_DB
        cfg[f"input_{side}.excess_phase_db"] = EXCESS_DB
    if row["port"] is not None:
        cfg["port"] = row["port"]

    def build(p):
        c = dict(cfg)
        for x, (keys, transform, *_) in zip(p, row["free"]):
            c.update(dict.fromkeys(keys, x if transform is None else transform(x)))
        return c

    def residuals(p):
        out = _run(build(p))
        err = [row["weight"] * (got - want)
               for got, want in zip((out.v_sq_plus, out.v_sq_minus), row["variances"])]
        return err + [w * (x - nominal) for x, (_, _, nominal, w, *_) in zip(p, row["free"])]

    res = least_squares(residuals, x0=[f[4] for f in row["free"]],
                        bounds=tuple(zip(*(f[5] for f in row["free"]))))
    return {**build(res.x), "label": row["label"], "frequency_mhz": row["frequency_mhz"]}, res


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, row in MEASUREMENTS.items():
        cfg, res = fit(row)
        out = _run(cfg)
        print(f"{name}: v+={out.v_sq_plus:.4f} v-={out.v_sq_minus:.4f} "
              f"sum={out.sum_value:.4f} cost={res.cost:.2e}")
        cfg = {k: (round(v, 10) if isinstance(v, float) else v)
               for k, v in sorted(cfg.items())}
        with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
