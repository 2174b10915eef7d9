"""Fit and freeze the bundled reference-scenario fixtures.

The measured squeezing variances from the reference bright-beam
measurement campaign are taken as targets; the free setup parameters
(per-arm efficiencies, entangling splitting ratio, electronic imbalance,
inter-beam noise correlation) are fitted by least squares with weak
priors pulling them toward their nominal values, then written to
src/brightbeam/fixtures/*.json.

Run from the repository root:  python3 scripts/fit_fixtures.py
It needs scipy, which the package itself does not: pip install -e .[fit]
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from brightbeam.harness import run_scenario  # noqa: E402
from brightbeam.scenario import scenario_from_dict  # noqa: E402

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "brightbeam" / "fixtures"

# Measured targets (normalized variances) and quoted input squeezing.
METHOD_A = {"inputs": (2.5, 2.7), "targets": (0.55, 0.74)}
METHOD_B = {"inputs": (3.7, 3.8), "targets": (0.47, 0.62)}
METHOD_C = {"inputs": (3.7, 3.8), "targets": {"c": 0.525, "d": 0.55}}

ANTISQUEEZE_DB = 5.0
EXCESS_DB = 23.0


def base_config(method, inputs):
    sq_a, sq_b = inputs
    return {
        "method": method,
        "input_a.squeezing_db": sq_a,
        "input_a.antisqueezing_db": ANTISQUEEZE_DB,
        "input_a.excess_phase_db": EXCESS_DB,
        "input_b.squeezing_db": sq_b,
        "input_b.antisqueezing_db": ANTISQUEEZE_DB,
        "input_b.excess_phase_db": EXCESS_DB,
    }


def fit_method_a():
    cfg = base_config("A", METHOD_A["inputs"])

    def build(p):
        visibility, ratio, imbalance, corr = p
        c = dict(cfg)
        c["budget_a.visibility"] = visibility
        c["budget_b.visibility"] = visibility
        c["entangle_ratio"] = ratio
        c["imbalance"] = imbalance
        c["excess_correlation"] = corr
        return c

    def residuals(p):
        row = run_scenario(scenario_from_dict(build(p)))
        vp_t, vm_t = METHOD_A["targets"]
        prior = [0.3 * (p[0] - 0.95), 0.3 * (p[1] - 0.5), 0.1 * p[2], 0.1 * (p[3] - 1.0)]
        return [row.v_sq_plus - vp_t, row.v_sq_minus - vm_t] + prior

    res = least_squares(residuals, x0=[0.95, 0.5, 0.02, 0.98],
                        bounds=([0.85, 0.40, 0.0, 0.8], [1.0, 0.60, 0.2, 1.0]))
    cfg = build(res.x)
    cfg["label"] = "A phase-measuring interferometers"
    cfg["frequency_mhz"] = 20.5
    return cfg, res


def fit_method_bc(method, port=None, targets=None):
    cfg = base_config(method, METHOD_B["inputs"])
    if port is not None:
        cfg["port"] = port

    def build(p):
        eta_a, eta_b, ratio, imbalance, corr = p
        c = dict(cfg)
        c["budget_a.prop_loss"] = 1.0 - eta_a
        c["budget_b.prop_loss"] = 1.0 - eta_b
        c["entangle_ratio"] = ratio
        c["imbalance"] = imbalance
        c["excess_correlation"] = corr
        return c

    def residuals(p):
        row = run_scenario(scenario_from_dict(build(p)))
        prior = [0.2 * (p[0] - 0.92), 0.2 * (p[1] - 0.92), 0.3 * (p[2] - 0.5),
                 0.1 * p[3], 0.1 * (p[4] - 1.0)]
        if method == "B":
            err = [row.v_sq_plus - targets[0], row.v_sq_minus - targets[1]]
        else:
            err = [3.0 * (row.v_sq_plus - targets)]
        return err + prior

    res = least_squares(residuals, x0=[0.92, 0.92, 0.5, 0.01, 0.98],
                        bounds=([0.7, 0.7, 0.40, 0.0, 0.8], [1.0, 1.0, 0.60, 0.2, 1.0]))
    cfg = build(res.x)
    cfg["frequency_mhz"] = 17.5
    return cfg, res


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    jobs = []

    cfg_a, res_a = fit_method_a()
    jobs.append(("method_a.json", cfg_a, res_a))

    cfg_b, res_b = fit_method_bc("B", targets=METHOD_B["targets"])
    cfg_b["label"] = "B interferometric correlations"
    jobs.append(("method_b.json", cfg_b, res_b))

    for port, target in METHOD_C["targets"].items():
        cfg_c, res_c = fit_method_bc("C", port=port, targets=target)
        cfg_c["label"] = f"C direct test, port {port}"
        jobs.append((f"method_c_port_{port}.json", cfg_c, res_c))

    for name, cfg, res in jobs:
        row = run_scenario(scenario_from_dict(cfg))
        print(f"{name}: v+={row.v_sq_plus:.4f} v-={row.v_sq_minus:.4f} "
              f"sum={row.sum_value:.4f} cost={res.cost:.2e}")
        cfg = {k: (round(v, 10) if isinstance(v, float) else v)
               for k, v in sorted(cfg.items())}
        with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
