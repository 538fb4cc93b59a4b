"""The benchmark's workloads: their inputs and the CLI commands of one pass.

A pass is a closed loop: one caller issues the workload's commands back
to back, and a later command may read what an earlier one wrote (the
`analyze` loop feeds the fitted kappa of `fit-kappa` to `predict`).
"""

from __future__ import annotations

import json
import math
import os

import inputs

NAMES = ("simulate", "analyze", "analyze-wide")

T_C_2D = 0.25 / math.log(1.0 + math.sqrt(2.0))

# (label, dims, side, temperature, init, sweeps, burn_in) per simulate
# command.  Full size: a small lattice at T_c, a large ordered lattice,
# and a 3D lattice at about twice its critical temperature.  Each run is
# short (about a second), so that a run of the benchmark times many
# passes and reports their median.
SIMULATE = {
    False: [("2d-L16", 2, 16, T_C_2D, "random", 8000, 1000),
            ("2d-L128", 2, 128, 0.9 * T_C_2D, "all_up", 200, 50),
            ("3d-L16", 3, 16, 0.75, "random", 500, 100)],
    True: [("2d-L16", 2, 8, T_C_2D, "random", 300, 30),
           ("2d-L128", 2, 16, 0.9 * T_C_2D, "all_up", 60, 20),
           ("3d-L16", 3, 4, 0.75, "random", 200, 20)],
}

# Panel sizes and analysis settings; the smoke sizes only exercise the
# code paths.
LONG = {False: dict(markets=10, days=4000, hurst=0.45),
        True: dict(markets=3, days=700, hurst=0.45)}
WIDE = {False: dict(markets=20, days=5000, hurst=0.40, max_late_start=800),
        True: dict(markets=4, days=700, hurst=0.40, max_late_start=100)}
ANALYZE = {False: dict(horizons="1,2,3,4,5,6,7,8,9,10", samples=5000, folds=15),
           True: dict(horizons="1,2,3,4,5", samples=100, folds=5)}
WIDE_ANALYZE = {False: dict(horizons="1,2,3,4,5,6,7,8,9,10", samples=500,
                            folds=15),
                True: dict(horizons="1,2,3,4,5", samples=100, folds=5)}


def make_inputs(name: str, seed: int, work_dir: str, smoke: bool) -> dict:
    """Write the workload's input files; returns their paths by role."""
    if name == "analyze":
        path = os.path.join(work_dir, "prices_long.csv")
        inputs.write_long_csv(path, seed, **LONG[smoke])
        return {"prices": path}
    if name == "analyze-wide":
        path = os.path.join(work_dir, "prices_wide.csv")
        inputs.write_wide_csv(path, seed, **WIDE[smoke])
        return {"prices": path}
    return {}


def commands(name: str, seed: int, files: dict, pass_dir: str, smoke: bool):
    """Yield (step, argv) for one pass; outputs go to pass_dir/step."""
    def out(step):
        return os.path.join(pass_dir, step)

    common = ["--seed", str(seed)]
    if name == "simulate":
        for label, dims, side, temp, init, sweeps, burn in SIMULATE[smoke]:
            yield label, ["simulate", "--dims", str(dims), "--side", str(side),
                          "--temperature", repr(temp), "--init", init,
                          "--sweeps", str(sweeps), "--burn-in", str(burn),
                          *common, "--out", out(label)]
    elif name == "analyze":
        a = ANALYZE[smoke]
        yield "analyze", ["analyze", files["prices"], "--horizons",
                          a["horizons"], "--bootstrap-samples",
                          str(a["samples"]), "--cv-folds", str(a["folds"]),
                          *common, "--out", out("analyze")]
        yield "fit-kappa", ["fit-kappa",
                            os.path.join(out("analyze"), "variance_by_scale.csv"),
                            *common, "--out", out("fit-kappa")]
        kappa = fitted_kappa(out("fit-kappa"))
        yield "predict", ["predict", "--kappa", repr(kappa), "--regime",
                          "matched", *common, "--out", out("predict")]
    elif name == "analyze-wide":
        a = WIDE_ANALYZE[smoke]
        yield "analyze", ["analyze", files["prices"], "--schema", "wide",
                          "--estimator", "step", "--horizons", a["horizons"],
                          "--bootstrap-samples", str(a["samples"]),
                          "--cv-folds", str(a["folds"]), *common,
                          "--out", out("analyze")]
    else:
        raise ValueError(f"unknown workload {name!r}")


def fitted_kappa(fit_dir: str) -> float:
    """kappa from fit-kappa's report; NaN if the command wrote none."""
    try:
        with open(os.path.join(fit_dir, "kappa_fit.json"), encoding="utf-8") as fh:
            return float(json.load(fh)["kappa"])
    except (OSError, ValueError, KeyError):
        return math.nan
