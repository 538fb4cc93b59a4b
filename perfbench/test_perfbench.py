"""Tests of the benchmark itself: input generators, output checks, tracing
and a smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import latticemarket.cli as cli  # noqa: E402


# -- inputs ---------------------------------------------------------------

def test_fgn_has_unit_variance_and_the_fgn_lag_one_covariance():
    rng = np.random.default_rng(0)
    x = np.array([inputs.fgn(2048, 0.4, rng) for _ in range(100)])
    assert abs(x.var() - 1.0) < 0.02
    lag_one = np.mean(x[:, 1:] * x[:, :-1])
    assert abs(lag_one - 0.5 * (2.0 ** 0.8 - 2.0)) < 0.01


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def long(seed, name):
        path = tmp_path / name
        inputs.write_long_csv(path, seed, markets=2, days=50, hurst=0.45)
        return path.read_bytes()
    assert long(1, "a.csv") == long(1, "b.csv")
    assert long(1, "a.csv") != long(2, "c.csv")
    path = tmp_path / "wide.csv"
    inputs.write_wide_csv(path, 3, markets=6, days=300, hurst=0.4,
                          max_late_start=100)
    header, rows = checks.read_rows(path)
    assert header == ["date"] + [f"W{j:02d}" for j in range(6)]
    starts = [next(i for i, r in enumerate(rows) if r[j]) for j in range(1, 7)]
    assert starts == inputs.late_starts(6, 100) and max(starts) == 100
    assert all(all(r[j] for r in rows[s:]) for j, s in enumerate(starts, 1))


def test_business_days_skip_weekends():
    days = inputs.business_days(6)
    assert days[:5] == [f"2000-01-0{d}" for d in range(3, 8)]
    assert days[5] == "2000-01-10"


# -- checks against planted wrong outputs -----------------------------------

@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Real outputs of the simulate and analyze workloads at smoke size."""
    base = str(tmp_path_factory.mktemp("smoke"))
    for name in ("simulate", "analyze"):
        files = workloads.make_inputs(name, 5, base, smoke=True)
        for step, argv in workloads.commands(name, 5, files,
                                             os.path.join(base, name), True):
            assert cli.main(argv) == 0, step
    return base


def _copy(src_dir, tmp_path, name="copy"):
    dst = tmp_path / name
    shutil.copytree(src_dir, dst)
    return str(dst)


def _edit_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _sim_args(label):
    spec = {s[0]: s for s in workloads.SIMULATE[True]}[label]
    return dict(label=label, dims=spec[1], side=spec[2], temperature=spec[3],
                sweeps=spec[5], burn_in=spec[6], statistical=False)


def test_simulate_check_passes_real_output_and_rejects_a_flipped_m(
        smoke_outputs, tmp_path):
    out = os.path.join(smoke_outputs, "simulate", "2d-L16")
    assert checks.check_simulate(out, **_sim_args("2d-L16")) == []
    bad = _copy(out, tmp_path)

    def flip(lines):
        row = next(i for i, line in enumerate(lines)
                   if not line.startswith(("#", "sweep"))
                   and float(line.split(",")[1]) != 0)
        sweep, m, price = lines[row].split(",")
        lines[row] = ",".join([sweep, repr(-float(m)), price])
        return lines
    _edit_csv(os.path.join(bad, "magnetization.csv"), flip)
    assert any("price" in p for p in checks.check_simulate(
        bad, **_sim_args("2d-L16")))


def test_simulate_check_rejects_a_missing_row(smoke_outputs, tmp_path):
    bad = _copy(os.path.join(smoke_outputs, "simulate", "3d-L16"), tmp_path)
    _edit_csv(os.path.join(bad, "magnetization.csv"), lambda lines: lines[:-1])
    assert any("rows" in p for p in checks.check_simulate(
        bad, **_sim_args("3d-L16")))


def _write_magnetization(path, m, n_sites, burn_in=0):
    os.makedirs(path, exist_ok=True)
    rows = [f"{burn_in + i + 1},{v!r},{1.0 + 2.0 * v / n_sites!r}"
            for i, v in enumerate(map(float, m))]
    with open(os.path.join(path, "magnetization.csv"), "w") as fh:
        fh.write("# provenance: {}\nsweep,M,price\n" + "\n".join(rows) + "\n")
    with open(os.path.join(path, "returns.csv"), "w") as fh:
        fh.write("t,R\n" + "\n".join(f"{i},0.0" for i in range(len(m) - 1))
                 + "\n")


def test_statistical_simulate_checks_reject_wrong_physics(tmp_path):
    rng = np.random.default_rng(1)
    n = 4000

    def problems(label, side, dims, temperature, m):
        out = str(tmp_path / label)
        _write_magnetization(out, m, side ** dims)
        return checks.check_simulate(out, label, dims, side, temperature, n, 0,
                                     statistical=True)
    gaussian = np.round(rng.normal(0.0, 20.0, n) * 2) / 2
    ordered = np.round(rng.choice([-1, 1], n) * (200 + rng.normal(0, 5, n)) * 2) / 2
    assert problems("3d-L16", 16, 3, 0.75, gaussian) == []
    assert problems("3d-L16", 16, 3, 0.75, ordered) != []       # U ~ 2/3
    assert problems("2d-L16", 16, 2, workloads.T_C_2D, gaussian) != []
    yang = checks.yang_half_magnetization(0.9 * workloads.T_C_2D)
    n_sites = 128 ** 2
    at_yang = np.round(yang * n_sites + rng.normal(0, 20, n))
    assert problems("2d-L128", 128, 2, 0.9 * workloads.T_C_2D, at_yang) == []
    assert problems("2d-L128", 128, 2, 0.9 * workloads.T_C_2D,
                    at_yang * 0.95) != []


def test_yang_and_binder_reference_values():
    assert abs(checks.yang_half_magnetization(0.9 * workloads.T_C_2D)
               - 0.4479) < 1e-4
    m = np.random.default_rng(2).normal(size=200_000)
    u, sigma = checks.binder_jackknife(m)
    assert abs(u) < 4 * sigma and sigma < 0.01


def _write_curve(out, kappa, hurst, b=-0.03, dimension=None):
    os.makedirs(out, exist_ok=True)
    ks = list(range(1, 9))
    n_win = [4000 // 2 ** k for k in ks]
    with open(os.path.join(out, "variance_by_scale.csv"), "w") as fh:
        fh.write("k,T,variance_tilde,adjacent_correlation,n_windows\n")
        for k, n in zip(ks, n_win):
            fh.write(f"{k},{2 ** k},{(2.0 ** k) ** (kappa - 1.0)!r},0.0,{n}\n")
    report = {"kappa": {"estimate": kappa, "se": 0.005},
              "moment_scaling": {"hurst": {str(float(q)): {"H": hurst, "se": 0.01}
                                           for q in range(1, 5)}},
              "regression": {"b": b},
              "dimension": dimension or {"estimate": 2.0, "low": 1.98,
                                         "high": 2.02}}
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"report": report}, fh)


def test_analyze_check_rejects_shifted_kappa_hurst_and_sign(tmp_path):
    good = str(tmp_path / "good")
    _write_curve(good, 0.9, 0.45)
    assert checks.check_analyze(good, 0.45, wide=True, statistical=True) == []
    shifted = str(tmp_path / "shifted")
    _write_curve(shifted, 1.0, 0.45)                 # curve and report agree
    assert checks.check_analyze(shifted, 0.45, False, True) != []
    report_only = str(tmp_path / "report_only")
    _write_curve(report_only, 0.9, 0.45)
    with open(os.path.join(report_only, "report.json")) as fh:
        doc = json.load(fh)
    doc["report"]["kappa"]["estimate"] += 0.1
    with open(os.path.join(report_only, "report.json"), "w") as fh:
        json.dump(doc, fh)
    assert checks.check_analyze(report_only, 0.45, False, statistical=False)
    for kwargs in (dict(hurst=0.35), dict(b=0.01),
                   dict(dimension={"estimate": 2.4, "low": 2.3, "high": 2.5})):
        bad = str(tmp_path / next(iter(kwargs)))
        _write_curve(bad, 0.9, **{"hurst": 0.45, **kwargs})
        assert checks.check_analyze(bad, 0.45, True, True) != [], kwargs


def test_real_analyze_and_fit_kappa_outputs_pass_and_a_shift_fails(
        smoke_outputs, tmp_path):
    base = os.path.join(smoke_outputs, "analyze")
    ana, fit = os.path.join(base, "analyze"), os.path.join(base, "fit-kappa")
    assert checks.check_analyze(ana, 0.45, False, statistical=False) == []
    assert checks.check_fit_kappa(fit, ana, 0.45, statistical=False) == []
    bad = _copy(fit, tmp_path)
    path = os.path.join(bad, "kappa_fit.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["kappa"] += 0.1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert checks.check_fit_kappa(bad, ana, 0.45, statistical=False) != []


def test_predict_check_passes_real_output_and_rejects_wrong_curves(
        smoke_outputs, tmp_path):
    out = os.path.join(smoke_outputs, "analyze", "predict")
    kappa = workloads.fitted_kappa(os.path.join(smoke_outputs, "analyze",
                                                "fit-kappa"))
    assert checks.check_predict(out, kappa) == []
    assert checks.check_predict(out, kappa + 0.1) != []
    bad = _copy(out, tmp_path)

    def flip_sign(lines):
        cells = lines[3].split(",")
        cells[2] = repr(-float(cells[2]))
        lines[3] = ",".join(cells)
        return lines
    _edit_csv(os.path.join(bad, "predictions.csv"), flip_sign)
    assert checks.check_predict(bad, kappa) != []


def test_one_altered_byte_fails_the_rerun_comparison(smoke_outputs, tmp_path):
    out = os.path.join(smoke_outputs, "simulate")
    rerun = _copy(out, tmp_path)
    target = os.path.join(rerun, "2d-L128", "returns.csv")
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] ^= 1
    with open(target, "wb") as fh:
        fh.write(data)
    passes = [{"dir": d, "traced": False,
               "steps": [{"step": s[0], "argv": [], "exit": 0, "wall_s": 1.0}
                         for s in workloads.SIMULATE[True]]}
              for d in (out, rerun)]
    attempted, failed, problems = run.grade("simulate", passes, smoke=True)
    assert (attempted, failed) == (6, 1)
    assert any("differ" in p for p in problems)


# -- tracing ----------------------------------------------------------------

def test_tracer_self_times_partition_each_command_and_uninstall_restores(
        tmp_path):
    import latticemarket.dynamics as dynamics
    import latticemarket.pipeline as pipeline
    before = (dynamics.new_lattice, pipeline.stats, cli.cmd_simulate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynamics.new_lattice is not before[0]
        argv = ["simulate", "--side", "8", "--sweeps", "50", "--burn-in", "5",
                "--out", str(tmp_path)]
        assert tracer.wrap("cli", "main", cli.main)(argv) == 0
    finally:
        tracer.uninstall()
    assert (dynamics.new_lattice, pipeline.stats, cli.cmd_simulate) == before
    spans = tracer.spans
    assert spans[0][1:3] == ["cli", "main"] and spans[0][0] == -1
    by_root = tracing.layer_self_by_root(spans)
    assert math.isclose(sum(by_root[0].values()),
                        (spans[0][4] - spans[0][3]) * 1e-9, rel_tol=1e-9)
    metrics = tracing.layer_metrics(spans)
    assert metrics["dynamics.flip_attempts"] == 50 * 64
    assert metrics["dynamics.flips_per_s.2d-L16"] == 0.0
    assert metrics["lattice.build_s"] > 0 and metrics["io.bytes_written"] > 0


# -- the benchmark command ---------------------------------------------------

def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_declared_metric(name, trace):
    done = _bench(ROOT, "--workload", name, "--seed", "2", "--seconds", "0",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    steps = list(workloads.commands(name, 2, {"prices": ""}, str(ROOT), True))
    assert result["attempted"] == 2 * len(steps)        # two whole passes
    assert set(result["metrics"]) == set(run.declared_units(trace == "1"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "simulate", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
