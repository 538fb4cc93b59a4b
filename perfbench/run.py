"""End-to-end benchmark of the latticemarket CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from the seed, times the CLI's import in fresh worker
processes, then runs the workload's commands in one more fresh worker
through `latticemarket.cli.main(argv)`, in whole passes until S seconds
have gone.  Every output is checked.  With --trace 1 every second pass
is traced and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_WORKERS = 3
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREAD_CAP = "1"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: THREAD_CAP for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def worker(args: list[str], log_path: str, timeout: float) -> str:
    """Run worker.py in a fresh interpreter; its stdout on success."""
    with open(log_path, "ab") as log:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               *args], stdout=subprocess.PIPE, stderr=log,
                              env=worker_env(), timeout=timeout, check=False)
    if done.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}:\n{tail}")
    return done.stdout.decode()


def measure_setup(src: str, log_path: str, workers: int) -> float:
    """Median import-and-parser time over fresh workers, after a warm-up
    worker that leaves the package's bytecode cached."""
    worker(["setup", src], log_path, 60)
    return statistics.median(
        json.loads(worker(["setup", src], log_path, 60))["setup_s"]
        for _ in range(workers))


def step_problems(name: str, step: str, out_dir: str, argv: list[str],
                  pass_dir: str, smoke: bool) -> list[str]:
    """Checks for one command's outputs; see checks.py."""
    statistical = not smoke
    try:
        if name == "simulate":
            spec = {s[0]: s for s in workloads.SIMULATE[smoke]}[step]
            label, dims, side, temp, _, sweeps, burn = spec
            return checks.check_simulate(out_dir, label, dims, side, temp,
                                         sweeps, burn, statistical)
        hurst = (workloads.LONG if name == "analyze"
                 else workloads.WIDE)[smoke]["hurst"]
        if step == "analyze":
            return checks.check_analyze(out_dir, hurst, name == "analyze-wide",
                                        statistical)
        if step == "fit-kappa":
            return checks.check_fit_kappa(out_dir,
                                          os.path.join(pass_dir, "analyze"),
                                          hurst, statistical)
        if step == "predict":
            return checks.check_predict(out_dir,
                                        float(argv[argv.index("--kappa") + 1]))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{step}: unreadable output: {exc!r}"]
    return [f"{step}: no check"]


def grade(name: str, passes: list[dict], smoke: bool):
    """(attempted, failed, problems); a command fails on a non-zero exit,
    a failed check, or files that differ from the first pass's."""
    attempted = failed = 0
    problems: list[str] = []
    first = passes[0]
    verdict, digests = {}, {}
    for s in first["steps"]:
        out_dir = os.path.join(first["dir"], s["step"])
        verdict[s["step"]] = ([f"{s['step']}: exit {s['exit']}"]
                              if s["exit"] != 0 else
                              step_problems(name, s["step"], out_dir, s["argv"],
                                            first["dir"], smoke))
        digests[s["step"]] = checks.digest_dir(out_dir)
        problems.extend(verdict[s["step"]])
    for i, p in enumerate(passes):
        for s in p["steps"]:
            attempted += 1
            bad = s["exit"] != 0 or verdict.get(s["step"], ["unknown step"])
            if not bad and i > 0 and checks.digest_dir(
                    os.path.join(p["dir"], s["step"])) != digests[s["step"]]:
                problems.append(f"pass {i}: {s['step']} outputs differ from "
                                "pass 0")
                bad = True
            failed += bool(bad)
    return attempted, failed, problems


def horizons_dropped(name: str, first_pass: dict) -> int:
    """Horizons requested but not reported, over one pass's commands."""
    dropped = 0
    for s in first_pass["steps"]:
        out_dir = os.path.join(first_pass["dir"], s["step"])
        if s["step"] == "analyze":
            report = checks.read_report(
                os.path.join(out_dir, "report.json"))["report"]
            dropped += (len(report["horizons_requested"])
                        - len(report["horizons_used"]))
        elif s["step"] == "predict":
            _, rows = checks.read_rows(os.path.join(out_dir, "predictions.csv"))
            dropped += len(checks.PREDICT_HORIZONS) - len(rows)
    return dropped


def median_of(values) -> float:
    return statistics.median(list(values))


def trace_summary(passes: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics (medians over traced passes) and, per command,
    how the layer self times add up against its untraced wall time."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        # counts repeat exactly from pass to pass and stay whole numbers
        metrics[key] = (statistics.median_low(values)
                        if all(isinstance(v, int) for v in values)
                        else median_of(values))
    metrics["trace.overhead_s"] = (median_of(p["wall_s"] for p in traced)
                                   - median_of(p["wall_s"] for p in plain))
    rows = []
    for i, step in enumerate(s["step"] for s in traced[0]["steps"]):
        untraced = median_of(p["steps"][i]["wall_s"] for p in plain)
        wall = median_of(p["steps"][i]["wall_s"] for p in traced)
        layer_self = {layer: median_of(p["layer_self_by_step"][i][layer]
                                       for p in traced)
                      for layer in tracing.LAYERS}
        total = sum(layer_self.values())
        # The self times partition the traced command, so they differ from
        # the untraced wall time by the tracing overhead, up to the few
        # microseconds the step timer spends outside the root span.
        rows.append({"step": step, "untraced_s": untraced, "traced_s": wall,
                     "overhead_s": wall - untraced, "self_sum_s": total,
                     "within_overhead": abs(total - untraced)
                     <= abs(wall - untraced) + 1e-3,
                     "layer_self_s": layer_self})
    return metrics, rows


def print_table(title: str, values: dict, units: dict) -> None:
    print(title, file=sys.stderr)
    for key, value in values.items():
        print(f"  {key:40s} {value:14.6g} {units.get(key, '')}", file=sys.stderr)


def print_command_times(name: str, passes: list[dict]) -> None:
    """Median per pass of each command kind (simulate_s, analyze_s, ...)."""
    plain = [p for p in passes if not p["traced"]]
    kinds = dict.fromkeys(s["argv"][0] for s in plain[0]["steps"])
    times = {f"{kind.replace('-', '_')}_s": median_of(
        sum(s["wall_s"] for s in p["steps"] if s["argv"][0] == kind)
        for p in plain) for kind in kinds}
    print_table(f"{name}: median wall time of each command kind per pass, "
                f"over {len(plain)} untraced passes", times,
                dict.fromkeys(times, "s"))
    print("  untraced passes (s): "
          + " ".join(f"{p['wall_s']:.3f}" for p in plain), file=sys.stderr)


def write_trace(name: str, seed: int, passes: list[dict]) -> dict:
    """Per-layer metrics; the last traced pass's spans go to a file."""
    metrics, rows = trace_summary(passes)
    metrics["pipeline.horizons_dropped"] = horizons_dropped(name, passes[0])
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{name}-seed{seed}.json")
    last = [p for p in passes if p["traced"]][-1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "by_command": rows,
                   "spans": last["spans"]}, fh, indent=1)
    for row in rows:
        print(f"  {row['step']:12s} untraced {row['untraced_s']:.4f} s  traced "
              f"{row['traced_s']:.4f} s  layer self sum {row['self_sum_s']:.4f} s"
              + ("" if row["within_overhead"] else "  (NOT within overhead)"),
              file=sys.stderr)
    print(f"  spans written to {path}", file=sys.stderr)
    return metrics


def run(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "latticemarket", "cli.py")):
        print(f"perfbench: {src}/latticemarket not found; run from a source "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log_path = os.path.join(work, "worker.log")
    try:
        files = workloads.make_inputs(args.workload, args.seed, work, args.smoke)
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = measure_setup(
                src, log_path, 1 if args.smoke else SETUP_WORKERS)
        spec = {"workload": args.workload, "seed": args.seed, "files": files,
                "out_dir": os.path.join(work, "out"), "smoke": args.smoke,
                "seconds": args.seconds, "trace": bool(args.trace)}
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        worker(["run", src, spec_path, result_path], log_path,
               max(deadline - time.monotonic(), 1.0))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        passes = result["passes"]
        attempted, failed, problems = grade(args.workload, passes, args.smoke)
        for line in problems:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
        print_command_times(args.workload, passes)
        if args.trace:
            metrics = write_trace(args.workload, args.seed, passes)
        else:
            metrics["pass_s"] = median_of(p["wall_s"] for p in passes)
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print_table(f"{args.workload}: metrics", metrics, units)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def declared_units(trace: bool) -> dict:
    """{metric: unit} as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; statistical checks are skipped")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the worker it waits for and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
