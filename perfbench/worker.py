"""Fresh worker process: imports the CLI and runs a workload's passes.

    worker.py setup SRC               print the seconds to import
                                      latticemarket.cli and build its parser
    worker.py run SRC SPEC RESULT     run passes as SPEC (JSON) describes
                                      and write timings to RESULT

The parent caps the BLAS/OpenMP thread pools through the environment
before it starts this process.  Only the standard library is imported at
module level, so that `setup` times numpy's import too.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _import_cli(src: str):
    sys.path.insert(0, src)
    import latticemarket.cli as cli
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"latticemarket was imported from {origin}, not {src}")
    return cli


def setup(src: str) -> None:
    start = time.perf_counter()
    cli = _import_cli(src)
    cli.build_parser()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _run_pass(cli, spec: dict, index: int, tracer) -> dict:
    import tracing
    import workloads
    pass_dir = os.path.join(spec["out_dir"], f"pass{index:03d}")
    main = cli.main if tracer is None else tracer.wrap("cli", "main", cli.main)
    steps = []
    start = time.perf_counter()
    for step, argv in workloads.commands(spec["workload"], spec["seed"],
                                         spec["files"], pass_dir, spec["smoke"]):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        steps.append({"step": step, "argv": argv, "exit": code,
                      "wall_s": time.perf_counter() - t0})
    record = {"dir": pass_dir, "traced": tracer is not None,
              "wall_s": time.perf_counter() - start, "steps": steps}
    if tracer is not None:
        spans = tracer.spans
        record["layers"] = tracing.layer_metrics(spans)
        by_root = tracing.layer_self_by_root(spans)
        record["layer_self_by_step"] = [by_root[i] for i in sorted(by_root)]
        record["spans"] = list(spans)
    return record


def run(src: str, spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(src)
    import tracing
    tracer = tracing.Tracer() if spec["trace"] else None
    deadline = time.perf_counter() + spec["seconds"]
    passes = []
    # Whole passes until the time is up; at least two, so that reruns can
    # be compared, and with tracing an even count: untraced, traced, ...
    while len(passes) < 2 or time.perf_counter() < deadline \
            or (tracer is not None and len(passes) % 2):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            passes.append(_run_pass(cli, spec, len(passes),
                                    tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 5:
        run(*sys.argv[2:])
    else:
        raise SystemExit(__doc__)
