"""Command-line interface: simulate, predict, analyze, fit-kappa.

Exit codes: 0 success, 2 validation error (bad inputs or config) or a
failed write, 1 runtime error.  Logs go to standard error; every
subcommand accepts --config PATH, --seed U64 and --out DIR, with CLI
flags taking precedence over the config file, which takes precedence
over the built-in defaults shown in --help.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .pipeline import PipelineConfig, cmd_analyze, cmd_fit_kappa, \
    cmd_predict, cmd_simulate


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticemarket",
        description="Lattice-gas market model: simulation, scaling-law "
                    "predictions and trend-regression analysis.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run the lattice simulation")
    _add_common(sim)
    sim.add_argument("--dims", type=int, help="lattice dimension (default 2)")
    sim.add_argument("--side", type=int, help="sites per axis (default 32)")
    sim.add_argument("--init", choices=["all_up", "all_down", "random"],
                     help="initial configuration (default random)")
    sim.add_argument("--temperature", type=float,
                     help="temperature, k=1 units (default 2D critical "
                          "temperature 0.2836)")
    sim.add_argument("--sweeps", type=int,
                     help="total Monte Carlo sweeps (default 20000)")
    sim.add_argument("--burn-in", dest="burn_in", type=int,
                     help="discarded initial sweeps (default 2000)")
    sim.add_argument("--thin", type=int,
                     help="record every thin-th sweep (default 1)")

    pred = subs.add_parser("predict", help="emit theory prediction curves")
    _add_common(pred)
    pred.add_argument("--dimension", type=float,
                      help="network dimension in [1.5, 4] (default 3.0)")
    pred.add_argument("--kappa", type=float,
                      help="set kappa directly instead of a dimension")
    pred.add_argument("--tau", type=float,
                      help="correlation time in days (default 32768)")
    pred.add_argument("--regime",
                      choices=["scaling", "exponential", "matched"],
                      help="propagator regime (default scaling; matched is "
                           "heuristic)")
    pred.add_argument("--predict-horizons", dest="predict_horizons",
                      type=_int_list,
                      help="comma-separated k list (default 1..13)")

    ana = subs.add_parser("analyze", help="run the empirical pipeline on "
                                          "a price CSV")
    _add_common(ana)
    ana.add_argument("prices", help="price CSV path")
    ana.add_argument("--schema", choices=["long", "wide"], default="long",
                     help="CSV schema (default long: market,date,price)")
    ana.add_argument("--horizons", type=_int_list,
                     help="comma-separated k list (default 1..10)")
    ana.add_argument("--estimator", choices=["phi", "psi", "step"],
                     help="trend estimator (default phi)")
    ana.add_argument("--bootstrap-samples", dest="bootstrap_samples",
                     type=int, help="bootstrap resamples (default 5000)")
    ana.add_argument("--cv-folds", dest="cv_folds", type=int,
                     help="cross-validation folds (default 15)")

    fk = subs.add_parser("fit-kappa", help="fit kappa from a variance CSV "
                                           "and invert to the dimension")
    _add_common(fk)
    fk.add_argument("variances", help="CSV with k,variance columns")
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config \
        else PipelineConfig()
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(PipelineConfig)
                 if hasattr(args, f.name)}
    config = config.overridden(**overrides)
    if getattr(args, "kappa", None) is not None \
            and getattr(args, "dimension", None) is None:
        # an explicit kappa on the command line replaces the dimension
        config = dataclasses.replace(config, dimension=None)
    return config


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "simulate":
            paths = cmd_simulate(config, args.out)
        elif args.command == "predict":
            paths = cmd_predict(config, args.out)
        elif args.command == "analyze":
            paths = cmd_analyze(config, args.prices, args.out,
                                schema=args.schema)
        elif args.command == "fit-kappa":
            paths = cmd_fit_kappa(config, args.variances, args.out)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        for path in paths:
            print(path)
        return 0
    except (ValueError, OSError, KeyError) as exc:
        logging.error("%s: %s", type(exc).__name__, exc)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        logging.error("unexpected failure: %s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
