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


def _span(ks: list[int]) -> str:
    return f"{ks[0]}..{ks[-1]}"


def _add_common(sub: argparse.ArgumentParser, seed: int) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help=f"master seed (default {seed})")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    d = PipelineConfig()
    parser = argparse.ArgumentParser(
        prog="latticemarket",
        description="Lattice-gas market model: simulation, scaling-law "
                    "predictions and trend-regression analysis.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run the lattice simulation")
    _add_common(sim, d.seed)
    sim.add_argument("--dims", type=int,
                     help=f"lattice dimension (default {d.dims})")
    sim.add_argument("--side", type=int,
                     help=f"sites per axis (default {d.side})")
    sim.add_argument("--init", choices=["all_up", "all_down", "random"],
                     help=f"initial configuration (default {d.init})")
    sim.add_argument("--temperature", type=float,
                     help="temperature, k=1 units (default 2D critical "
                          f"temperature {d.temperature:.4f})")
    sim.add_argument("--sweeps", type=int,
                     help=f"total Monte Carlo sweeps (default {d.sweeps})")
    sim.add_argument("--burn-in", dest="burn_in", type=int,
                     help=f"discarded initial sweeps (default {d.burn_in})")
    sim.add_argument("--thin", type=int,
                     help=f"record every thin-th sweep (default {d.thin})")

    pred = subs.add_parser("predict", help="emit theory prediction curves")
    _add_common(pred, d.seed)
    pred.add_argument("--dimension", type=float,
                      help="network dimension in [1.5, 4] "
                           f"(default {d.dimension})")
    pred.add_argument("--kappa", type=float,
                      help="set kappa directly instead of a dimension")
    pred.add_argument("--tau", type=float,
                      help=f"correlation time in days (default {d.tau:g})")
    pred.add_argument("--regime",
                      choices=["scaling", "exponential", "matched"],
                      help=f"propagator regime (default {d.regime}; "
                           "matched is heuristic)")
    pred.add_argument("--predict-horizons", dest="predict_horizons",
                      type=_int_list,
                      help="comma-separated k list "
                           f"(default {_span(d.predict_horizons)})")

    ana = subs.add_parser("analyze", help="run the empirical pipeline on "
                                          "a price CSV")
    _add_common(ana, d.seed)
    ana.add_argument("prices", help="price CSV path")
    ana.add_argument("--schema", choices=["long", "wide"], default="long",
                     help="CSV schema (default long: market,date,price)")
    ana.add_argument("--horizons", type=_int_list,
                     help=f"comma-separated k list (default "
                          f"{_span(d.horizons)})")
    ana.add_argument("--estimator", choices=["phi", "psi", "step"],
                     help=f"trend estimator (default {d.estimator})")
    ana.add_argument("--bootstrap-samples", dest="bootstrap_samples",
                     type=int, help="bootstrap resamples "
                                    f"(default {d.bootstrap_samples})")
    ana.add_argument("--cv-folds", dest="cv_folds", type=int,
                     help=f"cross-validation folds (default {d.cv_folds})")

    fk = subs.add_parser("fit-kappa", help="fit kappa from a variance CSV "
                                           "and invert to the dimension")
    _add_common(fk, d.seed)
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
    except (ValueError, OSError) as exc:
        logging.error("%s: %s", type(exc).__name__, exc)
        return 2
    except Exception as exc:  # any other exception is a bug
        logging.error("unexpected failure: %s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
