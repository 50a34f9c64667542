"""Command-line entry points for the sidelink ranging toolkit.

Subcommands: ``scenario`` (dump/inspect geometry), ``ranging`` (Monte Carlo
RMSE sweep), ``bounds`` (bound curves only), ``position`` (multilateration
demo), ``check`` (coherence and latency budget).  Exit codes: 0 success,
1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from .estimation import PEAK_POLICIES
from .harness import (
    LINKS,
    RunConfig,
    coherence_and_latency_check,
    run_bounds_sweep,
    run_positioning_demo,
    run_ranging_sweep,
)
from .positioning import Anchor
from .propagation import Vec3, build_scenario, parse_vec, scenario_from_text, scenario_to_text
from .signal import OfdmConfig, default_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the config-error exit code."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _vec_argument(text: str) -> Vec3:
    """``parse_vec`` for argparse, whose message keeps the reason."""
    try:
        return parse_vec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_anchors(path: str) -> list[Anchor]:
    anchors = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (3, 4):
                raise ValueError(f"anchor line needs x,y,z[,label]: {line!r}")
            anchors.append(Anchor(Vec3(float(parts[0]), float(parts[1]), float(parts[2]))))
    return anchors


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: each
    ``parse_args`` call fills a new namespace, so calls stay independent."""
    parser = _Parser(prog="slpos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scn = sub.add_parser("scenario", help="build and dump a scenario")
    p_scn.add_argument("--id", type=int, choices=(1, 2), required=True)
    p_scn.add_argument("--dump", action="store_true",
                       help="print the flat key=value form to stdout")
    p_scn.add_argument("--out", help="write the key=value form to a file")

    budget = default_config()
    for name, help_text in (("ranging", "Monte Carlo RMSE sweep with bounds"),
                            ("bounds", "bound curves only, no Monte Carlo")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", type=int, choices=(1, 2), required=True)
        p.add_argument("--link", choices=LINKS, required=True)
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--beta", type=float, default=RunConfig.beta)
        p.add_argument("--scenario-file", help="override the built-in geometry "
                                               "with a key=value scenario file")
        p.add_argument("--tx-power-dbm", type=float,
                       default=10.0 * math.log10(budget.tx_power / 1e-3))
        p.add_argument("--noise-figure-db", type=float, default=budget.noise_figure_db)
        if name == "ranging":
            p.add_argument("--trials", type=int, default=RunConfig.trials)
            p.add_argument("--seed", type=int, default=RunConfig.seed)
            p.add_argument("--oversample", type=int, default=RunConfig.oversample)
            p.add_argument("--peak-policy", choices=PEAK_POLICIES,
                           default=RunConfig.peak_policy)
            p.add_argument("--first-peak-threshold-db", type=float,
                           default=RunConfig.first_peak_threshold_db)
            p.add_argument("--no-doppler", action="store_true")
            p.add_argument("--clock-bias-std", type=float, default=RunConfig.clock_bias_std)

    p_pos = sub.add_parser("position", help="synthetic multilateration demo")
    p_pos.add_argument("--anchors", required=True,
                       help="text file, one 'x,y,z[,label]' anchor per line")
    p_pos.add_argument("--sigma", type=float, required=True)
    p_pos.add_argument("--trials", type=int, default=1000)
    p_pos.add_argument("--seed", type=int, default=0)
    p_pos.add_argument("--true-point", type=_vec_argument, default=Vec3(3.0, 4.0, 0.0))
    p_pos.add_argument("--dim", type=int, choices=(2, 3), default=2)

    p_chk = sub.add_parser("check", help="coherence margin and latency budget")
    p_chk.add_argument("--vmax", type=float, required=True)
    p_chk.add_argument("--accuracy", type=float, required=True)

    return parser


def _cmd_scenario(args: argparse.Namespace) -> int:
    text = scenario_to_text(build_scenario(args.id))
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
        print(f"scenario {args.id} written to {args.out}")
    if args.dump or not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def _radio_budget(tx_power_dbm: float, noise_figure_db: float) -> OfdmConfig:
    """The default waveform with ``--tx-power-dbm`` and ``--noise-figure-db``."""
    try:
        tx_power = 10 ** (tx_power_dbm / 10.0) * 1e-3
    except OverflowError:
        raise ValueError(f"--tx-power-dbm {tx_power_dbm} overflows the transmit "
                         "power") from None
    return dataclasses.replace(default_config(), tx_power=tx_power,
                               noise_figure_db=noise_figure_db)


def _cmd_sweep(args: argparse.Namespace, monte_carlo: bool) -> int:
    scenario = None
    if args.scenario_file:
        with open(args.scenario_file, "r", encoding="utf-8") as handle:
            scenario = scenario_from_text(handle.read())
        if scenario.scenario_id != args.scenario:
            raise ValueError("scenario file id does not match --scenario")
    ofdm = _radio_budget(args.tx_power_dbm, args.noise_figure_db)
    if monte_carlo:
        cfg = RunConfig(
            scenario_id=args.scenario, link=args.link, trials=args.trials,
            seed=args.seed, beta=args.beta, oversample=args.oversample,
            peak_policy=args.peak_policy,
            first_peak_threshold_db=args.first_peak_threshold_db,
            doppler_enabled=not args.no_doppler,
            clock_bias_std=args.clock_bias_std, output_path=args.out,
        )
        points = run_ranging_sweep(cfg, scenario=scenario, ofdm=ofdm)
    else:
        cfg = RunConfig(scenario_id=args.scenario, link=args.link,
                        beta=args.beta, output_path=args.out)
        points = run_bounds_sweep(cfg, scenario=scenario, ofdm=ofdm)
    n_los = sum(p.los_present for p in points)
    print(f"{len(points)} sweep samples ({n_los} with line of sight) -> {args.out}")
    return EXIT_OK


def _cmd_position(args: argparse.Namespace) -> int:
    anchors = _load_anchors(args.anchors)
    summary = run_positioning_demo(anchors, args.true_point, args.sigma,
                                   args.trials, seed=args.seed, dim=args.dim)
    print(f"synthetic anchor layout demo: {len(anchors)} anchors, "
          f"sigma={args.sigma} m, {summary.trials} trials")
    print(f"position RMSE {summary.rmse:.6g} m, geometric CRB {summary.crb:.6g} m")
    for score in summary.scores:
        req = score.requirement
        print(f"{req.name} ({req.accuracy_lo}-{req.accuracy_hi} m, "
              f"{req.confidence_lo:.0%}-{req.confidence_hi:.0%}): "
              f"within {req.accuracy_hi} m on {score.fraction_within_loose:.1%} "
              f"(need >= {req.confidence_lo:.0%}: {'pass' if score.met_loose else 'fail'}), "
              f"within {req.accuracy_lo} m on {score.fraction_within_strict:.1%} "
              f"(need >= {req.confidence_hi:.0%}: {'pass' if score.met_strict else 'fail'})")
    if summary.at_limit or summary.stalled:
        print(f"slpos: {summary.at_limit + summary.stalled} of {summary.trials} fixes did "
              f"not converge ({summary.at_limit} stopped at the iteration limit, "
              f"{summary.stalled} stalled before it); they are included in the RMSE and "
              "the requirement rates", file=sys.stderr)
    if summary.clipped:
        print(f"slpos: {summary.clipped} of {summary.trials * len(anchors)} ranges were "
              "clipped at 0 m; the geometric CRB assumes unclipped Gaussian ranges",
              file=sys.stderr)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    report = coherence_and_latency_check(default_config(), args.vmax, args.accuracy)
    if args.vmax == 0:
        print("zero maximum speed: coherence and latency budgets are unbounded")
        return EXIT_OK
    print(f"coherent symbol limit {report.coherence_symbol_limit:.1f}, "
          f"pilot uses {report.num_symbols} symbols "
          f"(margin {report.coherence_margin:.1f}x, "
          f"{'ok' if report.coherent else 'VIOLATED'})")
    print(f"latency budget for {args.accuracy} m at {args.vmax} m/s: "
          f"{report.latency_budget_s * 1e3:.2f} ms")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "ranging":
            return _cmd_sweep(args, monte_carlo=True)
        if args.command == "bounds":
            return _cmd_sweep(args, monte_carlo=False)
        if args.command == "position":
            return _cmd_position(args)
        if args.command == "check":
            return _cmd_check(args)
        raise ValueError(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"slpos: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"slpos: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
