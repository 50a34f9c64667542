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
    """Argument parser whose usage errors map to the config-error exit code.
    It takes no option prefix, so a new option cannot change what one means."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    """The anchors of a text file, one ``x,y,z[,label]`` row per line; a bad
    row raises ``ValueError`` naming its 1-based line number."""
    anchors = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                if len(parts) not in (3, 4):
                    raise ValueError(f"needs x,y,z[,label], got {line!r}")
                anchors.append(Anchor(parse_vec(",".join(parts[:3]))))
            except ValueError as exc:
                raise ValueError(f"anchor file line {number}: {exc}") from None
    return anchors


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: each
    ``parse_args`` call fills a new namespace, so calls stay independent."""
    parser = _Parser(prog="slpos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scn = sub.add_parser("scenario", help="build and dump a scenario")
    p_scn.set_defaults(run=_cmd_scenario)
    p_scn.add_argument("--id", type=int, choices=(1, 2), required=True)
    p_scn.add_argument("--dump", action="store_true",
                       help="print the flat key=value form to stdout")
    p_scn.add_argument("--out", help="write the key=value form to a file")

    budget = default_config()
    for name, help_text in (("ranging", "Monte Carlo RMSE sweep with bounds"),
                            ("bounds", "bound curves only, no Monte Carlo")):
        # Stored under RunConfig's field names, from which _cmd_sweep builds its config.
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=functools.partial(_cmd_sweep, monte_carlo=name == "ranging"))
        p.add_argument("--scenario", dest="scenario_id", type=int, choices=(1, 2),
                       required=True)
        p.add_argument("--link", choices=LINKS, required=True)
        p.add_argument("--out", dest="output_path", metavar="OUT", required=True,
                       help="output CSV path")
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
            p.add_argument("--no-doppler", dest="doppler_enabled", action="store_false")
            p.add_argument("--clock-bias-std", type=float, default=RunConfig.clock_bias_std)

    p_pos = sub.add_parser("position", help="synthetic multilateration demo")
    p_pos.set_defaults(run=_cmd_position)
    p_pos.add_argument("--anchors", required=True,
                       help="text file, one 'x,y,z[,label]' anchor per line")
    p_pos.add_argument("--sigma", type=float, required=True)
    p_pos.add_argument("--trials", type=int, default=1000)
    p_pos.add_argument("--seed", type=int, default=0)
    p_pos.add_argument("--true-point", type=_vec_argument, default=Vec3(3.0, 4.0, 0.0))
    p_pos.add_argument("--dim", type=int, choices=(2, 3), default=2)

    p_chk = sub.add_parser("check", help="coherence margin and latency budget")
    p_chk.set_defaults(run=_cmd_check)
    p_chk.add_argument("--vmax", type=float, required=True)
    p_chk.add_argument("--accuracy", type=float, required=True)

    return parser


def _cmd_scenario(args: argparse.Namespace) -> int:
    text = scenario_to_text(build_scenario(args.id))
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
        print(f"scenario {args.id} written to {args.out}", file=sys.stderr)
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
    """``ranging`` (``monte_carlo``) or ``bounds``: one ``RunConfig`` from the
    options stored under its field names.  The sweep is looked up when it
    runs, so a wrapper installed on this module sees the call.  Samples with
    a finite bound that a round trip cannot resolve are counted on stderr."""
    scenario = None
    if args.scenario_file:
        with open(args.scenario_file, "r", encoding="utf-8-sig") as handle:
            scenario = scenario_from_text(handle.read())
        if scenario.scenario_id != args.scenario_id:
            raise ValueError("scenario file id does not match --scenario")
    ofdm = _radio_budget(args.tx_power_dbm, args.noise_figure_db)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in fields})
    sweep = run_ranging_sweep if monte_carlo else run_bounds_sweep
    points = sweep(cfg, scenario=scenario, ofdm=ofdm)
    n_los = sum(p.los_present for p in points)
    print(f"{len(points)} sweep samples ({n_los} with line of sight) -> {args.output_path}")
    limit = ofdm.unambiguous_range
    beyond = sum(any(limit <= bound < math.inf for bound in (p.reb_los, p.reb_all, p.reb_waa))
                 for p in points)
    if beyond:
        print(f"slpos: {beyond} of {len(points)} samples have a range error bound of at least "
              f"c / (2 subcarrier_spacing) = {limit:.1f} m, beyond what a round trip "
              "resolves; the small-error bounds do not hold there", file=sys.stderr)
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
    print(f"coherent symbol limit {report.coherence_symbol_limit:.4g}, "
          f"pilot uses {report.num_symbols} symbols "
          f"(margin {report.coherence_margin:.3g}x)")
    print(f"latency budget for {args.accuracy} m at {args.vmax} m/s: "
          f"{report.latency_budget_s * 1e3:.4g} ms")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"slpos: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"slpos: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
