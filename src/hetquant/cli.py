"""Command-line front end: generate, analyze, divergence, and sweep.

Exit codes: 0 on success, 1 on any validation failure (bad flags, bad
configs, malformed CSV), 2 on I/O failure. Errors print to standard error
as ``error: <category>: <detail>``. Output files are written to a
temporary sibling and renamed into place, so a failing run never leaves a
partial file behind.
"""

from __future__ import annotations

import argparse
import sys

from .distribution import BINNINGS, distribution_csv_bytes, read_distribution_csv
from .divergence import LOG_BASES, METRICS, evaluate
from .errors import HetquantError
from .measure import VARIANTS, MeasureConfig, measure
from .series import (
    SPACINGS,
    SegmentedGeneratorConfig,
    format_float,
    generate_segmented,
    read_csv,
    series_csv_bytes,  # not called here; kept for perfbench/spans.py, which hooks this name
    write_bytes,
    write_csv,
)
from .sweep import SweepConfig, run_sweep

__all__ = ["main"]


class _UsageError(HetquantError):
    category = "usage"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures map to exit code 1, not argparse's 2."""

    def error(self, message: str) -> None:
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _add_binning_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--binning",
        choices=BINNINGS,
        default=MeasureConfig.binning,
        help="histogram scale: log bins ln(variance) no narrower than the window's noise, linear splits [0, max]",
    )


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma-min", type=float, default=SegmentedGeneratorConfig.sigma_min, help="smallest segment standard deviation")
    parser.add_argument("--sigma-max", type=float, default=SegmentedGeneratorConfig.sigma_max, help="largest segment standard deviation")
    parser.add_argument("--spacing", choices=SPACINGS, default=SegmentedGeneratorConfig.spacing, help="sigma grid spacing")
    parser.add_argument("--shuffle", action="store_true", help="permute segment order with the seeded RNG")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hetquant",
        description="Quantify heteroskedasticity of a time series via local-variance histograms and Bhattacharyya-family divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser(
        "generate",
        help="write a seeded segmented-variance Gaussian series to CSV",
        formatter_class=fmt,
    )
    gen.add_argument("--samples", type=int, required=True, help="total number of samples")
    gen.add_argument("--num-sigmas", type=int, default=SegmentedGeneratorConfig.num_sigmas, help="number of variance segments k")
    _add_generator_flags(gen)
    gen.add_argument("--seed", type=int, default=SegmentedGeneratorConfig.seed, help="64-bit RNG seed")
    gen.add_argument("--out", required=True, help="output series CSV path")

    ana = sub.add_parser(
        "analyze",
        help="score a series CSV and print variant,score,window,bins,n_variances",
        formatter_class=fmt,
    )
    ana.add_argument("--input", required=True, help="input series CSV path, or - for standard input")
    ana.add_argument("--window", type=int, default=MeasureConfig.window, help="sliding window width w")
    ana.add_argument("--bins", type=int, default=MeasureConfig.bins, help="histogram bin count B")
    ana.add_argument("--variant", choices=VARIANTS, default=MeasureConfig.variant, help="score variant")
    _add_binning_flag(ana)
    ana.add_argument(
        "--emit-distribution",
        metavar="PATH",
        help="also write the variance histogram as bin_midpoint,mass CSV",
    )

    div = sub.add_parser(
        "divergence",
        help="evaluate a divergence metric on distribution CSVs and print metric,value,alpha,log_base",
        formatter_class=fmt,
    )
    div.add_argument("--p", required=True, help="first distribution CSV (bin_midpoint,mass)")
    div.add_argument("--q", help="second distribution CSV; omit for entropy metrics")
    div.add_argument("--metric", required=True, choices=sorted(METRICS), help="metric name")
    div.add_argument("--alpha", type=float, help="order parameter for renyi, tsallis, renyi_entropy")
    div.add_argument("--log-base", choices=LOG_BASES, default="natural", help="logarithm base for kl, renyi, and entropies")

    swp = sub.add_parser(
        "sweep",
        help="run the (k, window, seed) grid and write k,window,seed,metric,score CSV",
        formatter_class=fmt,
    )
    swp.add_argument("--sigma-counts", type=_int_list, default=SweepConfig.sigma_counts, help="comma-separated k values")
    swp.add_argument("--windows", type=_int_list, default=SweepConfig.windows, help="comma-separated window widths")
    swp.add_argument("--bins", type=int, default=SweepConfig.bins, help="histogram bin count B")
    _add_binning_flag(swp)
    swp.add_argument("--samples", type=int, default=SweepConfig.total_samples, help="samples per generated series")
    swp.add_argument("--seeds", type=_int_list, default=SweepConfig.seeds, help="comma-separated RNG seeds")
    _add_generator_flags(swp)
    swp.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    swp.add_argument("--out", required=True, help="report CSV path")
    swp.add_argument("--summary", metavar="PATH", help="also write window,metric,spearman,mean_score_k* CSV")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = SegmentedGeneratorConfig(
        total_samples=args.samples,
        num_sigmas=args.num_sigmas,
        sigma_min=args.sigma_min,
        sigma_max=args.sigma_max,
        spacing=args.spacing,
        shuffle_segments=args.shuffle,
        seed=args.seed,
    )
    series = generate_segmented(config)
    write_csv(series, args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = MeasureConfig(
        window=args.window, bins=args.bins, variant=args.variant, binning=args.binning
    )
    series = read_csv(sys.stdin.buffer if args.input == "-" else args.input)
    report = measure(series, config)
    if args.emit_distribution:
        write_bytes(distribution_csv_bytes(report.distribution), args.emit_distribution)
    if report.sparse_histogram:
        print(
            f"warning: only {report.n_variances} variance estimates for "
            f"{config.bins} bins; the score may be noisy",
            file=sys.stderr,
        )
    print("variant,score,window,bins,n_variances")
    print(
        f"{report.variant},{format_float(report.score)},{config.window},"
        f"{config.bins},{report.n_variances}"
    )
    return 0


def _cmd_divergence(args: argparse.Namespace) -> int:
    p = read_distribution_csv(args.p)
    q = read_distribution_csv(args.q) if args.q is not None else None
    result = evaluate(args.metric, p, q, alpha=args.alpha, log_base=args.log_base)
    alpha_text = "" if result.alpha is None else format_float(result.alpha)
    base_text = "" if result.log_base is None else result.log_base
    print("metric,value,alpha,log_base")
    print(f"{result.metric},{format_float(result.value)},{alpha_text},{base_text}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        sigma_counts=args.sigma_counts,
        windows=args.windows,
        bins=args.bins,
        total_samples=args.samples,
        seeds=args.seeds,
        sigma_min=args.sigma_min,
        sigma_max=args.sigma_max,
        spacing=args.spacing,
        shuffle_segments=args.shuffle,
        binning=args.binning,
    )
    report = run_sweep(config, workers=args.workers)
    write_bytes(report.report_csv_bytes(), args.out)
    if args.summary:
        write_bytes(report.summary_csv_bytes(), args.summary)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "divergence": _cmd_divergence,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except HetquantError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
