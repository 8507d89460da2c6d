"""Command-line front end: generate, analyze, divergence, and sweep.

Exit codes: 0 on success, 1 on any validation failure (bad flags, bad
configs, malformed CSV), 2 on I/O failure. Errors print to standard error
as ``error: <category>: <detail>``. Output files are written to a
temporary sibling and renamed into place, so a failing run never leaves a
partial file behind.

``main(argv)`` may be called many times in one process. It builds its
parser on the first call and reuses it; help is still laid out when it is
printed, so it follows ``COLUMNS``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .distribution import BINNINGS, distribution_csv_bytes, read_distribution_csv
from .divergence import LOG_BASES, METRICS, evaluate
from .errors import HetquantError
from .measure import VARIANTS, MeasureConfig, measure
from .series import (
    SPACINGS,
    SegmentedGeneratorConfig,
    config_from,
    format_float,
    generate_segmented,
    read_csv,
    replacing,
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
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    series = generate_segmented(config_from(SegmentedGeneratorConfig, args))
    write_csv(series, args.out)
    return 0


def _refuse_one_file(first: str, first_path: str, second: str, second_path: str) -> None:
    """Raise a usage error if the two paths name one file, compared as
    ``replacing`` resolves them."""
    if os.path.realpath(first_path) == os.path.realpath(second_path):
        raise _UsageError(f"{first} {first_path!r} and {second} {second_path!r} name the same file")


def _cmd_analyze(args: argparse.Namespace) -> int:
    # The histogram would replace the series it was taken from.
    if args.emit_distribution and args.input != "-":
        _refuse_one_file("--input", args.input, "--emit-distribution", args.emit_distribution)
    config = config_from(MeasureConfig, args)
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
    # Renamed into place one after the other, two names of one file would
    # keep only the report.
    if args.summary:
        _refuse_one_file("--out", args.out, "--summary", args.summary)
    config = config_from(SweepConfig, args)
    # Both files are made before the grid runs and renamed only after both
    # are written. Nothing is written to them before the pool forks.
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(replacing(args.out))
        summary = stack.enter_context(replacing(args.summary)) if args.summary else None
        report = run_sweep(config, workers=args.workers)
        write_bytes(report.report_csv_bytes(), out)
        if summary is not None:
            write_bytes(report.summary_csv_bytes(), summary)
    return 0


# Flags that more than one subcommand takes: (flag, add_argument settings).
_BINNING_FLAG = ("--binning", dict(
    choices=BINNINGS,
    default=MeasureConfig.binning,
    help="histogram scale: log bins ln(variance) no narrower than the window's noise, linear splits [0, max]",
))
_GENERATOR_FLAGS = [
    ("--sigma-min", dict(type=float, default=SegmentedGeneratorConfig.sigma_min, help="smallest segment standard deviation")),
    ("--sigma-max", dict(type=float, default=SegmentedGeneratorConfig.sigma_max, help="largest segment standard deviation")),
    ("--spacing", dict(choices=SPACINGS, default=SegmentedGeneratorConfig.spacing, help="sigma grid spacing")),
    ("--shuffle", dict(dest="shuffle_segments", action="store_true", help="permute segment order with the seeded RNG")),
]

# subcommand -> (help, run, flags in --help order)
_COMMANDS = {
    "generate": ("write a seeded segmented-variance Gaussian series to CSV", _cmd_generate, [
        ("--samples", dict(dest="total_samples", metavar="SAMPLES", type=int, required=True, help="total number of samples")),
        ("--num-sigmas", dict(type=int, default=SegmentedGeneratorConfig.num_sigmas, help="number of variance segments k")),
        *_GENERATOR_FLAGS,
        ("--seed", dict(type=int, default=SegmentedGeneratorConfig.seed, help="64-bit RNG seed")),
        ("--out", dict(required=True, help="output series CSV path")),
    ]),
    "analyze": ("score a series CSV and print variant,score,window,bins,n_variances", _cmd_analyze, [
        ("--input", dict(required=True, help="input series CSV path, or - for standard input")),
        ("--window", dict(type=int, default=MeasureConfig.window, help="sliding window width w")),
        ("--bins", dict(type=int, default=MeasureConfig.bins, help="histogram bin count B")),
        ("--variant", dict(choices=VARIANTS, default=MeasureConfig.variant, help="score variant")),
        _BINNING_FLAG,
        ("--emit-distribution", dict(metavar="PATH", help="also write the variance histogram as bin_midpoint,mass CSV")),
    ]),
    "divergence": ("evaluate a divergence metric on distribution CSVs and print metric,value,alpha,log_base", _cmd_divergence, [
        ("--p", dict(required=True, help="first distribution CSV (bin_midpoint,mass)")),
        ("--q", dict(help="second distribution CSV; omit for entropy metrics")),
        ("--metric", dict(required=True, choices=sorted(METRICS), help="metric name")),
        ("--alpha", dict(type=float, help="order parameter for renyi, tsallis, renyi_entropy")),
        ("--log-base", dict(choices=LOG_BASES, default="natural", help="logarithm base for kl, renyi, and entropies")),
    ]),
    "sweep": ("run the (k, window, seed) grid and write k,window,seed,metric,score CSV", _cmd_sweep, [
        ("--sigma-counts", dict(type=_int_list, default=SweepConfig.sigma_counts, help="comma-separated k values")),
        ("--windows", dict(type=_int_list, default=SweepConfig.windows, help="comma-separated window widths")),
        ("--bins", dict(type=int, default=SweepConfig.bins, help="histogram bin count B")),
        _BINNING_FLAG,
        ("--samples", dict(dest="total_samples", metavar="SAMPLES", type=int, default=SweepConfig.total_samples, help="samples per generated series")),
        ("--seeds", dict(type=_int_list, default=SweepConfig.seeds, help="comma-separated RNG seeds")),
        *_GENERATOR_FLAGS,
        ("--workers", dict(type=int, default=1, help="parallel worker processes")),
        ("--out", dict(required=True, help="report CSV path")),
        ("--summary", dict(metavar="PATH", help="also write window,metric,spearman,mean_score_k* CSV")),
    ]),
}


# parse_args leaves the parser as it was, so one parser serves every call.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hetquant",
        description="Quantify heteroskedasticity of a time series via local-variance histograms and Bhattacharyya-family divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, run, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, settings in flags:
            command.add_argument(flag, **settings)
        command.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except HetquantError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
