"""The benchmark's workloads, driven through ``hetquant.cli.main`` and the
package's public functions.

Each workload derives its inputs from the benchmark seed, runs iterations
of in-process CLI calls (and, for divergence-suite, library calls), and
checks every output. An operation that raises, exits non-zero or gives a
wrong output is counted as failed.

- file-roundtrip: ``generate`` writes a 2^20-row series CSV and
  ``analyze --emit-distribution`` reads and scores it. CSV parsing and
  formatting dominate; the variance kernel does little.
- sweep-grid: the default sweep grid (7 k x 4 windows x 20 derived seeds,
  65,536 samples) with one worker and with two. The kernel dominates and
  no CSV is parsed; the two worker counts expose process-pool overhead.
- divergence-suite: histograms of generated series at 64 and 4096 bins,
  compared by ``divergence`` CLI calls and by library ``evaluate`` calls.
  Distribution CSV reading and the divergence functions dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import hetquant
import hetquant.cli
import hetquant.divergence
from arith import Tally, timing_summary
from hetquant import (
    MeasureConfig,
    ProbabilityDistribution,
    SegmentedGeneratorConfig,
    distribution_csv_bytes,
    format_float,
    generate_segmented,
    local_variance,
    measure,
    measure_from_distribution,
)


@dataclass
class CliCall:
    command: str
    seconds: float
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]
    digests: dict[str, str]


class Session:
    """State shared by the workloads of one benchmark run: the scratch
    directory, operation tally, timings, CLI call log and output digests."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.tally = Tally()
        self.timings: dict[str, list[float]] = defaultdict(list)
        # (command, seconds) of every CLI call; outputs are not kept, so
        # memory does not grow with the number of calls.
        self.calls: list[tuple[str, float]] = []
        self.digests: dict[str, str] = {}
        # Seconds spent in timed hetquant calls; an iteration's time is the
        # growth of this total, so output checks are left out of it.
        self.busy_s = 0.0
        # When set, also counts the timed seconds in reference units.
        self.normalizer = None

    def timed(self, seconds: float) -> None:
        self.busy_s += seconds
        if self.normalizer is not None:
            self.normalizer.add(seconds)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, argv: list[str], outputs: tuple[str, ...] = ()) -> CliCall:
        """Run one in-process CLI call, timed, with its standard streams
        captured. After a successful call, read back the ``outputs`` files.
        The digest of every output is recorded under the call's arguments."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hetquant.cli.main(argv)
        seconds = time.perf_counter() - start
        call = CliCall(argv[0], seconds, code, out.getvalue(), err.getvalue(), {}, {})
        self.calls.append((call.command, seconds))
        # Scratch paths differ between runs; keep only their file names.
        label = " ".join(os.path.basename(a) if a.startswith(self.workdir) else a for a in argv)
        produced = {"stdout": call.stdout.encode()}
        if code == 0:
            for path in outputs:
                with open(path, "rb") as handle:
                    call.files[path] = produced[os.path.basename(path)] = handle.read()
        for name, data in produced.items():
            digest = call.digests[name] = hashlib.sha256(data).hexdigest()
            self.digests.setdefault(f"{label} > {name}", digest)
        self.timed(seconds)
        return call

    def operation(self, what: str, check) -> bool:
        """Run ``check`` (which returns a failure reason, or None) as one
        operation in the tally. An exception is a failure with its trace."""
        try:
            reason = check()
        except Exception:  # a benchmark must count the failure and go on
            reason = f"{what}: raised\n{traceback.format_exc()}"
        else:
            reason = None if reason is None else f"{what}: {reason}"
        return self.tally.record(reason is None, reason or "")


def _call_failure(call: CliCall) -> str | None:
    if call.code != 0:
        return f"exit code {call.code}: {call.stderr.strip()}"
    return None


class FileRoundtrip:
    name = "file-roundtrip"
    reference = "floats"  # see reference.py

    def __init__(self, session: Session, seed: int, samples: int = 1 << 20,
                 num_sigmas: int = 8, window: int = 128, bins: int = 64,
                 tag: str = "") -> None:
        self.session = session
        rng = np.random.default_rng(seed)
        self.gen_seed = int(rng.integers(0, 2**32))
        self.samples, self.num_sigmas, self.window, self.bins = samples, num_sigmas, window, bins
        self.series_path = session.path(f"series{tag}.csv")
        self.hist_path = session.path(f"hist{tag}.csv")
        series = generate_segmented(SegmentedGeneratorConfig(
            total_samples=samples, num_sigmas=num_sigmas, seed=self.gen_seed))
        report = measure(series, MeasureConfig(window=window, bins=bins))
        self.expected_samples = series.samples
        self.expected_stdout = (
            "variant,score,window,bins,n_variances\n"
            f"bhattacharyya,{format_float(report.score)},{window},{bins},{report.n_variances}\n"
        )
        self.expected_hist = distribution_csv_bytes(report.distribution)
        self.verified_series: str | None = None

    def _check_series_file(self, data: bytes, digest: str) -> str | None:
        if self.verified_series is not None:
            return None if digest == self.verified_series else "series CSV changed between calls"
        header, _, body = data.partition(b"\n")
        if header != b"value" or not body.endswith(b"\n"):
            return "series CSV header or final newline wrong"
        # Parse in slices so this check stays far below the program's own
        # peak memory, which peak_rss_mb is meant to show.
        stream, start = io.BytesIO(body), 0
        while chunk := stream.readlines(1 << 20):
            values = np.array(chunk, dtype=np.float64)
            if not np.array_equal(values, self.expected_samples[start:start + len(values)]):
                return f"series CSV differs from the generated samples near row {start + 1}"
            start += len(values)
        if start != len(self.expected_samples):
            return f"series CSV has {start} rows, expected {len(self.expected_samples)}"
        self.verified_series = digest
        return None

    def iteration(self, parallel: bool = True) -> None:
        s = self.session
        calls = []

        def generate():
            call = s.cli([
                "generate", "--samples", str(self.samples), "--num-sigmas", str(self.num_sigmas),
                "--seed", str(self.gen_seed), "--out", self.series_path], (self.series_path,))
            calls.append(call)
            data = call.files.pop(self.series_path, b"")  # not held during analyze
            return _call_failure(call) or self._check_series_file(
                data, call.digests[os.path.basename(self.series_path)])

        def analyze():
            call = s.cli([
                "analyze", "--input", self.series_path, "--window", str(self.window),
                "--bins", str(self.bins), "--emit-distribution", self.hist_path], (self.hist_path,))
            calls.append(call)
            if failure := _call_failure(call):
                return failure
            if call.stdout != self.expected_stdout:
                return f"score line {call.stdout!r}, expected {self.expected_stdout!r}"
            if call.files[self.hist_path] != self.expected_hist:
                return "emitted histogram differs"
            return None

        # One operation is the pair: analyze needs the file generate wrote.
        s.operation(self.name, lambda: generate() or analyze())
        for call in calls:
            s.timings[f"{call.command}_s"].append(call.seconds)

    def command_metrics(self, s: Session) -> list:
        return [
            ("generate_s", timing_summary(s.timings["generate_s"]), "s"),
            ("analyze_s", timing_summary(s.timings["analyze_s"]), "s"),
        ]


GRID_KS = (1, 2, 4, 8, 16, 32, 64)
GRID_WINDOWS = (32, 64, 128, 256)
GRID_SEEDS = 20


def _csv_ints(values) -> str:
    return ",".join(str(v) for v in values)


class SweepGrid:
    name = "sweep-grid"
    reference = "prefix-sums"  # see reference.py

    def __init__(self, session: Session, seed: int, ks=GRID_KS, windows=GRID_WINDOWS,
                 n_seeds: int = GRID_SEEDS, samples: int = 65536, bins: int = 64,
                 spot_checks: int = 4, tag: str = "") -> None:
        self.session = session
        rng = np.random.default_rng(seed)
        self.seeds = sorted(int(x) + 1 for x in rng.choice(2**31 - 1, size=n_seeds, replace=False))
        self.ks, self.windows, self.samples, self.bins = tuple(ks), tuple(windows), samples, bins
        self.workers = min(2, os.cpu_count() or 1)
        self.grid = [
            "sweep", "--sigma-counts", _csv_ints(self.ks), "--windows", _csv_ints(self.windows),
            "--bins", str(bins), "--samples", str(samples), "--seeds", _csv_ints(self.seeds)]
        self.out = {w: (session.path(f"report{tag}-w{w}.csv"), session.path(f"summary{tag}-w{w}.csv"))
                    for w in {1, self.workers}}
        # Checked against the library: every (k, window) of the first seed,
        # which covers each k and window, plus a few cells drawn at random.
        cells = [(k, w, sd) for k in self.ks for w in self.windows for sd in self.seeds]
        picks = rng.choice(len(cells), size=min(spot_checks, len(cells)), replace=False)
        spot = sorted({c for c in cells if c[2] == self.seeds[0]} | {cells[i] for i in picks})
        # Computed here, not while checking, so that no library call made
        # for a check lands inside a traced pass.
        self.expected_rows = [row for cell in spot for row in self._expected_rows(*cell)]
        self.verified: tuple[bytes, bytes] | None = None

    def _expected_rows(self, k: int, window: int, seed: int) -> list[str]:
        series = generate_segmented(SegmentedGeneratorConfig(
            total_samples=self.samples, num_sigmas=k, seed=seed))
        dist = measure(series, MeasureConfig(window=window, bins=self.bins)).distribution
        return [
            f"{k},{window},{seed},H_B,{format_float(measure_from_distribution(dist))}",
            f"{k},{window},{seed},H_H,{format_float(measure_from_distribution(dist, 'hellinger'))}",
        ]

    def _check_report(self, report: bytes) -> str | None:
        lines = report.decode().split("\n")
        if lines[0] != "k,window,seed,metric,score" or lines[-1] != "":
            return "report header or final newline wrong"
        expected_rows = 3 * len(self.ks) * len(self.windows) * len(self.seeds)
        if len(lines) - 2 != expected_rows:
            return f"report has {len(lines) - 2} rows, expected {expected_rows}"
        present = set(lines)
        for row in self.expected_rows:
            if row not in present:
                return f"report lacks the library's row {row!r}"
        return None

    def _run(self, workers: int, key: str) -> str | None:
        s = self.session
        report_path, summary_path = self.out[workers]
        call = s.cli(self.grid + ["--workers", str(workers), "--out", report_path,
                                  "--summary", summary_path], (report_path, summary_path))
        s.timings[key].append(call.seconds)
        if failure := _call_failure(call):
            return failure
        report, summary = call.files[report_path], call.files[summary_path]
        if self.verified is None:
            if failure := self._check_report(report):
                return failure
            self.verified = (report, summary)
            return None
        # Every run, at any worker count, must give the verified bytes.
        if (report, summary) != self.verified:
            return f"report or summary with --workers {workers} differs from the first run"
        return None

    def iteration(self, parallel: bool = True) -> None:
        s = self.session
        s.operation(f"{self.name} --workers 1", lambda: self._run(1, "sweep_s"))
        if parallel:
            s.operation(f"{self.name} --workers {self.workers}",
                        lambda: self._run(self.workers, "sweep_parallel_s"))

    def command_metrics(self, s: Session) -> list:
        return [
            ("sweep_s", timing_summary(s.timings["sweep_s"]), "s"),
            ("sweep_parallel_s", timing_summary(s.timings["sweep_parallel_s"]), "s"),
            ("sweep_parallel_workers", self.workers, "count"),
        ]


ALPHAS = (0.5, 2.0)
LOG_BASES = ("natural", "base2")


def metric_variants() -> list[tuple[str, bool, float | None, str]]:
    """Every (metric, needs q, alpha, log base) the suite evaluates."""
    out = []
    for metric, (needs_q, needs_alpha, uses_base, _) in sorted(hetquant.METRICS.items()):
        for alpha in ALPHAS if needs_alpha else (None,):
            for base in LOG_BASES if uses_base else ("natural",):
                out.append((metric, needs_q, alpha, base))
    return out


class DivergenceSuite:
    name = "divergence-suite"
    reference = "small-csv"  # see reference.py

    def __init__(self, session: Session, seed: int, ks=(1, 2, 4, 8, 16, 32),
                 samples: int = 65536, window: int = 128, bins=(64, 4096),
                 tag: str = "") -> None:
        self.session = session
        rng = np.random.default_rng(seed)
        variances = []
        for k in ks:
            series = generate_segmented(SegmentedGeneratorConfig(
                total_samples=samples, num_sigmas=k, seed=int(rng.integers(0, 2**32))))
            variances.append(local_variance(series, window).variances)
        top = max(float(v.max()) for v in variances)
        self.dists: dict[int, list[ProbabilityDistribution]] = {}
        self.files: dict[int, list[str]] = {}
        for b in bins:
            edges = np.linspace(0.0, top, b + 1)
            # Add-one smoothing keeps every bin occupied, so KL and the
            # alpha > 1 divergences stay finite.
            self.dists[b] = [
                ProbabilityDistribution(edges, (np.histogram(v, edges)[0] + 1.0) / (v.size + b))
                for v in variances]
            self.files[b] = []
            for i, dist in enumerate(self.dists[b]):
                path = session.path(f"dist{tag}-{b}-{i}.csv")
                with open(path, "wb") as handle:
                    handle.write(distribution_csv_bytes(dist))
                self.files[b].append(path)
        variants = metric_variants()
        # CLI calls compare histograms 0 and 1; the library compares every
        # ordered pair and takes the entropy of every histogram.
        self.cli_calls = []
        for b in bins:
            p, q = self.dists[b][0], self.dists[b][1]
            for metric, needs_q, alpha, base in variants:
                argv = ["divergence", "--p", self.files[b][0]]
                argv += ["--q", self.files[b][1]] if needs_q else []
                argv += ["--metric", metric, "--log-base", base]
                argv += ["--alpha", repr(alpha)] if alpha is not None else []
                value = hetquant.evaluate(metric, p, q if needs_q else None, alpha, base).value
                self.cli_calls.append((argv, b, metric, format_float(value)))
        n = len(ks)
        self.lib_calls = [
            (metric, self.dists[b][i], self.dists[b][j] if needs_q else None, alpha, base)
            for b in bins
            for metric, needs_q, alpha, base in variants
            for i in range(n)
            for j in (range(n) if needs_q else (None,))
            if i != j]
        self.lib_expected = [hetquant.evaluate(*c).value for c in self.lib_calls]

    def _divergence(self, argv: list[str], bins: int, metric: str, value: str) -> str | None:
        call = self.session.cli(argv)
        self.session.timings[f"divergence_cli_s.bins{bins}"].append(call.seconds)
        if failure := _call_failure(call):
            return failure
        lines = call.stdout.split("\n")
        fields = lines[1].split(",") if len(lines) == 3 else []
        if lines[0] != "metric,value,alpha,log_base" or fields[:2] != [metric, value]:
            return f"stdout {call.stdout!r}, library value {value}"
        return None

    def iteration(self, parallel: bool = True) -> None:
        s = self.session
        for argv, bins, metric, value in self.cli_calls:
            s.operation(" ".join(argv), lambda: self._divergence(argv, bins, metric, value))
        evaluate = hetquant.divergence.evaluate
        values = []
        reason = ""
        start = time.perf_counter()
        try:
            for call in self.lib_calls:
                values.append(evaluate(*call).value)
        except Exception:  # the failed call and the ones after it count as failed
            reason = traceback.format_exc()
        seconds = time.perf_counter() - start
        s.timed(seconds)
        for got, expected in zip(values, self.lib_expected):
            s.tally.record(got == expected, f"evaluate gave {got}, expected {expected}")
        for _ in range(len(values), len(self.lib_calls)):
            s.tally.record(False, f"evaluate raised\n{reason}")
        s.timings["evaluate_calls"].append(len(values))
        s.timings["evaluate_s"].append(seconds)

    def command_metrics(self, s: Session) -> list:
        # One median per bin count: the read time differs ~30x between them.
        return [
            (f"divergence_cli_ms.bins{b}",
             timing_summary(1000.0 * x for x in s.timings[f"divergence_cli_s.bins{b}"]), "ms")
            for b in self.dists
        ] + [
            ("divergence_evals_per_s",
             sum(s.timings["evaluate_calls"]) / sum(s.timings["evaluate_s"]), "1/s"),
        ]


WORKLOADS = {w.name: w for w in (FileRoundtrip, SweepGrid, DivergenceSuite)}


def probes(session: Session, seed: int) -> list:
    """Small instances of every workload. They warm up every code path
    before timing, and a traced run adds them to each pass so that every
    layer reports a measured value whichever workload is traced."""
    return [
        FileRoundtrip(session, seed, samples=4096, num_sigmas=4, window=32, bins=16, tag="-probe"),
        SweepGrid(session, seed, ks=(1, 4), windows=(32,), n_seeds=2, samples=4096, tag="-probe"),
        DivergenceSuite(session, seed, ks=(1, 4), samples=4096, window=32, bins=(16,), tag="-probe"),
    ]
