"""Print a JSON manifest of what the hetquant CLI does on a fixed set of invocations.

Usage (from anywhere; it runs the package in the ``src`` directory beside
this script, not an installed one):

    python tools/behaviour.py > BEHAVIOUR.json

Every invocation runs through ``hetquant.cli.main`` in this process, in a
fresh temporary working directory, with relative paths. For each one the
manifest records the argv, the exit code and the sha256 of stdout, of
stderr and of every file the invocation created or changed; its header
records the machine facts, among them the SIMD targets numpy dispatches
to. Two checkouts keep the same outputs when their manifests are equal.
Some digests depend on the CPU's SIMD level (ROADMAP), so compare manifests
made on one machine. The five invocations before the last print help texts,
laid out at ``COLUMNS=80``; argparse lays out help differently from one Python
version to another, and their committed digests hold for Python 3.11.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from hetquant.cli import main
from hetquant.divergence import LOG_BASES, METRICS
from hetquant.series import usable_cpus

# Series files: (name, generate flags). The last holds more than 2 MiB of
# rows, so reading it by path splits it into byte ranges.
GENERATED = [
    ("linear.csv", ["--samples", "65536", "--num-sigmas", "8", "--seed", "7"]),
    ("log.csv", ["--samples", "65536", "--num-sigmas", "16", "--spacing", "logarithmic", "--seed", "3"]),
    ("shuffled.csv", ["--samples", "65536", "--num-sigmas", "8", "--shuffle", "--seed", "5"]),
    ("large.csv", ["--samples", "131072", "--num-sigmas", "8", "--seed", "11"]),
]

# Hand-written inputs, so that they do not depend on the generator.
HAND_WRITTEN = {
    # A t,value series whose spread grows fourfold across four segments.
    "timed.csv": "t,value\n" + "".join(
        f"{i / 4},{((i * 7919) % 201 - 100) * (1 + i // 250) / 8}\n" for i in range(1000)
    ),
    # Two distributions on one grid of four bins.
    "p.csv": "bin_midpoint,mass\n0.5,0.125\n1.5,0.25\n2.5,0.375\n3.5,0.25\n",
    "q.csv": "bin_midpoint,mass\n0.5,0.25\n1.5,0.25\n2.5,0.25\n3.5,0.25\n",
    # Inputs that each fail one way.
    "other-grid.csv": "bin_midpoint,mass\n1,0.5\n3,0.5\n",
    "bad-row.csv": "value\n1.0\noops\n3.0\n",
    "huge.csv": "value\n" + "1e200\n-1e200\n" * 64,
    "huge-edges.csv": "bin_midpoint,mass\n1e308,0.5\n1.7e308,0.5\n",
    "tiny.csv": "value\n" + "".join(f"{(i * 37) % 7 - 3}e-162\n" for i in range(4096)),
    # A q on p's grid with zero-mass bins.
    "q-zero.csv": "bin_midpoint,mass\n0.5,0.5\n1.5,0\n2.5,0.5\n3.5,0\n",
    # A t,value series with more than 2 MiB of rows, so that reading it by
    # path splits it into byte ranges.
    "timed-large.csv": "t,value\n" + "".join(
        f"{i / 8},{((i * 7919) % 20011 - 10005) * (1 + i // 32768) / 3}\n" for i in range(131072)
    ),
    # Files that output paths reach through symbolic links (LINKS).
    "linked-series.csv": "value\n1\n",
    "linked-report.csv": "old report\n",
}
BAD_UTF8 = b"value\n1\n\xff\n"
# Symbolic links: (name, target). Writing through one rewrites its target and
# keeps the link; one that names a directory is refused.
LINKS = [
    ("series-link.csv", "linked-series.csv"),
    ("report-link.csv", "linked-report.csv"),
    ("taken-link", "taken"),
]

SWEEP_SMALL = ["--sigma-counts", "1,4", "--windows", "16,32", "--bins", "8", "--samples", "1024", "--seeds", "1,2"]


def invocations() -> list[tuple[list[str], str | None]]:
    """The fixed list: (argv, file to read as standard input or None)."""
    runs: list[tuple[list[str], str | None]] = []
    for name, flags in GENERATED:
        runs.append((["generate", *flags, "--out", name], None))
    for name in [name for name, _ in GENERATED] + ["timed.csv"]:
        stem = name.removesuffix(".csv")
        for binning in ("log", "linear"):
            emit = f"{stem}-{binning}-hist.csv"
            runs.append((["analyze", "--input", name, "--binning", binning, "--emit-distribution", emit], None))
        runs.append((["analyze", "--input", name, "--variant", "hellinger"], None))
        runs.append((["analyze", "--input", "-"], name))
    for metric, (needs_q, needs_alpha, uses_base, _) in sorted(METRICS.items()):
        argv = ["divergence", "--p", "p.csv", "--metric", metric]
        argv += ["--q", "q.csv"] * needs_q + ["--alpha", "0.5"] * needs_alpha
        runs.append((argv, None))
        if uses_base:
            runs.append(([*argv, "--log-base", "base2"], None))
    for binning in ("log", "linear"):
        out = [f"sweep-{binning}.csv", "--summary", f"summary-{binning}.csv"]
        runs.append((["sweep", "--binning", binning, "--out", *out], None))
    runs.append((["sweep", *SWEEP_SMALL, "--workers", "2", "--out", "sweep-small.csv"], None))
    # One failure for each line of the README's "Exit codes".
    runs += [
        (["analyze", "--input", "linear.csv", "--window", "x"], None),
        (["analyze", "--input", "bad-row.csv", "--window", "2"], None),
        (["analyze", "--input", "bad-utf8.csv", "--window", "2"], None),
        (["divergence", "--p", "p.csv", "--q", "other-grid.csv", "--metric", "bc"], None),
        (["generate", "--samples", "4", "--num-sigmas", "9", "--out", "never.csv"], None),
        (["analyze", "--input", "huge.csv", "--window", "8"], None),
        (["divergence", "--p", "p.csv", "--metric", "renyi_entropy", "--alpha", "1000"], None),
        (["generate", "--samples", "64", "--sigma-max", "inf", "--out", "never.csv"], None),
        (["divergence", "--p", "huge-edges.csv", "--metric", "shannon_entropy"], None),
        (["analyze", "--input", "tiny.csv", "--window", "32", "--binning", "linear"], None),
        (["analyze", "--input", "absent.csv"], None),
        (["generate", "--samples", "16", "--out", "missing/out.csv"], None),
        (["generate", "--samples", "16", "--out", "taken"], None),
        (["analyze", "--input", "linear.csv", "--emit-distribution", "missing/hist.csv"], None),
        # Each names a report that no earlier invocation wrote, so that a
        # report left behind by a failed sweep shows in its files.
        (["sweep", *SWEEP_SMALL, "--out", "sweep-unsummarised.csv", "--summary", "missing/summary.csv"], None),
        (["sweep", *SWEEP_SMALL, "--out", "sweep-partial.csv", "--summary", "taken"], None),
        (["sweep", *SWEEP_SMALL, "--out", "taken", "--summary", "summary-partial.csv"], None),
        (["sweep", *SWEEP_SMALL, "--out", "sweep-same.csv", "--summary", "./sweep-same.csv"], None),
        (["analyze", "--input", "linear.csv", "--emit-distribution", "./linear.csv"], None),
    ]
    # The two-column reader at sizes the runs above lack: a t,value file read
    # by path (in byte ranges) and from standard input, and a 4096-bin
    # distribution file.
    runs += [
        (["analyze", "--input", "timed-large.csv", "--emit-distribution", "timed-large-hist.csv"], None),
        (["analyze", "--input", "-", "--emit-distribution", "timed-large-stdin-hist.csv"], "timed-large.csv"),
        (["analyze", "--input", "large.csv", "--bins", "4096", "--emit-distribution", "large-4096-hist.csv"], None),
        (["divergence", "--p", "large-4096-hist.csv", "--metric", "shannon_entropy"], None),
        (["divergence", "--p", "large-4096-hist.csv", "--q", "large-4096-hist.csv", "--metric", "kl"], None),
    ]
    # Every metric against a q with and without zero-mass bins, at each alpha
    # (none among them) and log base, whether or not the metric takes them.
    for metric in sorted(METRICS):
        for q in ("q.csv", "q-zero.csv"):
            for alpha in (None, "0.5", "2", "3.0", "1e-300"):
                for base in LOG_BASES:
                    argv = ["divergence", "--p", "p.csv", "--q", q, "--metric", metric]
                    argv += [] if alpha is None else ["--alpha", alpha]
                    runs.append(([*argv, "--log-base", base], None))
    # Output paths that are symbolic links, to a file and to a directory.
    runs += [
        (["generate", "--samples", "16", "--seed", "2", "--out", "series-link.csv"], None),
        (["sweep", *SWEEP_SMALL, "--out", "report-link.csv"], None),
        (["generate", "--samples", "16", "--out", "taken-link"], None),
        (["sweep", *SWEEP_SMALL, "--out", "taken-link", "--summary", "summary-before-link.csv"], None),
    ]
    # A sweep whose windows have different set bits, one of them above 2048,
    # where the block the kernel shares between windows grows past 2**13.
    runs.append((
        ["sweep", "--sigma-counts", "1,4", "--windows", "3,5,100,1000,4097", "--bins", "8",
         "--samples", "16384", "--seeds", "1,2", "--out", "sweep-odd-windows.csv",
         "--summary", "summary-odd-windows.csv"],
        None,
    ))
    # Sigmas whose products with the draws overflow float64: one error line,
    # no numpy warning, no file.
    runs.append((
        ["generate", "--samples", "1000", "--sigma-min", "1e308", "--sigma-max", "1.7e308", "--out", "never.csv"],
        None,
    ))
    # The help texts, which exit through SystemExit with code 0.
    runs.append((["--help"], None))
    for command in ("generate", "analyze", "divergence", "sweep"):
        runs.append(([command, "--help"], None))
    # Sigmas whose samples' window sums of squares overflow float64, scored
    # by sweep cells in pool workers: one error line, no file.
    runs.append((
        ["sweep", "--sigma-counts", "1,2", "--windows", "4,8", "--bins", "8", "--samples", "1024",
         "--seeds", "1,2", "--sigma-min", "1e154", "--sigma-max", "1e154", "--workers", "2",
         "--out", "never.csv"],
        None,
    ))
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files() -> dict[str, str]:
    """The sha256 of every file under the working directory, by relative path."""
    return {path.as_posix(): sha256(path.read_bytes()) for path in sorted(Path().rglob("*")) if path.is_file()}


def run(argv: list[str], stdin: str | None) -> dict:
    before = files()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    with contextlib.ExitStack() as stack:
        if stdin is not None:
            # ``analyze --input -`` reads ``sys.stdin.buffer``.
            sys.stdin = stack.enter_context(open(stdin, encoding="utf-8"))
            stack.callback(setattr, sys, "stdin", saved)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    after = files()
    return {
        "argv": argv,
        "stdin": stdin,
        "exit": code,
        "stdout": sha256(out.getvalue().encode()),
        "stderr": sha256(err.getvalue().encode()),
        "files": {path: digest for path, digest in after.items() if before.get(path) != digest},
    }


def simd_targets() -> dict[str, bool | None]:
    """Whether numpy dispatches to each SIMD target that some digests
    depend on (None: unknown to this numpy)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {name: __cpu_features__.get(name) for name in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "usable_cpus": usable_cpus(),
        "simd_targets": simd_targets(),
    }


def manifest() -> dict:
    home = os.getcwd()
    columns = os.environ.get("COLUMNS")
    work = tempfile.mkdtemp(prefix="hetquant-behaviour-")
    try:
        # Help is wrapped to the terminal width, which argparse reads from
        # COLUMNS first.
        os.environ["COLUMNS"] = "80"
        os.chdir(work)
        for name, text in HAND_WRITTEN.items():
            Path(name).write_text(text)
        Path("bad-utf8.csv").write_bytes(BAD_UTF8)
        Path("taken").mkdir()
        for name, target in LINKS:
            Path(name).symlink_to(target)
        return {"machine": machine(), "invocations": [run(argv, stdin) for argv, stdin in invocations()]}
    finally:
        os.chdir(home)
        shutil.rmtree(work)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=1))
