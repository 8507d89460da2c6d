"""hetquant benchmark: one workload per run, timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload file-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's iterations (see workloads.py) with
nothing wrapped and reports the end-to-end metrics:

- ``setup_s``: median wall time of a fresh interpreter importing
  ``hetquant.cli``, which every CLI call pays;
- ``peak_rss_mb``: peak resident memory of the benchmark process, which
  runs the CLI calls in-process;
- ``iteration_rel``: median time of one iteration in units of a fixed
  reference task of the same kind of work, timed around it (see
  reference.py), which cancels most of the drift in machine speed.

It also prints, without gating on them, each command's median wall time
and tail percentile, the raw median iteration time, and ``error_rate``.
``--trace 1`` alternates plain and traced passes (see spans.py) with one
worker and reports per-layer metrics, the tracing overhead, and whether
the per-layer counts repeated exactly.

The package is imported from ``src/`` next to this directory; the run
fails without printing a result when it is missing. Scratch files go to
``.perfbench/`` under the repository root, which is also where the full
result of each run (machine facts, output digests, every metric) is
written as JSON. The last line of standard output is the summary object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

from arith import median
from reference import Normalizer, reference_seconds
from spans import LAYER_METRICS, Tracer, instrument, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The keys of workloads.WORKLOADS, named here because that module imports
# hetquant, which must not happen before import_hetquant() has checked it.
WORKLOAD_NAMES = ("file-roundtrip", "sweep-grid", "divergence-suite")

# Fresh-interpreter imports of hetquant.cli per run; the median is setup_s.
SETUP_PROBES = 3


def import_hetquant():
    """Import hetquant from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hetquant", "__init__.py")):
        raise SystemExit(f"error: no hetquant package under {SRC}")
    sys.path.insert(0, SRC)
    import hetquant

    if os.path.dirname(os.path.dirname(os.path.abspath(hetquant.__file__))) != SRC:
        raise SystemExit(f"error: hetquant imported from {hetquant.__file__}, not {SRC}")
    return hetquant


def setup_seconds(probes: int) -> list[float]:
    """Wall time of a fresh interpreter importing hetquant.cli, which every
    CLI call pays. The benchmark's own import has already filled the
    bytecode cache, as any earlier call would have."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hetquant.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu_model = platform.processor()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = "/sys/devices/system/cpu/cpu0/cache"
    llc = {"level": None, "size": None}
    for index in sorted(os.listdir(caches)) if os.path.isdir(caches) else ():
        level = _read(os.path.join(caches, index, "level"))
        if level.isdigit() and (llc["level"] is None or int(level) > llc["level"]):
            llc = {"level": int(level), "size": _read(os.path.join(caches, index, "size"))}
    ld = np.finfo(np.longdouble)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # local_variance accumulates in np.longdouble, whose precision is
        # platform-dependent: 64 significand bits is x87 80-bit extended.
        "longdouble": {"significand_bits": ld.nmant + 1, "itemsize": ld.dtype.itemsize,
                       "eps": repr(float(ld.eps))},
    }


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def warm_up(probe_set) -> None:
    """One pass over the small probes, so lazy set-up on every code path
    (imports, first process pool) is done before timing starts."""
    for probe in probe_set:
        probe.iteration()


def measure_untraced(workload, probe_set, session, seconds: float) -> dict:
    warm_up(probe_set)
    session.timings.clear()
    session.normalizer = Normalizer(functools.partial(reference_seconds, workload.reference))
    iterations, relative, loop_s = [], [], []
    start = time.perf_counter()
    # Stop when one more iteration would end nearer past the deadline than
    # stopping now ends before it.
    while not loop_s or time.perf_counter() - start + median(loop_s) / 2 < seconds:
        loop_start = time.perf_counter()
        busy, rel = session.busy_s, session.normalizer.relative
        workload.iteration()
        session.normalizer.mark()
        iterations.append(session.busy_s - busy)
        relative.append(session.normalizer.relative - rel)
        loop_s.append(time.perf_counter() - loop_start)
    session.normalizer = None
    return {"iteration_rel": median(relative), "iteration_s": median(iterations),
            "iteration_rel_samples": relative, "iteration_s_samples": iterations}


def _seconds_by_command(calls) -> dict[str, float]:
    out: dict[str, float] = {}
    for command, seconds in calls:
        out[command] = out.get(command, 0.0) + seconds
    return out


def measure_traced(workload, probe_set, session, seconds: float) -> dict:
    """A plain and a traced pass, repeated for ``seconds`` and at least twice.

    Each pass runs the workload once with one worker plus the small probes.
    Per-layer times are medians over traced passes; counts must be equal in
    every traced pass. Overhead is traced minus plain time per command.
    """
    def one_pass():
        mark = len(session.calls)
        workload.iteration(parallel=False)
        for probe in probe_set:
            probe.iteration(parallel=False)
        return _seconds_by_command(session.calls[mark:])

    warm_up(probe_set)
    passes, overhead, pass_s = [], {"analyze": [], "sweep": []}, []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + median(pass_s) / 2 < seconds:
        pass_start = time.perf_counter()
        # Alternate which side goes first, so a drift in machine speed
        # does not bias the overhead one way.
        if len(passes) % 2:
            plain = one_pass()
        with instrument(Tracer()) as tracer:
            traced = one_pass()
        if not len(passes) % 2:
            plain = one_pass()
        passes.append(layer_metrics(tracer))
        for command, values in overhead.items():
            values.append(traced[command] - plain[command])
        pass_s.append(time.perf_counter() - pass_start)
    counts = [name for name, (unit, _) in LAYER_METRICS.items() if unit != "s"]
    repeated = all(p[name] == passes[0][name] for p in passes for name in counts)
    metrics = {name: passes[0][name] if unit != "s" else median(p[name] for p in passes)
               for name, (unit, _) in LAYER_METRICS.items()}
    for command, values in overhead.items():
        metrics[f"trace.{command}_overhead_s"] = median(values)
    return {"metrics": metrics, "passes": len(passes), "counts_repeated": repeated}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        session = workloads.Session(workdir)
        workload = workloads.WORKLOADS[name](session, seed)
        probe_set = workloads.probes(session, seed)
        if trace:
            traced = measure_traced(workload, probe_set, session, seconds)
            units = {n: u for n, (u, _) in LAYER_METRICS.items()}
            metrics = {n: {"value": v, "unit": units.get(n, "s")} for n, v in traced["metrics"].items()}
            details = {"passes": traced["passes"], "counts_repeated": traced["counts_repeated"]}
            correct = session.tally.failed == 0 and traced["counts_repeated"]
        else:
            timed = measure_untraced(workload, probe_set, session, seconds)
            # Largest child so far: on sweep-grid, a sweep pool worker. Read
            # before the set-up probes, which would count as children too.
            worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
            setup = setup_seconds(SETUP_PROBES)
            metrics = {
                "setup_s": {"value": median(setup), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "iteration_rel": {"value": timed["iteration_rel"], "unit": "ref"},
            }
            details = {
                "iteration_rel_samples": timed["iteration_rel_samples"],
                "iteration_s_samples": timed["iteration_s_samples"],
                "setup_s_samples": setup,
                "timings": dict(session.timings),
                "command_metrics": {n: {"value": v, "unit": u} for n, v, u in (
                    [("iteration_s", timed["iteration_s"], "s")] + workload.command_metrics(session))},
            }
            if name == "sweep-grid":
                details["command_metrics"]["peak_rss_worker_mb"] = {"value": worker_rss, "unit": "MB"}
            correct = session.tally.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": session.tally.attempted,
        "failed": session.tally.failed,
        "error_rate": session.tally.error_rate,
        "failures": session.tally.reasons[:20],
        "metrics": metrics,
        "details": details,
        "digests": session.digests,
        "machine": machine_facts(),
    }


def _show(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={_show(v)}" for k, v in value.items())
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v}" for k, v in result["details"].items() if k in ("passes", "counts_repeated")))
    rows = {"error_rate": {"value": result["error_rate"], "unit": "ratio"}}
    rows.update(result["metrics"])
    rows.update(result["details"].get("command_metrics", {}))
    for name, metric in rows.items():
        print(f"  {name:32s} {_show(metric['value']):>40s} {metric['unit']}")
    for reason in result["failures"]:
        print(f"  failure: {reason}")


def run_all(args) -> int:
    """Run every workload in its own interpreter, so peak memory is each
    workload's own, and combine the summaries."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            return child.returncode
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for metric, value in summary["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_hetquant()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump(result, handle, indent=1)
    report(result)
    print(f"# full result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
