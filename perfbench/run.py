"""Benchmark of tcla: times one workload end to end, or traces it layer by
layer, checks every output, and prints one JSON result as its last line.

    python3 perfbench/run.py --workload scan-vir --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

The repository root is the parent of this file's directory; the program is
imported from its ``src``.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see README.md).
The exit code is 0 when every operation passed its check, 1 when one
failed, and 2 or 3 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"  # scratch files: weight files, spans
SETUP_PROBES = 7
MIN_JOBS = 2  # timed jobs per run, however long a job takes


class BenchError(Exception):
    """The benchmark itself cannot measure this tree."""


def pin_environment() -> None:
    """One worker process and this tree's sources, for every child too."""
    os.environ.pop("TCLA_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    sha = None  # not a git checkout
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def load_reference(wl) -> dict:
    """Pinned outputs by seed, when they were recorded with ``wl``'s parameters."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name, {})
    return recorded.get("seeds", {}) if recorded.get("params") == vars(wl) else {}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(wl, seed: int) -> float:
    """Median wall time of fresh interpreters that import tcla and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, str(HERE / "probe.py"), wl.name, str(seed)], cwd=ROOT)
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise BenchError(f"set-up probe exited with {probe.returncode}")
    return statistics.median(times)


def repeat(job, seconds: float, min_jobs: int) -> list[float]:
    """Calls ``job`` (which returns its run time) until another call would
    overrun ``seconds``, and at least ``min_jobs`` times."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_jobs or time.perf_counter() - start + statistics.median(times) <= seconds:
        gc.collect()
        times.append(job())
    return times


class Runner:
    """Runs one workload at one seed and tallies its operations."""

    def __init__(self, wl, seed: int, reference=None) -> None:
        self.wl = wl
        self.inputs = wl.build(seed)
        self.expected = wl.expected(self.inputs, reference)
        self.ops = 0
        self.failed = 0
        self.outputs: list = []

    def run_job(self, marks: list[float], tracer=None) -> float:
        """Runs and checks one job; ``marks`` gets its start time, then the
        end time of each operation."""
        marks.append(time.perf_counter())
        output = self.wl.job(self.inputs, marks, tracer)
        elapsed = time.perf_counter() - marks[0]
        ok = self.wl.check(self.inputs, output, self.expected)
        if tracer is None and len(marks) - 1 != len(ok):
            raise BenchError(f"{self.wl.name}: {len(marks) - 1} operation marks for {len(ok)} operations")
        self.ops += len(ok)
        self.failed += ok.count(False)
        self.outputs.append(output)
        return elapsed

    def timed(self, seconds: float, min_jobs: int) -> tuple[list[float], list[list[float]]]:
        """Untraced jobs: their run times and, per job, each operation's latency."""
        marks: list[float] = []
        latencies: list[list[float]] = []

        def job() -> float:
            marks.clear()
            elapsed = self.run_job(marks)
            latencies.append([b - a for a, b in zip(marks, marks[1:])])
            return elapsed

        def mark_end(fn):
            def marked(*args, **kwargs):
                result = fn(*args, **kwargs)
                marks.append(time.perf_counter())
                return result
            return marked

        wrappers = {self.wl.marker: mark_end} if self.wl.marker else {}
        with tracer.patched(wrappers) as absent:
            if absent:
                raise BenchError(f"{self.wl.name}: operation marker {absent[0]} is missing")
            return repeat(job, seconds, min_jobs), latencies

    def traced(self) -> tuple[float, tuple, list[str], list[list]]:
        """One traced job: its run time, its (span summary, counters), the
        layer names that no longer exist, and its spans."""
        spans = tracer.Tracer()
        with tracer.traced_layers(spans) as absent:
            gc.collect()
            elapsed = self.run_job([], spans)
        return elapsed, (tracer.summarize(spans.spans), spans.counters), absent, spans.spans


def end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    wl = runner.wl
    setup_s = measure_setup(wl, seed)
    times, latencies = runner.timed(seconds, MIN_JOBS)
    # Every job repeats the same operations.  Each operation's latency is its
    # mean over the run's jobs, and the run time is the mean job's: the host
    # switches between faster and slower states for seconds to minutes, and
    # a mean weighs them by the time spent in each where a median snaps to
    # one of them (see README.md).
    typical = [statistics.fmean(op) for op in zip(*latencies)]
    p90 = percentile(typical, 90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.fmean(times), "s"),
        "op_p50_ms": (percentile(typical, 50) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mib": (wl.peak_rss_kib(runner.outputs) / 1024, "MiB"),
    }
    info = {
        "jobs": len(times),
        "job_s": times,
        "ops_per_job": len(typical),
        "ops_beyond_p90": sum(1 for x in typical if x > p90),
    }
    return metrics, info


def per_layer(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    wl = runner.wl
    # Untraced and traced jobs alternate, so that each pair shares the host's
    # load when the overhead is read from it.
    untraced: list[float] = []
    times: list[float] = []
    jobs: list = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + untraced[-1] + times[-1] <= seconds:
        untraced += runner.timed(0, 1)[0]
        elapsed, job, absent, last_spans = runner.traced()
        times.append(elapsed)
        jobs.append(job)
    metrics: dict[str, tuple[float, str]] = {}
    attributed = [0.0] * len(jobs)
    for name in tracer.LAYERS + (tracer.IMPORT,):
        calls = [summary.get(name, (0, 0.0))[0] for summary, _ in jobs]
        self_s = [summary.get(name, (0, 0.0))[1] for summary, _ in jobs]
        share = [s / t for s, t in zip(self_s, times)]
        attributed = [a + s for a, s in zip(attributed, share)]
        metrics[f"{name}.calls"] = (statistics.median(calls), "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_s), "s")
        metrics[f"{name}.share"] = (statistics.median(share), "ratio")
    counters = jobs[0][1]
    for key in tracer.COUNTERS:
        metrics[key] = (counters.get(key, 0), "bits" if key.endswith("bits") else "count")
    metrics["trace.overhead"] = (statistics.median(t / u for t, u in zip(times, untraced)) - 1, "ratio")
    metrics["trace.unattributed_share"] = (statistics.median(1 - a for a in attributed), "ratio")
    metrics["trace.absent"] = (len(absent), "count")

    spans_path = WORK / f"spans-{wl.name}-{seed}.tsv"
    WORK.mkdir(exist_ok=True)
    write_spans(spans_path, last_spans)
    summary = jobs[0][0]
    info = {
        "jobs": len(times),
        "absent": absent,
        "uncalled": [name for name in wl.layers if name not in absent and name not in summary],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


def write_spans(path: Path, spans: list[list]) -> None:
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def run_workload(wl, seed: int, seconds: float, trace: bool, reference=None) -> tuple[dict, dict]:
    """One workload's result object (the last output line) and its details."""
    runner = Runner(wl, seed, reference)
    measure = per_layer if trace else end_to_end
    metrics, info = measure(runner, seed, seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.ops,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "inputs": wl.sizes(runner.inputs), **info}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="scan-vir, validate-sl3, cli-cold or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tcla" / "__init__.py").is_file():
        print(f"perfbench: no tcla sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    env = environment()
    results = {}
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]()
            result, details = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                           load_reference(wl).get(str(args.seed)))
            print(json.dumps({**details, "env": env}))
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items() for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
