"""Benchmark of the cis library: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload mc_short --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The run first times `setup_s` (fresh interpreters
answering `cis.cli l1-approx --m 2`), then repeats rounds of the workload
(see workloads.py) for --seconds and checks every result against an
independent route.

--trace 0 reports the end-to-end metrics: wall_s (median round time),
setup_s, peak_rss_mb and ok_ratio (see README.md).  --trace 1 times rounds untraced for half the
budget, then wraps the library's public functions (see layers.py) and
times traced rounds for the other half; it reports the per-layer metrics,
the tracing overhead, and for mc_short the worker-scaling probe, and
writes the spans to .bench_out/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a report with the machine, the seeded-result digest,
the failed checks and the workload's own stage metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 7
WORKLOADS = ("mc_short", "mc_long", "exact")


def _git_commit(root: Path):
    """Commit of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    # a checkout without .git inside another repository must not report that one
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def machine(cis_version: str) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "cis": cis_version,
        "commit": _git_commit(ROOT),
    }


def _env(cache_dir: Path, threads=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CIS_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CIS_CACHE_DIR"] = str(cache_dir)
    if threads is not None:
        env["CIS_THREADS"] = str(threads)
    return env


def measure_setup(cache_dir: Path) -> tuple[float, int]:
    """Median seconds for a fresh interpreter to answer l1-approx --m 2.

    One untimed launch first, so compiled bytecode exists.  Returns the
    median and the number of launches whose answer was wrong.
    """
    cmd = [sys.executable, "-m", "cis.cli", "l1-approx", "--m", "2"]
    times, wrong = [], 0
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(cache_dir), capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["value"] == 2.75
        except (ValueError, KeyError):
            ok = False
        wrong += not ok
        if i:
            times.append(elapsed)
    return statistics.median(times), wrong


def worker_probe(seed: int, cache_dir: Path) -> dict:
    """mc_short round time with CIS_THREADS=1 and at the default count."""
    out = {}
    for label, threads in (("one", 1), ("default", None)):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--seed", str(seed)],
            cwd=ROOT, env=_env(cache_dir, threads), capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            out[label] = json.loads(proc.stdout.splitlines()[-1])["wall_s"]
        else:
            print(f"worker probe ({label}) failed: {proc.stderr.strip()}", file=sys.stderr)
    return out


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(rounds, timed=None) -> dict:
    """Failures over all rounds; timings over `timed`, the untraced ones."""
    timed = timed or rounds
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(r.errors + len(r.failed_checks) for r in rounds)
    # every round repeats the same inputs, so a digest that moves is a failure
    failed += sum(r.digest != rounds[0].digest for r in rounds)
    names = sorted({k for r in timed for k in r.extra})
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "wall_s": _median_wall(timed),
        "rounds": len(rounds),
        "digest": rounds[0].digest,
        "failed_checks": sorted({c for r in rounds for c in r.failed_checks}),
        "workload_metrics": {
            k: _median_metric([r.extra[k] for r in timed if k in r.extra], _unit(k))
            for k in names},
    }


def _median_metric(values, unit: str) -> dict:
    value = statistics.median(values)
    if unit == "count" and value == int(value):
        value = int(value)  # a count that every round agrees on stays a whole number
    return {"value": value, "unit": unit}


def _median_wall(rounds) -> float:
    return statistics.median(r.wall_s for r in rounds)


def traced_rounds(workload, budget: float, package, layers, tracing, workloads):
    """Rounds with the library wrapped; per-layer medians and all spans."""
    tracer = tracing.Tracer()
    per_round, spans = [], []

    def collect():
        round_spans = tracer.take()
        spans.extend(round_spans)
        per_round.append(layers.measure(round_spans, tracer.wrapped))

    layers.install(tracer, package)
    try:
        rounds = workloads.run_rounds(workload, budget, collect)
    finally:
        tracer.uninstall()
    metrics = {k: _median_metric([m[k] for m in per_round], layers.METRICS[k][0])
               for k in per_round[0]}
    return rounds, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cis" / "__init__.py").is_file():
        print(f"error: no cis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cis

    if not Path(cis.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported cis from {cis.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    load_start = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_s, setup_wrong = measure_setup(scratch / "setup-cache")
        workload = workloads.make(args.workload, args.seed, scratch)
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = workloads.run_rounds(workload, budget)
        rounds = plain
        if args.trace:
            traced, metrics, spans = traced_rounds(workload, budget, cis, layers, tracing, workloads)
            rounds = plain + traced
            report["traced_wall_s"] = _median_wall(traced)
            metrics["trace.overhead_s"] = {
                "value": report["traced_wall_s"] - _median_wall(plain), "unit": "s"}
            speedup = 0.0  # measured on mc_short only
            if args.workload == "mc_short":
                probe = worker_probe(args.seed, scratch / "probe-cache")
                report["worker_probe_wall_s"] = probe
                speedup = probe["one"] / probe["default"] if len(probe) == 2 else None
            if speedup is not None:
                metrics["montecarlo.worker_speedup"] = {"value": speedup, "unit": "ratio"}
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracing.write_spans(spans_file, spans)
            report["spans"] = str(spans_file.relative_to(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(rounds, plain)
    summary["attempted"] += SETUP_LAUNCHES + 1
    summary["failed"] += setup_wrong
    summary["fail_ratio"] = summary["failed"] / summary["attempted"]
    if not args.trace:
        metrics = {
            "wall_s": {"value": summary["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "ok_ratio": {"value": 1 - summary["fail_ratio"], "unit": "ratio"},
        }
    report.update(summary, setup_s=setup_s)
    report["machine"] = {**machine(cis.__version__),
                         "load1_start": load_start, "load1_end": os.getloadavg()[0]}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
