"""abmodes benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, seed 0

Workloads (single client, closed loop, whole cycles of a seeded item mix):

  verify_separated  quadrature estimators at well-separated momenta
  near_diagonal     finite_part_estimate with p'/p near 1 (one item in 7 is
                    below the convergence cliff and fails by deadline)
  dictionary        in-process `abmodes.cli.run(argv)`, no quadrature
  cli_cold          one fresh `python -m abmodes.cli` process per item; not
                    in BENCHMARK.json, because its scaled times are not
                    steady on a drifting machine (see worker.py)

Every output is checked against an independent reference; a failure outside
near_diagonal's stated below-cliff share makes the run incorrect and the exit
code 1.  Child processes get a pinned environment (PYTHONPATH = this
checkout's src, no ABMODES_* overrides), so the default backend applies.

Times are reported at a nominal machine speed: a fixed pure-Python loop
timed next to the work tracks the drift of a shared machine, and each time is
scaled by REFERENCE_NOMINAL_S over that loop's time (see worker.py).  The
raw times are in the `report` line before the result.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed amount of
traced work and prints the per-layer metrics, writing the spans to
perfbench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import PER_LAYER  # noqa: E402  (stdlib-only modules of this directory)
from worker import REFERENCE_NOMINAL_S, pinned_env, reference_loop  # noqa: E402

WORKLOADS = ("verify_separated", "near_diagonal", "dictionary", "cli_cold")
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_share": "ratio",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EPSILON = 2.0**-52
RUN_LIMIT_S = 170.0
IMPORT_PROBES = 7


class BenchError(Exception):
    pass


def _wait(proc, deadline):
    """Wait for a worker until `deadline` (monotonic); kill it past that."""
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {proc.args[3:5]} outran the {RUN_LIMIT_S:g} s run limit")


def spawn_worker(name, seed, seconds, trace, setup_only, deadline):
    """Start a worker; return (process, seconds from spawn to READY, speed scale).

    The scale brings the set-up time to the nominal machine speed, like the
    item times (see worker.REFERENCE_NOMINAL_S).
    """
    scale = REFERENCE_NOMINAL_S / statistics.median(reference_loop() for _ in range(3))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _, err = _wait(proc, deadline)
        raise BenchError(f"{name} worker failed during set-up (exit {proc.returncode}): "
                         f"{(line + err).strip()[-2000:]}")
    return proc, ready, scale


def run_worker(name, seed, seconds, trace, deadline):
    """Set up SETUP_SPAWNS times (the last one measures).

    Returns (record, set-up seconds, the same at nominal machine speed).
    """
    setups, scaled = [], []
    for i in range(SETUP_SPAWNS):
        proc, ready, scale = spawn_worker(name, seed, seconds, trace, i < SETUP_SPAWNS - 1,
                                          deadline)
        setups.append(ready)
        scaled.append(ready * scale)
        if i < SETUP_SPAWNS - 1:
            _wait(proc, deadline)
    out, err = _wait(proc, deadline)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} worker exit {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1]), setups, scaled


def percentile(values, q):
    """q-th percentile, interpolated between order statistics.

    Items come in a few cost groups (one per slot of a cycle); interpolation
    keeps a percentile that falls between two groups from jumping to either.
    """
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES with at least 10 of n samples beyond it.

    n is the item count of the cycles every run makes, not of this run, so
    the percentile stays put when a faster or slower machine fits more or
    fewer cycles into the run.
    """
    return next((q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10.0), 50.0)


def import_probes():
    """Median ms of interpreter start and of `import abmodes.cli`, fresh processes."""
    code = "import time; t = time.monotonic(); import abmodes.cli; print(t, time.monotonic())"
    start, load = [], []
    for _ in range(IMPORT_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=pinned_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
        t1, t2 = map(float, proc.stdout.split())
        start.append(t1 - t0)
        load.append(t2 - t1)
    return statistics.median(start) * 1e3, statistics.median(load) * 1e3


def measure(name, seed, seconds, trace):
    """(result line, report) of one workload run."""
    record, setups, scaled_setups = run_worker(name, seed, seconds, trace,
                                               time.monotonic() + RUN_LIMIT_S)
    passed, expected = record["passed"], record["expected_fail"]
    attempted = len(passed)
    failed = attempted - sum(passed)
    correct = all(p or e for p, e in zip(passed, expected))
    report = {
        "workload": name,
        "seed": seed,
        "backend": record["backend"],
        "kernel_file": record["kernel_file"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cycles": record["cycles"],
        "failed_share": failed / attempted,
        "below_cliff_failed": sum(e and not p for p, e in zip(passed, expected)),
        "failures": record["failures"],
    }
    if trace:
        tr = record["trace"]
        metrics = dict(tr["metrics"])
        metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = import_probes()
        units = dict(PER_LAYER)
        units.update({k: "us" for k in metrics if k.startswith("kernels.") and k.endswith("_us")})
        out = {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()}
        report.update({k: v for k, v in tr.items() if k != "metrics"})
    else:
        latencies = record["latencies"]
        q = tail_percentile(record["min_items"])
        err = record["max_rel_err"]
        values = {
            "setup_s": statistics.median(scaled_setups),
            # closed loop, one client; times are at the nominal machine speed
            # (worker.REFERENCE_NOMINAL_S), and the median cycle resists bursts
            # of slowdown that the reference loop does not catch
            "items_per_s": attempted / len(record["cycle_s"]) / statistics.median(record["cycle_s"]),
            "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
            "latency_tail_ms": percentile(latencies, q) * 1e3,
            "success_share": sum(passed) / attempted,
            # no checked value at all (every item failed) verifies no digit
            "accuracy_digits": 0.0 if err is None else -math.log10(max(err, EPSILON)),
            "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        }
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        raw = record["raw_cycle_s"]
        report.update({
            "raw_setup_s": setups,
            "busy_s": sum(raw),
            "reference_median_s": statistics.median(record["reference_s"]),
            "raw_items_per_s": attempted / len(raw) / statistics.median(raw),
            "raw_latency_p50_ms": percentile(record["raw_latencies"], 50.0) * 1e3,
            "raw_latency_tail_ms": percentile(record["raw_latencies"], q) * 1e3,
            "tail_percentile": q,
            "latency_samples": attempted,
            "max_rel_err": err,
        })
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    return result, report


def print_table(name, result, report):
    print(f"== {name}  backend={report['backend']}  cycles={report['cycles']}  "
          f"items={result['attempted']}  failed={result['failed']}  correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        note = ""
        if metric == "latency_tail_ms":
            note = f"  (p{report['tail_percentile']:g} of {report['latency_samples']} samples)"
        elif value is None:
            note = f"  ({report.get('unmeasured', {}).get(metric, '')})"
        print(f"   {metric:<36} {shown:>14} {entry['unit']}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "abmodes" / "__init__.py").is_file():
        print(f"perfbench: no abmodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = measure(name, args.seed, args.seconds, args.trace)
            print_table(name, result, report)
            print(json.dumps({"report": report}))
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
