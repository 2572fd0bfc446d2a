"""Workload process: set up, report readiness, run whole cycles, report.

Started by run.py:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Set-up is the import of abmodes, input generation and an untimed, checked
warm-up; when it is done the worker prints READY and the parent takes the time
since spawn as set-up time.  With --setup-only it exits there.

Untraced, it runs whole cycles in a closed loop with one client until the
items have been busy for about --seconds, checking the outputs after each
cycle.  Traced, it runs a fixed number of cycles with the tracer installed
(so counts repeat exactly), the same cycles again untraced (for the tracing
overhead), and the kernel micro-rows.  The last stdout line is one JSON
record of the measurements.
"""

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"


def pinned_env(root=ROOT):
    """Environment for benchmark processes, independent of the caller's shell.

    PYTHONPATH is this checkout's src; ABMODES_* (backend override) and the
    other PYTHON* switches that change start-up or run time are dropped, so
    the default backend resolution applies.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("ABMODES_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(root / "src")
    return env


class Deadline(BaseException):
    """Raised by SIGALRM inside an item that outran its deadline."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise Deadline()


def run_item(run, item, deadline_s):
    """(latency_s, status, output); status is done, raised or deadline."""
    global _armed
    t0 = time.perf_counter()
    try:
        try:
            if deadline_s:
                _armed = True
                signal.setitimer(signal.ITIMER_REAL, deadline_s)
            out = run(item)
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "done"
    except (Deadline, subprocess.TimeoutExpired):
        status, out = "deadline", None
    except Exception as exc:  # the item failed; counted, never fatal
        status, out = "raised", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, status, out


# Machine speed on shared hardware drifts: here the same item in the same
# process takes anywhere from 0.33 s to 0.43 s within one minute, and runs
# differ by 25 %.  So a fixed pure-Python loop that does not touch abmodes is
# timed between items, at most every REFERENCE_EVERY_S, and item times are
# scaled by REFERENCE_NOMINAL_S / (median of the last three loop times): they
# are reported at the machine speed where the loop takes REFERENCE_NOMINAL_S.
# Items cut by the deadline keep their wall time, the deadline.  Raw times
# stay in the record.  (Process starts slow down less than the loop when the
# machine slows, so the scaled cli_cold times over-correct; see BENCHMARK.json.)
REFERENCE_NOMINAL_S = 0.013
REFERENCE_EVERY_S = 0.25


def reference_loop():
    """Seconds for a fixed pure-Python loop of float, dict and call work."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(60_000):
        acc += abs(i * 0.5) ** 0.5
        table[i & 255] = acc
    return time.perf_counter() - t0


class Speed:
    """Scale factor to the nominal machine speed, from recent reference loops."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def factor(self):
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.samples.append(reference_loop())
            self._last = time.perf_counter()
        return REFERENCE_NOMINAL_S / statistics.median(self.samples[-3:])


class Run:
    """Outcomes of the items of one pass.  Outputs are checked and dropped
    cycle by cycle: memory then holds the program's state rather than a run's
    results, and the checks do not run between the timed items of a cycle."""

    def __init__(self, w):
        self.w = w
        self.latencies = []
        self.raw_latencies = []
        self.passed = []
        self.expected_fail = []
        self.cycle_of = []
        self.cycle_s = []
        self.raw_cycle_s = []
        self.speed = Speed()
        self.errors = {}
        self.failures = []
        self.cut = 0

    def add(self, cycle, item, raw, latency, status, out):
        passed, error = False, None
        if status == "done":
            try:
                passed, error = self.w.check(item, out)
            except Exception as exc:  # a check that raises is a failed check
                out = f"check raised {type(exc).__name__}: {exc}"
        self.cut += status == "deadline"
        self.latencies.append(latency)
        self.raw_latencies.append(raw)
        self.passed.append(passed)
        self.expected_fail.append(bool(item.get("below_cliff")))
        self.cycle_of.append(cycle)
        if cycle < self.w.min_cycles and error is not None:
            self.errors.setdefault(cycle, []).append(error)
        if not passed and len(self.failures) < 5:
            self.failures.append({"cycle": cycle, "item": item, "status": status,
                                  "latency_s": raw, "output": repr(out)[-2000:]})

    def summary(self):
        return {
            "latencies": self.latencies,
            "raw_latencies": self.raw_latencies,
            "passed": self.passed,
            "expected_fail": self.expected_fail,
            "cycle_s": self.cycle_s,
            "raw_cycle_s": self.raw_cycle_s,
            "reference_s": self.speed.samples,
            "cycles": len(self.cycle_s),
            "min_items": sum(c < self.w.min_cycles for c in self.cycle_of),
            # the worst error of each of the first cycles, median over them:
            # steady where the worst case is rounding noise (CLI items), and
            # the systematic worst slot where it is not (quadrature items)
            "max_rel_err": (statistics.median(max(e) for e in self.errors.values())
                            if self.errors else None),
            "failures": self.failures,
        }


def run_cycles(w, run, cycle_source, seconds=None, tracer=None):
    """Run whole cycles, checking each cycle's outputs after the cycle.

    cycle_source is a list (run all of it) or an iterator (run until the
    items have been busy for about `seconds`, to the nearest whole cycle, and
    at least w.min_cycles).  A cycle's time is the sum of its item
    latencies: checks are not part of the closed loop being measured.
    """
    result = Run(w)
    for items in cycle_source:
        cycle = len(result.cycle_s)
        outcomes = []
        for item in items:
            factor = result.speed.factor()
            if tracer is not None:
                tracer.begin_item(len(result.latencies) + len(outcomes))
                tracer.enabled = True
            latency, status, out = run_item(run, item, w.deadline_s)
            if tracer is not None:
                tracer.enabled = False
                if status == "done" and item.get("kind") in ("scan", "scan2"):
                    tracer.note_scan(item["inputs"]["rows"], latency)
                tracer.end_item(status != "deadline")
            scaled = latency if status == "deadline" else latency * factor
            outcomes.append((item, latency, scaled, status, out))
        for outcome in outcomes:
            result.add(cycle, *outcome)
        result.raw_cycle_s.append(sum(o[1] for o in outcomes))
        result.cycle_s.append(sum(o[2] for o in outcomes))
        if seconds is not None:
            measured = sum(result.raw_cycle_s)
            done = len(result.cycle_s)
            if done >= w.min_cycles and measured + 0.5 * measured / done >= seconds:
                break
    return result


def peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def traced(w, run, cycle_list, seed, cold_trace_run):
    """Traced pass, untraced pass over the same cycles, kernel micro-rows."""
    import kernels
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    traced_run = run_cycles(
        w, cold_trace_run(tracer) if cold_trace_run else run, cycle_list, tracer=tracer
    )
    tracer.uninstall()
    plain = run_cycles(w, run, cycle_list)
    traced_s, untraced_s = sum(traced_run.cycle_s), sum(plain.cycle_s)
    metrics = tracer.metrics()
    metrics.update(kernels.rows())
    metrics["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    TRACE_DIR.mkdir(exist_ok=True)
    spans_file = TRACE_DIR / f"trace-{w.name}-seed{seed}.jsonl"
    with open(spans_file, "w") as fh:
        for span_id, name, t0, t1, parent, item in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "item": item}) + "\n")
    out = traced_run.summary()
    # both passes count: an item must pass traced and untraced
    out["passed"] = [a and b for a, b in zip(traced_run.passed, plain.passed)]
    out["failures"] += plain.failures
    out["trace"] = {
        "metrics": metrics,
        "unmeasured": tracer.unmeasured,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "cut_items": traced_run.cut,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return out


TRACE_PREFIX = "PERFBENCH_TRACE "


def cold_trace_runner(workloads, env):
    """Cold items through cold_child.py, merging each child's trace."""
    child = str(Path(__file__).resolve().parent / "cold_child.py")

    def command(argv):
        return [sys.executable, child] + list(argv)

    def factory(tracer):
        def run(item):
            code, stdout, stderr = workloads.run_cold(item, env, command)
            lines = stderr.splitlines()
            if lines and lines[-1].startswith(TRACE_PREFIX):
                tracer.merge(json.loads(lines[-1][len(TRACE_PREFIX):]), tracer.item)
                stderr = "\n".join(lines[:-1])
            return code, stdout, stderr

        return run

    return factory


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import abmodes from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    src = (ROOT / "src").resolve()
    if src not in Path(workloads.abmodes.__file__).resolve().parents:
        print(f"perfbench: abmodes imported from outside {src}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = pinned_env()
    run = w.run
    if w.name == "cli_cold":
        def run(item):
            return workloads.run_cold(item, env)

    signal.signal(signal.SIGALRM, _on_alarm)
    gen = workloads.cycles(w.name, args.seed)
    warm = run_cycles(w, run, [workloads.warmup_items(w.name)])
    if not all(warm.passed):
        print(f"perfbench: warm-up failed its check: {warm.failures}", file=sys.stderr)
        return 3
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        cycle_list = [next(gen) for _ in range(w.trace_cycles)]
        cold = cold_trace_runner(workloads, env) if w.name == "cli_cold" else None
        out = traced(w, run, cycle_list, args.seed, cold)
    else:
        out = run_cycles(w, run, gen, seconds=args.seconds).summary()
    out.update(
        backend=workloads.abmodes.BACKEND,
        kernel_file=str(Path(workloads.kernel_file()).resolve().relative_to(ROOT)),
        peak_rss_kb=peak_rss_kb(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
