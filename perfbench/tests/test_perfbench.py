"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = (
    "kernels.bessel_calls",
    "kernels.panel_calls",
    "kernels.gamma_calls",
    "specfun.calls",
    "quad.calls",
    "quad.cells",
    "quad.panels",
    "quad.weighted_panels",
    "overlap.calls",
    "fluxshell.solve_g_calls",
    "fluxshell.matching_ratio_calls",
    "fluxshell.matching_ratio_per_solve",
    "cli.runs",
    "cli.scan_rows",
)


def _take(name, seed, n):
    gen = workloads.cycles(name, seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(name):
    assert _take(name, 3, 2) == _take(name, 3, 2)
    assert _take(name, 3, 2) != _take(name, 4, 2)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_item_passes_its_check(name):
    code, lines = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert code == 0 and result["correct"], report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name == "near_diagonal":
        # the known defect stays visible: below-cliff items, and only those, fail
        assert result["failed"] == report["below_cliff_failed"] > 0
        assert result["failed"] / result["attempted"] == workloads.BELOW_CLIFF_SHARE
    else:
        assert result["failed"] == 0


def _traced_counts(name):
    w = workloads.WORKLOADS[name]
    cycle = _take(name, 7, 1)
    tracer = tracer_mod.Tracer()
    tracer.install()
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        run = w.run
        if name == "cli_cold":
            run = worker.cold_trace_runner(workloads, worker.pinned_env())(tracer)
        worker.run_cycles(w, run, cycle, tracer=tracer)
    finally:
        signal.signal(signal.SIGALRM, previous)
        tracer.uninstall()
    metrics = tracer.metrics()
    return {k: metrics[k] for k in COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert first["kernels.bessel_calls"] > 0


def test_missing_hook_is_unmeasured_not_zero(monkeypatch):
    import abmodes.overlap

    monkeypatch.delattr(abmodes.overlap, "product_quad")
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("quad.calls", "quad.cells", "quad.self_s", "overlap.window_periods"):
        assert metrics[name] is None
        assert "abmodes.overlap.product_quad" in tracer.unmeasured[name]
    assert metrics["kernels.panel_calls"] == 0


def test_quad_cells_match_the_cells_product_quad_splits():
    from abmodes import _quad

    class CountingBudget(_quad.PanelBudget):
        cells = 0

        def spend(self, n=1):
            self.cells += n == 1  # one single spend per cell, pairs per bisection
            super().spend(n)

    for args, breaks in (((0.3, -0.3, 1.3, 0.7, 0.0, 40.0), ()),
                         ((0.5, -0.5, 1.0, 1.1, 3.7, 91.2), (10.0, 50.5, 200.0)),
                         ((0.2, -0.2, 2.0, 1.0, 0.0, 10.0 * 3.141592653589793), (0.5 * 3.141592653589793,))):
        budget = CountingBudget(10**6)
        _quad.product_quad(*args, 1e-9, budget, extra_breaks=breaks)
        assert tracer_mod.quad_cells(*args[2:6], breaks) == budget.cells


def test_pinned_env_drops_caller_overrides(monkeypatch):
    monkeypatch.setenv("ABMODES_BACKEND", "python")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    env = worker.pinned_env()
    assert not any(k.startswith("ABMODES_") for k in env)
    assert "PYTHONPROFILEIMPORTTIME" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_kernel_rows_cover_the_python_backend():
    import kernels

    rows = kernels.kernel_rows(kernels.importable_backends()["python"], repeat=1)
    assert set(rows) == {"bessel_us", "gamma_us", "panel_us"}
    assert all(v > 0 for v in rows.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _bench("--workload", "dictionary", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
