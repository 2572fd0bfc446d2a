"""Traced-run instrumentation, installed from outside the library.

`Tracer.install()` replaces each layer entry point *as its calling module
binds it* (for example `abmodes.overlap.product_quad`, the name the
estimators look up) with a wrapper that records a span: name, start, end,
parent span and item id.  A layer's self time is its span durations minus the
time covered by child spans.  Spans of the hot layers (specfun, kernels) are
folded into counters instead of being stored, so that memory stays flat.

Counts and times are first kept per item and merged into the totals only when
the item finishes; an item cut by the benchmark's deadline would otherwise add
counts that depend on where the clock stopped.  Failures (`quad.failed`,
`overlap.failed`) are merged for every item.

A hook point that no longer exists is not silently skipped: the metrics it
feeds are reported as unmeasured, with the missing name as the reason.
"""

import functools
import importlib
import inspect
import math
import time
from collections import Counter

_KERNEL = ("kernels.self_s", "quad.self_s", "specfun.self_s")

# (calling module, attribute, layer, call counter, keep spans, metrics fed).
# layer None: counted only, not timed.
HOOKS = (
    ("abmodes._quad", "product_panel_kernel", "kernels", "kernels.panel_calls", False,
     ("kernels.panel_calls", "quad.panels", "quad.panels_per_cell", "quad.panels_per_s") + _KERNEL),
    ("abmodes._quad", "bessel_kernel", "kernels", "kernels.bessel_calls", False,
     ("kernels.bessel_calls",) + _KERNEL),
    ("abmodes.specfun", "bessel_kernel", "kernels", "kernels.bessel_calls", False,
     ("kernels.bessel_calls",) + _KERNEL),
    ("abmodes.specfun", "gamma_kernel", "kernels", "kernels.gamma_calls", False,
     ("kernels.gamma_calls",) + _KERNEL),
    ("abmodes._quad", "_weighted_panel", None, "quad.weighted_panels", False,
     ("quad.weighted_panels", "quad.panels", "quad.panels_per_cell", "quad.panels_per_s")),
    ("abmodes.overlap", "product_quad", "quad", "quad.calls", True,
     ("quad.calls", "quad.cells", "quad.panels_per_cell", "quad.panels_per_s", "quad.self_s",
      "quad.failed", "overlap.quad_calls_per_call", "overlap.window_periods", "overlap.self_s")),
    ("abmodes.fluxshell", "matching_ratio", "fluxshell", "fluxshell.matching_ratio_calls", True,
     ("fluxshell.matching_ratio_calls", "fluxshell.matching_ratio_per_solve", "fluxshell.self_s")),
    ("abmodes.cli", "run", "cli", "cli.runs", True,
     ("cli.runs", "cli.self_s", "cli.scan_rows_per_s")),
) + tuple(
    (module, name, "specfun", "specfun.calls", False, ("specfun.calls", "specfun.self_s"))
    for module, names in (
        ("abmodes.fluxshell", ("bessel_j", "bessel_j_prime", "gamma")),
        ("abmodes.modes", ("bessel_j", "gamma")),
        ("abmodes.sae", ("gamma",)),
    )
    for name in names
) + tuple(
    ("abmodes.overlap", name, "overlap", None, True,
     ("overlap.calls", "overlap.quad_calls_per_call", "overlap.window_periods",
      "overlap.self_s", "overlap.failed"))
    for name in (
        "windowed_overlap",
        "finite_part_estimate",
        "fit_delta_coefficient",
        "mode_overlap_finite_part",
        "mode_overlap_finite_part_numeric",
        "closed_form_cross",
        "closed_form_same",
        "fit_cancelling_exponent",
    )
)

# layer of a library function, by the module that defines it; used to wrap
# every library function `abmodes.cli` imports
LAYER_OF_MODULE = {
    "abmodes.specfun": "specfun",
    "abmodes.overlap": "overlap",
    "abmodes.fluxshell": "fluxshell",
    "abmodes.flux": "model",
    "abmodes.modes": "model",
    "abmodes.sae": "model",
}
COUNTER_OF_CLI_IMPORT = {
    "specfun": "specfun.calls",
    "solve_g": "fluxshell.solve_g_calls",
    "matching_ratio": "fluxshell.matching_ratio_calls",
}
CLI_IMPORT_METRICS = {
    "specfun": ("specfun.calls", "specfun.self_s"),
    "overlap": ("overlap.calls", "overlap.self_s"),
    "fluxshell": ("fluxshell.solve_g_calls", "fluxshell.matching_ratio_per_solve",
                  "fluxshell.self_s"),
    "model": ("model.calls", "model.self_s"),
}
REQUIRED_CLI_IMPORTS = ("solve_g", "matching_ratio")

PER_LAYER = {
    "kernels.bessel_calls": "count",
    "kernels.panel_calls": "count",
    "kernels.gamma_calls": "count",
    "kernels.self_s": "s",
    "kernels.python.bessel_us": "us",
    "kernels.python.gamma_us": "us",
    "kernels.python.panel_us": "us",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "quad.calls": "count",
    "quad.cells": "count",
    "quad.panels": "count",
    "quad.weighted_panels": "count",
    "quad.panels_per_cell": "ratio",
    "quad.panels_per_s": "1/s",
    "quad.self_s": "s",
    "quad.failed": "count",
    "overlap.calls": "count",
    "overlap.quad_calls_per_call": "ratio",
    "overlap.window_periods": "periods",
    "overlap.self_s": "s",
    "overlap.failed": "count",
    "fluxshell.solve_g_calls": "count",
    "fluxshell.matching_ratio_calls": "count",
    "fluxshell.matching_ratio_per_solve": "ratio",
    "fluxshell.self_s": "s",
    "model.calls": "count",
    "model.self_s": "s",
    "cli.runs": "count",
    "cli.scan_rows": "count",
    "cli.scan_rows_per_s": "1/s",
    "cli.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_share": "ratio",
}


def quad_cells(p, pp, lo, hi, extra_breaks):
    """Cells product_quad splits [lo, hi] into: quasi-periods plus extra breaks."""
    if hi <= lo:
        return 0
    step = math.pi / max(p, pp)
    k_lo = math.floor(lo / step) + 1
    while k_lo * step <= lo:
        k_lo += 1
    k_hi = math.ceil(hi / step)
    while k_hi * step >= hi:
        k_hi -= 1
    while (k_hi + 1) * step < hi:
        k_hi += 1
    extra = sum(
        1
        for x in set(float(x) for x in extra_breaks)
        if lo < x < hi and round(x / step) * step != x
    )
    return 1 + max(0, k_hi - k_lo + 1) + extra


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []
        self.counts = Counter()
        self.times = Counter()
        self.failures = Counter()
        self.unmeasured = {}
        self._item_counts = Counter()
        self._item_times = Counter()
        self._stack = []
        self._active = Counter()
        self._next_id = 0
        self._integrated = False
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module, attr, layer, counter, keep, metrics in HOOKS:
            self._patch(module, attr, layer, counter, keep, metrics)
        try:
            cli = importlib.import_module("abmodes.cli")
        except ImportError:
            return
        for name in REQUIRED_CLI_IMPORTS:
            if not inspect.isfunction(getattr(cli, name, None)):
                self._missing(f"abmodes.cli.{name}", CLI_IMPORT_METRICS["fluxshell"])
        for name, obj in sorted(vars(cli).items()):
            layer = LAYER_OF_MODULE.get(getattr(obj, "__module__", None))
            if layer is None or not inspect.isfunction(obj):
                continue
            counter = COUNTER_OF_CLI_IMPORT.get(name, COUNTER_OF_CLI_IMPORT.get(layer))
            self._patch("abmodes.cli", name, layer, counter, layer != "specfun",
                        CLI_IMPORT_METRICS[layer])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _missing(self, where, metrics):
        for metric in metrics:
            self.unmeasured.setdefault(metric, f"hook {where} not found")

    def _patch(self, module_name, attr, layer, counter, keep, metrics):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self._missing(module_name, metrics)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self._missing(f"{module_name}.{attr}", metrics)
            return
        if layer is None:
            wrapper = self._counting(original, counter)
        else:
            on_args = self._quad_args(original) if layer == "quad" else None
            wrapper = self._timing(original, layer, attr, counter, keep, on_args)
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _counting(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._item_counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timing(self, fn, layer, name, counter, keep, on_args):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(fn, layer, name, counter, keep, on_args, args, kwargs)

        return wrapper

    def _quad_args(self, fn):
        """Cells and integrated slow periods of one product_quad call."""
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if sig is None or not {"p", "pp", "lo", "hi"} <= set(sig.parameters):
            self._missing("abmodes.overlap.product_quad(p, pp, lo, hi, ...)",
                          ("quad.cells", "quad.panels_per_cell", "overlap.window_periods"))
            return None

        def on_args(counts, args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            p, pp, lo, hi = a["p"], a["pp"], a["lo"], a["hi"]
            counts["quad.cells"] += quad_cells(p, pp, lo, hi, a.get("extra_breaks", ()))
            if p != pp and hi > lo:
                counts["quad.window_periods"] += (hi - lo) * abs(p - pp) / (2.0 * math.pi)

        return on_args

    # -- recording ------------------------------------------------------

    def _call(self, fn, layer, name, counter, keep, on_args, args, kwargs):
        counts = self._item_counts
        if counter:
            counts[counter] += 1
        outer = self._active[layer] == 0
        if outer:
            counts["outer." + layer] += 1
        if name == "matching_ratio" and self._active["solve_g"]:
            counts["fluxshell.matching_ratio_in_solve"] += 1
        if on_args is not None:
            on_args(counts, args, kwargs)
        if outer and layer == "overlap":
            self._integrated = False
        if layer == "quad" and self._active["overlap"] and not self._integrated:
            self._integrated = True
            counts["overlap.with_quad"] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self._active[layer] += 1
        self._active[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if outer:
                self.failures[layer + ".failed"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._active[layer] -= 1
            self._active[name] -= 1
            self._stack.pop()
            dur = t1 - t0
            self._item_times[layer] += dur - frame[1]
            if outer:
                self._item_times["incl." + layer] += dur
            if self._stack:
                self._stack[-1][1] += dur
            if keep:
                self.spans.append((span_id, name, t0, t1, parent, self.item))

    def begin_item(self, item_id):
        self.item = item_id
        self._item_counts = Counter()
        self._item_times = Counter()
        self._stack = []
        self._active = Counter()

    def end_item(self, finished):
        """Merge the item's counts and times unless the deadline cut it."""
        if finished:
            self.counts.update(self._item_counts)
            self.times.update(self._item_times)
        self.item = None

    def note_scan(self, rows, seconds):
        self._item_counts["cli.scan_rows"] += rows
        self._item_times["cli.scan"] += seconds

    # -- transport and results -----------------------------------------

    def snapshot(self):
        """JSON-able totals, used to carry a child process's trace home."""
        return {
            "counts": dict(self.counts),
            "times": dict(self.times),
            "failures": dict(self.failures),
            "unmeasured": dict(self.unmeasured),
            "spans": self.spans,
        }

    def merge(self, snap, item_id):
        """Add a child process's snapshot as the work of item `item_id`."""
        self.counts.update(snap["counts"])
        self.times.update(snap["times"])
        self.failures.update(snap["failures"])
        for metric, reason in snap["unmeasured"].items():
            self.unmeasured.setdefault(metric, reason)
        offset = self._next_id
        for span_id, name, t0, t1, parent, _ in snap["spans"]:
            self.spans.append(
                (span_id + offset, name, t0, t1,
                 None if parent is None else parent + offset, item_id)
            )
            self._next_id = max(self._next_id, span_id + offset + 1)

    def metrics(self):
        """Per-layer figures from the merged totals; None where unmeasured."""
        c, t, f = self.counts, self.times, self.failures

        def ratio(num, den):
            return num / den if den else 0.0

        panels = c["kernels.panel_calls"] + c["quad.weighted_panels"]
        out = {
            "kernels.bessel_calls": c["kernels.bessel_calls"],
            "kernels.panel_calls": c["kernels.panel_calls"],
            "kernels.gamma_calls": c["kernels.gamma_calls"],
            "kernels.self_s": t["kernels"],
            "specfun.calls": c["specfun.calls"],
            "specfun.self_s": t["specfun"],
            "quad.calls": c["quad.calls"],
            "quad.cells": c["quad.cells"],
            "quad.panels": panels,
            "quad.weighted_panels": c["quad.weighted_panels"],
            "quad.panels_per_cell": ratio(panels, c["quad.cells"]),
            "quad.panels_per_s": ratio(panels, t["incl.quad"]),
            "quad.self_s": t["quad"],
            "quad.failed": f["quad.failed"],
            "overlap.calls": c["outer.overlap"],
            "overlap.quad_calls_per_call": ratio(c["quad.calls"], c["outer.overlap"]),
            "overlap.window_periods": ratio(c["quad.window_periods"], c["overlap.with_quad"]),
            "overlap.self_s": t["overlap"],
            "overlap.failed": f["overlap.failed"],
            "fluxshell.solve_g_calls": c["fluxshell.solve_g_calls"],
            "fluxshell.matching_ratio_calls": c["fluxshell.matching_ratio_calls"],
            "fluxshell.matching_ratio_per_solve": ratio(
                c["fluxshell.matching_ratio_in_solve"], c["fluxshell.solve_g_calls"]
            ),
            "fluxshell.self_s": t["fluxshell"],
            "model.calls": c["outer.model"],
            "model.self_s": t["model"],
            "cli.runs": c["cli.runs"],
            "cli.scan_rows": c["cli.scan_rows"],
            "cli.scan_rows_per_s": ratio(c["cli.scan_rows"], t["cli.scan"]),
            "cli.self_s": t["cli"],
        }
        for metric in self.unmeasured:
            if metric in out:
                out[metric] = None
        return out
