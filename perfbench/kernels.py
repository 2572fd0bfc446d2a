"""Kernel micro-rows: per-call cost of each importable kernel backend.

The grids are the ones the kernel layer is judged on: Bessel J on both sides
of the series/asymptotic switch at x = 12, Gamma across the reflection
branch (x < 0.5, poles dodged), and 15-point Gauss product panels.
`rows()` returns the `kernels.<backend>.*_us` figures, microseconds per
call, best of several repeats.
"""

import importlib
import timeit

BESSEL_GRID = [(0.3, 0.5 + 0.11 * k) for k in range(100)] + [
    (-0.7, 14.0 + 0.8 * k) for k in range(100)
]
GAMMA_GRID = [-4.93 + 0.0701 * k for k in range(200)]
PANEL_GRID = [(0.3, -0.3, 1.3, 0.7, 2.0 + k, 3.0 + k) for k in range(50)]

BACKEND_MODULES = {"python": "abmodes._kernels_py", "c": "abmodes._kernels_c"}


def importable_backends():
    """{backend name: kernel module} for every backend that imports here."""
    found = {}
    for name, module in BACKEND_MODULES.items():
        try:
            found[name] = importlib.import_module(module)
        except ImportError:
            continue
    return found


def _per_call_us(fn, calls, number, repeat):
    best = min(timeit.repeat(fn, number=number, repeat=repeat))
    return best / (number * calls) * 1e6


def kernel_rows(mod, repeat=5):
    """Microseconds per call of one kernel module on the shared grids."""

    def bessel():
        for nu, x in BESSEL_GRID:
            mod.bessel_j(nu, x)

    def gamma():
        for x in GAMMA_GRID:
            mod.gamma(x)

    def panels():
        for args in PANEL_GRID:
            mod.gauss15_product_panel(*args)

    return {
        "bessel_us": _per_call_us(bessel, len(BESSEL_GRID), 20, repeat),
        "gamma_us": _per_call_us(gamma, len(GAMMA_GRID), 20, repeat),
        "panel_us": _per_call_us(panels, len(PANEL_GRID), 5, repeat),
    }


def rows():
    """{"kernels.<backend>.<row>": microseconds per call} for each backend."""
    out = {}
    for backend, mod in importable_backends().items():
        for row, value in kernel_rows(mod).items():
            out[f"kernels.{backend}.{row}"] = value
    return out
