"""Kernel selection: the compiled extension if it imports, else pure Python.

`abmodes._kernels_c` (built by `setup.py` from the tracked C) and
`abmodes._kernels_py` return the same doubles, which `tests/test_backends.py`
checks with `==`; which one runs changes the speed only, never a result.
`BACKEND` names the one in use.
"""

try:
    from . import _kernels_c as _impl  # type: ignore[attr-defined]

    BACKEND = "c"
except ImportError:
    from . import _kernels_py as _impl

    BACKEND = "python"

gamma_kernel = _impl.gamma
bessel_kernel = _impl.bessel_j
product_panel_kernel = _impl.kronrod21_product_panel
hankel_panel_kernel = _impl.hankel_product_panel
