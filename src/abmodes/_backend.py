"""Kernel selection: the compiled extension if it imports, else pure Python.

`abmodes._kernels_c` (built by `setup.py` from the tracked C) and
`abmodes._kernels_py` return the same doubles, which `tests/test_backends.py`
checks with `==`; which one runs changes the speed only, never a result.
`BACKEND` names the one in use.  The Hankel panel is the Python one under
either backend.
"""

from . import _kernels_py

try:
    from . import _kernels_c as _impl  # type: ignore[attr-defined]

    BACKEND = "c"
except ImportError:
    _impl = _kernels_py

    BACKEND = "python"

gamma_kernel = _impl.gamma
bessel_kernel = _impl.bessel_j
product_panel_kernel = _impl.kronrod21_product_panel
# the C twin has no Hankel panel: only the windowed engine runs it, untimed
hankel_panel_kernel = _kernels_py.hankel_product_panel
