"""Kernel selection: the compiled extension if it imports, else pure Python.

`abmodes._kernels_c` (built by `setup.py` from the tracked C) and
`abmodes._kernels_py` return the same doubles, which `tests/test_backends.py`
checks with `==`; which one runs changes the speed only, never a result.
`BACKEND` names the one in use.  Only the kernels that differ between the
twins are selected here, Bessel J and the G10/K21 product panel: Gamma is
`math.gamma` in both, which `specfun` binds itself, and the Hankel panel has
no C twin, so `_quad` binds the Python one.
"""

from . import _kernels_py

try:
    from . import _kernels_c as _impl  # type: ignore[attr-defined]

    BACKEND = "c"
except ImportError:
    _impl = _kernels_py

    BACKEND = "python"

bessel_kernel = _impl.bessel_j
product_panel_kernel = _impl.kronrod21_product_panel
