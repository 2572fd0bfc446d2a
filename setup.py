"""Build script: compiles the optional kernel extension.

`src/abmodes/_kernels_c.c` is a hand-written CPython module, the twin of
`_kernels_py.py`, so building needs only a C compiler.  The extension returns
the same doubles as the pure-Python kernels and is a pure speedup; if no C
compiler is available the package falls back to the pure-Python kernels at
import time, so any build failure here is demoted to a warning.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that gives up gracefully instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        # a fused multiply-add rounds once where the Python kernels round
        # twice; forbid contraction so both return the same doubles
        if self.compiler.compiler_type != "msvc":
            ext.extra_compile_args = ["-ffp-contract=off"]
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"WARNING: building the abmodes._kernels_c extension failed ({exc}); "
            "falling back to the pure-Python kernels.",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("abmodes._kernels_c", ["src/abmodes/_kernels_c.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
