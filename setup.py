"""Build script: compiles the optional kernel extension.

`src/abmodes/_kernels_c.c` is a hand-written CPython module, the twin of
`_kernels_py.py`, so building needs only a C compiler.  The extension returns
the same doubles as the pure-Python kernels and is a pure speedup.  It is
declared optional: if it fails to build, setuptools prints a warning naming
`abmodes._kernels_c` and the package uses the pure-Python kernels.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "abmodes._kernels_c",
            ["src/abmodes/_kernels_c.c"],
            # a fused multiply-add rounds once where the Python kernels round
            # twice; forbid contraction so both return the same doubles
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ],
)
