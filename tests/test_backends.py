"""The compiled kernels return the same doubles as the pure-Python kernels.

The extension is built by `setup.py` from the hand-written `_kernels_c.c`
into a temporary directory and loaded from there, so no built module is left
in `src/`.  The build adds `-Wall -Wextra -Werror` to CFLAGS, so a warning in
the C fails these tests.  They skip only when the configured C compiler is not
on PATH; any other build failure fails them with the compiler's output.  One
more build, with no compiler at all, must warn and build nothing.
"""

import importlib.util
import inspect
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from functools import partial

import pytest

from conftest import REPO, SUBNORMAL_ARGV

import abmodes
from abmodes import _backend, _kernels_py, _quad, cli, specfun
from abmodes.errors import (
    AbmodesError,
    ConvergenceError,
    DegenerateDenominatorError,
    NumericalFailureError,
)
from abmodes.sae import Channel, ExtensionParameter


@pytest.fixture(scope="session")
def kernels_c(tmp_path_factory):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler: {cc} is not on PATH")
    out = tmp_path_factory.mktemp("kernels_c")
    env = dict(os.environ)
    env["CFLAGS"] = env.get("CFLAGS", "") + " -Wall -Wextra -Werror"
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    built = sorted((out / "lib" / "abmodes").glob("_kernels_c*"))
    if not built:
        pytest.fail(f"building the compiled kernels failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("abmodes._kernels_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(sysconfig.get_platform().startswith("win"), reason="MSVC ignores CC")
def test_build_without_a_compiler_warns_and_builds_nothing(tmp_path):
    # the extension is optional: a missing compiler is a warning, not a
    # failed install, and the package keeps the pure-Python kernels
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=REPO,
        env=dict(os.environ, CC="/nonexistent/cc"),
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    assert 'building extension "abmodes._kernels_c" failed' in build.stdout + build.stderr
    assert not list(tmp_path.rglob("_kernels_c*"))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_ci_installs_the_dev_extra():
    # the two tests above run setup.py, which needs setuptools, and a fresh
    # venv of Python 3.12 or later has none: `pip install -e ".[dev]"` must
    # bring it, and CI's own install line must name what the extra names
    import tomllib

    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    extra = pyproject["project"]["optional-dependencies"]["dev"]
    names = {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
             for requirement in extra}
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    # the one install line that fetches packages: the package's own install
    # step takes none (--no-deps)
    [line] = [line for line in workflow.splitlines()
              if "pip install" in line and "--no-deps" not in line]
    assert "setuptools" in names
    assert {name.lower() for name in line.split("pip install", 1)[1].split()} == names


def use_kernels(monkeypatch, kernels):
    """Point every caller of the selected kernels at `kernels`."""
    monkeypatch.setattr(specfun, "gamma_kernel", kernels.gamma)
    monkeypatch.setattr(specfun, "bessel_kernel", kernels.bessel_j)
    monkeypatch.setattr(_quad, "bessel_kernel", kernels.bessel_j)
    monkeypatch.setattr(_quad, "product_panel_kernel", kernels.kronrod21_product_panel)


def test_gamma_agreement(kernels_c):
    # one Gamma: both twins' series divide by math.gamma, which is exact at
    # the integers, so that a one-term series is exact in both
    assert kernels_c.gamma is _kernels_py.gamma is math.gamma
    for kernels in (kernels_c, _kernels_py):
        assert kernels.bessel_j(0.0, 5e-324) == 1.0
        assert kernels.bessel_j(1.0, 2e-10) == 1e-10


def test_bessel_agreement(kernels_c):
    rng = random.Random(2)
    orders = [k / 4.0 for k in range(-24, 25)] + [rng.uniform(-6.0, 6.0) for _ in range(40)]
    # and at the switch from the series to Hankel's expansion
    xs = [0.0, 12.0 - 1e-12, 12.0, 12.0 + 1e-12] + [1e-3 * (2e5) ** (i / 199) for i in range(200)]
    for nu in orders:
        for x in xs:
            if x == 0.0 and nu < 0.0:
                continue
            assert kernels_c.bessel_j(nu, x) == _kernels_py.bessel_j(nu, x), (nu, x)


# the windowed engine's Filon panel and its spherical Bessel helper exist in
# Python only: no workload or estimator runs them, so a C twin would be a
# second implementation of a path nothing times
PYTHON_ONLY = {"hankel_product_panel", "spherical_j"}


def test_twins_export_the_same_kernels(kernels_c):
    # every kernel of the compiled twin has its Python twin, and back, but
    # for the Python-only ones; gamma is the builtin math.gamma in both;
    # _backend binds only these
    compiled = {name for name in dir(kernels_c) if not name.startswith("_")}
    python = {
        name for name, f in vars(_kernels_py).items()
        if (inspect.isfunction(f) or f is math.gamma) and not name.startswith("_")
    }
    assert compiled == python - PYTHON_ONLY
    bound = {f.__name__ for name, f in vars(_backend).items() if name.endswith("_kernel")}
    assert bound <= compiled | PYTHON_ONLY


def test_hankel_panel_is_the_python_one(kernels_c, monkeypatch):
    # _backend binds the Python Hankel panel whichever kernel set imports,
    # and _quad calls the one it binds
    assert _quad.hankel_panel_kernel is _kernels_py.hankel_product_panel
    monkeypatch.delattr(abmodes, "_kernels_c", raising=False)
    for backend, module in (("c", kernels_c), ("python", None)):
        # None in sys.modules makes the import raise ImportError
        monkeypatch.setitem(sys.modules, "abmodes._kernels_c", module)
        spec = importlib.util.spec_from_file_location("abmodes._backend", _backend.__file__)
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        assert fresh.BACKEND == backend
        assert fresh.hankel_panel_kernel is _kernels_py.hankel_product_panel
        assert fresh.product_panel_kernel is (module or _kernels_py).kronrod21_product_panel


def test_bessel_tuple_agreement(kernels_c):
    # one expansion for all the arguments gives each twin's single-call
    # doubles: 3,000 random (nu, xs) over ranges below, across and above
    # the switch at x = 12, at random and at negative integer orders
    rng = random.Random(7)
    for i in range(3000):
        nu = rng.uniform(-6.0, 6.0) if i % 3 else float(rng.randint(-6, 6))
        if i % 4 == 0:
            xs = [rng.uniform(9.0, 15.0) for _ in range(rng.randint(2, 30))]
        else:
            lo = 10 ** rng.uniform(-3.0, 2.0)
            xs = [lo * 10 ** rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 30))]
        xs = tuple(xs)
        single = tuple(_kernels_py.bessel_j(nu, x) for x in xs)
        assert _kernels_py.bessel_j(nu, xs) == single, (nu, xs)
        assert kernels_c.bessel_j(nu, xs) == single, (nu, xs)
        assert tuple(kernels_c.bessel_j(nu, x) for x in xs) == single, (nu, xs)
    # arguments that straddle 12 at the orders where the expansion branches
    for nu in SPECIAL_ORDERS:
        xs = tuple(11.5 + 0.05 * k for k in range(21)) + (12.0 - 1e-12, 12.0 + 1e-12)
        assert kernels_c.bessel_j(nu, xs) == _kernels_py.bessel_j(nu, xs) == tuple(
            _kernels_py.bessel_j(nu, x) for x in xs
        ), nu


def test_underflowed_half_argument_alike(kernels_c):
    # x/2 rounds to 0 under a negative order: NaN in both twins
    for nu in (-0.9, -0.5, -1.5):
        assert math.isnan(kernels_c.bessel_j(nu, 5e-324))
        assert math.isnan(_kernels_py.bessel_j(nu, 5e-324))


# orders where the expansions branch: negative integers (reflected once per
# panel) and half-integers (a Hankel coefficient is exactly 0)
SPECIAL_ORDERS = [-5.0, -4.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 4.5, 5.5]


def cut_rule(nu, x):
    """The rule that ends Hankel's sum for J_nu(x): "growth" or "1e-18"."""
    _, _, small = _kernels_py._hankel_coefficients(nu, x, x)
    return "1e-18" if -small[-1] <= x else "growth"


def straddling_panels(rng, n, x_lo, x_hi):
    """(p, lo, hi) with p lo in x_lo and p hi in x_hi, both (low, high) ranges."""
    for _ in range(n):
        p = rng.uniform(0.1, 5.0)
        yield p, rng.uniform(*x_lo) / p, rng.uniform(*x_hi) / p


def test_panel_agreement(kernels_c):
    rng = random.Random(3)
    panels = []
    for _ in range(500):
        nu, mu = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        p, pp = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        lo = rng.uniform(0.01, 50.0)
        panels.append((nu, mu, p, pp, lo, lo + rng.uniform(0.01, 5.0)))
    # one order's arguments straddle the switch at x = 12, the other's stay
    # below it; then orders where the expansions branch; then arguments
    # across the switch between the cut's growth and 1e-18 rules (x near 20)
    for p, lo, hi in straddling_panels(rng, 200, (9.0, 11.9), (12.1, 15.0)):
        nu, mu = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        panels.append((nu, mu, p, 12.0 / hi * rng.uniform(0.1, 0.99), lo, hi))
    for _ in range(300):
        nu, mu = rng.choice(SPECIAL_ORDERS), rng.choice(SPECIAL_ORDERS + [rng.uniform(-5.0, 5.0)])
        p, pp = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        lo = rng.uniform(0.01, 50.0)
        panels.append((nu, mu, p, pp, lo, lo + rng.uniform(0.01, 5.0)))
    rules = set()
    for p, lo, hi in straddling_panels(rng, 200, (14.0, 18.0), (22.0, 30.0)):
        nu, mu = rng.uniform(-0.999, 6.0), rng.uniform(-0.999, 6.0)
        rules.add((cut_rule(nu, p * lo), cut_rule(nu, p * hi)))
        panels.append((nu, mu, p, p * rng.uniform(0.8, 1.25), lo, hi))
    assert ("growth", "1e-18") in rules
    for args in panels:
        assert kernels_c.kronrod21_product_panel(*args) == _kernels_py.kronrod21_product_panel(*args), args
        assert kernels_c.gauss15_product_panel(*args) == _kernels_py.gauss15_product_panel(*args), args


@pytest.mark.parametrize(
    "argv",
    [
        ["overlap", "--delta", "0.25", "--p", "1", "--pprime", "2", "--verify"],
        ["gfactor", "--channel", "n", "--alpha", "1", "--enn", "0", "--delta", "0.4",
         "--rho0", "0.01"],
        ["fluxshell", "--l", "0", "--phi", "0.3", "--g", "1", "--p", "1", "--rho0", "0.01"],
        # the Lommel finite part near the diagonal, alone and in a mode overlap
        ["overlap", "--delta", "0.3", "--p", "1", "--pprime", "1.0005", "--verify"],
        ["cancel", "--delta", "0.3", "--channel", "n", "--b-p", "0.8", "--b-pprime", "0.5",
         "--p", "1", "--pprime", "1.02", "--verify"],
        # J and J' at the switch from the series to Hankel's expansion, and
        # the shell's matching there and on both sides of it
        ["bessel", "--nu", "-0.5", "--x", "12", "--prime"],
        ["solve-g", "--l", "1", "--phi", "0.3", "--p", "1", "--rho0", "12", "--target", "-0.9"],
        ["scan", "fluxshell", "--grid", "rho0=log:1:20:5", "--l", "1", "--phi", "0.3",
         "--g", "0.5", "--p", "1"],
    ],
)
def test_backends_byte_stable_results(kernels_c, monkeypatch, capsys, argv):
    # the same exit code and the same bytes on stdout and stderr
    use_kernels(monkeypatch, kernels_c)
    compiled = cli.run(argv), capsys.readouterr()
    use_kernels(monkeypatch, _kernels_py)
    assert compiled == (cli.run(argv), capsys.readouterr())


def outcomes(kernels_c, monkeypatch, call):
    """call() on the compiled, then the Python kernels: each its value, or
    the type and message of the library error it raised."""
    runs = []
    for kernels in (kernels_c, _kernels_py):
        use_kernels(monkeypatch, kernels)
        try:
            runs.append(call())
        except AbmodesError as exc:
            runs.append((type(exc), str(exc)))
    return runs


@pytest.mark.parametrize(
    "args, tol",
    [
        # integrands singular at r = 0: the origin cell comes from the series
        ((-0.6, -0.6, 1.0, 1.7, 10.0), 1e-9),
        ((-0.9, -0.9, 1.0, 2.0, 10.0), 1e-9),
        # past r_h = 12/min(p, p') the window continues on Hankel panels
        ((0.3, -0.3, 1.0, 1.01, 30.0), 1e-12),
        # a zero order takes a subnormal momentum, since (p r/2)^0 = 1 is exact
        ((0.0, 0.0, 5e-324, 1.0, 1.0), 1e-9),
    ],
)
def test_windowed_overlap_alike(kernels_c, monkeypatch, args, tol):
    runs = outcomes(kernels_c, monkeypatch, partial(abmodes.windowed_overlap, *args, tol=tol))
    assert runs[0] == runs[1]
    assert isinstance(runs[0], float)


@pytest.mark.parametrize("argv, code", SUBNORMAL_ARGV)
def test_subnormal_arguments_alike(kernels_c, monkeypatch, capsys, argv, code):
    runs = []
    for kernels in (kernels_c, _kernels_py):
        use_kernels(monkeypatch, kernels)
        runs.append((cli.run(argv), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    if code == 0:
        # J_0 = 1 exactly where the series is one term
        assert json.loads(runs[0][1].out)["outputs"]["j"] == 1.0


def test_underflowed_panel_fails_alike(kernels_c, monkeypatch):
    # p c/2 underflows to 0 under a negative order, and the origin cell
    # refuses it before any panel: the same error on both kernel sets,
    # neither a raw ZeroDivisionError nor a bisection until the budget runs
    # out
    runs = outcomes(
        kernels_c, monkeypatch, partial(abmodes.windowed_overlap, -0.9, 0.9, 5e-324, 1.0, 1.0)
    )
    assert runs[0] == runs[1]
    assert runs[0][0] is NumericalFailureError


@pytest.mark.parametrize(
    "momenta", [(1.0, 1.02), (1e300, 1.5e300)], ids=["ulp-of-the-end", "phase-overflow"]
)
def test_unresolved_window_end_fails_alike(kernels_c, monkeypatch, momenta):
    # at L = 1e10 an ulp of the window end moves the integral by more than
    # tol/2, and at p = 1e300 the phase (p + p') L overflows: hankel_quad
    # refuses before its first panel, at once, with the same error
    call = partial(abmodes.windowed_overlap, 0.3, -0.3, *momenta, 1e10)
    start = time.perf_counter()
    runs = outcomes(kernels_c, monkeypatch, call)
    assert time.perf_counter() - start < 1.0
    assert runs[0] == runs[1]
    assert runs[0][0] is ConvergenceError


@pytest.mark.parametrize(
    "call, error",
    [
        # (x/2)^nu overflows under a negative order: the Python kernels'
        # power raises OverflowError, the C kernels' series gives NaN
        (partial(abmodes.bessel_j, -5.5, 1e-300), NumericalFailureError),
        (partial(specfun.bessel_j_and_prime, -0.9, 1e-300), NumericalFailureError),
        (partial(abmodes.finite_part_estimate, 0.9, -0.9, 1.0, 1e-300), NumericalFailureError),
        # the scaled p' is 0, and subnormal
        (partial(abmodes.closed_form_cross, 0.5, 1e300, 5e-324), NumericalFailureError),
        (partial(abmodes.closed_form_cross, 0.5, 1.0, 1e-310), NumericalFailureError),
        # both parts of the denominator underflow to 0
        (partial(abmodes.g_from_alpha, ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0),
                 abmodes.decompose(0.5), 5e-324), DegenerateDenominatorError),
        # finite cells whose sum overflows
        (partial(abmodes.windowed_overlap, 0.0, 0.0, 3e-154, 3e-154, 2.5e155, tol=1.7e308),
         NumericalFailureError),
        # a subnormal momentum under a nonzero order
        (partial(abmodes.windowed_overlap, 0.3, -0.3, 1e-315, 1.0, 1.0), NumericalFailureError),
    ],
    ids=["bessel_j", "bessel_j_and_prime", "finite_part", "cross-zero-pprime",
         "cross-subnormal-pprime", "g_from_alpha", "windowed-sum", "windowed-subnormal-p"],
)
def test_overflow_refused_alike(kernels_c, monkeypatch, call, error):
    # the same library error, with the same message, on both kernel sets
    failures = outcomes(kernels_c, monkeypatch, call)
    assert failures[0] == failures[1]
    assert failures[0][0] is error
