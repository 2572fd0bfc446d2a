import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import abmodes
import abmodes.cli  # defines the CLI's own parse error, a library error

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def mp_origin_integral(nu, mu, p, pp, c, bessel=None, dps=40):
    """int_0^c bessel(nu, p r) bessel(mu, pp r) r dr by mpmath, J by default.

    The substitution r = c t^m, m = 1/(nu + mu + 2), turns the integrand's
    r^(nu+mu+1) at the origin into t^0, which tanh-sinh quadrature then
    resolves; without it mpmath's quad at 30 digits misses the cell
    [0, pi/2] at nu = mu = -0.9, p' = 2p, by 1.6e-8.
    """
    import mpmath

    bessel = bessel or mpmath.besselj
    with mpmath.workdps(dps):
        m = 1 / (mpmath.mpf(nu) + mu + 2)

        def f(t):
            r = c * t**m
            return m * c * c * t ** (2 * m - 1) * bessel(nu, p * r) * bessel(mu, pp * r)

        return mpmath.quad(f, [0, 1])


def mp_lommel_cross(nu, p, pp, L):
    """int_0^L J_nu(p r) J_{-nu}(pp r) r dr by Lommel's closed form at 40 digits:
    (B(L) - B(0+))/(p^2 - p'^2), with B(0+) = -2 sin(pi nu) (p/p')^nu/pi."""
    import mpmath

    with mpmath.workdps(40):
        nu, p, pp, L = map(mpmath.mpf, (nu, p, pp, L))
        j = mpmath.besselj

        def dj(n, x):
            return (j(n - 1, x) - j(n + 1, x)) / 2

        bracket = L * (pp * j(nu, p * L) * dj(-nu, pp * L) - p * dj(nu, p * L) * j(-nu, pp * L))
        origin = 2 * mpmath.sin(mpmath.pi * nu) * (p / pp) ** nu / mpmath.pi
        return float((bracket + origin) / (p * p - pp * pp))


def e_plus_sm(kin):
    """E + s M of DiracKinematics kin, for s = -1 as (p_perp^2 + p3^2)/(E + M),
    which does not cancel at small momenta."""
    if kin.s == 1:
        return kin.E + kin.M
    return (kin.p_perp**2 + kin.p3**2) / (kin.E + kin.M)


# arguments below the normal range of doubles: a zero order takes them, since
# (x/2)^0 = 1 is exact, and a nonzero order is refused (exit 3)
SUBNORMAL_ARGV = [
    (["windowed", "--nu", "0", "--mu", "0", "--p", "5e-324", "--pprime", "1",
      "--window", "1"], 0),
    (["windowed", "--nu", "0.3", "--mu", "-0.3", "--p", "1e-315", "--pprime", "1",
      "--window", "1"], 3),
    (["bessel", "--nu", "0", "--x", "1.5e-323", "--prime"], 3),
    # p c/2 underflows to 0 under the order 0.3
    (["overlap", "--delta", "0.3", "--p", "5e-324", "--pprime", "1", "--verify"], 3),
]


# the float strategy of the CLI and library contract properties
EXTREME = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
]
# one draw in five extreme, one anywhere in [-10, 10], the rest in the
# positive range where most commands succeed
FLOATS = st.one_of(
    st.sampled_from(EXTREME),
    st.floats(-10.0, 10.0),
    st.floats(0.05, 5.0),
    st.floats(0.05, 5.0),
    st.sampled_from([0.3, 0.5, 0.7, 1.0, 2.0]),
)


def _subclass_names(cls):
    return {cls.__name__}.union(*map(_subclass_names, cls.__subclasses__()))


# the class names an error line of the CLI may carry
LIBRARY_ERRORS = _subclass_names(abmodes.AbmodesError)


def run_cli(args):
    """Run the CLI in a subprocess; returns (exit_code, stdout_bytes, stderr_bytes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "abmodes.cli", *args],
        capture_output=True,
        env=env,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def fixtures_dir():
    FIXTURES.mkdir(exist_ok=True)
    return FIXTURES


# pass/fail lines collected by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
