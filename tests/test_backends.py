"""The compiled kernels return the same doubles as the pure-Python kernels.

The extension is built by `setup.py` from the hand-written `_kernels_c.c`
into a temporary directory and loaded from there, so no built module is left
in `src/`.  The build adds `-Wall -Wextra -Werror` to CFLAGS, so a warning in
the C fails these tests.  They skip only when the configured C compiler is not
on PATH; any other build failure fails them with the compiler's output.
"""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from conftest import REPO

from abmodes import _kernels_py, _quad, cli, specfun


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


def use_kernels(monkeypatch, kernels):
    """Point every caller of the selected kernels at `kernels`."""
    monkeypatch.setattr(specfun, "gamma_kernel", kernels.gamma)
    monkeypatch.setattr(specfun, "bessel_kernel", kernels.bessel_j)
    monkeypatch.setattr(_quad, "bessel_kernel", kernels.bessel_j)
    monkeypatch.setattr(_quad, "product_panel_kernel", kernels.kronrod21_product_panel)


def test_gamma_agreement(kernels_c, monkeypatch):
    rng = random.Random(1)
    xs = [x / 7.0 for x in range(-34, 70) if x % 7]
    xs += [rng.uniform(-30.0, 140.0) for _ in range(3000)]
    for x in xs:
        assert kernels_c.gamma(x) == _kernels_py.gamma(x), x
    # beyond |x| = 140 specfun recurs into the kernels' range
    for x in (142.3, 142.5, 165.0, 171.6, -141.3, -150.3):
        use_kernels(monkeypatch, kernels_c)
        compiled = specfun.gamma(x)
        use_kernels(monkeypatch, _kernels_py)
        assert compiled == specfun.gamma(x), x


def test_bessel_agreement(kernels_c):
    rng = random.Random(2)
    orders = [k / 4.0 for k in range(-24, 25)] + [rng.uniform(-6.0, 6.0) for _ in range(40)]
    xs = [0.0] + [1e-3 * (2e5) ** (i / 199) for i in range(200)]
    for nu in orders:
        for x in xs:
            if x == 0.0 and nu < 0.0:
                continue
            assert kernels_c.bessel_j(nu, x) == _kernels_py.bessel_j(nu, x), (nu, x)


def test_panel_agreement(kernels_c):
    rng = random.Random(3)
    for _ in range(500):
        nu, mu = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        p, pp = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        lo = rng.uniform(0.01, 50.0)
        args = (nu, mu, p, pp, lo, lo + rng.uniform(0.01, 5.0))
        assert kernels_c.kronrod21_product_panel(*args) == _kernels_py.kronrod21_product_panel(*args)
        assert kernels_c.gauss15_product_panel(*args) == _kernels_py.gauss15_product_panel(*args)


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
        # singular integrand at r = 0: product_quad bisects the first cells
        ["windowed", "--nu", "-0.6", "--mu", "-0.6", "--p", "1", "--pprime", "1.7",
         "--window", "10"],
    ],
)
def test_backends_byte_stable_results(kernels_c, monkeypatch, capsys, argv):
    # the same exit code and the same bytes on stdout and stderr
    use_kernels(monkeypatch, kernels_c)
    compiled = cli.run(argv), capsys.readouterr()
    use_kernels(monkeypatch, _kernels_py)
    assert compiled == (cli.run(argv), capsys.readouterr())

