"""Seeded workloads: item generators, runners and independent checks.

A workload is an endless sequence of *cycles*.  A cycle holds one item of
every slot the workload mixes (kinds, channels, momentum ratios), in a seeded
order, with fresh seeded parameters each time, so a run is always a whole
number of cycles and the mix it measures does not depend on where the clock
stopped.  `cycles(name, seed)` yields the same items for the same seed.

Every item is checked after the timed loop against a reference that does not
share the code path under test:

* quadrature items against the closed forms, at the acceptance bounds;
* CLI items (in-process and cold) against the direct library call with the
  same arguments, and exit code 0;
* solve-g items additionally recover the g from which the target was built.

`error` is |numeric - reference| / max(1, |reference|); it feeds the
accuracy figure of a run.
"""

import contextlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
from typing import Callable, NamedTuple, Optional

import abmodes
from abmodes import cli, overlap
from abmodes.flux import decompose
from abmodes.fluxshell import (
    FluxShellProblem,
    g_asymptotic,
    g_from_alpha,
    limit_ratio,
    matching_ratio,
    resonance_defect,
    solve_g,
)
from abmodes.modes import DiracKinematics, make_schrodinger_mode
from abmodes.overlap import (
    closed_form_cross,
    closed_form_same,
    fit_cancelling_exponent,
    mode_overlap_finite_part,
)
from abmodes.sae import Channel, ExtensionParameter, dirac_ratio, schrodinger_ratio
from abmodes.specfun import bessel_j, bessel_j_prime

# acceptance bounds (criteria 02 and 03); windowed against Lommel's closed form
FINITE_PART_BOUND = 1e-3
DELTA_COEFF_BOUND = 1e-2
MODE_CANCEL_BOUND = 1e-3
WINDOWED_BOUND = 1e-8
SOLVE_G_BOUND = 1e-8
EXPONENT_BOUND = 1e-2

# near_diagonal design: (p'/p, critical order nu) per slot of a cycle; the
# seed jitters p'/p - 1 by +-2 % and nu by +-0.03 and draws the channel, the
# orientation and p.  Cost grows like 1/(p'/p - 1) and also depends on nu
# (nu = 1/2 is a cheap special case and is avoided).  The slots are spaced so
# that their costs stay apart (about 0.2, 0.35, 0.55 and 0.9 s here), and the
# middle one comes three times, so that the median item is always one of
# three samples per cycle of the same design point.  The last slot,
# p'/p = 1.02, lies inside the documented domain (MIN_RELATIVE_SEPARATION =
# 1e-3) but below the cliff where the windowed finite part stops converging:
# at this commit it still runs after 12 s, so the 3 s deadline fails it.
NEAR_DESIGN = ((1.3, 0.2), (1.15, 0.75)) + ((1.08, 0.25),) * 3 + ((1.05, 0.8),)
BELOW_CLIFF = (1.02, 0.3)
BELOW_CLIFF_SHARE = 1.0 / (len(NEAR_DESIGN) + 1)


# --- quadrature workloads -------------------------------------------------


def _order(delta, channel):
    """Critical order: delta in channel N, 1 - delta in channel N+1."""
    return delta if channel == 0 else 1.0 - delta


def _critical(rng, nu):
    """(delta, channel) whose critical order is nu, in a seeded channel."""
    channel = rng.choice((0, 1))
    return _order(nu, channel), channel


def _momenta(rng, lo_ratio, hi_ratio):
    # the absolute quadrature tolerance makes cost depend on the momentum
    # scale too (smaller p, more bisection); a narrow range keeps cycles even
    p = rng.uniform(1.0, 1.2)
    pp = p * rng.uniform(lo_ratio, hi_ratio)
    return (p, pp) if rng.random() < 0.5 else (pp, p)


def _latin(n, label):
    """A fixed permutation of range(n): one stratum per slot, the same for every seed."""
    return random.Random(label).sample(range(n), n)


# verify_separated design: 16 slots, four per kind; the critical order nu in
# (0.1, 0.9) and the momentum ratio in (1.4, 2.2) are cut into 16 strata and
# dealt to the slots by fixed permutations.  The seed jitters inside each
# stratum and draws the channel (N or N+1), n, orientation, p, alpha and the
# window, so every cycle costs about the same while the inputs change.
SEPARATED_SLOTS = [
    kind
    for kind in ("finite_part", "fit_delta", "mode_overlap", "windowed")
    for _ in range(4)
]
SEPARATED_DESIGN = list(zip(SEPARATED_SLOTS, _latin(16, "nu"), _latin(16, "ratio")))


def _stratum(rng, lo, hi, k, n):
    width = (hi - lo) / n
    return lo + width * (k + rng.uniform(0.25, 0.75))


def separated_cycle(rng):
    items = []
    for kind, k_nu, k_ratio in SEPARATED_DESIGN:
        ratio = _stratum(rng, 1.4, 2.2, k_ratio, 16)
        p, pp = _momenta(rng, ratio, ratio)
        delta, channel = _critical(rng, _stratum(rng, 0.1, 0.9, k_nu, 16))
        items.append(
            {
                "kind": kind,
                "delta": delta,
                "n": rng.choice((-1, 0, 1)),
                "channel": channel,
                "p": p,
                "pp": pp,
                "alpha": rng.uniform(0.2, 3.0),
                "L": rng.uniform(70.0, 90.0),
            }
        )
    rng.shuffle(items)
    return items


def near_cycle(rng):
    items = []
    for ratio, nu in NEAR_DESIGN + (BELOW_CLIFF,):
        r = 1.0 + (ratio - 1.0) * rng.uniform(0.98, 1.02)
        p, pp = _momenta(rng, r, r)
        delta, channel = _critical(rng, nu + rng.uniform(-0.03, 0.03))
        items.append(
            {
                "kind": "finite_part",
                "delta": delta,
                "channel": channel,
                "p": p,
                "pp": pp,
                "below_cliff": (ratio, nu) == BELOW_CLIFF,
            }
        )
    rng.shuffle(items)
    return items


def _modes(item):
    flux = decompose(item["n"] + item["delta"])
    l = flux.n + item["channel"]
    nu = abs(l - flux.phi)

    def mode(p):
        return make_schrodinger_mode(l, flux, p, 1.0, item["alpha"] * p ** (2.0 * nu))

    return nu, mode(item["p"]), mode(item["pp"])


def run_quadrature(item):
    nu = _order(item["delta"], item["channel"])
    p, pp = item["p"], item["pp"]
    kind = item["kind"]
    if kind == "finite_part":
        return overlap.finite_part_estimate(nu, -nu, p, pp)[0]
    if kind == "fit_delta":
        return overlap.fit_delta_coefficient(nu, -nu, p, pp)
    if kind == "windowed":
        return overlap.windowed_overlap(nu, -nu, p, pp, item["L"])
    _, m1, m2 = _modes(item)
    return overlap.mode_overlap_finite_part_numeric(m1, m2)[0]


def lommel_cross(nu, a, b, L):
    """int_0^L J_nu(a r) J_{-nu}(b r) r dr in closed form (Lommel, nu^2 = mu^2).

    The origin term is the limit of the bracket at r -> 0; as L grows its
    share tends to the finite part of closed_form_cross.
    """
    bulk = L * (
        b * bessel_j(nu, a * L) * bessel_j_prime(-nu, b * L)
        - a * bessel_j_prime(nu, a * L) * bessel_j(-nu, b * L)
    )
    origin = 2.0 * math.sin(math.pi * nu) * (a / b) ** nu / math.pi
    return (bulk + origin) / (a * a - b * b)


def check_quadrature(item, value):
    """(passed, error) of one quadrature item against its closed form."""
    nu = _order(item["delta"], item["channel"])
    p, pp = item["p"], item["pp"]
    kind = item["kind"]
    if kind == "mode_overlap":
        nu, m1, m2 = _modes(item)
        reference = mode_overlap_finite_part(m1, m2)
        scale = max(
            abs(m2.b * closed_form_cross(nu, p, pp).finite_part),
            abs(m1.b * closed_form_cross(nu, pp, p).finite_part),
        )
        return abs(value - reference) <= MODE_CANCEL_BOUND * scale, _rel(value, reference)
    if kind == "finite_part":
        reference, bound = closed_form_cross(nu, p, pp).finite_part, FINITE_PART_BOUND
    elif kind == "fit_delta":
        reference, bound = math.cos(math.pi * nu), DELTA_COEFF_BOUND
    else:
        reference, bound = lommel_cross(nu, p, pp, item["L"]), WINDOWED_BOUND
    error = _rel(value, reference)
    return error <= bound, error


def _rel(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


# --- CLI workloads ----------------------------------------------------------


def _f(x):
    return repr(float(x))


def _channel(tag):
    return Channel.SCHRODINGER_N if tag == "n" else Channel.SCHRODINGER_N_PLUS_1


def _critical_l(flux, tag):
    return flux.n if tag == "n" else flux.n + 1


def _solve_g_case(rng):
    """A solve-g problem whose bracket holds the root and not the pole.

    The target is matching_ratio at a known g.  The ratio is Moebius in g;
    the generator places the bracket so that the pole (where the
    denominator's linear g-dependence cancels) stays outside it.
    """
    l = rng.choice((-1, 0, 1, 2))
    phi = rng.choice((0, 1)) + rng.uniform(0.1, 0.9)
    p = rng.uniform(0.5, 3.0)
    rho0 = rng.uniform(0.05, 1.0)
    g = rng.uniform(-3.0, 3.0)
    flux = decompose(phi)
    x = p * rho0
    nu = abs(l - phi)
    order_l = float(abs(l))
    jl = bessel_j(order_l, x)
    j_neg = bessel_j(-nu, x)
    pole = -(bessel_j_prime(-nu, x) * jl - j_neg * bessel_j_prime(order_l, x)) / (
        (phi / x) * j_neg * jl
    )
    lo = g - rng.uniform(0.5, 3.0)
    hi = g + rng.uniform(0.5, 3.0)
    if lo <= pole <= hi:
        if pole > g:
            hi = g + 0.5 * (pole - g)
        else:
            lo = g - 0.5 * (g - pole)
    target = matching_ratio(FluxShellProblem(rho0=rho0, g=g, l=l, flux=flux, p=p))
    return {"l": l, "phi": phi, "p": p, "rho0": rho0, "target": target,
            "glo": lo, "ghi": hi}, g


def _delta_enn(rng):
    return rng.uniform(0.1, 0.9), rng.choice((-1, 0, 1))


def _single(rng, kind):
    """(argv, inputs the CLI echoes, true value for an accuracy check)."""
    truth, extra = None, {}
    if kind == "decompose":
        inputs = {"phi": rng.randint(-3, 3) + rng.uniform(0.05, 0.95)}
    elif kind == "bessel":
        x = rng.uniform(0.05, 11.5) if rng.random() < 0.75 else rng.uniform(12.5, 40.0)
        inputs, extra = {"nu": rng.uniform(-4.5, 4.5), "x": x}, {"prime": True}
    elif kind == "overlap":
        p, pp = _momenta(rng, 1.1, 3.0)
        inputs = {"delta": rng.uniform(0.1, 0.9), "p": p, "pprime": pp,
                  "kind": "same" if rng.random() < 0.25 else "cross"}
        extra = {"verify": False}
    elif kind == "exponent-fit":
        delta, enn = _delta_enn(rng)
        tag = rng.choice(("n", "n1"))
        momenta = sorted(rng.uniform(0.3, 5.0) for _ in range(rng.randint(3, 6)))
        truth = 2.0 * delta if tag == "n" else 2.0 * (1.0 - delta)
        inputs = {"delta": delta, "enn": enn, "channel": tag, "momenta": momenta}
    elif kind == "sae-ratio":
        delta, enn = _delta_enn(rng)
        inputs = {"eq": "schrodinger", "channel": rng.choice(("n", "n1")),
                  "alpha": rng.uniform(-2.0, 3.0), "delta": delta, "enn": enn,
                  "p": rng.uniform(0.2, 4.0)}
    elif kind == "sae-ratio-dirac":
        delta, enn = _delta_enn(rng)
        inputs = {"eq": "dirac", "alpha": rng.uniform(-2.0, 3.0), "delta": delta, "enn": enn,
                  "pperp": rng.uniform(0.2, 3.0), "p3": rng.uniform(-2.0, 2.0),
                  "s": rng.choice((1, -1))}
    elif kind == "fluxshell":
        inputs = {"l": rng.choice((-1, 0, 1, 2)), "phi": rng.choice((0, 1)) + rng.uniform(0.1, 0.9),
                  "g": rng.uniform(-2.0, 2.0), "p": rng.uniform(0.5, 3.0),
                  "rho0": rng.uniform(0.01, 0.5)}
    elif kind == "gfactor":
        delta, enn = _delta_enn(rng)
        inputs = {"channel": rng.choice(("n", "n1")), "alpha": rng.uniform(0.2, 3.0),
                  "enn": enn, "delta": delta, "rho0": rng.uniform(0.001, 0.1)}
    else:
        inputs, truth = _solve_g_case(rng)
    argv = [kind.split("-dirac")[0]] + _flags(inputs) + [f"--{k}" for k, v in extra.items() if v]
    return argv, dict(inputs, **extra), truth


def _text(value):
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return ",".join(_f(v) for v in value)
    return _f(value)


def _flags(inputs):
    """argv flags; a value that starts with '-' is attached with '=' so that
    argparse cannot take it for an option (as it would '-6.7e-05')."""
    argv = []
    for key, value in inputs.items():
        text = _text(value)
        argv += [f"--{key}={text}"] if text.startswith("-") else [f"--{key}", text]
    return argv


def _scan(rng, two_grids):
    if two_grids:
        # fluxshell over (g, log rho0): 4..8 x 5..10 rows
        # g >= 0: scan passes grid values on as "--g <repr>", and argparse takes
        # a small negative value such as -3.8e-05 for an option (exit 2)
        fixed = {"l": rng.choice((0, 1)), "phi": rng.uniform(0.1, 0.9), "p": rng.uniform(0.5, 2.0)}
        g0 = rng.uniform(0.0, 1.0)
        grids = [f"g={_f(g0)}:{_f(g0 + 1.5)}:{rng.randint(4, 8)}",
                 f"rho0=log:0.01:{_f(rng.uniform(0.2, 0.5))}:{rng.randint(5, 10)}"]
        sub = "fluxshell"
    else:
        delta, enn = _delta_enn(rng)
        fixed = {"channel": rng.choice(("n", "n1")), "enn": enn, "delta": delta,
                 "rho0": rng.uniform(0.001, 0.1)}
        a0 = rng.uniform(0.2, 1.0)
        grids = [f"alpha={_f(a0)}:{_f(a0 + 2.0)}:{rng.randint(10, 100)}"]
        sub = "gfactor"
    argv = ["scan", sub]
    for grid in grids:
        argv += ["--grid", grid]
    rows = 1
    for grid in grids:
        rows *= int(grid.rsplit(":", 1)[1])
    return argv + _flags(fixed), {"sub": sub, "rows": rows}, None


SINGLE_KINDS = ("decompose", "bessel", "overlap", "exponent-fit", "sae-ratio",
                "sae-ratio-dirac", "fluxshell", "gfactor", "solve-g")


def _cli_item(kind, case):
    argv, inputs, truth = case
    return {"kind": kind, "argv": argv, "inputs": inputs, "truth": truth}


def dictionary_cycle(rng):
    items = [_cli_item(kind, _single(rng, kind)) for kind in SINGLE_KINDS]
    items.append(_cli_item("scan", _scan(rng, two_grids=False)))
    items.append(_cli_item("scan2", _scan(rng, two_grids=True)))
    rng.shuffle(items)
    return items


def cold_cycle(rng):
    items = [_cli_item(kind, _single(rng, kind)) for kind in SINGLE_KINDS]
    rng.shuffle(items)
    return items


def run_in_process(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(item["argv"])
    return code, out.getvalue(), err.getvalue()


def cold_command(argv):
    return [sys.executable, "-m", "abmodes.cli"] + list(argv)


def run_cold(item, env, command=cold_command):
    proc = subprocess.run(command(item["argv"]), env=env, capture_output=True,
                          text=True, timeout=COLD_DEADLINE_S)
    return proc.returncode, proc.stdout, proc.stderr


def expected_outputs(sub, a):
    """Outputs of subcommand `sub` by direct library calls on its echoed inputs."""
    if sub == "decompose":
        f = decompose(a["phi"])
        return {"n": f.n, "delta": f.delta}
    if sub == "bessel":
        return {"j": bessel_j(a["nu"], a["x"]), "jprime": bessel_j_prime(a["nu"], a["x"])}
    if sub == "overlap":
        form = closed_form_same if a["kind"] == "same" else closed_form_cross
        res = form(a["delta"], a["p"], a["pprime"])
        return {"delta_coeff": res.delta_coeff, "finite_closed": res.finite_part}
    if sub == "exponent-fit":
        flux = decompose(a["enn"] + a["delta"])
        slope = fit_cancelling_exponent(flux, _critical_l(flux, a["channel"]), a["momenta"])
        expected = 2.0 * flux.delta if a["channel"] == "n" else 2.0 * (1.0 - flux.delta)
        return {"slope": slope, "expected": expected}
    if sub == "sae-ratio":
        flux = decompose(a["enn"] + a["delta"])
        if a["eq"] == "schrodinger":
            ep = ExtensionParameter.finite(_channel(a["channel"]), a["alpha"])
            return {"ratio": schrodinger_ratio(ep, flux, a["p"], 1.0)}
        kin = DiracKinematics.from_momenta(1.0, a["pperp"], a["p3"], a["s"])
        ep = ExtensionParameter.finite(Channel.DIRAC_N, a["alpha"])
        return {"ratio": dirac_ratio(ep, flux, kin)}
    if sub == "fluxshell":
        prob = FluxShellProblem(rho0=a["rho0"], g=a["g"], l=a["l"], flux=decompose(a["phi"]),
                                p=a["p"])
        return {"matching_ratio": matching_ratio(prob), "limit_ratio": limit_ratio(prob),
                "resonance_defect": resonance_defect(a["l"], prob.flux, a["g"])}
    if sub == "gfactor":
        flux = decompose(a["enn"] + a["delta"])
        ep = ExtensionParameter.finite(_channel(a["channel"]), a["alpha"])
        g = g_from_alpha(ep, flux, a["rho0"], 1.0)
        out = {"g": g, "resonance_defect": resonance_defect(_critical_l(flux, a["channel"]),
                                                            flux, g)}
        if a["alpha"] != 0.0:
            out["g_asymptotic"] = g_asymptotic(ep, flux, a["rho0"], 1.0)
        return out
    if sub == "solve-g":
        prob = FluxShellProblem(rho0=a["rho0"], g=0.0, l=a["l"], flux=decompose(a["phi"]),
                                p=a["p"])
        return {"g": solve_g(prob, a["target"], a["glo"], a["ghi"])}
    raise ValueError(sub)


def check_cli(item, result):
    """(passed, error) of one CLI item: exit 0, outputs equal to direct calls."""
    code, stdout, _ = result
    if code != 0:
        return False, None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, None
    if item["kind"] in ("scan", "scan2"):
        rows = doc.get("rows", [])
        if len(rows) != item["inputs"]["rows"]:
            return False, None
        sub = item["inputs"]["sub"]
        for row in rows:
            expected = expected_outputs(sub, row)
            if {k: row.get(k) for k in expected} != expected:
                return False, None
        return True, 0.0
    inputs = item["inputs"]
    sub = item["argv"][0]
    if doc.get("inputs") != inputs or doc.get("outputs") != expected_outputs(sub, inputs):
        return False, None
    truth = item["truth"]
    if truth is None:
        return True, 0.0
    value = doc["outputs"]["g" if sub == "solve-g" else "slope"]
    error = _rel(value, truth)
    return error <= (SOLVE_G_BOUND if sub == "solve-g" else EXPONENT_BOUND), error


# --- registry ---------------------------------------------------------------

COLD_DEADLINE_S = 10.0


class Workload(NamedTuple):
    """How a workload makes, runs and checks its items.

    deadline_s: per-item deadline (SIGALRM for in-process items, a subprocess
    timeout for cold ones).  min_cycles: every run makes at least these; their
    worst error is the run's accuracy figure, so that it depends on the seed
    only, and their item count fixes the tail percentile, so that it does not
    move with machine speed.  trace_cycles: the fixed amount of work of a
    traced run, so that its counts repeat exactly.
    """

    name: str
    cycle: Callable
    run: Callable
    check: Callable
    deadline_s: Optional[float]
    min_cycles: int
    trace_cycles: int


WORKLOADS = {
    w.name: w
    for w in (
        # min_cycles give >= 10 items beyond p90, p50, p99 and p90 respectively
        Workload("verify_separated", separated_cycle, run_quadrature, check_quadrature,
                 5.0, 7, 5),
        Workload("near_diagonal", near_cycle, run_quadrature, check_quadrature, 3.0, 3, 2),
        Workload("dictionary", dictionary_cycle, run_in_process, check_cli, 1.0, 91, 60),
        Workload("cli_cold", cold_cycle, run_cold, check_cli, None, 12, 6),
    )
}


def cycles(name, seed):
    """Endless, seed-determined sequence of cycles of workload `name`."""
    rng = random.Random(f"{name}:{seed}")
    make = WORKLOADS[name].cycle
    while True:
        yield make(rng)


def warmup_items(name):
    """Untimed items run during set-up: one cheap item, or one CLI cycle."""
    rng = random.Random(f"warmup:{name}")
    if name in ("verify_separated", "near_diagonal"):
        return [i for i in separated_cycle(rng) if i["kind"] == "finite_part"][:1]
    if name == "dictionary":
        return dictionary_cycle(rng)
    return [_cli_item("decompose", _single(rng, "decompose"))]


def kernel_file():
    """File of the kernel module the default backend resolved to."""
    module = "abmodes._kernels_c" if abmodes.BACKEND == "c" else "abmodes._kernels_py"
    return importlib.import_module(module).__file__
