"""Command-line front end: every computation as a subcommand.

Single results are emitted as one-line JSON documents
{"version", "command", "inputs", "outputs", "diagnostics"}; `scan` sweeps
one or two parameters of any subcommand and emits CSV (or a JSON array).
All physical inputs are dimensionless: momenta in units of M, radii in
units of 1/M.  Exit codes: 0 success, 2 invalid input, 3 numerical failure;
failures print a one-line JSON error object to stderr.

`inputs` echoes the subcommand's own flags in the order they are declared,
omitting any left at None; the output and tuning flags shared by every
subcommand (--out, --format, --tol-quad, --panel-budget) are not echoed.
The one exception is `sae-ratio`, which echoes only the flags of the chosen
--eq.  This rule is what lets each `scan` row, which holds the echo, re-run
as one invocation with the same shared flags.

Floats are serialized with Python's shortest round-trip representation, so
every printed number parses back to the exact double that was computed.
Standard output is a function of the arguments alone: the compiled and the
pure-Python kernels return the same doubles, so which of them ran is not part
of a document (`--version` names it).
"""

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from ._backend import BACKEND
from .errors import AbmodesError, InvalidInputError, NumericalFailureError
from .flux import decompose
from .fluxshell import (
    FluxShellProblem,
    g_asymptotic,
    g_from_alpha,
    limit_ratio,
    matching_ratio,
    resonance_defect,
    solve_g,
)
from .modes import DiracKinematics, make_schrodinger_mode
from .overlap import (
    DEFAULT_PANEL_BUDGET,
    DEFAULT_TOL,
    closed_form_cross,
    closed_form_same,
    finite_part_estimate,
    fit_cancelling_exponent,
    mode_overlap_finite_part,
    mode_overlap_finite_part_numeric,
    windowed_overlap,
)
from .sae import Channel, ExtensionParameter, dirac_ratio, schrodinger_ratio
from .specfun import bessel_j, bessel_j_prime

__all__ = ["main", "run"]

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_NUMERICAL = 3


class _CliParseError(InvalidInputError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors serialize uniformly.

    Abbreviated flags are disabled: scan forwards unrecognized flags to the
    swept subcommand, and prefix matching would capture them.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _CliParseError(message)


def _check_config(args):
    if not args.tol_quad > 0.0:
        raise _CliParseError("--tol-quad must be positive")
    if args.panel_budget < 1000:
        raise _CliParseError("panel budget must be >= 1000")


def _channel(tag: str) -> Channel:
    try:
        return {"n": Channel.SCHRODINGER_N, "n1": Channel.SCHRODINGER_N_PLUS_1}[tag]
    except KeyError:
        raise _CliParseError(f"channel must be 'n' or 'n1', got {tag!r}")


def _flux_from(delta: float, enn: int):
    return decompose(enn + delta)


def _momenta_list(text: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad momenta list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty momenta list")
    return vals


# --- compute functions: Namespace -> (outputs, diagnostics) ---


def _cmd_decompose(args):
    f = decompose(args.phi)
    return {"n": f.n, "delta": f.delta}, {}


def _cmd_bessel(args):
    out = {"j": bessel_j(args.nu, args.x)}
    if args.prime:
        out["jprime"] = bessel_j_prime(args.nu, args.x)
    return out, {}


def _cmd_overlap(args):
    if args.kind == "same":
        res = closed_form_same(args.delta, args.p, args.pprime)
    else:
        res = closed_form_cross(args.delta, args.p, args.pprime)
    outputs = {"delta_coeff": res.delta_coeff, "finite_closed": res.finite_part}
    diags = {}
    if args.verify:
        orders = (args.delta, args.delta) if args.kind == "same" else (args.delta, -args.delta)
        value, est = finite_part_estimate(
            orders[0],
            orders[1],
            args.p,
            args.pprime,
            tol=args.tol_quad,
            panel_budget=args.panel_budget,
        )
        outputs["finite_numeric"] = value
        outputs["abs_err"] = abs(value - res.finite_part)
        diags["est_error"] = est
    return outputs, diags


def _cmd_cancel(args):
    flux = _flux_from(args.delta, args.enn)
    channel = _channel(args.channel)
    l = flux.n if channel is Channel.SCHRODINGER_N else flux.n + 1
    coefficients = (args.b_p, args.b_pprime)
    if args.alpha is not None and coefficients == (None, None):
        ep = ExtensionParameter.finite(channel, args.alpha)
        b_p = schrodinger_ratio(ep, flux, args.p, 1.0)
        b_pp = schrodinger_ratio(ep, flux, args.pprime, 1.0)
    elif args.alpha is None and None not in coefficients:
        b_p, b_pp = coefficients
    else:
        raise _CliParseError("give either --alpha or both --b-p and --b-pprime")
    mode_a = make_schrodinger_mode(l, flux, args.p, 1.0, b_p)
    mode_b = make_schrodinger_mode(l, flux, args.pprime, 1.0, b_pp)
    finite = mode_overlap_finite_part(mode_a, mode_b)
    nu = mode_a.order
    scale = max(
        abs(b_pp * closed_form_cross(nu, args.p, args.pprime).finite_part),
        abs(b_p * closed_form_cross(nu, args.pprime, args.p).finite_part),
    )
    outputs = {"finite_part": finite, "cross_term_scale": scale}
    diags = {}
    if args.verify:
        value, est = mode_overlap_finite_part_numeric(
            mode_a,
            mode_b,
            tol=args.tol_quad,
            panel_budget=args.panel_budget,
        )
        outputs["finite_numeric"] = value
        diags["est_error"] = est
    return outputs, diags


def _cmd_exponent_fit(args):
    flux = _flux_from(args.delta, args.enn)
    channel = _channel(args.channel)
    l = flux.n if channel is Channel.SCHRODINGER_N else flux.n + 1
    slope = fit_cancelling_exponent(flux, l, args.momenta)
    expected = 2.0 * flux.delta if channel is Channel.SCHRODINGER_N else 2.0 * (1.0 - flux.delta)
    return {"slope": slope, "expected": expected}, {}


def _cmd_sae_ratio(args):
    flux = _flux_from(args.delta, args.enn)
    if args.eq == "schrodinger":
        ep = ExtensionParameter.finite(_channel(args.channel), args.alpha)
        ratio = schrodinger_ratio(ep, flux, args.p, 1.0)
    else:
        kin = DiracKinematics.from_momenta(1.0, args.pperp, args.p3, args.s)
        ep = ExtensionParameter.finite(Channel.DIRAC_N, args.alpha)
        ratio = dirac_ratio(ep, flux, kin)
    return {"ratio": ratio}, {}


def _cmd_fluxshell(args):
    prob = FluxShellProblem(
        rho0=args.rho0, g=args.g, l=args.l, flux=decompose(args.phi), p=args.p
    )
    outputs = {
        "matching_ratio": matching_ratio(prob),
        "limit_ratio": limit_ratio(prob),
        "resonance_defect": resonance_defect(args.l, prob.flux, args.g),
    }
    return outputs, {"x": prob.x}


def _cmd_gfactor(args):
    flux = _flux_from(args.delta, args.enn)
    channel = _channel(args.channel)
    ep = ExtensionParameter.finite(channel, args.alpha)
    g = g_from_alpha(ep, flux, args.rho0, 1.0)
    l = flux.n if channel is Channel.SCHRODINGER_N else flux.n + 1
    outputs = {"g": g, "resonance_defect": resonance_defect(l, flux, g)}
    if args.alpha != 0.0:
        outputs["g_asymptotic"] = g_asymptotic(ep, flux, args.rho0, 1.0)
    return outputs, {}


def _cmd_solve_g(args):
    prob = FluxShellProblem(
        rho0=args.rho0, g=0.0, l=args.l, flux=decompose(args.phi), p=args.p
    )
    g = solve_g(prob, args.target, args.glo, args.ghi)
    return {"g": g}, {"residual": matching_ratio(
        FluxShellProblem(rho0=args.rho0, g=g, l=args.l, flux=prob.flux, p=args.p)
    ) - args.target}


def _cmd_windowed(args):
    value = windowed_overlap(
        args.nu,
        args.mu,
        args.p,
        args.pprime,
        args.window,
        tol=args.tol_quad,
        panel_budget=args.panel_budget,
    )
    return {"value": value}, {}


_COMMON = _Parser(add_help=False)
_COMMON.add_argument("--out", default=None, help="output path (default stdout)")
_COMMON.add_argument("--format", default="json", choices=("json", "csv"))
_COMMON.add_argument("--tol-quad", type=float, default=DEFAULT_TOL)
_COMMON.add_argument("--panel-budget", type=int, default=DEFAULT_PANEL_BUDGET)

# namespace entries that no subcommand echoes as an input
_NOT_ECHOED = {"command", "compute", *vars(_COMMON.parse_args([]))}
# sae-ratio flags that the chosen --eq does not read
_SAE_NOT_ECHOED = {"schrodinger": {"pperp", "p3", "s"}, "dirac": {"channel", "p"}}


def _build_parser():
    parser = _Parser(prog="abmodes", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"abmodes {__version__} ({BACKEND} kernels)"
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def sub(name, fn, **kwargs):
        sp = subs.add_parser(name, parents=[_COMMON], **kwargs)
        sp.set_defaults(compute=fn)
        return sp

    sp = sub("decompose", _cmd_decompose, help="split flux into integer and fractional parts")
    sp.add_argument("--phi", type=float, required=True)

    sp = sub("bessel", _cmd_bessel, help="Bessel J of real order (optionally with derivative)")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--prime", action="store_true")

    sp = sub("overlap", _cmd_overlap, help="closed-form overlap, optionally verified numerically")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--pprime", type=float, required=True)
    sp.add_argument("--kind", choices=("cross", "same"), default="cross")
    sp.add_argument("--verify", action="store_true")

    sp = sub("windowed", _cmd_windowed, help="finite-window overlap integral")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--pprime", type=float, required=True)
    sp.add_argument("--window", type=float, required=True)

    sp = sub("cancel", _cmd_cancel, help="finite part of a critical-channel mode overlap")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--enn", type=int, default=0)
    sp.add_argument("--channel", default="n")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--pprime", type=float, required=True)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--b-p", dest="b_p", type=float, default=None)
    sp.add_argument("--b-pprime", dest="b_pprime", type=float, default=None)

    sp = sub("exponent-fit", _cmd_exponent_fit, help="fit the cancelling momentum exponent")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--enn", type=int, default=0)
    sp.add_argument("--channel", default="n")
    sp.add_argument(
        "--momenta", type=_momenta_list, required=True, help="comma-separated list, units of M"
    )

    sp = sub("sae-ratio", _cmd_sae_ratio, help="extension-parameter coefficient ratio")
    sp.add_argument("--eq", choices=tuple(_SAE_NOT_ECHOED), default="schrodinger")
    sp.add_argument("--channel", default="n")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--enn", type=int, default=0)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--pperp", type=float, default=1.0)
    sp.add_argument("--p3", type=float, default=0.0)
    sp.add_argument("--s", type=int, default=1, choices=(1, -1))

    sp = sub("fluxshell", _cmd_fluxshell, help="shell matching ratio and its small-radius limit")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--rho0", type=float, required=True)

    sp = sub("gfactor", _cmd_gfactor, help="shell g-factor realizing an extension parameter")
    sp.add_argument("--channel", default="n")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--enn", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--rho0", type=float, required=True)

    sp = sub("solve-g", _cmd_solve_g, help="invert the matching ratio in g")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--rho0", type=float, required=True)
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--glo", type=float, default=-10.0)
    sp.add_argument("--ghi", type=float, default=10.0)

    # no _COMMON parent: the output and tuning flags are left over from this
    # parse and pass through to the swept subcommand
    sweepable = tuple(subs.choices)
    sp = subs.add_parser(
        "scan",
        help="sweep a subcommand over one or two --grid name=lo:hi:n grids "
        "(fixed flags pass through)",
        description="sweep a subcommand over parameter grids",
    )
    sp.add_argument("sub", choices=sweepable, help="subcommand to sweep")
    sp.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="name=lo:hi:n",
        help="linear grid, or name=log:lo:hi:n for a log grid (once or twice)",
    )

    return parser


_PARSER = _build_parser()


def _inputs(args):
    """The echo of a parsed subcommand; the rule is in the module docstring.

    argparse stores every default, in declaration order, before it reads the
    command line, so the namespace keeps the order of the declarations.
    """
    skip = _NOT_ECHOED | _SAE_NOT_ECHOED.get(getattr(args, "eq", None), set())
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _compute(args):
    """(inputs, outputs, diagnostics) of a parsed subcommand."""
    _check_config(args)
    outputs, diagnostics = args.compute(args)
    return _inputs(args), outputs, diagnostics


def _check_finite(doc, where):
    if isinstance(doc, dict):
        for k, v in doc.items():
            _check_finite(v, f"{where}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _check_finite(v, f"{where}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        raise NumericalFailureError(f"non-finite value in {where}")


def _emit(text: str, out):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(command, inputs, outputs, diagnostics):
    doc = {
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    _check_finite(doc, command)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _parse_grid(spec: str):
    try:
        name, rest = spec.split("=", 1)
        parts = rest.split(":")
        log = parts[0] == "log"
        lo, hi, n = float(parts[log]), float(parts[log + 1]), int(parts[log + 2])
    except (ValueError, IndexError):
        raise _CliParseError(f"bad grid spec {spec!r} (want name=lo:hi:n)")
    if n < 1:
        raise _CliParseError(f"grid needs at least one point: {spec!r}")
    if log and (lo <= 0 or hi <= 0):
        raise _CliParseError(f"log grid bounds must be positive: {spec!r}")
    return name, _grid_points(lo, hi, n, log)


def _grid_points(lo, hi, n, log):
    """n points from lo to hi, evenly spaced (in log if log is true).

    The endpoints are exact, and for finite ends every point is finite and
    inside [lo, hi]: each point is a weighted sum of the ends, because hi - lo
    and hi / lo overflow for ends near the largest double.
    """
    if n == 1:
        return [lo]
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    bottom, top = min(lo, hi), max(lo, hi)
    vals = [lo]
    for i in range(1, n - 1):
        t = i / (n - 1)
        v = (1.0 - t) * a + t * b
        if log:
            v = math.exp(min(v, max(a, b)))
        vals.append(min(max(v, bottom), top))
    vals.append(hi)
    return vals


def _grid_flag(name, value):
    # attached with '=' so that a small negative value is not read as an
    # option; an integral value goes as an int, which an int flag such as
    # --l accepts and a float flag reads back as the same double
    text = repr(int(value)) if value.is_integer() else repr(value)
    return f"--{name}={text}"


def _run_scan(args, fixed):
    grids = [_parse_grid(g) for g in args.grid]
    if len(grids) > 2:
        raise _CliParseError("scan supports one or two grids")
    fixed = [tok for tok in fixed if tok != "--"]
    if len(grids) == 1:
        points = [((grids[0][0], v),) for v in grids[0][1]]
    else:
        points = [
            ((grids[0][0], v0), (grids[1][0], v1))
            for v0 in grids[0][1]
            for v1 in grids[1][1]
        ]
    rows = []
    for point in points:
        sub_args = _PARSER.parse_args(
            [args.sub, *fixed, *(_grid_flag(name, value) for name, value in point)]
        )
        inputs, outputs, _ = _compute(sub_args)
        row = dict(inputs)
        row.update(outputs)
        _check_finite(row, "scan")
        rows.append(row)
    header = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    if sub_args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) if k in row else "" for k in header])
        _emit(buf.getvalue(), sub_args.out)
    else:
        doc = {"version": __version__, "command": f"scan {args.sub}", "rows": rows}
        _emit(json.dumps(doc, separators=(",", ":")) + "\n", sub_args.out)
    return _EXIT_OK


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ",".join(repr(x) for x in v)
    return v


def run(argv) -> int:
    """Entry point used by tests: parse argv, execute, return the exit code."""
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if args.command == "scan":
            return _run_scan(args, extra)
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.format == "csv":
            raise _CliParseError("csv output is available for scan only")
        inputs, outputs, diags = _compute(args)
        _emit(_json_doc(args.command, inputs, outputs, diags), args.out)
        return _EXIT_OK
    except (NumericalFailureError, ArithmeticError) as exc:
        # ArithmeticError: a float overflow or division by zero in a
        # computation, a numerical failure like the library's own
        _error_line(exc)
        return _EXIT_NUMERICAL
    except AbmodesError as exc:
        _error_line(exc)
        return _EXIT_INVALID
    except OSError as exc:
        _error_line(exc)
        return _EXIT_INVALID


def _error_line(exc):
    sys.stderr.write(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            separators=(",", ":"),
        )
        + "\n"
    )


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
