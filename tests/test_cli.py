"""CLI: golden files, determinism, exit codes, scan reproduction."""

import csv
import io
import itertools
import json
import math
import shlex

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import abmodes
from abmodes import cli
from abmodes.cli import _parse_grid
from conftest import FIXTURES, FLOATS, LIBRARY_ERRORS, REPO, SUBNORMAL_ARGV, run_cli

GOLDEN = {
    "decompose.json": ["decompose", "--phi", "2.3"],
    "overlap_verify.json": [
        "overlap", "--delta", "0.5", "--p", "2", "--pprime", "1", "--verify",
    ],
    "gfactor.json": [
        "gfactor", "--channel", "n", "--alpha", "0", "--enn", "0",
        "--delta", "0.4", "--rho0", "0.01",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_round_trip(name):
    code, out, err = run_cli(GOLDEN[name])
    assert code == 0, err
    expected = (FIXTURES / name).read_bytes()
    assert out == expected


def test_decompose_fields():
    code, out, _ = run_cli(["decompose", "--phi", "2.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "decompose"
    assert doc["inputs"]["phi"] == 2.3
    assert doc["outputs"]["n"] == 2
    assert doc["outputs"]["delta"] == pytest.approx(0.3, abs=1e-15)
    # exact decomposition survives the round trip
    assert doc["outputs"]["n"] + doc["outputs"]["delta"] == doc["inputs"]["phi"]


def test_overlap_verify_fields():
    code, out, _ = run_cli(
        ["overlap", "--delta", "0.5", "--p", "2", "--pprime", "1", "--verify"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["finite_closed"] == pytest.approx(0.3001054387190354, rel=1e-13)
    assert doc["outputs"]["abs_err"] <= 1e-3
    assert abs(doc["outputs"]["finite_numeric"] - doc["outputs"]["finite_closed"]) <= 1e-3


def test_gfactor_reference_value():
    code, out, _ = run_cli(
        ["gfactor", "--channel", "n", "--alpha", "0", "--enn", "0",
         "--delta", "0.4", "--rho0", "0.01"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["g"] == -1.0
    assert "g_asymptotic" not in doc["outputs"]


# flags given out of order: the echo follows the declarations, skips flags
# left at None, and for sae-ratio keeps only the flags of the chosen equation
ECHO_ORDER = [
    (["decompose", "--phi", "2.3"], ["phi"]),
    (["bessel", "--x", "1.4", "--prime", "--nu", "0.3"], ["nu", "x", "prime"]),
    (["overlap", "--pprime", "1", "--delta", "0.5", "--p", "2"],
     ["delta", "p", "pprime", "kind", "verify"]),
    (["cancel", "--alpha", "1", "--delta", "0.3", "--channel", "n", "--p", "1.3",
      "--pprime", "0.7"],
     ["delta", "enn", "channel", "p", "pprime", "verify", "alpha"]),
    (["cancel", "--delta", "0.3", "--b-pprime", "1", "--b-p", "1", "--p", "1.3",
      "--pprime", "0.7"],
     ["delta", "enn", "channel", "p", "pprime", "verify", "b_p", "b_pprime"]),
    (["exponent-fit", "--momenta", "0.5,1,2,4", "--delta", "0.3", "--channel", "n1"],
     ["delta", "enn", "channel", "momenta"]),
    (["sae-ratio", "--p", "2", "--alpha", "1", "--delta", "0.5", "--pperp", "3"],
     ["eq", "channel", "alpha", "delta", "enn", "p"]),
    (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.5", "--pperp", "1",
      "--s", "-1", "--p", "7"],
     ["eq", "alpha", "delta", "enn", "pperp", "p3", "s"]),
    (["fluxshell", "--rho0", "0.01", "--l", "1", "--phi", "0.3", "--g", "0.5", "--p", "1"],
     ["l", "phi", "g", "p", "rho0"]),
    (["gfactor", "--rho0", "0.01", "--delta", "0.4", "--enn", "1", "--alpha", "1.5",
      "--channel", "n1"],
     ["channel", "alpha", "enn", "delta", "rho0"]),
    (["solve-g", "--target", "0.1", "--l", "1", "--phi", "0.3", "--p", "2", "--rho0", "0.5"],
     ["l", "phi", "p", "rho0", "target", "glo", "ghi"]),
]


@pytest.mark.parametrize("argv,keys", ECHO_ORDER, ids=[" ".join(a[:3]) for a, _ in ECHO_ORDER])
def test_inputs_echo_order(argv, keys):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert list(json.loads(out)["inputs"]) == keys


def test_readme_cli_examples(capsys):
    # the sh block of README's CLI section, its continuations joined: one
    # example of every subcommand, each exiting 0 with one document on
    # stdout, a JSON line or, for --format csv, a header and a line a row
    section = (REPO / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert {argv[0] for argv in examples} == {"abmodes"}
    assert {argv[1] for argv in examples} == set(cli._SUBCOMMANDS)
    for _, *argv in examples:
        assert cli.run(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, argv
        else:
            assert len(out.splitlines()) == 1 and json.loads(out)["command"] == argv[0], argv


def test_determinism_same_backend():
    args = ["overlap", "--delta", "0.25", "--p", "1", "--pprime", "2", "--verify"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bessel_subcommand():
    code, out, _ = run_cli(["bessel", "--nu", "0.5", "--x", repr(math.pi / 2), "--prime"])
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["j"] == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert doc["outputs"]["jprime"] == pytest.approx(-2.0 / math.pi**2, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["bessel", "--x", "1", "--nu", "-1e-3"],
    ["solve-g", "--l", "1", "--phi", "0.3", "--p", "2", "--rho0", "0.5", "--target", "-6.7e-05"],
    ["gfactor", "--channel", "n", "--enn", "0", "--delta", "0.4", "--rho0", "0.01",
     "--alpha", "-2.5E+2"],
])
def test_negative_exponent_form_as_a_separate_token(capsys, argv):
    # the CLI prints numbers such as -6.7e-05 in exponent form, and each must
    # pass back as a token of its own
    attached = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    docs = []
    for tokens in (argv, attached):
        assert cli.run(tokens) == 0, tokens
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


def test_negative_number_matcher_reads_what_float_reads(capsys):
    for text in ("-1", "-1.5", "-.5", "-5.", "-1e-3", "-1E+300", "-.5e3", "-inf", "-Infinity",
                 "-NaN", "-", "-e3", "-1e", "-1.e", "-1e3.5", "--1", "-x", "-1x", "-inf-", "-h"):
        try:
            float(text)
        except ValueError:
            is_float = False
        else:
            is_float = True
        assert bool(cli._NEGATIVE_NUMBER.match(text)) == is_float, text
    # -inf and -nan reach the domain check as values
    for text in ("-inf", "-nan"):
        assert cli.run(["bessel", "--x", "1", "--nu", text]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_windowed_subcommand(capsys):
    # the windowed integral left the CLI: its argv exits 2 as an unknown
    # subcommand, and the value it printed is the library function's
    argv = ["windowed", "--nu", "0.5", "--mu", "0.5", "--p", "1", "--pprime", "2",
            "--window", repr(math.pi)]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "_CliParseError"
    assert "argument command: invalid choice: 'windowed'" in doc["message"]
    assert abs(abmodes.windowed_overlap(0.5, 0.5, 1.0, 2.0, math.pi)) <= 1e-9


@pytest.mark.parametrize("argv, code", SUBNORMAL_ARGV)
def test_subnormal_arguments(argv, code):
    got, out, err = run_cli(argv)
    assert got == code, err
    if code == 0:
        # J_0(x) = 1 - x^2/4 + ..., exactly 1 in doubles
        assert json.loads(out)["outputs"]["j"] == 1.0
    else:
        assert out == b"" and json.loads(err)["error"] == "NumericalFailureError"


@pytest.mark.parametrize("p, pprime", [("0.01", "0.013"), ("0.013", "0.01")])
def test_overlap_verify_at_small_momenta(p, pprime):
    # the finite part's windows end at 3/2 quasi-periods, short enough that
    # their integrals, of size L^2, still round below the absolute
    # tolerance: with windows at 4, 6 and 8 the second orientation ran out
    # of panels (exit 3 after more than a minute)
    code, out, err = run_cli(
        ["overlap", "--delta", "0.3", "--p", p, "--pprime", pprime, "--verify"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["outputs"]["abs_err"] <= 1e-13 * abs(doc["outputs"]["finite_closed"])


@pytest.mark.parametrize("argv", [
    ["overlap", "--delta", "0.3", "--p", "1e-4", "--pprime", "1.3e-4", "--verify"],
    ["cancel", "--delta", "0.3", "--alpha", "1", "--p", "1e-4", "--pprime", "1.3e-4",
     "--verify"],
    ["overlap", "--delta", "0.7", "--p", "0.7", "--pprime", "1.343990807315964e-48",
     "--verify"],
    ["cancel", "--delta", "0.7", "--alpha", "1", "--p", "0.7", "--pprime",
     "1.343990807315964e-48", "--verify"],
])
def test_verify_at_any_momentum_scale(argv):
    # the finite part runs at the momenta scaled by a power of two: with an
    # absolute tolerance on the integrals themselves, of size 1/p^2 here,
    # the first two ran out of 200,000 panels (exit 3 after about 46 s); the
    # last two, whose integrands keep a factor (p/p')^0.7 of 1e33 at that
    # scale, ran out of them in about 43 s while the windows were still
    # integrated adaptively to an absolute tolerance
    code, out, err = run_cli(argv)
    assert code == 0, err
    outputs = json.loads(out)["outputs"]
    if argv[0] == "overlap":
        assert outputs["abs_err"] <= 1e-14 * abs(outputs["finite_closed"])
    else:
        assert abs(outputs["finite_numeric"]) <= 1e-12 * outputs["cross_term_scale"]


def test_overlap_same_order_verify():
    code, out, _ = run_cli(
        ["overlap", "--delta", "0.5", "--p", "1", "--pprime", "2",
         "--kind", "same", "--verify"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["delta_coeff"] == 1.0
    assert doc["outputs"]["finite_closed"] == 0.0
    assert abs(doc["outputs"]["finite_numeric"]) <= 1e-3


def test_cancel_verify_numeric_oracle():
    code, out, _ = run_cli(
        ["cancel", "--delta", "0.4", "--channel", "n1", "--alpha", "0.8",
         "--p", "1.2", "--pprime", "0.6", "--verify"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["finite_part"]) <= 1e-12
    assert abs(doc["outputs"]["finite_numeric"]) <= 1e-3 * doc["outputs"]["cross_term_scale"]


def test_cancel_explicit_coefficients():
    code, out, _ = run_cli(
        ["cancel", "--delta", "0.3", "--channel", "n", "--b-p", "1",
         "--b-pprime", "1", "--p", "1.3", "--pprime", "0.7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["finite_part"]) > 1e-2 * doc["outputs"]["cross_term_scale"]


def test_run_config_validation(capsys):
    # no subcommand takes a quadrature tuning flag (the finite part behind
    # overlap and cancel runs at a fixed scale), and the windowed integral
    # is a library function only: each argv below exits 0 as it is, and 2
    # with a tuning flag added
    valid = {argv[0]: argv for argv, _ in ECHO_ORDER}
    valid["scan"] = ["scan", "gfactor", "--grid", "alpha=0.5:1.5:3", "--channel", "n",
                     "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
    assert set(valid) == set(cli._SUBCOMMANDS)
    refused = [["windowed", "--nu", "0.5", "--mu", "0.5", "--p", "1", "--pprime", "2",
                "--window", "3"]]
    for argv in valid.values():
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
        refused += [[*argv, "--tol-quad", "1e-9"], [*argv, "--panel-budget", "1000"]]
    for argv in refused:
        code = cli.run(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "_CliParseError"


def test_sae_ratio_dirac():
    code, out, _ = run_cli(
        ["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.5",
         "--pperp", "1", "--p3", "0", "--s", "1"]
    )
    assert code == 0
    assert json.loads(out)["outputs"]["ratio"] == pytest.approx(
        1.0 / (1.0 + math.sqrt(2.0)), rel=1e-12
    )


def test_cancel_subcommand():
    code, out, _ = run_cli(
        ["cancel", "--delta", "0.3", "--channel", "n", "--alpha", "1",
         "--p", "1.3", "--pprime", "0.7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["finite_part"]) <= 1e-12
    assert doc["outputs"]["cross_term_scale"] > 1e-3


def test_exponent_fit_subcommand():
    code, out, _ = run_cli(
        ["exponent-fit", "--delta", "0.3", "--channel", "n1",
         "--momenta", "0.5,1,2,4"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["slope"] == pytest.approx(1.4, abs=1e-9)
    assert doc["outputs"]["expected"] == pytest.approx(1.4, abs=1e-15)


def test_solve_g_subcommand():
    shell = ["--l", "1", "--phi", "0.3", "--p", "2", "--rho0", "0.5"]
    code, out, _ = run_cli(["fluxshell", "--g", "0.7", *shell])
    target = json.loads(out)["outputs"]["matching_ratio"]
    code, out, _ = run_cli(["solve-g", *shell, "--target", repr(target)])
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["g"] == pytest.approx(0.7, abs=1e-8)
    # the condition number of the inverse, an ordinary one here
    assert 0.0 < doc["diagnostics"]["condition"] < 10.0
    # at g = 0 g's relative error has no bound: the condition is null, and
    # the run still succeeds
    code, out, _ = run_cli(["fluxshell", "--g", "0", *shell])
    target = json.loads(out)["outputs"]["matching_ratio"]
    code, out, err = run_cli(["solve-g", *shell, "--target", repr(target)])
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["outputs"]["g"], doc["diagnostics"]["condition"]) == (0.0, None)


class TestExitCodes:
    def test_integer_flux_is_invalid_input(self):
        code, out, err = run_cli(["decompose", "--phi", "3.0"])
        assert code == 2
        assert out == b""
        obj = json.loads(err)
        assert obj["error"] == "IntegerFluxError"

    def test_resonance_is_numerical_failure(self):
        # with the float overflows and the matching pole that once escaped
        # as tracebacks (exit 1); an overflowing power is reported by the
        # library as NumericalFailureError
        for argv, error in (
            (["fluxshell", "--l", "0", "--phi", "0.3", "--g", "1", "--p", "1",
              "--rho0", "0.01"], "ResonantError"),
            # g at the pole of the matching ratio at x = 1, -d0/d1 of its
            # denominator d0 + g d1
            (["fluxshell", "--l", "1", "--phi", "0.3", "--g", "23.42252997302973", "--p", "1",
              "--rho0", "1"], "NumericalPoleError"),
            # the matching ratio is -1 at x = 1e250, and the limit's
            # (x/2)^(2 nu) overflows
            (["fluxshell", "--l", "1", "--phi", "0.3", "--g", "0.5", "--p", "1",
              "--rho0", "1e250"], "NumericalFailureError"),
            (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.5",
              "--pperp", "1e300"], "NumericalFailureError"),
            # each square finite, E^2 past the doubles: once "ratio":0.0
            (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.3",
              "--pperp", "1.3e154", "--p3", "1.3e154"], "NumericalFailureError"),
            (["sae-ratio", "--alpha", "1", "--delta", "0.7", "--p", "1e300"],
             "NumericalFailureError"),
            (["gfactor", "--channel", "n", "--alpha", "1", "--enn", "0",
              "--delta", "0.7", "--rho0", "1e300"], "NumericalFailureError"),
            # a finite alpha times a finite power past the largest double
            (["cancel", "--delta", "0.3", "--channel", "n", "--alpha", "1e300", "--p", "1e100",
              "--pprime", "2e100"], "NumericalFailureError"),
            # subnormal momenta, once infinite periods and a NaN cell count:
            # the finite part at the momenta scaled by 2^1063 is finite, and
            # scaling it back by 2^2126 overflows
            (["overlap", "--kind", "same", "--delta", "1e-320", "--p", "4.9e-324",
              "--pprime", "1e-320", "--verify"], "NumericalFailureError"),
            # at momenta of 1e300 the finite part reads 0 with the irregular
            # term and without it: no coefficient ratio solves the fit
            (["exponent-fit", "--delta", "0.3", "--momenta", "1e300,1.5e300,1.7e308"],
             "SingularFitError"),
        ):
            code, out, err = run_cli(argv)
            assert code == 3, err
            assert out == b""
            assert json.loads(err)["error"] == error

    def test_long_argument_keeps_the_line_short(self):
        # a 321-digit --enn overflows in enn + delta; the message keeps the
        # head and tail of its repr, where the whole made a 404-character line
        code, out, err = run_cli(
            ["gfactor", "--alpha", "1", "--enn", "9" * 321, "--delta", "0.3", "--rho0", "0.1"]
        )
        assert code == 3 and out == b""
        assert len(err) <= 300
        message = json.loads(err)["message"]
        assert message.startswith("_flux_from(0.3, " + "9" * 98 + "...")
        assert message.endswith("9" * 98 + ") overflows a double")

    @pytest.mark.parametrize(
        "argv, head",
        [
            (["sae-ratio", "--alpha", "1", "--delta", "0.7", "--p", "1e300"],
             "schrodinger_ratio("),
            (["cancel", "--delta", "0.7", "--alpha", "1", "--p", "1e300", "--pprime", "2"],
             "schrodinger_ratio("),
            (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.1",
              "--pperp", "1e-200", "--s", "-1"], "dirac_ratio("),
            (["gfactor", "--channel", "n", "--alpha", "1", "--enn", "0", "--delta", "0.7",
              "--rho0", "1e300"], "g_from_alpha("),
            (["gfactor", "--channel", "n1", "--alpha", "1", "--enn", "0", "--delta", "0.3",
              "--rho0", "1e300"], "g_from_alpha("),
            (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.5",
              "--pperp", "1e300"], "E^2 = p_perp^2 + p3^2 + M^2 overflows a double: "),
        ],
    )
    def test_an_overflowing_power_names_the_function(self, capsys, argv, head):
        # the float power's OverflowError, worded once by errors.checked
        assert cli.run(argv) == 3
        out, err = capsys.readouterr()
        doc = json.loads(err)
        assert out == "" and doc["error"] == "NumericalFailureError"
        assert doc["message"].startswith(head)
        assert head.startswith("E^2") or doc["message"].endswith(") overflows a double")

    @pytest.mark.parametrize("sub, extra", [("fluxshell", ["--g", "0.5"]),
                                            ("solve-g", ["--target", "0"])])
    @pytest.mark.parametrize("l, order", [("-5", "5.3"), ("6", "6.0")])
    def test_orders_past_the_cap_name_the_channel(self, capsys, sub, extra, l, order):
        # once "bessel_j_and_prime: |nu| must be <= 5.0, got 5.3"
        argv = [sub, "--l", l, "--phi", "0.3", "--p", "1", "--rho0", "0.1", *extra]
        assert cli.run(argv) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "DomainError"
        assert doc["message"] == (
            "shell matching takes J' of orders |l| and |l - phi| up to 5.0: "
            f"l = {l}, phi = 0.3 needs order {order}"
        )

    def test_no_bracket_is_numerical_failure(self):
        code, _, err = run_cli(
            ["solve-g", "--l", "1", "--phi", "0.3", "--p", "1", "--rho0", "0.01",
             "--target", "5.0", "--glo", "0", "--ghi", "1"]
        )
        assert code == 3
        assert json.loads(err)["error"] == "NoBracketError"

    def test_parse_error(self):
        for argv in (
            ["decompose"],
            ["exponent-fit", "--delta", "0.3", "--momenta", "0.5,x"],
            ["scan", "scan", "--grid", "alpha=1:2:2"],
            # the finite part no longer averages windows, so the flag is gone
            ["overlap", "--delta", "0.3", "--p", "1", "--pprime", "2", "--verify",
             "--window-factor", "40"],
            # --alpha and explicit coefficients are alternatives
            ["cancel", "--delta", "0.3", "--alpha", "1", "--b-p", "1",
             "--b-pprime", "1", "--p", "1.3", "--pprime", "0.7"],
        ):
            code, _, err = run_cli(argv)
            assert code == 2
            assert json.loads(err)["error"] == "_CliParseError"

    def test_unknown_command(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 2

    def test_csv_for_single_result_rejected(self):
        code, _, err = run_cli(["decompose", "--phi", "2.3", "--format", "csv"])
        assert code == 2

    def test_bad_domain_is_invalid_input(self):
        for argv in (
            ["bessel", "--nu", "0.3", "--x", "-1"],
            ["bessel", "--nu", "0.3", "--x", "inf"],
            ["fluxshell", "--l", "1", "--phi", "0.3", "--g", "0.5", "--p", "1e200",
             "--rho0", "1e200"],
            # the finite part refuses what specfun refuses: NaN momenta
            ["overlap", "--delta", "0.3", "--p", "nan", "--pprime", "1", "--verify"],
            # non-finite model inputs, once a NaN or inf output (exit 3)
            ["sae-ratio", "--alpha", "inf", "--delta", "0.3"],
            ["cancel", "--delta", "0.3", "--alpha", "nan", "--p", "1", "--pprime", "2"],
            ["gfactor", "--channel", "n", "--alpha", "nan", "--enn", "0", "--delta", "0.3",
             "--rho0", "0.1"],
            ["sae-ratio", "--alpha", "1", "--delta", "0.3", "--p", "nan"],
            ["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.3", "--pperp", "1",
             "--p3", "nan"],
            ["fluxshell", "--l", "0", "--phi", "0.3", "--g", "nan", "--p", "1",
             "--rho0", "0.1"],
            ["gfactor", "--channel", "n", "--alpha", "1", "--enn", "0", "--delta", "0.3",
             "--rho0", "nan"],
            # non-finite mode coefficients and solve-g targets or brackets
            ["cancel", "--delta", "0.3", "--channel", "n", "--b-p", "nan", "--b-pprime",
             "0.5", "--p", "1", "--pprime", "2"],
            ["cancel", "--delta", "0.3", "--channel", "n", "--b-p", "0.8", "--b-pprime",
             "inf", "--p", "1", "--pprime", "2"],
            ["solve-g", "--target", "nan", "--l", "0", "--phi", "0.3", "--p", "1",
             "--rho0", "0.01"],
            ["solve-g", "--target", "1", "--glo", "nan", "--l", "0", "--phi", "0.3",
             "--p", "1", "--rho0", "0.01"],
            ["solve-g", "--target", "1", "--ghi", "inf", "--l", "0", "--phi", "0.3",
             "--p", "1", "--rho0", "0.01"],
        ):
            code, _, err = run_cli(argv)
            assert code == 2, argv
            assert json.loads(err)["error"] == "DomainError"


class TestScan:
    def test_csv_rows_reproduce_single_runs(self):
        code, out, err = run_cli(
            ["scan", "gfactor", "--grid", "alpha=0.5:1.5:3", "--format", "csv",
             "--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        assert len(rows) == 3
        assert [r["alpha"] for r in rows] == ["0.5", "1.0", "1.5"]
        for row in rows:
            code, single, _ = run_cli(
                ["gfactor", "--channel", "n", "--alpha", row["alpha"], "--enn", "0",
                 "--delta", "0.5", "--rho0", "0.01"]
            )
            assert code == 0
            doc = json.loads(single)
            # byte-exact reproduction of the swept value
            assert repr(doc["outputs"]["g"]) == row["g"]

    def test_two_grids_json(self):
        code, out, _ = run_cli(
            ["scan", "fluxshell", "--grid", "g=-0.5:0.5:3", "--grid",
             "rho0=log:1e-3:1e-2:2", "--l", "1", "--phi", "0.3", "--p", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 6
        # deterministic grid order: first grid outer, second inner
        gs = [row["g"] for row in doc["rows"]]
        assert gs == sorted(gs)

    def test_negative_grid_values(self):
        # a small negative value in exponent form, and the integer flag --l,
        # whose grid values must be converted as integers
        for argv, rows in (
            (["scan", "fluxshell", "--grid", "g=-3.8e-05:1.5:2", "--l", "1",
              "--phi", "0.3", "--p", "1", "--rho0", "0.1"], 2),
            (["scan", "fluxshell", "--grid", "l=0:2:3", "--phi", "0.3",
              "--g", "0.5", "--p", "1", "--rho0", "0.1"], 3),
        ):
            code, out, err = run_cli(argv)
            assert code == 0, err
            assert len(json.loads(out)["rows"]) == rows

    def test_rows_match_single_runs(self, capsys):
        # each row is {**inputs, **outputs} of the single invocation at its
        # grid point, byte for byte, with the point given as separate tokens
        gfactor = ["--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
        fluxshell = ["--phi", "0.3", "--p", "1", "--rho0", "0.1"]
        dirac = ["--eq", "dirac", "--alpha", "1", "--delta", "0.3"]
        for sub, grids, fixed, fmt in (
            ("gfactor", ["alpha=0.5:1.5:3"], gfactor, "json"),
            ("fluxshell", ["l=0:2:3", "g=-1.5:-1e-05:4"], fluxshell, "json"),
            # the echo leaves out the flags that --eq dirac does not read,
            # a swept one (--p) included
            ("sae-ratio", ["s=1:-1:2", "p3=-0.5:0.5:3"], dirac, "json"),
            ("sae-ratio", ["p=0.5:2:2"], dirac, "json"),
            # a store_true flag in the echo, and CSV cells
            ("bessel", ["x=0.5:2:4"], ["--nu", "0.3", "--prime"], "csv"),
            ("overlap", ["pprime=1.5:3:4"], ["--delta", "0.3", "--p", "1", "--kind", "same"],
             "json"),
        ):
            argv = ["scan", sub, *(f"--grid={g}" for g in grids), f"--format={fmt}", *fixed]
            assert cli.run(argv) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                texts = [json.dumps(row) for row in json.loads(out)["rows"]]
            else:
                header, *texts = out.splitlines()
            axes = [[(name, cli._grid_text(v)) for v in values]
                    for name, values in map(_parse_grid, grids)]
            points = list(itertools.product(*axes))
            assert len(texts) == len(points)
            for text, point in zip(texts, points):
                tokens = [tok for name, value in point for tok in (f"--{name}", value)]
                assert cli.run([sub, *fixed, *tokens]) == 0
                single = json.loads(capsys.readouterr().out)
                expected = {**single["inputs"], **single["outputs"]}
                if fmt == "json":
                    assert text == json.dumps(expected)
                else:
                    assert header == ",".join(expected)
                    assert text == ",".join(str(cli._csv_cell(v)) for v in expected.values())

    def test_a_later_non_finite_row_ends_the_scan(self, monkeypatch, capsys):
        # the third row's g turns NaN: exit 3 with that row's one-line error,
        # and no row printed, in either format
        compute = cli._SUBCOMMANDS["gfactor"].get_default("compute")
        calls = []

        def third_is_nan(args):
            calls.append(args.alpha)
            outputs, diagnostics = compute(args)
            if len(calls) == 3:
                outputs["g"] = math.nan
            return outputs, diagnostics

        monkeypatch.setitem(cli._SUBCOMMANDS["gfactor"]._defaults, "compute", third_is_nan)
        fixed = ["--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
        for fmt in ("json", "csv"):
            calls.clear()
            code = cli.run(["scan", "gfactor", "--grid=alpha=0.5:1.5:5", f"--format={fmt}",
                            *fixed])
            out, err = capsys.readouterr()
            assert (code, out, calls) == (3, "", [0.5, 0.75, 1.0])
            assert len(err.splitlines()) == 1
            assert json.loads(err) == {"error": "NumericalFailureError",
                                       "message": "non-finite value in scan.g"}

    # a subcommand with its fixed flags, the grids, and the flags of the first
    # bad grid point: of the inner grid first, as a row-by-row parse meets it
    BAD_GRIDS = [
        (["fluxshell", "--phi", "0.3", "--g", "0.5", "--p", "1", "--rho0", "0.1"],
         ["l=0:1:3"], ["--l=0.5"]),
        (["gfactor", "--alpha", "1", "--enn", "0", "--delta", "0.3", "--rho0", "0.1"],
         ["channel=0:1:2"], ["--channel=0"]),
        (["bessel", "--nu", "0.3", "--x", "1"], ["prime=0:1:2"], ["--prime=0"]),
        (["bessel", "--nu", "0.3", "--x", "1"], ["bogus=0:1:2"], ["--bogus=0"]),
        (["overlap", "--delta", "0.3", "--p", "1", "--pprime", "2"],
         ["tol-quad=1e-9:1e-8:2"], ["--tol-quad=1e-09"]),
        (["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.3"],
         ["enn=0:1:3", "s=1:-1:3"], ["--enn=0", "--s=0"]),
    ]

    @pytest.mark.parametrize("argv, grids, point", BAD_GRIDS,
                             ids=[f"{a[0]} {' '.join(g)}" for a, g, _ in BAD_GRIDS])
    def test_invalid_grids_keep_their_error(self, capsys, argv, grids, point):
        # argparse's message for the bad point given as plain flags, built
        # here because its wording differs between Python versions
        with pytest.raises(cli._CliParseError) as plain:
            cli._PARSER.parse_args([*argv, *point])
        code = cli.run(["scan", argv[0], *(f"--grid={g}" for g in grids), *argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "_CliParseError", "message": str(plain.value)}

    def test_bad_grid_value_exits_before_any_row(self, capsys):
        # the row (l=0, g=1) is resonant on its own (exit 3), but the grid's
        # l=0.5 is refused before any row runs
        fixed = ["--phi", "0.3", "--p", "1", "--rho0", "0.1"]
        assert cli.run(["fluxshell", "--l=0", "--g=1", *fixed]) == 3
        capsys.readouterr()
        assert cli.run(["scan", "fluxshell", "--grid=l=0:1:3", "--grid=g=0:1:3", *fixed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["message"] == "argument --l: invalid int value: '0.5'"

    def test_grid_ends_near_the_largest_double(self):
        # hi - lo and hi / lo overflow here; the points must not
        code, out, err = run_cli(
            ["scan", "gfactor", "--grid", "alpha=0:1e308:3", "--format", "csv",
             "--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        assert [r["alpha"] for r in rows] == ["0.0", "5e+307", "1e+308"]
        for spec, ends in (("a=-1e308:1e308:3", (-1e308, 1e308)),
                           ("a=log:1e-300:1e300:3", (1e-300, 1e300))):
            _, vals = _parse_grid(spec)
            assert (vals[0], vals[-1]) == ends
            assert all(ends[0] <= v <= ends[1] for v in vals)

    def test_row_limit(self, monkeypatch, capsys):
        # refused before any grid point is built: exit 2, one JSON line
        monkeypatch.setattr(cli, "_MAX_SCAN_ROWS", 10, raising=False)
        fixed = ["--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
        for grids in (["alpha=0.5:1.5:11"], ["alpha=0.5:1.5:4", "rho0=0.01:0.02:3"]):
            code = cli.run(["scan", "gfactor", *(f"--grid={g}" for g in grids), *fixed])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "_CliParseError"
        assert cli.run(["scan", "gfactor", "--grid=alpha=0.5:1.5:10", *fixed]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 10

    def test_fixed_flag_before_the_swept_subcommand(self):
        # SUB comes before the fixed flags it forwards: a flag put before it
        # leaves its value to be read as SUB, and the scan exits 2 with one
        # JSON line naming that choice
        code, out, err = run_cli(
            ["scan", "--delta", "0.5", "gfactor", "--grid", "alpha=1:2:2", "--channel", "n",
             "--enn", "0", "--rho0", "0.01"]
        )
        assert (code, out) == (2, b"")
        assert err.count(b"\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "_CliParseError"
        assert "argument sub: invalid choice: '0.5'" in doc["message"]

    def test_bad_grid_spec(self):
        # a field past lo:hi:n, or past log:lo:hi:n, is refused, not dropped
        for command, spec in [("gfactor", "alpha=oops"),
                              ("decompose", "phi=0.1:0.9:3:7"),
                              ("decompose", "phi=log:0.1:0.9:2:junk")]:
            code, out, err = run_cli(["scan", command, "--grid", spec, "--format", "csv"])
            assert code == 2
            assert out == b""
            assert json.loads(err)["message"] == f"bad grid spec {spec!r} (want name=lo:hi:n)"

    def test_one_flag_swept_twice(self, capsys):
        # the inner grid's value would replace the outer one's at every row,
        # so that no row held the outer grid's values: refused before any row
        fixed = ["--delta", "0.3", "--b-pprime", "1", "--p", "1", "--pprime", "2"]
        for sub, name, rest in (("decompose", "phi", []), ("cancel", "b-p", fixed)):
            code = cli.run(["scan", sub, f"--grid={name}=0.1:0.2:2", f"--grid={name}=0.3:0.4:2",
                            "--format", "csv", *rest])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err) == {
                "error": "_CliParseError",
                "message": f"scan grids sweep the same flag {name!r} twice",
            }

    def test_out_file(self, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(["decompose", "--phi", "2.3", "--out", str(path)])
        assert code == 0
        assert out == b""
        doc = json.loads(path.read_text())
        assert doc["outputs"]["n"] == 2


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out == f"abmodes {abmodes.__version__} ({abmodes.BACKEND} kernels)\n".encode()


def test_nonfinite_outputs_never_serialized():
    from abmodes.cli import _check_finite
    from abmodes.errors import NumericalFailureError

    _check_finite({"outputs": {"x": 1.0, "xs": [0.0, -2.5]}}, "doc")
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(NumericalFailureError):
            _check_finite({"outputs": {"x": bad}}, "doc")
        with pytest.raises(NumericalFailureError):
            _check_finite({"rows": [{"x": [bad]}]}, "doc")
    # a CSV scan is checked like a JSON one (g is nan at these alpha)
    code, out, err = run_cli(
        ["scan", "gfactor", "--grid", "alpha=1.7e308:1.75e308:2", "--format", "csv",
         "--channel", "n", "--enn", "0", "--delta", "0.5", "--rho0", "0.01"]
    )
    assert code == 3
    assert out == b""
    assert json.loads(err)["error"] == "NumericalFailureError"


# --- the CLI contract as a property: any argv exits 0, 2 or 3 with one JSON line

# flags never drawn: --out writes files
_NOT_DRAWN = {"--out", "-h"}
_TEXT = {
    int: st.one_of(st.integers(-3, 3), st.sampled_from([10**6, -(10**6)])),
    float: FLOATS.map(repr),
    cli._momenta_list: st.lists(FLOATS, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))
    ),
}


def _flag_tokens(draw, sub):
    tokens = []
    for action in cli._SUBCOMMANDS[sub]._actions:
        name = action.option_strings[0] if action.option_strings else None
        if name is None or name in _NOT_DRAWN:
            continue
        # kept: a required flag 19 times in 20, a subcommand's optional flag
        # one time in 2
        kept, out_of = (19, 20) if action.required else (1, 2)
        if draw(st.integers(0, out_of - 1)) >= kept:
            continue
        if action.nargs == 0:
            tokens.append(name)
            continue
        if action.choices:
            value = draw(st.sampled_from([*action.choices, "0"]))
        else:
            value = draw(_TEXT[action.type])
        tokens.append(f"{name}={value}")
    return tokens


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    if sub != "scan":
        return [sub, *_flag_tokens(draw, sub)]
    swept = draw(st.sampled_from(sorted(set(cli._SUBCOMMANDS) - {"scan"})))
    numeric = [
        a.option_strings[0][2:] for a in cli._SUBCOMMANDS[swept]._actions
        if a.type in (int, float) and a.option_strings[0] not in _NOT_DRAWN
    ]
    grids = []
    for name in draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=2, unique=True)):
        log = draw(st.sampled_from(["", "log:"]))
        lo, hi = draw(FLOATS), draw(FLOATS)
        n = draw(st.sampled_from([0, 1, 2, 3]))
        grids.append(f"--grid={name}={log}{lo!r}:{hi!r}:{n}")
    # scan's own --format is not drawn: a CSV scan prints a header and rows
    fixed = _flag_tokens(draw, swept)
    return ["scan", swept, *grids, *fixed]


@settings(
    max_examples=1500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=_argv())
# argv that once ended in a traceback or ran without end
@example(argv=["overlap", "--delta=0.3", "--p=nan", "--pprime=1", "--verify"])
@example(argv=["overlap", "--kind=same", "--delta=1e-320", "--p=4.9e-324",
               "--pprime=1e-320", "--verify"])
# float powers that overflowed into a raw OverflowError
@example(argv=["sae-ratio", "--eq=dirac", "--alpha=1", "--delta=0.5", "--pperp=1e300"])
@example(argv=["sae-ratio", "--alpha=1", "--delta=0.7", "--p=1e300"])
@example(argv=["gfactor", "--channel=n", "--alpha=1", "--enn=0", "--delta=0.7",
               "--rho0=1e300"])
# a raw ZeroDivisionError: E - M cancelled to 0, and x/2 underflowed to 0
@example(argv=["sae-ratio", "--eq=dirac", "--alpha=1", "--delta=0.3", "--pperp=1e-10",
               "--s=-1"])
# spent 200,000 panels, about 40 s, before exit 3
@example(argv=["overlap", "--delta=0.7", "--p=0.7", "--pprime=1.343990807315964e-48",
               "--verify"])
# a raw OverflowError or ZeroDivisionError, or an inf left to the serializer
@example(argv=["bessel", "--nu=-5.5", "--x=1e-300"])
@example(argv=["overlap", "--delta=0.9", "--p=1", "--pprime=1e-300", "--verify"])
@example(argv=["overlap", "--delta=0.5", "--p=1e300", "--pprime=5e-324"])
@example(argv=["overlap", "--delta=0.5", "--p=1", "--pprime=1e-310"])
@example(argv=["gfactor", "--channel=n", "--alpha=0", "--enn=0", "--delta=0.5",
               "--rho0=5e-324"])
def test_every_argv_keeps_the_contract(capsys, argv):
    capsys.readouterr()
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), argv
    event(f"{argv[0]} {argv[1] if argv[0] == 'scan' else ''}: exit {code}")
    lines = (out + err).splitlines()
    assert len(lines) == 1, argv
    doc = json.loads(lines[0])
    if code != 0:
        assert out == "" and set(doc) == {"error", "message"}, argv
        assert doc["error"] in LIBRARY_ERRORS, argv


# --- a command is parsed once, by its subcommand's parser alone

# argv at the edges of argparse's routing: no command, "--" before, inside or
# after it, a flag before it, --version after it, a missing value, leftover
# tokens, and scan with "--" or an unknown flag
EDGE_ARGV = [
    [],
    ["--"],
    ["--", "decompose", "--phi", "1"],
    ["decompose", "--", "--phi", "1"],
    ["decompose", "--phi", "--", "1"],
    ["decompose", "--phi", "1", "--"],
    ["-x", "decompose", "--phi", "1"],
    ["decompose", "--phi", "1", "--version"],
    ["decompose", "--phi"],
    ["decompose"],
    ["decompose", "--phi", "1", "extra"],
    ["decompose", "--phi", "1", "--bogus", "2"],
    ["frobnicate", "--phi", "1"],
    ["bessel", "--nu", "-1e-3", "--x", "-inf"],
    ["scan", "decompose", "--grid", "phi=0:1:2", "--"],
    ["scan", "--", "decompose", "--grid", "phi=0:1:2"],
    ["scan", "decompose", "--grid", "phi=0:1:2", "--", "--phi", "1"],
    ["scan", "decompose", "--grid", "phi=0:1:2", "--bogus", "1"],
]


def _parsed(parse, argv):
    """What parse gives for argv: the namespace's entries (by repr, which
    tells NaN and -0.0 apart) and the leftover tokens, or the exception's
    class and message."""
    try:
        args, extra = parse(list(argv))
    except Exception as exc:
        return type(exc), str(exc)
    return {k: repr(v) for k, v in vars(args).items()}, extra


def _assert_parsed_alike(argv):
    alone = _parsed(cli._parse_known, argv)
    assert alone == _parsed(cli._PARSER.parse_known_args, argv), argv
    # a scan's leftover tokens go to the swept subcommand's parser
    if argv and argv[0] == "scan" and isinstance(alone[0], dict):
        args, extra = cli._parse_known(argv)
        _assert_parsed_alike([args.sub, *extra])


@pytest.mark.parametrize("argv", EDGE_ARGV, ids=lambda argv: shlex.join(argv) or "(none)")
def test_edge_argv_parse_alike(argv):
    _assert_parsed_alike(argv)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(argv=_argv())
def test_every_argv_parses_alike(argv):
    _assert_parsed_alike(argv)


def test_a_command_never_reaches_the_top_level_parser(monkeypatch, capsys):
    first = {}
    for argv, _ in ECHO_ORDER:
        first.setdefault(argv[0], argv)
    assert set(first) == set(cli._SUBCOMMANDS) - {"scan"}
    argvs = [*first.values(),
             ["scan", "fluxshell", "--grid=l=0:1:2", "--grid=g=-0.5:0.5:3", "--phi", "0.3",
              "--p", "1", "--rho0", "0.1"]]
    expected = []
    for argv in argvs:
        assert cli.run(argv) == 0, argv
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    for argv, out in zip(argvs, expected):
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr() == (out, "")
    assert len(json.loads(expected[-1])["rows"]) == 6


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--"], "the following arguments are required: command"),
    (["-x", "decompose", "--phi", "1"], "unrecognized arguments: -x"),
    (["decompose", "--phi", "1", "--version"], "unrecognized arguments: --version"),
])
def test_fallback_refusals(capsys, argv, message):
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "_CliParseError", "message": message}
