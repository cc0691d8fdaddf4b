"""End-to-end CLI tests: exit codes, JSON schema, determinism."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steff2d
import steff2d.cli as cli
from steff2d.cli import EXIT_FAIL, EXIT_NUMERIC, EXIT_PASS, EXIT_USAGE, _build_parser, run

SCHEMA_KEYS = {"command", "inputs", "result", "pass", "diagnostics", "version"}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert out, f"no JSON emitted (stderr: {err})"
    return code, json.loads(out)


RECT_KEYS = {"a", "b", "c", "d"}
RESIDUAL_KEYS = {"lhs", "rhs", "abs_residual", "rel_residual", "tolerance", "pass"}
MONOTONICITY_KEYS = {
    "verdict", "min_measure", "max_measure", "min_witness", "max_witness", "grid", "tol",
    "margin", "eval_rect", "edge_top_decreasing", "edge_right_decreasing",
    "edge_bottom_increasing", "edge_left_increasing", "nonnegative", "f_min",
}
MONOTONICITY = {"": MONOTONICITY_KEYS, "eval_rect": RECT_KEYS, "min_witness": RECT_KEYS,
                "max_witness": RECT_KEYS}
COPULA_KEYS = {"boundary_max_error", "boundary_witness_condition", "boundary_witness_point",
               "min_cell_measure", "grid", "tol", "pass"}
INTEGRAL_KEYS = {"value", "error_estimate"}
YOUNG_KEYS = RESIDUAL_KEYS | {"variant", "corner_term", "edge_x_term", "edge_y_term",
                              "mixed_term"}
THEOREM = {
    "": {"theorem", "lhs", "bound", "tol", "inequality_holds", "monotonicity",
         "f_nonnegative", "edge_hypothesis", "primitive_min", "primitive_max",
         "primitive_ok", "hypotheses_hold"},
    "monotonicity": MONOTONICITY_KEYS,
    "monotonicity.eval_rect": RECT_KEYS,
    "monotonicity.min_witness": RECT_KEYS,
    "monotonicity.max_witness": RECT_KEYS,
}

# Each passing command with the key set of every JSON object in its result,
# by dotted path ("" for the result itself).
PASSING_COMMANDS = [
    (["certify", "--f", "x*y", "--rect", "0,1,0,1", "--grid", "32"], MONOTONICITY),
    (["integrate", "--f", "x*y", "--rect", "0,1,0,1"], {"": INTEGRAL_KEYS}),
    (["integrate", "--f", "floor(x)+y", "--rect", "0,3,0,1", "--breaks", "x:1,2"],
     {"": INTEGRAL_KEYS}),
    (["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--partition", "32"],
     {"": {"value", "bound", "error_estimate", "converged", "integrator_monotone",
           "partition"}}),
    (["copula", "validate", "--f", "x*y", "--grid", "32"], {"": COPULA_KEYS}),
    (["copula", "archimedean", "--phi", "-log(t)", "--eval", "0.5,0.5", "--grid", "32"],
     {"": {"value", "point", "validation"}, "validation": COPULA_KEYS}),
    (["mollify", "--f", "5", "--rect", "0,1,0,1", "--n", "4", "--eval", "0.5,0.5"],
     {"": {"value", "point", "mollifier_mass", "mass_error_estimate", "n"}}),
    (["verify", "hardy", "--p", "5", "--q", "7", "--trials", "50", "--seed", "42"],
     {"": {"trials", "p", "q", "max_rel_residual"}}),
    (["verify", "steffensen", "--p", "4", "--q", "4", "--trials", "50", "--seed", "42"],
     {"": {"trials", "p", "q", "min_sum"}}),
    (["verify", "steffensen", "--a", "[[0.25,0.125],[0.125,0.0625]]",
      "--u", "[[1,-1],[-1,1]]"],
     {"": {"nonneg_a", "nonneg_delta", "nonneg_partial_sums", "first_violation_a",
           "first_violation_delta", "first_violation_partial_sums", "sum", "tolerance",
           "conclusion_holds", "hypotheses_hold"}}),
    (["verify", "young1", "--f", "x", "--w", "1", "--rect", "0,1,0,1"], {"": YOUNG_KEYS}),
    (["verify", "young2", "--f", "x", "--w", "1", "--rect", "0,1,0,1"], {"": YOUNG_KEYS}),
    (["verify", "thm3", "--f", "exp(-x-y)", "--w", "sin(x)*sin(y)",
      "--rect", "0,2*pi,0,2*pi"], THEOREM),
    (["verify", "thm4", "--f", "x*y", "--w", "1", "--rect", "0,1,0,1"], THEOREM),
    (["verify", "remark3", "--f", "log(x^2+y^2)", "--w", "-sin(x+y)",
      "--rect", "0,3*pi/4,0,3*pi/4", "--margin", "1e-6"], THEOREM),
    (["verify", "fourier", "--kernel", "sinsin2d", "--f", "u^2", "--m", "1", "--n", "1"],
     {"": {"kernel", "m", "n", "value", "error_estimate", "expected_sign", "sign_ok",
           "profile_monotone", "profile_convex"}}),
    (["verify", "byparts", "--f", "exp(-x-y)", "--gdensity", "1", "--rect", "0,1,0,1"],
     {"": RESIDUAL_KEYS | {"corner_term", "edge_x_term", "edge_y_term", "stieltjes_term",
                           "edge_vanishing"}}),
    (["verify", "corollary", "--f", "x*y", "--rect", "0,2,0,2"], {"": RESIDUAL_KEYS}),
    (["verify", "lemma1", "--f", "x*y", "--rect", "0,1,0,1"],
     {"": {"verdict", "mixed_min", "mixed_max", "mixed_sign", "consistent", "grid", "tol"}}),
]


def key_sets(obj: dict, at: str = "") -> dict:
    """Key set of obj and of every JSON object nested in it, by dotted path."""
    sets = {at: set(obj)}
    for key, value in obj.items():
        if isinstance(value, dict):
            sets.update(key_sets(value, f"{at}.{key}" if at else key))
    return sets


@pytest.mark.parametrize("argv, result_keys", PASSING_COMMANDS,
                         ids=[" ".join(argv[:2]) + "…" for argv, _ in PASSING_COMMANDS])
def test_passing_commands_emit_schema_and_exit_zero(argv, result_keys):
    code, doc = invoke_json(argv)
    assert code == EXIT_PASS, doc
    assert set(doc) == SCHEMA_KEYS
    assert doc["pass"] is True
    assert doc["version"]
    assert key_sets(doc["result"]) == result_keys


# One argv per check whose records fail.
FAILING_COMMANDS = [
    ["certify", "--f", "sin(3*x)*sin(3*y)", "--rect", "0,2,0,2"],
    ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--doublings", "0"],
    ["copula", "validate", "--f", "x+y", "--grid", "16"],
    ["copula", "archimedean", "--phi", "-log(t)", "--eval", "0.5,0.5", "--grid", "16",
     "--tol", "0"],
    ["verify", "hardy", "--p", "5", "--q", "7", "--trials", "20", "--tol", "1e-18"],
    ["verify", "steffensen", "--p", "3", "--q", "3", "--trials", "5", "--tol", "-1000"],
    ["verify", "steffensen", "--a", "[[1]]", "--u", "[[0]]", "--tol", "-0.5"],
    *(["verify", variant, "--f", "exp(x*y)", "--w", "cos(5*x*y)", "--rect", "0,1,0,1",
       "--cells", "1", "--points", "2", "--quad-tol", "10"] for variant in ("young1", "young2")),
    # the primitive of w is 0 on the 3 x 3 lattice and negative between its points,
    # so its hypothesis holds on the lattice under any allowance, --tol 0 included
    *(["verify", "thm3", "--f", "x*y-x-y", "--w", "-4*pi^2*sin(4*pi*x)*sin(4*pi*y)",
       "--rect", "0,1,0,1", "--grid", "2", *tol] for tol in ([], ["--tol", "0"])),
    ["verify", "thm4", "--f", "x*y", "--w", "-4*pi^2*sin(4*pi*x)*sin(4*pi*y)",
     "--rect", "0,1,0,1", "--grid", "2"],
    ["verify", "remark3", "--f", "x+y-x*y", "--w", "4*pi^2*sin(4*pi*x)*sin(4*pi*y)",
     "--rect", "0,1,0,1", "--grid", "2"],
    ["verify", "fourier", "--kernel", "cos1d", "--f", "-(u^2)"],
    ["verify", "byparts", "--f", "exp(-x-y)", "--gdensity", "1", "--rect", "0,1,0,1",
     "--tolerance", "0"],
    ["verify", "corollary", "--f", "exp(x*y)", "--rect", "0,2,0,2", "--cells", "1",
     "--points", "2", "--quad-tol", "10"],
    ["verify", "lemma1", "--f", "floor(2*x)*y", "--rect", "0,1,0,1"],
]

# The library calls whose records decide a pass; integrate and mollify make none.
RECORD_CALLS = ("certify", "stieltjes2d", "validate_copula", "hardy_residual",
                "steffensen_check", "young_residual", "steffensen_integral", "fourier_check",
                "byparts_residual", "sum_vs_integral", "lemma1_check")
VERDICT_CASES = [(argv, True) for argv, _ in PASSING_COMMANDS
                 if argv[0] not in ("integrate", "mollify")] + [
                (argv, False) for argv in FAILING_COMMANDS]


@pytest.mark.parametrize("argv, passed", VERDICT_CASES,
                         ids=[" ".join(argv[:2]) + "…" for argv, _ in VERDICT_CASES])
def test_pass_is_the_library_records_passed(argv, passed, monkeypatch):
    records = []

    def keep(call):
        return lambda *a, **k: records.append(call(*a, **k)) or records[-1]

    for name in RECORD_CALLS:
        monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
    code, doc = invoke_json(argv)
    assert records
    assert doc["pass"] is all(rec.passed for rec in records) is passed
    assert code == (EXIT_PASS if passed else EXIT_FAIL)


def readme_commands() -> list:
    """The argv of each `steff2d ...` line under README's "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("steff2d ")]


@pytest.mark.parametrize("path", list(cli._COMMANDS), ids=" ".join)
def test_readme_shows_every_command_and_it_passes(path):
    argvs = [argv for argv in readme_commands() if tuple(argv[:len(path)]) == path]
    assert argvs, f"no README example of steff2d {' '.join(path)}"
    for argv in argvs:
        code, out, err = invoke(argv)
        assert code == EXIT_PASS, (argv, err)


class TestSpecificResults:
    def test_certify_verdict(self):
        _, doc = invoke_json(["certify", "--f", "x*y", "--rect", "0,1,0,1", "--grid", "32"])
        assert doc["result"]["verdict"] == "monotone2d"

    def test_hardy_residual_budget(self):
        _, doc = invoke_json(
            ["verify", "hardy", "--p", "5", "--q", "7", "--trials", "100", "--seed", "42"]
        )
        assert doc["result"]["max_rel_residual"] <= 1e-12

    def test_lower_bound_fixture_value(self):
        _, doc = invoke_json(
            ["verify", "thm3", "--f", "exp(-x-y)", "--w", "sin(x)*sin(y)",
             "--rect", "0,2*pi,0,2*pi"]
        )
        expect = ((1 - np.exp(-2 * np.pi)) / 2) ** 2
        assert abs(doc["result"]["lhs"] - expect) <= 1e-6

    def test_rect_accepts_pi_literals(self):
        code, doc = invoke_json(["integrate", "--f", "sin(x)*sin(y)", "--rect", "0,pi,0,pi"])
        assert code == EXIT_PASS
        assert abs(doc["result"]["value"] - 4.0) <= 1e-8

    def test_counterexample_is_reported_not_failed(self):
        # non-edge-vanishing g: identity violation expected, pass with flag
        code, doc = invoke_json(
            ["verify", "byparts", "--f", "x", "--g1", "1", "--g2", "1",
             "--rect", "0,1,0,1"]
        )
        assert code == EXIT_PASS
        assert doc["diagnostics"]["edge_vanishing"] is False
        assert abs(doc["result"]["abs_residual"] - 0.5) <= 1e-9

    @pytest.mark.parametrize("argv", [
        ["verify", "thm3", "--f", "exp(-1.924*x-1.074*y)", "--w", "sin(6*x)*sin(2*y)",
         "--rect", "0,5.879,0,3.82", "--grid", "64"],
        ["verify", "thm3", "--f", "exp(-1.303*x-0.6952*y)", "--w", "sin(5*x)*sin(6*y)",
         "--rect", "0,1.692,0,5.879", "--grid", "64"],
    ], ids=["primitive-min-2.6e-9", "primitive-min-1.0e-9"])
    def test_primitive_hypothesis_allows_the_primitive_tolerance(self, argv):
        # W >= 0 in closed form, and W is built to the quadrature tolerance 1e-8,
        # so its lattice minimum -2.6e-9 (-1.0e-9) is no refutation; against --tol
        # 1e-9 alone it read primitive_ok false
        code, doc = invoke_json(argv)
        assert code == EXIT_PASS
        assert -1e-8 < doc["result"]["primitive_min"] < -1e-9
        assert doc["result"]["primitive_ok"] is doc["result"]["hypotheses_hold"] is True


class TestExitCodes:
    def test_failing_check_exits_one(self):
        code, doc = invoke_json(["copula", "validate", "--f", "x+y"])
        assert code == EXIT_FAIL
        assert doc["pass"] is False

    def test_expression_error_exits_two(self):
        code, out, err = invoke(["certify", "--f", "sin(x*", "--rect", "0,1,0,1"])
        assert code == EXIT_USAGE
        assert not out
        assert "error" in err

    def test_bad_rect_exits_two(self):
        code, _, err = invoke(["certify", "--f", "x*y", "--rect", "0,1,0"])
        assert code == EXIT_USAGE

    def test_degenerate_rect_exits_two(self):
        code, _, err = invoke(["certify", "--f", "x*y", "--rect", "1,0,0,1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("point", ["1.5,0.5", "-0.2,0.5", "0.5,1.0000001", "0/0,0.5"])
    def test_archimedean_eval_off_the_unit_square_exits_two(self, point):
        # A is defined on [0, 1]^2 only; off it phi is NaN, which the bisection
        # turns into 2^-48, an invented value that would pass
        code, out, err = invoke(["copula", "archimedean", "--phi", "(-log(t))^2.7",
                                 "--eval", point, "--grid", "8"])
        assert code == EXIT_USAGE
        assert not out
        assert "outside the unit square" in err

    @pytest.mark.parametrize("point", ["0,0", "0,1", "1,0", "1,1"])
    def test_archimedean_eval_on_a_corner_of_the_square_passes(self, point):
        code, doc = invoke_json(["copula", "archimedean", "--phi", "(-log(t))^2.7",
                                 "--eval", point, "--grid", "8"])
        assert code == EXIT_PASS
        x, y = doc["result"]["point"]
        assert doc["result"]["value"] == pytest.approx(min(x, y), abs=1e-12)

    def test_unknown_subcommand_exits_two(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "x" + ")" * 3000, "+".join(["x"] * 5000)],
        ids=["3000-nested-parentheses", "5000-term-sum"],
    )
    def test_deeply_nested_expression_exits_two(self, expr):
        code, out, err = invoke(["integrate", "--f", expr, "--rect", "0,1,0,1"])
        assert code == EXIT_USAGE
        assert not out
        assert "nested deeper than" in err

    def test_negative_doublings_exits_two(self):
        code, out, err = invoke(["stieltjes", "--h", "x*y", "--f", "x*y", "--rect", "0,1,0,1",
                                 "--doublings", "-1"])
        assert code == EXIT_USAGE
        assert not out
        assert "doublings" in err

    @pytest.mark.parametrize("kernel", ["cos1d", "sin1d", "sinsin2d"])
    def test_bivariate_profile_for_one_variable_kernel_exits_two(self, kernel):
        code, out, err = invoke(["verify", "fourier", "--kernel", kernel, "--f", "catalog:Pi"])
        assert code == EXIT_USAGE
        assert not out
        assert f"kernel {kernel!r} takes a one-variable profile" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["verify", "lemma1", "--f", "floor(2*x)*y", "--rect", "0,1,0,1", "--tol"],
        ["verify", "thm3", "--f", "x*y-x-y", "--w", "-4*pi^2*sin(4*pi*x)*sin(4*pi*y)",
         "--rect", "0,1,0,1", "--grid", "2", "--tol"],
        ["verify", "young1", "--f", "exp(x*y)", "--w", "cos(5*x*y)", "--rect", "0,1,0,1",
         "--cells", "1", "--points", "2", "--quad-tol", "10", "--tolerance"],
    ], ids=["lemma1", "thm3", "young1"])
    def test_tolerance_outside_zero_to_infinity_exits_two(self, argv, tol, capsys):
        # each check fails at the default tolerance; a negative or NaN --tol made
        # a hypothesis unreachable and an infinite one met every sign, so lemma1
        # and thm3 passed vacuously
        assert invoke(argv[:-1])[0] == EXIT_FAIL
        code, out, _ = invoke(argv + [tol])
        assert code == EXIT_USAGE
        assert not out
        assert f"argument {argv[-1]}: must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--quad-tol", "nan"],
        ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--quad-tol", "-1"],
        ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--quad-tol", "0"],
        ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1", "--quad-tol", "inf"],
        ["integrate", "--f", "exp(-x-y)", "--rect", "0,1,0,1", "--quad-tol", "inf"],
    ], ids=["stieltjes-nan", "stieltjes-negative", "stieltjes-zero", "stieltjes-inf",
            "integrate-inf"])
    def test_quad_tolerance_outside_zero_to_infinity_exits_two(self, argv, capsys):
        # stieltjes read nan and -1 as "not converged" (exit 1), and 0 and inf
        # as a pass; integrate took inf for a pass after one sweep
        code, out, _ = invoke(argv)
        assert code == EXIT_USAGE
        assert not out
        assert "argument --quad-tol: must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "byparts", "--f", "x*y", "--gdensity", "1", "--g0", "nan", "--rect", "0,1,0,1"],
        ["verify", "hardy", "--tol", "nan"],
        ["verify", "steffensen", "--tol", "inf"],
        ["verify", "hardy", "--tol=-inf"],
    ], ids=["byparts-g0-nan", "hardy-tol-nan", "steffensen-tol-inf", "hardy-tol-minus-inf"])
    def test_non_finite_g0_or_trial_tolerance_exits_two(self, argv, capsys):
        # a NaN --g0 was blamed on a quadrature node (exit 3); a NaN or -inf trial
        # --tol read as a failing identity (exit 1), and an infinite one passed
        code, out, _ = invoke(argv)
        assert code == EXIT_USAGE
        assert not out
        flag = "--g0" if "--g0" in argv else "--tol"
        assert f"argument {flag}: must be a finite number, got" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "--f", "x*y", "--rect", "0,1,0,1", "--margin=nan"],
        ["verify", "thm3", "--f", "x*y", "--w", "1", "--rect", "0,1,0,1", "--margin=nan"],
        ["verify", "thm3", "--f", "x*y", "--w", "1", "--rect", "0,1,0,1", "--margin=-1"],
    ], ids=["certify-nan", "thm3-nan", "thm3-negative"])
    def test_bad_margin_exits_two_naming_the_flag(self, argv, capsys):
        # a NaN --margin was reported as a rectangle with NaN corners
        code, out, _ = invoke(argv)
        assert code == EXIT_USAGE
        assert not out
        assert "argument --margin: must be a finite number >= 0, got" in capsys.readouterr().err

    def test_no_flag_is_a_bare_float(self):
        # float() takes nan and inf, which each flag must refuse by its own name
        assert [flag for flag, kw in cli._FLAGS.items() if kw.get("type") is float] == []

    def test_mollifier_rule_short_of_unit_mass_exits_three(self):
        # at 2 Gauss points the rule's mass is 1 + 3.2e-7 at every size it tries
        code, out, err = invoke(["mollify", "--f", "exp(-x-y)", "--rect", "0,1,0,1", "--n", "4",
                                 "--eval", "0.5,0.5", "--points", "2"])
        assert code == EXIT_NUMERIC
        assert not out
        assert "mollifier rule mass" in err

    @pytest.mark.parametrize("check", ["hardy", "steffensen"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_two(self, check, trials):
        # zero trials used to pass vacuously (steffensen: min_sum null)
        code, out, err = invoke(["verify", check, "--p", "3", "--q", "3", "--trials", trials])
        assert code == EXIT_USAGE
        assert not out
        assert "--trials" in err

    def test_single_steffensen_ignores_trials(self):
        code, doc = invoke_json(["verify", "steffensen", "--a", "[[1,0],[0,1]]",
                                 "--u", "[[1,0],[0,1]]", "--trials", "0"])
        assert code == EXIT_PASS
        assert doc["diagnostics"]["mode"] == "single"

    @pytest.mark.parametrize("command", [
        ["copula", "validate", "--f", "x*y"],
        ["copula", "archimedean", "--phi", "-log(t)", "--eval", "0.5,0.5"],
    ], ids=["validate", "archimedean"])
    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_empty_copula_grid_exits_two(self, command, grid):
        code, out, err = invoke([*command, "--grid", grid])
        assert code == EXIT_USAGE
        assert not out
        assert "grid must be >= 1" in err

    @pytest.mark.parametrize("command, quantity", [
        # f_xy = x/sqrt(x^2) is 0/0 on the x = 0 lattice column
        (["verify", "lemma1", "--f", "y*sqrt(x^2)", "--rect", "-1,1,-1,1"], "mixed partial"),
        (["mollify", "--f", "log(x-0.5)", "--rect", "0,1,0,1", "--n", "4",
          "--eval", "0.2,0.2"], "mollified value"),
        # f(1, 1) is 0/0 on the lattice of the corollary's sum
        (["verify", "corollary", "--f", "sin(x-1)/(x-1)", "--rect", "0,2,0,2"], "f"),
    ], ids=["lemma1", "mollify", "corollary"])
    def test_nonfinite_sample_exits_three(self, command, quantity):
        # lemma1 and mollify used to exit 0 with pass: true and a null result,
        # corollary to exit 1 with lhs null
        code, out, err = invoke(command)
        assert code == EXIT_NUMERIC
        assert not out
        assert f"{quantity} is not finite at (" in err

    @pytest.mark.parametrize("command, point", [
        # log 0 at the thm4 corner (a, c); certify's lattice never sees it
        (["verify", "thm4", "--f", "log(x^2+y^2)", "--w", "1", "--rect", "0,1,0,1"],
         "(0.0, 0.0)"),
        # 0*log 0 is NaN at the young2 corner (a, c) and the young1 corner (b, d) only
        (["verify", "young2", "--f", "x*y+0*log(x^2+y^2)", "--w", "1", "--rect", "0,1,0,1"],
         "(0.0, 0.0)"),
        (["verify", "young1", "--f", "x*y+0*log((x-1)^2+(y-1)^2)", "--w", "1",
          "--rect", "0,1,0,1"], "(1.0, 1.0)"),
    ], ids=["thm4", "young2", "young1"])
    def test_nonfinite_corner_exits_three(self, command, point):
        # thm4 used to exit 0 with bound null (-inf) and inequality_holds true,
        # young1/young2 to exit 1 with corner_term null
        code, out, err = invoke(command)
        assert code == EXIT_NUMERIC
        assert not out
        assert err == f"numeric failure: f is not finite at {point}\n"

    def test_double_dash_value_exits_two(self):
        code, out, err = invoke(["stieltjes", "--h", "x", "--f", "--", "--rect", "0,1,0,1"])
        assert code == EXIT_USAGE
        assert not out
        assert "'--' is not a flag value" in err

    def test_domain_violation_exits_three(self):
        code, _, err = invoke(["certify", "--f", "log(x-10)", "--rect", "0,1,0,1"])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    def test_nonconvergence_exits_three(self):
        code, _, err = invoke(
            ["integrate", "--f", "sqrt(abs(x-0.3))", "--rect", "0,1,0,1",
             "--quad-tol", "1e-15", "--max-refine", "2"]
        )
        assert code == EXIT_NUMERIC


class TestStrictJson:
    def test_nonfinite_values_emitted_as_null(self):
        # one partition and no doubling leaves no error estimate (inf)
        code, out, _ = invoke(
            ["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1",
             "--doublings", "0"]
        )
        assert code == EXIT_FAIL

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["result"]["error_estimate"] is None
        assert doc["result"]["converged"] is False

    def test_nonfinite_fields_are_listed(self):
        _, doc = invoke_json(["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1",
                              "--doublings", "0"])
        assert doc["diagnostics"]["nonfinite"] == ["result.error_estimate"]

    def test_no_nonfinite_key_when_all_finite(self):
        _, doc = invoke_json(["stieltjes", "--h", "x+y", "--f", "x*y", "--rect", "0,1,0,1",
                              "--doublings", "1"])
        assert "nonfinite" not in doc["diagnostics"]


NON_MONOTONE_STIELTJES = ["stieltjes", "--h", "1", "--f", "sin(3*x)*sin(3*y)",
                          "--rect", "0,2,0,2"]
FLOOR_BYPARTS = ["verify", "byparts", "--f", "x*y + floor(2*x)", "--gdensity", "1",
                 "--rect", "0,1,0,1"]


class TestWarnings:
    def test_non_monotone_integrator_is_recorded(self):
        code, out, err = invoke(NON_MONOTONE_STIELTJES)
        doc = json.loads(out)
        assert code in (EXIT_PASS, EXIT_FAIL)
        assert doc["diagnostics"]["bound_checked"] is False
        assert doc["diagnostics"]["warnings"] == [
            "UserWarning: integrator is not 2d-monotone on the partition; "
            "the step-function bound is not asserted"
        ]
        assert "warning: UserWarning: integrator is not 2d-monotone" in err

    def test_floor_derivative_is_recorded_once(self):
        _, doc = invoke_json(FLOOR_BYPARTS)
        assert doc["diagnostics"]["warnings"] == [
            "FloorDerivativeWarning: derivative of floor() taken as 0 "
            "(valid away from integers)"
        ]

    def test_no_key_without_warnings(self):
        _, doc = invoke_json(["certify", "--f", "x*y", "--rect", "0,1,0,1"])
        assert "warnings" not in doc["diagnostics"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "hardy", "--p", "4", "--q", "3", "--trials", "25", "--seed", "7"],
            ["verify", "steffensen", "--p", "3", "--q", "5", "--trials", "25", "--seed", "7"],
            ["certify", "--f", "exp(-x-y)", "--rect", "0,1,0,1", "--grid", "16"],
            NON_MONOTONE_STIELTJES,
            FLOOR_BYPARTS,
        ],
    )
    def test_byte_identical_reruns(self, argv):
        _, out1, _ = invoke(argv)
        _, out2, _ = invoke(argv)
        assert out1 == out2

    def test_out_file(self, tmp_path):
        path = tmp_path / "doc.json"
        code, out, _ = invoke(
            ["--out", str(path), "certify", "--f", "x*y", "--rect", "0,1,0,1"]
        )
        assert code == EXIT_PASS
        assert not out
        doc = json.loads(path.read_text())
        assert set(doc) == SCHEMA_KEYS

    def test_matrices_from_csv_files(self, tmp_path):
        a_path = tmp_path / "a.csv"
        u_path = tmp_path / "u.csv"
        a_path.write_text("0.25,0.125\n0.125,0.0625\n")
        u_path.write_text("1,-1\n-1,1\n")
        code, doc = invoke_json(
            ["verify", "steffensen", "--a", str(a_path), "--u", str(u_path)]
        )
        assert code == EXIT_PASS
        assert doc["result"]["sum"] == 1.0 / 16.0
        assert doc["result"]["hypotheses_hold"] is True


# Consecutive in-process calls share one parser; none may see another's flags
# (--breaks given once, then omitted), usage error or --help.
REUSE_SEQUENCE = [
    ["integrate", "--f", "floor(2*x)+y", "--rect", "0,1,0,1", "--breaks", "x:0.5;y:0.25"],
    ["verify", "byparts", "--f", "x*y", "--gdensity", "1", "--rect", "0,1,0,1"],
    ["copula", "archimedean", "--phi", "-log(t)", "--eval", "0.3,0.6", "--grid", "16"],
    ["integrate", "--f", "x*y"],
    ["--help"],
    ["integrate", "--f", "floor(2*x)+y", "--rect", "0,1,0,1"],
    ["verify", "hardy", "--p", "4", "--q", "3", "--trials", "5"],
]


def fresh_env() -> dict:
    """Environment for a fresh interpreter that imports this steff2d."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(steff2d.__file__)))
    return {**os.environ, "PYTHONPATH": src}


class TestParserReuse:
    def test_parser_is_built_on_first_use_only(self):
        probe = "import steff2d.cli as c; print(c._build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "0"  # not at import
        assert _build_parser() is _build_parser()

    def test_sequence_matches_fresh_processes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
        fresh = [subprocess.Popen([sys.executable, "-m", "steff2d.cli", *argv], env=fresh_env(),
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                 for argv in REUSE_SEQUENCE]
        codes = []
        for argv, proc in zip(REUSE_SEQUENCE, fresh):
            out = io.StringIO()
            # --help and usage errors are written by argparse to sys.stdout/stderr
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            expect, _ = proc.communicate(timeout=120)
            assert (code, out.getvalue()) == (proc.returncode, expect), argv
            codes.append(code)
        assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_USAGE, EXIT_PASS, EXIT_PASS,
                         EXIT_PASS]
