"""CLI contract under junk input: every run exits with 0, 1, 2 or 3, and
stdout is empty or strict JSON."""

import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steff2d.cli import run


def not_an_integer(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# Junk never parses as an integer, so no size flag leaves its bound.
JUNK = st.text(alphabet="xyutn0123456789.,:;+-*/^()[]e pi", max_size=12).filter(not_an_integer)
# Value pools: valid values and edge cases; flags() swaps junk text into at
# most one value of each run.
EXPR = st.sampled_from(["x*y", "exp(-x-y)", "sin(x)*sin(y)", "floor(2*x)+y", "log(x)",
                        "1/(x-y)", "x^y", "sqrt(x-1)", "x^2*y - y^2*x", "1e300*x*y", "u^2",
                        "-log(t)", "t^2", "exp(t)", "catalog:Pi", "catalog:convex_sum(t^2, 1)",
                        "catalog:nope"])
NUMBER = st.sampled_from(["0", "1", "-1", "0.5", "2", "pi", "1e-300", "1e308", "nan", "inf"])
RECT = st.one_of(st.sampled_from(["0,1,0,1", "0,pi,0,pi", "0.5,2,0.5,2", "-1,1,-1,1"]),
                 st.lists(NUMBER, min_size=3, max_size=5).map(",".join))
POINT = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
BREAKS = st.sampled_from(["x:0.5", "x:1,2;y:0.5", "y:", "z:1", "x:nan", "x:0,1"])
MATRIX = st.sampled_from(["[[1,2],[3,4]]", "[[1,-1],[-1,1]]", "[[0.25,0.125],[0.125,0.0625]]",
                          "[[1],[2,3]]", "[]", "[[]]", "[[1,2]]", "[1,2]", "[[\"a\"]]",
                          "[[NaN]]", "[[1e308,1e308],[1e308,1e308]]"])
TOL = st.sampled_from(["1e-9", "1e-6", "1e-15", "0", "-1", "nan", "inf", "1e308"])


def size(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


def flags(required: dict, optional: dict = None):
    """argv fragment: every required flag and any subset of the optional
    ones, with junk text in place of at most one value."""
    def spoil(chosen):
        return st.one_of(st.just(chosen), st.builds(lambda flag, junk: {**chosen, flag: junk},
                                                    st.sampled_from(sorted(chosen)), JUNK))
    return st.fixed_dictionaries(required, optional=optional).flatmap(spoil).map(
        lambda chosen: [tok for item in chosen.items() for tok in item])


# Size flags are always given, so every run is bounded whatever the defaults.
QUAD = {"--cells": size(1, 4), "--points": size(1, 6), "--max-refine": size(0, 3)}
QUAD_TOL = {"--quad-tol": TOL}
COMMANDS = {
    ("certify",): flags({"--f": EXPR, "--rect": RECT, "--grid": size(1, 16)},
                        {"--tol": TOL, "--margin": TOL}),
    ("integrate",): flags({"--f": EXPR, "--rect": RECT, **QUAD},
                          {"--breaks": BREAKS, **QUAD_TOL}),
    ("stieltjes",): flags({"--h": EXPR, "--f": EXPR, "--rect": RECT, "--partition": size(1, 8),
                           "--doublings": size(0, 3)}, QUAD_TOL),
    ("copula", "validate"): flags({"--f": EXPR, "--grid": size(1, 16)}, {"--tol": TOL}),
    ("copula", "archimedean"): flags({"--phi": EXPR, "--eval": POINT, "--grid": size(1, 16)},
                                     {"--tol": TOL}),
    ("mollify",): flags({"--f": EXPR, "--rect": RECT, "--n": size(1, 4), "--eval": POINT, **QUAD},
                        QUAD_TOL),
    ("verify", "hardy"): flags({"--p": size(1, 8), "--q": size(1, 8), "--trials": size(0, 3)},
                               {"--seed": size(0, 9), "--tol": TOL}),
    ("verify", "steffensen"): flags({"--p": size(1, 8), "--q": size(1, 8), "--trials": size(0, 3)},
                                    {"--a": MATRIX, "--u": MATRIX, "--seed": size(0, 9),
                                     "--tol": TOL}),
    ("verify", "young1"): flags({"--f": EXPR, "--w": EXPR, "--rect": RECT, **QUAD},
                                {"--tolerance": TOL, **QUAD_TOL}),
    ("verify", "young2"): flags({"--f": EXPR, "--w": EXPR, "--rect": RECT, **QUAD},
                                {"--tolerance": TOL, **QUAD_TOL}),
    **{("verify", name): flags({"--f": EXPR, "--w": EXPR, "--rect": RECT, "--grid": size(1, 16),
                                **QUAD}, {"--margin": TOL, "--tol": TOL, **QUAD_TOL})
       for name in ("thm3", "thm4", "remark3")},
    ("verify", "fourier"): flags({"--kernel": st.sampled_from(["sinsin2d", "coscos2d", "cos1d",
                                                               "sin1d", "tan1d"]),
                                  "--f": EXPR, "--m": size(1, 3), "--n": size(1, 3), **QUAD},
                                 QUAD_TOL),
    ("verify", "byparts"): flags({"--f": EXPR, "--rect": RECT, **QUAD},
                                 {"--gdensity": EXPR, "--g1": EXPR, "--g2": EXPR, "--g0": TOL,
                                  "--tolerance": TOL, **QUAD_TOL}),
    ("verify", "corollary"): flags({"--f": EXPR, "--rect": RECT, **QUAD},
                                   {"--tolerance": TOL, **QUAD_TOL}),
    ("verify", "lemma1"): flags({"--f": EXPR, "--rect": RECT, "--grid": size(1, 16)},
                                {"--tol": TOL}),
}
ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda cmd: COMMANDS[cmd].map(lambda rest: [*cmd, *rest]))


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_any_input_keeps_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code in (0, 1, 2, 3), err.getvalue()
    if out.getvalue():
        doc = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert doc["pass"] is (code == 0)
