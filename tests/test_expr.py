"""Parser, evaluator, and symbolic-derivative tests."""

import math
import operator
import re
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steff2d.expr as expr
from steff2d.expr import (
    MAX_DEPTH,
    _NEG,
    _OPS,
    Bin,
    BivariateFn,
    Call,
    FloorDerivativeWarning,
    NonDifferentiableError,
    Num,
    ParseError,
    Unary,
    Var,
    _constant,
    differentiate,
    evaluate,
    parse,
    parse_univariate,
    substitute,
    to_string,
)

# Smooth expressions with safe sample boxes for finite-difference checks.
SMOOTH_EXPRESSIONS = [
    ("x*y", (0.1, 0.9)),
    ("x^2 + y^2", (0.1, 0.9)),
    ("1/(exp(x)+exp(y)-1)", (0.1, 0.9)),
    ("log(x^2+y^2)", (0.6, 1.9)),
    ("exp(-x-y)", (0.1, 0.9)),
    ("-((x-y)^2)", (0.1, 0.9)),
    ("(x-y)^2/4", (0.1, 0.9)),
    ("(x+y)^2", (0.1, 0.9)),
    ("sin(x+y)", (0.1, 0.9)),
    ("sqrt(x^2+y^2+1)", (0.1, 0.9)),
    ("cos(x*y)", (0.1, 0.9)),
    ("x^y", (0.6, 1.9)),
]

BUILTINS = [key for key in _OPS if key.isidentifier()]


class TestParsing:
    def test_product_structure(self):
        assert parse("x*y") == Bin("*", Var("x"), Var("y"))

    def test_sum_of_powers_structure(self):
        expected = Bin("+", Bin("^", Var("x"), Num(2.0)), Bin("^", Var("y"), Num(2.0)))
        assert parse("x^2 + y^2") == expected

    def test_aliases_map_to_xy(self):
        assert parse("s + t") == Bin("+", Var("x"), Var("y"))

    def test_constants(self):
        assert evaluate(parse("pi"), 0, 0) == math.pi
        assert evaluate(parse("e"), 0, 0) == math.e

    def test_unary_minus_binds_tighter_than_power(self):
        assert evaluate(parse("-x^2"), 3.0, 0.0) == 9.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0, 0) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse("2^-1"), 0, 0) == 0.5

    @pytest.mark.parametrize(
        "src,kind",
        [
            ("sin(x*", "unbalanced parenthesis"),
            ("(x", "unbalanced parenthesis"),
            ("x)", "unbalanced parenthesis"),
            ("x +* y", "unexpected token"),
            ("", "unexpected token"),
            ("2 @ 3", "unexpected token"),
            ("foo(x)", "unknown identifier"),
            ("z + 1", "unknown identifier"),
            ("sin(x, y)", "arity mismatch"),
            ("min(x)", "arity mismatch"),
        ],
    )
    def test_error_kinds(self, src, kind):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.kind == kind
        assert 0 <= exc.value.offset <= len(src)

    @pytest.mark.parametrize(
        "src",
        [
            "+".join(["x"] * (MAX_DEPTH + 1)),
            "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "-" * (MAX_DEPTH + 1) + "x",
            "sin(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "^".join(["x"] * (MAX_DEPTH + 1)),
        ],
        ids=["sum", "parentheses", "unary", "calls", "power"],
    )
    def test_nesting_beyond_the_limit_is_a_parse_error(self, src):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.kind == "nested too deep"
        assert 0 <= exc.value.offset <= len(src)

    def test_univariate_accepts_t_and_u(self):
        assert parse_univariate("t^2") == parse_univariate("u^2")
        with pytest.raises(ParseError):
            parse_univariate("x + y")


class TestEvaluation:
    def test_examples(self):
        assert evaluate(parse("x*y"), 2, 3) == 6.0
        assert evaluate(parse("exp(-x-y)"), 0, 0) == 1.0
        assert evaluate(parse("floor(x)"), 2.7, 0) == 2.0

    def test_floor_is_largest_integer_below(self):
        assert evaluate(parse("floor(x)"), -2.3, 0) == -3.0

    def test_domain_violations_signal_with_nan(self):
        assert math.isnan(evaluate(parse("log(x)"), -1.0, 0.0))
        assert math.isnan(evaluate(parse("sqrt(x)"), -1.0, 0.0))
        assert math.isnan(evaluate(parse("x^y"), -2.0, 0.5))

    def test_power_integer_fast_path(self):
        assert evaluate(parse("x^3"), -2.0, 0.0) == -8.0
        assert evaluate(parse("x^y"), -2.0, 2.0) == 4.0

    def test_division_follows_ieee(self):
        assert evaluate(parse("1/x"), 0.0, 0.0) == math.inf
        assert math.isnan(evaluate(parse("x/y"), 0.0, 0.0))

    def test_min_max(self):
        assert evaluate(parse("min(x, y)"), 2, 3) == 2.0
        assert evaluate(parse("max(x, y)"), 2, 3) == 3.0

    def test_vectorized_matches_scalar(self):
        f = BivariateFn.from_expression("sin(x)*exp(-y) + x^2/(1+y^2)")
        xs = np.linspace(-2, 2, 7)
        ys = np.linspace(0, 3, 5)
        grid = f(xs[:, None], ys[None, :])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(evaluate(f.ast, x, y), abs=0, rel=1e-15)

    def test_constant_expression_broadcasts(self):
        f = BivariateFn.from_expression("5")
        out = f(np.zeros((3, 4)), np.zeros((3, 4)))
        assert out.shape == (3, 4)
        assert np.all(out == 5.0)


class TestConstant:
    """expr._constant, which reads the CLI's numbers."""

    def test_literal_is_neither_compiled_nor_evaluated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a literal was compiled or evaluated")

        monkeypatch.setattr(expr, "_compile", refuse)
        monkeypatch.setattr(expr, "evaluate", refuse)
        assert _bits(_constant("1.692")) == _bits(1.692)
        assert _bits(_constant("-0")) == _bits(-0.0)
        assert _constant("1e999") == math.inf

    def test_constant_expression_is_the_compiled_value(self):
        assert _bits(_constant("4*pi/3")) == _bits(4 * math.pi / 3)
        assert _bits(_constant("sqrt(2)/2")) == _bits(np.divide(np.sqrt(2.0), 2.0))

    def test_expression_naming_a_variable_has_no_value(self):
        assert _constant("x") is None
        assert _constant("t", univariate=True) is None


class TestDifferentiation:
    def test_power_rule(self):
        d = differentiate(parse("x^2*y"), "x")
        assert evaluate(d, 3, 2) == 12.0

    def test_mixed_partial_of_log_oracle(self):
        # analytic oracle: d2/dxdy log(x^2+y^2) = -4xy/(x^2+y^2)^2
        dd = differentiate(differentiate(parse("log(x^2+y^2)"), "x"), "y")
        assert evaluate(dd, 1, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_derivative_is_zero(self):
        assert differentiate(parse("5"), "x") == Num(0.0)

    def test_floor_warns_and_returns_zero(self):
        with pytest.warns(FloorDerivativeWarning):
            d = differentiate(parse("floor(x)*y + x"), "x")
        assert evaluate(d, 2.5, 3.0) == 1.0

    @pytest.mark.parametrize("src", ["abs(x)", "min(x, y)", "max(x, y) + 1"])
    def test_nondifferentiable_builtins_raise(self, src):
        with pytest.raises(NonDifferentiableError):
            differentiate(parse(src), "x")

    @pytest.mark.parametrize("src,box", SMOOTH_EXPRESSIONS)
    def test_derivative_matches_central_difference(self, src, box, rng):
        ast = parse(src)
        dx = differentiate(ast, "x")
        dy = differentiate(ast, "y")
        lo, hi = box
        h = 1e-5
        for _ in range(25):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            fd_x = (evaluate(ast, x + h, y) - evaluate(ast, x - h, y)) / (2 * h)
            fd_y = (evaluate(ast, x, y + h) - evaluate(ast, x, y - h)) / (2 * h)
            assert evaluate(dx, x, y) == pytest.approx(fd_x, rel=1e-5, abs=1e-7)
            assert evaluate(dy, x, y) == pytest.approx(fd_y, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("src,box", SMOOTH_EXPRESSIONS)
    def test_mixed_partials_commute(self, src, box, rng):
        ast = parse(src)
        dxy = differentiate(differentiate(ast, "x"), "y")
        dyx = differentiate(differentiate(ast, "y"), "x")
        lo, hi = box
        for _ in range(10):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            assert evaluate(dxy, x, y) == pytest.approx(evaluate(dyx, x, y), abs=1e-10)

    def test_substitute_composes(self):
        f = parse_univariate("t^2 + 1")
        g = substitute(f, {"x": Bin("-", Var("x"), Var("y"))})
        assert evaluate(g, 3, 1) == 5.0


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(round(float(rng.uniform(-5, 5)), 6))
        return Var("x" if rng.random() < 0.5 else "y")
    roll = rng.random()
    if roll < 0.15:
        return Unary("-", _random_ast(rng, depth - 1))
    if roll < 0.75:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return Bin(str(op), _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    name = str(rng.choice(BUILTINS))
    return Call(name, tuple(_random_ast(rng, depth - 1) for _ in range(_OPS[name].arity)))


def _same_value(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_print_parse_round_trip_evaluates_identically():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        ast = _random_ast(rng, depth=int(rng.integers(1, 7)))
        reparsed = parse(to_string(ast))
        for _ in range(10):
            x = float(rng.uniform(-3, 3))
            y = float(rng.uniform(-3, 3))
            assert _same_value(evaluate(ast, x, y), evaluate(reparsed, x, y))


def test_round_trip_is_structural_for_parsed_sources():
    sources = [
        "x*y", "x^2 + y^2", "-(x-y)^2", "min(x, y)", "floor(x) + 1e-5*y",
        "x/(y+1)/2", "2 - 3 - 4", "sin(cos(exp(x)))", "x^-2", "-x^2*y",
    ]
    for src in sources:
        ast = parse(src)
        assert parse(to_string(ast)) == ast


def test_non_finite_constants_render_as_readable_literals():
    # a literal past the double range parses to an infinity; rendering it
    # as "inf" made the text unparseable and the compiled code a NameError
    for src in ["1e310", "-1e310", "x^1e310", "-1e310*y", "1e310 - 1e310"]:
        ast = parse(src)
        assert parse(to_string(ast)) == ast
    f = BivariateFn.from_expression("1e310*x + y")
    vals = f(np.array([1.0, -1.0]), np.array([0.0, 1.0]))
    assert list(vals) == [math.inf, -math.inf]
    # constant folding can make NaN, which has no literal of its own
    nan = Bin("*", Num(math.nan), Var("x"))
    assert math.isnan(evaluate(parse(to_string(nan)), 1.0, 0.0))
    assert math.isnan(BivariateFn.from_ast(nan)(1.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xyst0123456789+-*/^(), .abcdefgilmnopqrx", max_size=40))
@example("1e310")
def test_parser_total_on_arbitrary_text(text):
    # Either a valid AST or a ParseError; nothing else escapes.
    try:
        ast = parse(text)
    except ParseError:
        return
    assert parse(to_string(ast)) == ast


# ---------------------------------------------------------------------------
# The operator table: each row is read by the parser, the compiler and the
# differentiator
# ---------------------------------------------------------------------------

# -2.5 tells floor from truncation
SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, -2.5, math.inf, -math.inf, math.nan, 1e-300, 1e300]

# The reference interpreter of one row: the numpy function each operator and
# builtin means, applied to np.float64 values.  The compiled templates must
# reproduce it bit for bit.
REFERENCE = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide,
    "^": np.power, _NEG: operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "floor": np.floor,
    "min": np.minimum, "max": np.maximum,
}


def _row_source(key):
    if key == _NEG:
        return "-x"
    if not key.isidentifier():
        return f"x {key} y"
    return f"{key}({', '.join('xy'[:_OPS[key].arity])})"


def _bits(value):
    return np.float64(value).view(np.uint64)


def test_reference_covers_every_row_of_the_table():
    assert REFERENCE.keys() == _OPS.keys()


@pytest.mark.parametrize("key", list(_OPS))
def test_interpreter_and_compiled_code_agree_bitwise_at_special_values(key):
    # the interpreter is REFERENCE; the compiled code runs on 0-d arrays
    # through BivariateFn and on np.float64 scalars through evaluate
    src = _row_source(key)
    ast, f = parse(src), BivariateFn.from_expression(src)
    for point in product(SPECIAL_VALUES, repeat=_OPS[key].arity):
        with np.errstate(all="ignore"):
            expected = _bits(REFERENCE[key](*map(np.float64, point)))
        x, y = (*point, 0.0)[:2]
        assert _bits(f(x, y)) == expected, (src, x, y)
        assert _bits(evaluate(ast, x, y)) == expected, (src, x, y)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_parse_only_at_their_arity(name):
    arity = _OPS[name].arity
    assert parse(f"{name}({', '.join(['x'] * arity)})") == Call(name, (Var("x"),) * arity)
    for wrong in (arity - 1, arity + 1):
        if wrong == 0:
            continue
        with pytest.raises(ParseError) as exc:
            parse(f"{name}({', '.join(['x'] * wrong)})")
        assert exc.value.kind == "arity mismatch"


def test_readme_lists_the_builtins_of_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Builtin functions.*?\.\s", readme, flags=re.DOTALL).group(0)
    assert re.findall(r"`(\w+)`", sentence) == BUILTINS


# Expressions exactly at the parser's depth limit, in shapes whose
# derivatives grow deepest: every tree walker must handle them and their
# mixed partials without exhausting the stack or Python's nesting limit.
AT_DEPTH_LIMIT = [
    " + ".join(f"{k + 1}*x*y" if k % 2 else f"{k + 1}*x" for k in range(MAX_DEPTH - 2)),
    "*".join(["x", "y"] * (MAX_DEPTH // 2)),
    "/".join(["(x+2)", "(y+2)"] * (MAX_DEPTH // 2 - 1)),
    "sin(" * (MAX_DEPTH - 2) + "x" + ")" * (MAX_DEPTH - 2) + "*y",
]


@pytest.mark.parametrize("src", AT_DEPTH_LIMIT, ids=["sum", "product", "quotient", "calls"])
def test_walkers_are_safe_at_the_depth_limit(src):
    # half of Python's default recursion limit leaves room for the callers
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        _walk_all(src)
    finally:
        sys.setrecursionlimit(limit)


def _walk_all(src):
    ast = parse(src)
    assert parse(to_string(ast)) == ast
    f = BivariateFn.from_expression(src)
    fxy = f.mixed_partial()
    assert fxy.expression  # rendered, though deeper than the parser accepts
    xs, ys = np.linspace(0.2, 0.9, 4), np.linspace(0.3, 0.8, 4)
    vals = f(xs, ys)
    # the compiled code (locals for deep subexpressions) and the tree walker
    # run the same operations in the same order
    assert np.array_equal(vals, [evaluate(ast, x, y) for x, y in zip(xs, ys)])
    assert np.all(np.isfinite(fxy(xs, ys)))
