"""Bivariate expression language: parsing, evaluation, symbolic derivatives.

Expressions are plain infix arithmetic over the variables x and y (the
aliases s and t are accepted and mapped to x and y).  Precedence, from
tightest to loosest: unary minus, ``^`` (right-associative), ``*`` ``/``,
``+`` ``-``.  The builtin functions are sin, cos, exp, log, sqrt, abs,
floor (all unary) and min, max (binary); the constants pi and e are
recognized.  Evaluation follows IEEE double semantics: out-of-domain
arguments yield NaN (or a signed infinity) rather than raising, and
callers are expected to surface non-finite lattice values as domain
errors.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "NonDifferentiableError",
    "FloorDerivativeWarning",
    "Ast",
    "Num",
    "Var",
    "Unary",
    "Bin",
    "Call",
    "parse",
    "parse_univariate",
    "evaluate",
    "differentiate",
    "to_string",
    "substitute",
    "BivariateFn",
    "UnivariateFn",
    "as_bivariate",
    "as_univariate",
]

UNEXPECTED_TOKEN = "unexpected token"
UNBALANCED_PAREN = "unbalanced parenthesis"
UNKNOWN_IDENTIFIER = "unknown identifier"
ARITY_MISMATCH = "arity mismatch"
NESTED_TOO_DEEP = "nested too deep"

# Deepest expression the parser accepts, counting both the AST depth (a sum
# of n terms is n levels deep) and the nesting of parentheses and calls.
# The tree walkers recurse, and a mixed partial derivative can be about 4.5
# times deeper than its expression; at this limit that stays well inside
# Python's default recursion limit.
MAX_DEPTH = 64


class ParseError(ValueError):
    """Syntax error in an expression string.

    Carries the byte ``offset`` into the source and an error ``kind``
    (one of "unexpected token", "unbalanced parenthesis",
    "unknown identifier", "arity mismatch", "nested too deep").
    """

    def __init__(self, kind: str, offset: int, message: str):
        super().__init__(f"{message} (at offset {offset})")
        self.kind = kind
        self.offset = offset
        self.message = message


class NonDifferentiableError(ValueError):
    """Raised when differentiating through abs/min/max."""


class FloorDerivativeWarning(UserWarning):
    """floor() was differentiated; the zero derivative is only valid a.e."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Unary:
    op: str  # '-'
    operand: "Ast"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/', '^'
    lhs: "Ast"
    rhs: "Ast"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Ast = Union[Num, Var, Unary, Bin, Call]

_FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "floor": 1,
    "min": 2,
    "max": 2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            tokens.append(("num", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            tokens.append(("ident", m.group(0), i))
            i = m.end()
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(UNEXPECTED_TOKEN, i, f"unexpected character {ch!r}")
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Precedence-climbing parser
# ---------------------------------------------------------------------------

_BINARY_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_RIGHT_ASSOC = {"^"}
_UNARY_PREC = 40  # unary minus binds tighter than ^


class _Parser:
    def __init__(self, tokens, variables: dict[str, str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses, for error messages
        self.level = 0  # active parse_expression calls
        self.variables = variables  # accepted name -> canonical name

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        if op == ")":
            raise ParseError(UNBALANCED_PAREN, off, "expected ')'")
        raise ParseError(UNEXPECTED_TOKEN, off, f"expected {op!r}, got {text or 'end of input'!r}")

    def fail_operand(self):
        kind, text, off = self.peek()
        if kind == "end" and self.depth > 0:
            raise ParseError(UNBALANCED_PAREN, off, "unexpected end of input inside parentheses")
        if kind == "op" and text == ")":
            raise ParseError(UNBALANCED_PAREN, off, "unmatched ')'")
        raise ParseError(UNEXPECTED_TOKEN, off, f"expected an operand, got {text or 'end of input'!r}")

    @staticmethod
    def check_depth(depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(NESTED_TOO_DEEP, off,
                             f"expression nested deeper than {MAX_DEPTH} levels")
        return depth

    def parse_expression(self, min_prec: int = 0) -> tuple[Ast, int]:
        """Parse at or above min_prec; returns the AST and its depth."""
        self.level += 1
        self.check_depth(self.level, self.peek()[2])
        lhs, depth = self.parse_operand()
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in _BINARY_PREC:
                break
            prec = _BINARY_PREC[text]
            if prec < min_prec:
                break
            self.advance()
            next_min = prec if text in _RIGHT_ASSOC else prec + 1
            rhs, rdepth = self.parse_expression(next_min)
            lhs, depth = Bin(text, lhs, rhs), self.check_depth(1 + max(depth, rdepth), off)
        self.level -= 1
        return lhs, depth

    def parse_operand(self) -> tuple[Ast, int]:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand, depth = self.parse_expression(_UNARY_PREC)
            if isinstance(operand, Num):
                return Num(-operand.value), depth
            return Unary("-", operand), self.check_depth(depth + 1, off)
        if kind == "op" and text == "(":
            self.advance()
            self.depth += 1
            inner = self.parse_expression(0)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "num":
            self.advance()
            return Num(float(text)), 1
        if kind == "ident":
            self.advance()
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                return self.parse_call(text, off)
            if text in self.variables:
                return Var(self.variables[text]), 1
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text]), 1
            raise ParseError(UNKNOWN_IDENTIFIER, off, f"unknown identifier {text!r}")
        self.fail_operand()

    def parse_call(self, name: str, off: int) -> tuple[Ast, int]:
        if name not in _FUNCTION_ARITY:
            raise ParseError(UNKNOWN_IDENTIFIER, off, f"unknown function {name!r}")
        self.expect_op("(")
        self.depth += 1
        args = [self.parse_expression(0)]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.parse_expression(0))
            else:
                break
        self.expect_op(")")
        self.depth -= 1
        arity = _FUNCTION_ARITY[name]
        if len(args) != arity:
            raise ParseError(
                ARITY_MISMATCH, off, f"{name} takes {arity} argument(s), got {len(args)}"
            )
        depth = self.check_depth(1 + max(d for _, d in args), off)
        return Call(name, tuple(a for a, _ in args)), depth


_BIVARIATE_VARS = {"x": "x", "y": "y", "s": "x", "t": "y"}
_UNIVARIATE_VARS = {"t": "x", "u": "x", "x": "x", "s": "x"}


def _parse(src: str, variables: dict[str, str]) -> Ast:
    parser = _Parser(_tokenize(src), variables)
    ast, _ = parser.parse_expression(0)
    kind, text, off = parser.peek()
    if kind != "end":
        if kind == "op" and text == ")":
            raise ParseError(UNBALANCED_PAREN, off, "unmatched ')'")
        raise ParseError(UNEXPECTED_TOKEN, off, f"trailing input {text!r}")
    return ast


def parse(src: str) -> Ast:
    """Parse a bivariate expression in x and y (aliases s, t)."""
    return _parse(src, _BIVARIATE_VARS)


def parse_univariate(src: str) -> Ast:
    """Parse a one-variable expression (variable t, u, x, or s)."""
    return _parse(src, _UNIVARIATE_VARS)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "floor": np.floor,
    "min": np.minimum,
    "max": np.maximum,
}


def _eval_node(node: Ast, x, y):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Unary):
        return -_eval_node(node.operand, x, y)
    if isinstance(node, Bin):
        a = _eval_node(node.lhs, x, y)
        b = _eval_node(node.rhs, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.divide(a, b)
        return np.power(a, b)
    fn = _NUMPY_FUNCS[node.name]
    return fn(*(_eval_node(arg, x, y) for arg in node.args))


def evaluate(node: Ast, x: float, y: float = 0.0) -> float:
    """Evaluate an AST at a point under IEEE semantics (NaN on domain errors).

    np.power matches the convention used throughout: negative bases with
    integer exponents take the signed-power fast path, non-integer
    exponents give NaN.
    """
    with np.errstate(all="ignore"):
        return float(_eval_node(node, np.float64(x), np.float64(y)))


def _constant(text: str, univariate: bool = False) -> Optional[float]:
    """Value of a constant expression such as '3*pi/4', or None when it names
    a variable of parse (parse_univariate); ParseError when it does not parse."""
    ast = (parse_univariate if univariate else parse)(text)
    return None if free_variables(ast) else evaluate(ast, 0.0)


# ---------------------------------------------------------------------------
# Compilation to a vectorized numpy callable
# ---------------------------------------------------------------------------

# Python refuses source nested deeper than 200 parentheses, and derivatives
# of parseable expressions nest deeper than that; _emit binds a subexpression
# nested this deep to a local first.
_MAX_NESTING = 50


def _emit(node: Ast, lines: list) -> tuple[str, int]:
    """numpy source of node and its parenthesis nesting.

    Subexpressions nested _MAX_NESTING deep are appended to lines as
    assignments to locals t0, t1, ... and referenced by name.
    """
    if isinstance(node, Num):
        return f"({_literal(node.value)})", 1
    if isinstance(node, Var):
        return node.name, 0
    if isinstance(node, Unary):
        a, nesting = _emit(node.operand, lines)
        code = f"(-{a})"
    elif isinstance(node, Bin):
        (a, na), (b, nb) = _emit(node.lhs, lines), _emit(node.rhs, lines)
        nesting = max(na, nb)
        if node.op == "^":
            code = f"np.power({a}, {b})"
        elif node.op == "/":
            code = f"np.divide({a}, {b})"
        else:
            code = f"({a} {node.op} {b})"
    else:
        args = [_emit(arg, lines) for arg in node.args]
        nesting = max(k for _, k in args)
        fname = {"min": "np.minimum", "max": "np.maximum", "abs": "np.abs"}.get(
            node.name, f"np.{node.name}"
        )
        code = f"{fname}({', '.join(a for a, _ in args)})"
    if nesting + 1 < _MAX_NESTING:
        return code, nesting + 1
    lines.append(f"t{len(lines)} = {code}")
    return f"t{len(lines) - 1}", 0


def _compile(node: Ast) -> Callable:
    lines: list = []
    code, _ = _emit(node, lines)
    body = "".join(f"    {line}\n" for line in lines)
    namespace = {"np": np}
    exec(f"def fn(x, y):\n{body}    return {code}\n", namespace)  # noqa: S102 - from our AST
    return namespace["fn"]


# ---------------------------------------------------------------------------
# Printing (round-trips through parse)
# ---------------------------------------------------------------------------

def _prec_of(node: Ast) -> int:
    if isinstance(node, (Var, Call)):
        return 100
    if isinstance(node, Num):
        return _UNARY_PREC if node.value < 0 else 100
    if isinstance(node, Unary):
        return _UNARY_PREC
    return _BINARY_PREC[node.op]


def _literal(value: float) -> str:
    """Source text of a constant that both the parser and Python read back.

    repr gives "inf" and "nan" for non-finite values, which neither reads: a
    literal that overflows ("1e310") parses to an infinity, and constant
    folding in derivatives can make either.
    """
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "(1e999 - 1e999)"
    return "1e999" if value > 0 else "-1e999"


def _wrap(child: Ast, text: str, required: int) -> str:
    if _prec_of(child) < required:
        return f"({text})"
    return text


def to_string(node: Ast) -> str:
    """Render an AST; parse(to_string(a)) reproduces a."""
    # one stack frame per tree level: children are rendered here, not in _wrap
    if isinstance(node, Num):
        return _literal(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"-{_wrap(node.operand, to_string(node.operand), _UNARY_PREC + 1)}"
    if isinstance(node, Bin):
        prec = _BINARY_PREC[node.op]
        lhs, rhs = to_string(node.lhs), to_string(node.rhs)
        if node.op in _RIGHT_ASSOC:
            return f"{_wrap(node.lhs, lhs, prec + 1)}{node.op}{_wrap(node.rhs, rhs, prec)}"
        return f"{_wrap(node.lhs, lhs, prec)} {node.op} {_wrap(node.rhs, rhs, prec + 1)}"
    args = ", ".join([to_string(a) for a in node.args])
    return f"{node.name}({args})"


# ---------------------------------------------------------------------------
# Symbolic differentiation (constant folding only, no other simplification)
# ---------------------------------------------------------------------------

def _is_num(node: Ast, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a: Ast, b: Ast) -> Ast:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a: Ast, b: Ast) -> Ast:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _neg(a: Ast) -> Ast:
    if _is_num(a):
        return Num(-a.value)
    return Unary("-", a)


def _mul(a: Ast, b: Ast) -> Ast:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a: Ast, b: Ast) -> Ast:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Bin("/", a, b)


def _pow(a: Ast, b: Ast) -> Ast:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Bin("^", a, b)


def differentiate(node: Ast, var: str) -> Ast:
    """Exact partial derivative of an AST with respect to 'x' or 'y'.

    Subtrees that do not involve the variable differentiate to zero
    without being descended, so piecewise builtins are only rejected
    when they actually sit on the differentiation path: floor()
    differentiates to zero with a FloorDerivativeWarning (valid away
    from integers), abs/min/max raise NonDifferentiableError.
    """
    if var not in ("x", "y"):
        raise ValueError(f"var must be 'x' or 'y', got {var!r}")
    return _diff(node, var)


def _diff(node: Ast, var: str) -> Ast:
    if var not in free_variables(node):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Unary):
        return _neg(_diff(node.operand, var))
    if isinstance(node, Bin):
        a, b = node.lhs, node.rhs
        if node.op == "+":
            return _add(_diff(a, var), _diff(b, var))
        if node.op == "-":
            return _sub(_diff(a, var), _diff(b, var))
        if node.op == "*":
            return _add(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
        if node.op == "/":
            num = _sub(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
            return _div(num, _pow(b, Num(2.0)))
        # power rule for constant exponents, exp/log form otherwise
        da = _diff(a, var)
        if isinstance(b, Num):
            return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
        db = _diff(b, var)
        inner = _add(_mul(db, Call("log", (a,))), _mul(b, _div(da, a)))
        return _mul(_pow(a, b), inner)
    return _diff_call(node, var)


def _diff_call(node: Call, var: str) -> Ast:
    arg = node.args[0]
    if node.name == "floor":
        warnings.warn(
            "derivative of floor() taken as 0 (valid away from integers)",
            FloorDerivativeWarning,
            stacklevel=3,
        )
        return Num(0.0)
    if node.name in ("abs", "min", "max"):
        raise NonDifferentiableError(
            f"{node.name}() is not differentiable; use a finite-difference fallback"
        )
    da = _diff(arg, var)
    if node.name == "sin":
        return _mul(Call("cos", (arg,)), da)
    if node.name == "cos":
        return _neg(_mul(Call("sin", (arg,)), da))
    if node.name == "exp":
        return _mul(Call("exp", (arg,)), da)
    if node.name == "log":
        return _div(da, arg)
    if node.name == "sqrt":
        return _div(da, _mul(Num(2.0), Call("sqrt", (arg,))))
    raise NonDifferentiableError(f"no derivative rule for {node.name}()")


def substitute(node: Ast, mapping: dict[str, Ast]) -> Ast:
    """Replace variables by ASTs (used to compose catalog functions)."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Unary):
        return Unary(node.op, substitute(node.operand, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.lhs, mapping), substitute(node.rhs, mapping))
    return Call(node.name, tuple(substitute(a, mapping) for a in node.args))


def free_variables(node: Ast) -> set[str]:
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Bin):
        return free_variables(node.lhs) | free_variables(node.rhs)
    out: set[str] = set()
    for a in node.args:
        out |= free_variables(a)
    return out


# ---------------------------------------------------------------------------
# Function wrappers
# ---------------------------------------------------------------------------

def _broadcast_call(fn: Callable, x, y):
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        out = fn(xs, ys)
    out = np.asarray(out, dtype=float)
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    if shape == ():
        return float(out)
    return out


class BivariateFn:
    """Evaluable pure map (x, y) -> real, vectorized over numpy arrays.

    Backed either by a parsed expression AST (in which case exact
    symbolic partial derivatives are available) or by an arbitrary
    numpy-broadcasting closure.
    """

    def __init__(self, fn: Callable, ast: Optional[Ast] = None, name: Optional[str] = None):
        self._fn = fn
        self.ast = ast
        self.name = name
        self._partials: dict[str, "BivariateFn"] = {}

    @classmethod
    def from_expression(cls, src: str) -> "BivariateFn":
        ast = parse(src)
        return cls(_compile(ast), ast=ast, name=src)

    @classmethod
    def from_ast(cls, ast: Ast) -> "BivariateFn":
        return cls(_compile(ast), ast=ast)

    @classmethod
    def from_callable(cls, fn: Callable, name: Optional[str] = None) -> "BivariateFn":
        return cls(fn, ast=None, name=name)

    def __call__(self, x, y):
        return _broadcast_call(self._fn, x, y)

    @property
    def expression(self) -> Optional[str]:
        if self.ast is not None:
            return to_string(self.ast)
        return self.name

    @property
    def has_symbolic_partials(self) -> bool:
        return self.ast is not None

    def symbolic_partial(self, var: str) -> Optional["BivariateFn"]:
        """Exact partial derivative as a new BivariateFn, or None."""
        if self.ast is None:
            return None
        if var not in self._partials:
            self._partials[var] = BivariateFn.from_ast(differentiate(self.ast, var))
        return self._partials[var]

    def mixed_partial(self) -> Optional["BivariateFn"]:
        fx = self.symbolic_partial("x")
        if fx is None:
            return None
        return fx.symbolic_partial("y")

    def __repr__(self):
        return f"BivariateFn({self.expression!r})"


class UnivariateFn:
    """One-variable counterpart of BivariateFn (internal variable 'x')."""

    def __init__(self, fn: Callable, ast: Optional[Ast] = None, name: Optional[str] = None):
        self._fn = fn
        self.ast = ast
        self.name = name

    @classmethod
    def from_expression(cls, src: str) -> "UnivariateFn":
        ast = parse_univariate(src)
        return cls(_compile(ast), ast=ast, name=src)

    @classmethod
    def from_ast(cls, ast: Ast) -> "UnivariateFn":
        return cls(_compile(ast), ast=ast)

    @classmethod
    def from_callable(cls, fn: Callable, name: Optional[str] = None) -> "UnivariateFn":
        return cls(lambda x, y: fn(x), ast=None, name=name)

    def __call__(self, t):
        return _broadcast_call(self._fn, t, 0.0)

    def derivative(self) -> Optional["UnivariateFn"]:
        if self.ast is None:
            return None
        return UnivariateFn.from_ast(differentiate(self.ast, "x"))

    def __repr__(self):
        return f"UnivariateFn({self.name or (self.ast and to_string(self.ast))!r})"


def _as_function(obj, cls):
    """as_bivariate and as_univariate, for cls BivariateFn and UnivariateFn."""
    if isinstance(obj, cls):
        return obj
    if isinstance(obj, str):
        return cls.from_expression(obj)
    if isinstance(obj, (Num, Var, Unary, Bin, Call)):
        return cls.from_ast(obj)
    if callable(obj):
        return cls.from_callable(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a {cls.__name__}")


def as_bivariate(obj) -> BivariateFn:
    """Coerce an expression string, a parsed AST, a BivariateFn or a numpy-broadcasting
    callable, also one that returns a single value, to a BivariateFn."""
    return _as_function(obj, BivariateFn)


def as_univariate(obj) -> UnivariateFn:
    """The coercion of as_bivariate, for a one-variable function."""
    return _as_function(obj, UnivariateFn)
