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

Each operator and builtin is one row of the table ``_OPS``: its arity,
the source template the compiler emits, and its derivative rule.  The
parser, the compiler and ``differentiate`` all read that row, so adding a
builtin means adding one row.  The compiled code is the one evaluator:
``evaluate`` runs it at a single point.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

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


# ---------------------------------------------------------------------------
# Operators and builtins
# ---------------------------------------------------------------------------

class _Op(NamedTuple):
    arity: int
    template: str  # the source _emit writes, one {} per argument
    derivative: object  # rule(args, dargs) -> Ast, or _REFUSE or _ZERO


# Derivative markers; differentiate descends into the argument under neither.
_REFUSE = "refuse"  # NonDifferentiableError
_ZERO = "zero away from integers"  # Num(0.0) with a FloorDerivativeWarning

_NEG = "u-"  # unary minus; not an identifier, so never parsed as a builtin


def _power_rule(args, dargs):
    # power rule for constant exponents, exp/log form otherwise
    (a, b), (da, db) = args, dargs
    if isinstance(b, Num):
        return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
    return _mul(_pow(a, b), _add(_mul(db, Call("log", (a,))), _mul(b, _div(da, a))))


# The builtins are the identifier keys.  Every arity is 1 or 2: the tree
# walkers unroll the arguments, so that one tree level costs one stack frame.
_OPS = {
    "+": _Op(2, "({} + {})", lambda a, da: _add(da[0], da[1])),
    "-": _Op(2, "({} - {})", lambda a, da: _sub(da[0], da[1])),
    "*": _Op(2, "({} * {})",
             lambda a, da: _add(_mul(da[0], a[1]), _mul(a[0], da[1]))),
    "/": _Op(2, "np.divide({}, {})",
             lambda a, da: _div(_sub(_mul(da[0], a[1]), _mul(a[0], da[1])),
                                _pow(a[1], Num(2.0)))),
    "^": _Op(2, "np.power({}, {})", _power_rule),
    _NEG: _Op(1, "(-{})", lambda a, da: _neg(da[0])),
    "sin": _Op(1, "np.sin({})", lambda a, da: _mul(Call("cos", a), da[0])),
    "cos": _Op(1, "np.cos({})", lambda a, da: _neg(_mul(Call("sin", a), da[0]))),
    "exp": _Op(1, "np.exp({})", lambda a, da: _mul(Call("exp", a), da[0])),
    "log": _Op(1, "np.log({})", lambda a, da: _div(da[0], a[0])),
    "sqrt": _Op(1, "np.sqrt({})",
                lambda a, da: _div(da[0], _mul(Num(2.0), Call("sqrt", a)))),
    "abs": _Op(1, "np.abs({})", _REFUSE),
    "floor": _Op(1, "np.floor({})", _ZERO),
    "min": _Op(2, "np.minimum({}, {})", _REFUSE),
    "max": _Op(2, "np.maximum({}, {})", _REFUSE),
}


def _parts(node: Union[Unary, Bin, Call]) -> tuple[str, tuple]:
    """The _OPS key and the arguments of an operator or call node."""
    if isinstance(node, Bin):
        return node.op, (node.lhs, node.rhs)
    if isinstance(node, Unary):
        return _NEG, (node.operand,)
    return node.name, node.args


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
        if name not in _OPS:
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
        arity = _OPS[name].arity
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

def evaluate(node: Ast, x: float, y: float = 0.0) -> float:
    """Evaluate an AST at a point under IEEE semantics (NaN on domain errors).

    np.power matches the convention used throughout: negative bases with
    integer exponents take the signed-power fast path, non-integer
    exponents give NaN.  Each call compiles node; a function evaluated at
    many points is BivariateFn's job.
    """
    with np.errstate(all="ignore"):
        return float(_compile(node)(np.float64(x), np.float64(y)))


def _constant(text: str, univariate: bool = False) -> Optional[float]:
    """Value of a constant expression such as '3*pi/4', or None when it names
    a variable of parse (parse_univariate); ParseError when it does not parse."""
    ast = (parse_univariate if univariate else parse)(text)
    if isinstance(ast, Num):  # a literal, as most CLI numbers are, needs no compile
        return ast.value
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
    key, args = _parts(node)
    a, nesting = _emit(args[0], lines)
    if len(args) == 1:
        code = _OPS[key].template.format(a)
    else:
        b, nb = _emit(args[1], lines)
        code, nesting = _OPS[key].template.format(a, b), max(nesting, nb)
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
    variables: dict = {}
    _free(node, variables)
    return _diff(node, var, variables)


def _diff(node: Ast, var: str, variables: dict) -> Ast:
    if var not in variables[id(node)]:
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    key, args = _parts(node)
    rule = _OPS[key].derivative
    if rule == _REFUSE:
        raise NonDifferentiableError(
            f"{key}() is not differentiable; use a finite-difference fallback"
        )
    if rule == _ZERO:
        warnings.warn(
            f"derivative of {key}() taken as 0 (valid away from integers)",
            FloorDerivativeWarning,
            stacklevel=2,
        )
        return Num(0.0)
    da = _diff(args[0], var, variables)
    if len(args) == 1:
        return rule(args, (da,))
    return rule(args, (da, _diff(args[1], var, variables)))


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
    return set(_free(node, {}))


def _free(node: Ast, variables: dict) -> frozenset:
    """Variables of node; records those of node and of every subtree in
    variables, keyed by id(), so that a shared subtree is walked once."""
    out = variables.get(id(node))
    if out is None:
        out = frozenset((node.name,)) if isinstance(node, Var) else frozenset()
        if not isinstance(node, (Num, Var)):
            for arg in _parts(node)[1]:
                out |= _free(arg, variables)
        variables[id(node)] = out
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
