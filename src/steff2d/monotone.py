"""Grid certification of 2d-monotonicity and the bivariate function catalog.

A function is 2d-monotone on a rectangle when the corner alternating sum
f(a,c) - f(a,d) - f(b,c) + f(b,d) of every compact sub-rectangle is
nonnegative, and 2d-alternating when every such sum is nonpositive.  By
additivity, the extreme cell measures of a uniform lattice certify the
sign for every rectangle with grid-aligned corners, so the verdict here
is an honest numerical certificate at the recorded resolution.

certify reads the lattice through core._scan, the package's one lattice
kernel: the lattice is sampled in strips of rows (one strip up to 2^18
values, strips of 2^16 values beyond), each reduced to its value and
cell-measure extremes and its share of the four edges as it comes, so
that a grid-2048 certificate holds about 2 MiB at a time, not a
lattice-sized array.  The witnesses are the first extreme cells in
row-major order, as np.argmin and np.argmax pick them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Record, Rect, _delta, _sample, _scan
from .expr import (
    Bin,
    BivariateFn,
    Call,
    Num,
    Unary,
    UnivariateFn,
    Var,
    _constant,
    as_bivariate,
    as_univariate,
    parse_univariate,
    substitute,
)
from .quad import DEFAULT_SPEC, Antiderivative1D, CumulativePrimitive, QuadratureSpec

__all__ = [
    "MONOTONE_2D",
    "ALTERNATING_2D",
    "MODULAR",
    "INDEFINITE",
    "MonotonicityReport",
    "f_measure",
    "mixed_partial_fd",
    "certify",
    "catalog",
    "CatalogError",
    "AcFunction",
    "from_ac",
]

MONOTONE_2D = "monotone2d"
ALTERNATING_2D = "alternating2d"
MODULAR = "modular"
INDEFINITE = "indefinite"


def _classify(lo: float, hi: float, tol: float) -> str:
    """Sign class of values ranging over [lo, hi]: monotone2d when all are
    >= -tol, alternating2d when all are <= tol, modular when both hold, and
    indefinite otherwise.  A tol that is negative, infinite or NaN, which
    would let a check pass vacuously, is a ValueError."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    nonneg, nonpos = lo >= -tol, hi <= tol
    if nonneg and nonpos:
        return MODULAR
    if nonneg:
        return MONOTONE_2D
    if nonpos:
        return ALTERNATING_2D
    return INDEFINITE


def f_measure(f, r: Rect) -> float:
    """Corner alternating sum f(a,c) - f(a,d) - f(b,c) + f(b,d)."""
    corners = _sample(as_bivariate(f), "f", np.array([[r.a], [r.b]]), np.array([[r.c, r.d]]))
    return float(_delta(corners)[0, 0])


def mixed_partial_fd(f, x: float, y: float, h: float) -> float:
    """Symmetric second-difference quotient over the h-cell at (x, y).

    Equals f_measure(f, [x, x+h] x [y, y+h]) / h^2 by construction (the
    same arithmetic, so the two agree exactly).
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    return f_measure(f, Rect(x, x + h, y, y + h)) / (h * h)


@dataclass(frozen=True)
class MonotonicityReport(Record):
    """Certification verdict with witnesses, at a stated grid resolution.

    verdict is "monotone2d" iff the minimum cell measure is >= -tol,
    "alternating2d" iff the maximum is <= tol, "modular" when both hold,
    and "indefinite" otherwise.  The edge flags report lattice
    monotonicity of f along the four boundary edges (decreasing on the
    top/right edges, increasing on the bottom/left edges); steffensen_integral
    reads the top/right ones, of f, of f o rho (thm4) or of -f (remark3).
    """

    verdict: str
    min_measure: float
    max_measure: float
    min_witness: Rect
    max_witness: Rect
    grid: int
    tol: float
    margin: float
    eval_rect: Rect
    edge_top_decreasing: bool
    edge_right_decreasing: bool
    edge_bottom_increasing: bool
    edge_left_increasing: bool
    nonnegative: bool
    f_min: float

    @property
    def passed(self) -> bool:
        """A verdict was reached: the lattice is not indefinite."""
        return self.verdict != INDEFINITE


def certify(f, domain: Rect, grid: int = 32, tol: float = 1e-9,
            margin: Optional[float] = None) -> MonotonicityReport:
    """Classify f on a (grid+1) x (grid+1) lattice over the domain.

    The lattice is pulled inward by ``margin`` on every side (default
    1e-6 times the domain diameter) so functions that are singular on the
    boundary, such as log(x^2+y^2) near the origin, can still be
    certified on the half-open domain they live on.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    f = as_bivariate(f)
    if margin is None:
        margin = 1e-6 * domain.diameter
    eval_rect = domain.shrink(margin)
    xs, ys = eval_rect.xs(grid), eval_rect.ys(grid)
    scan = _scan(f, "f", xs, ys)
    cells = scan.cells

    def cell_rect(idx):
        i, j = idx
        return Rect(float(xs[i]), float(xs[i + 1]), float(ys[j]), float(ys[j + 1]))

    return MonotonicityReport(
        verdict=_classify(cells.min, cells.max, tol),
        min_measure=cells.min,
        max_measure=cells.max,
        min_witness=cell_rect(cells.argmin),
        max_witness=cell_rect(cells.argmax),
        grid=grid,
        tol=tol,
        margin=margin,
        eval_rect=eval_rect,
        edge_top_decreasing=bool(np.all(np.diff(scan.top) <= tol)),
        edge_right_decreasing=bool(np.all(np.diff(scan.right) <= tol)),
        edge_bottom_increasing=bool(np.all(np.diff(scan.bottom) >= -tol)),
        edge_left_increasing=bool(np.all(np.diff(scan.left) >= -tol)),
        nonnegative=bool(scan.values.min >= -tol),
        f_min=scan.values.min,
    )


# ---------------------------------------------------------------------------
# Catalog of ready-made bivariate functions
# ---------------------------------------------------------------------------

class CatalogError(ValueError):
    """Unknown catalog entry or malformed parameter."""


_X, _Y = Var("x"), Var("y")

_CATALOG_EXPRESSIONS = {
    "e": "x^2 + y^2",
    "c": "1/(exp(x) + exp(y) - 1)",
    "pi": "x*y",
    "exp_decay": "exp(-x-y)",
}


def _split_args(text: str) -> list[str]:
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return [a.strip() for a in args if a.strip()]


def catalog(name: str, *params) -> BivariateFn:
    """Construct a named bivariate function, e.g. catalog("midpoint_gap(t^2)").

    Available entries: E, C, Pi, exp_decay (no parameters);
    log_pow(n); neg_convex_diff(F), convex_sum(F, lam), midpoint_gap(F)
    where F is a one-variable expression.
    """
    text = name.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)", text, flags=re.DOTALL)
    if m:
        if params:
            raise CatalogError("pass parameters either inline or as arguments, not both")
        text, params = m.group(1), tuple(_split_args(m.group(2)))
    key = text.lower()

    if key in _CATALOG_EXPRESSIONS:
        if params:
            raise CatalogError(f"catalog entry {text!r} takes no parameters")
        return BivariateFn.from_expression(_CATALOG_EXPRESSIONS[key])

    if key == "log_pow":
        if len(params) != 1:
            raise CatalogError("log_pow takes exactly one parameter n")
        n = _as_number(params[0])
        if n < 1:
            raise CatalogError("log_pow requires n >= 1")
        ast = Call("log", (Bin("+", Bin("^", _X, Num(n)), Bin("^", _Y, Num(n))),))
        return BivariateFn.from_ast(ast)

    if key in ("neg_convex_diff", "midpoint_gap"):
        if len(params) != 1:
            raise CatalogError(f"{text} takes exactly one expression parameter F")
        F = _as_profile(params[0])
        if key == "neg_convex_diff":
            return BivariateFn.from_ast(Unary("-", substitute(F, {"x": Bin("-", _X, _Y)})))
        half = Num(2.0)
        fx = substitute(F, {"x": _X})
        fy = substitute(F, {"x": _Y})
        mid = substitute(F, {"x": Bin("/", Bin("+", _X, _Y), half)})
        ast = Bin("-", Bin("+", Bin("/", fx, half), Bin("/", fy, half)), mid)
        return BivariateFn.from_ast(ast)

    if key == "convex_sum":
        if len(params) != 2:
            raise CatalogError("convex_sum takes parameters (F, lam)")
        F = _as_profile(params[0])
        lam = _as_number(params[1])
        if lam <= 0:
            raise CatalogError("convex_sum requires lam > 0")
        ast = substitute(F, {"x": Bin("*", Num(lam), Bin("+", _X, _Y))})
        return BivariateFn.from_ast(ast)

    raise CatalogError(f"unknown catalog function {text!r}")


def _as_number(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        number = _constant(str(value), univariate=True)
    except ValueError as exc:
        raise CatalogError(f"malformed numeric parameter {value!r}: {exc}") from exc
    if number is None:
        raise CatalogError(f"expected a numeric parameter, got {value!r}")
    return number


def _as_profile(value):
    try:
        ast = as_univariate(value).ast if not isinstance(value, str) else parse_univariate(value)
    except ValueError as exc:
        raise CatalogError(f"malformed profile expression {value!r}: {exc}") from exc
    if ast is None:
        raise CatalogError(f"profile {value!r} has no expression to compose; pass its text")
    return ast


# ---------------------------------------------------------------------------
# Absolutely continuous representation
# ---------------------------------------------------------------------------

class AcFunction(BivariateFn):
    """Bivariate function built from its absolutely continuous representation

        f(x, y) = f0 + int_a^x g1 + int_c^y g2 + int_a^x int_c^y density,

    evaluated through cached quadrature.  The base point is the lower-left
    corner of the rectangle.  When the density is nonnegative on the
    rectangle the result certifies monotone2d.
    """

    def __init__(self, f0: float, rect: Rect, g1=None, g2=None, density=None,
                 spec: Optional[QuadratureSpec] = None):
        self.f0 = float(f0)
        self.rect = rect
        self.g1: Optional[UnivariateFn] = as_univariate(g1) if g1 is not None else None
        self.g2: Optional[UnivariateFn] = as_univariate(g2) if g2 is not None else None
        self.density: Optional[BivariateFn] = as_bivariate(density) if density is not None else None
        spec = spec or DEFAULT_SPEC
        spec_y = spec.with_breaks(spec.breaks_y)  # G2 lies on the y axis
        self._G1 = Antiderivative1D(self.g1, rect.a, rect.b, spec) if self.g1 else None
        self._G2 = Antiderivative1D(self.g2, rect.c, rect.d, spec_y) if self.g2 else None
        self._W = (
            CumulativePrimitive(self.density, rect, "lower", spec)
            if self.density is not None
            else None
        )

        def fn(x, y):
            out = np.full(np.broadcast(x, y).shape, self.f0)
            # G1 and G2 are evaluated on their own axis; the sum broadcasts
            if self._G1 is not None:
                out = out + self._G1(x)
            if self._G2 is not None:
                out = out + self._G2(y)
            if self._W is not None:
                out = out + self._W(x, y)
            return out

        super().__init__(fn, ast=None, name="ac-representation")


def from_ac(f0: float, rect: Rect, g1=None, g2=None, density=None,
            spec: Optional[QuadratureSpec] = None) -> AcFunction:
    """Build a function from boundary densities and a mixed density.

    g1 and g2 are one-variable expressions/functions integrated from the
    lower-left corner along each axis; density is the bivariate mixed
    density integrated over [a, x] x [c, y].
    """
    return AcFunction(f0, rect, g1=g1, g2=g2, density=density, spec=spec)
