"""Integral identity and inequality checkers for bivariate weights.

Covers the two integration-by-parts identities (young1/young2), the
integral sign inequalities for 2d-monotone decreasing / increasing /
alternating multipliers (thm3/thm4/remark3), the trigonometric-kernel
sign checks, the Stieltjes integration-by-parts identity, the
double-sum-versus-double-integral identity with fractional-part weights,
and the mixed-partial consistency check (lemma1).

Every theorem checker runs in diagnostic mode: hypothesis flags are
computed independently and reported, and the inequality is evaluated
whether or not the hypotheses hold, so a failed inequality under failed
hypotheses is not a bug signal.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import IdentityResidual, Record, Rect, _sample, _scan
from .expr import BivariateFn, UnivariateFn, as_bivariate, as_univariate
from .monotone import (
    ALTERNATING_2D,
    INDEFINITE,
    MODULAR,
    MONOTONE_2D,
    AcFunction,
    MonotonicityReport,
    _classify,
    certify,
)
from .quad import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _reflected,
    cumulative,
    integrate1d,
    integrate2d,
    stieltjes2d,
)

__all__ = [
    "YoungResult",
    "young_residual",
    "TheoremReport",
    "steffensen_integral",
    "FourierCheck",
    "fourier_check",
    "BypartsResult",
    "byparts_residual",
    "sum_vs_integral",
    "Lemma1Report",
    "lemma1_check",
]


def _require_symbolic(f, who: str):
    f = as_bivariate(f)
    if not f.has_symbolic_partials:
        raise ValueError(f"{who} requires an expression-backed function with symbolic partials")
    return f


def _boundary_terms(f, fx, fy, G, rect: Rect, spec: QuadratureSpec) -> tuple:
    """Corner and edge terms of 2D integration by parts, given f's partials fx, fy:
    (f G at (b, d), -int fx(., d) G(., d), -int fy(b, .) G(b, .)).  The edges are
    sampled as functions of (x, y), so that a non-finite sample is named by its point."""
    a, b, c, d = rect.as_tuple()
    spec_y = spec.with_breaks(spec.breaks_y)  # the y-axis edge integral
    corner = float(_sample(f, "f", b, d)) * float(G(b, d))
    gx, gy = (lambda x, y: fx(x, y) * G(x, y)), (lambda x, y: fy(x, y) * G(x, y))
    edge_x = -integrate1d(lambda t: _sample(gx, "integrand", t, d), a, b, spec).value
    edge_y = -integrate1d(lambda t: _sample(gy, "integrand", b, t), c, d, spec_y).value
    return corner, edge_x, edge_y


# ---------------------------------------------------------------------------
# Young-type integration-by-parts identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YoungResult(Record):
    """Residual of an integration-by-parts identity plus its four terms.

    rhs = corner_term + edge_x_term + edge_y_term + mixed_term; the edge
    terms carry their signs (negative for the young1 layout, positive for
    young2).
    """

    variant: str
    residual: IdentityResidual
    corner_term: float
    edge_x_term: float
    edge_y_term: float
    mixed_term: float

    @property
    def passed(self) -> bool:
        """The identity's residual is within the tolerance."""
        return self.residual.passed


def young_residual(variant: str, f, w, rect: Rect,
                   spec: Optional[QuadratureSpec] = None,
                   tolerance: float = 1e-6) -> YoungResult:
    """Check one of the two bivariate integration-by-parts identities.

    young1:  int f w = f(b,d) W(b,d) - int f_x(x,d) W(x,d) dx
             - int W(b,y) f_y(b,y) dy + int int W f_xy,
             with W the primitive from the lower-left corner.
    young2:  the mirrored form with the upper-right primitive, corner value
             at (a,c), plus signs on the edges: young1 of (f o rho, w o rho),
             whose partials are f's own at rho, f_x and f_y negated (rho's
             Jacobian is -I).
    """
    if variant not in ("Y1", "Y2", "young1", "young2"):
        raise ValueError("variant must be 'Y1'/'young1' or 'Y2'/'young2'")
    variant = "Y1" if variant in ("Y1", "young1") else "Y2"
    spec = spec or DEFAULT_SPEC
    f, w = _require_symbolic(f, "young_residual"), as_bivariate(w)
    fns = (f, f.mixed_partial(), *map(f.symbolic_partial, "xy"), w)
    reflection = _reflected(rect, spec, *fns) if variant == "Y2" else nullcontext((spec, *fns))
    with reflection as (spec, f, fxy, fx, fy, w):
        if variant == "Y2":
            fx, fy = (BivariateFn.from_callable(lambda x, y, g=g: -g(x, y)) for g in (fx, fy))
        lhs = integrate2d(lambda x, y: f(x, y) * w(x, y), rect, spec).value
        W = cumulative(w, rect, spec=spec)
        corner, edge_x, edge_y = _boundary_terms(f, fx, fy, W, rect, spec)
        mixed = integrate2d(lambda x, y: W(x, y) * fxy(x, y), rect, spec).value
    rhs = corner + edge_x + edge_y + mixed
    return YoungResult(
        variant=variant,
        residual=IdentityResidual.from_pair(lhs, rhs, tolerance),
        corner_term=float(corner),
        edge_x_term=float(edge_x),
        edge_y_term=float(edge_y),
        mixed_term=float(mixed),
    )


# ---------------------------------------------------------------------------
# Sign inequalities for monotone / alternating multipliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport(Record):
    """Outcome of one integral sign inequality with hypothesis diagnostics.

    For thm3/thm4 the inequality is lhs >= bound - tol, lhs the integral of
    f*w; remark3 reports both sides negated (the natural orientation of the
    alternating variant), lhs <= bound + tol.  monotonicity and f_nonnegative
    describe the f thm3 is run on: f o rho for thm4, -f for remark3.
    """

    theorem: str
    lhs: float
    bound: float
    tol: float
    inequality_holds: bool
    monotonicity: MonotonicityReport
    f_nonnegative: bool
    edge_hypothesis: bool
    primitive_min: float
    primitive_max: float
    primitive_ok: bool
    hypotheses_hold: bool

    @property
    def passed(self) -> bool:
        """The inequality holds, or the hypotheses fail (no claim is made)."""
        return self.inequality_holds or not self.hypotheses_hold


def steffensen_integral(theorem: str, f, w, rect: Rect, grid: int = 32,
                        spec: Optional[QuadratureSpec] = None,
                        margin: float = 0.0, tol: float = 1e-9) -> TheoremReport:
    """Evaluate one of the three integral sign inequalities, each as thm3.

    thm3:    f 2d-monotone with decreasing top/right edges, primitive
             W >= 0 from the lower-left corner; then int f w >= f(b,d) W(b,d).
    thm4:    f nonnegative 2d-monotone with increasing bottom/left edges,
             upper primitive >= 0; then int f w >= f(a,c) W~(a,c).
    remark3: f 2d-alternating with increasing top/right edges, W <= 0;
             reported in the negated orientation
             int f(-w) <= f(b,d) (-W(b,d)) + tol.

    thm4 is thm3 of (f o rho, w o rho) plus f >= 0, for the point reflection
    rho(x, y) = (a+b-x, c+d-y), and remark3 is thm3 of (-f, -w).  W >= 0 is read
    on the grid's lattice, allowing tol plus spec.tol, the tolerance W is built to.
    """
    if theorem not in ("thm3", "thm4", "remark3"):
        raise ValueError("theorem must be 'thm3', 'thm4', or 'remark3'")
    spec = spec or DEFAULT_SPEC
    f, w = as_bivariate(f), as_bivariate(w)
    if theorem == "remark3":
        f, w = (BivariateFn.from_callable(lambda x, y, g=g: -g(x, y)) for g in (f, w))
    r = rect.shrink(margin) if margin else rect
    reflection = _reflected(r, spec, f, w) if theorem == "thm4" else nullcontext((spec, f, w))
    with reflection as (spec, f, w):
        report = certify(f, r, grid=grid, tol=tol)
        lhs = integrate2d(lambda x, y: f(x, y) * w(x, y), r, spec).value
        W = cumulative(w, r, spec=spec)
        extr = W.lattice_extrema(grid)
        bound = float(_sample(f, "f", r.b, r.d)) * W(r.b, r.d)

    edge_ok = report.edge_top_decreasing and report.edge_right_decreasing
    primitive_ok = extr.minimum >= -(tol + spec.tol)  # W is built only to spec.tol
    hyp = (report.min_measure >= -tol and edge_ok and primitive_ok
           and (theorem != "thm4" or report.nonnegative))
    sign = -1.0 if theorem == "remark3" else 1.0  # remark3 reports (f, w), not (-f, -w)
    low, high = sorted(sign * v + 0.0 for v in (extr.minimum, extr.maximum))  # never -0.0
    return TheoremReport(
        theorem=theorem,
        lhs=float(sign * lhs),
        bound=float(sign * bound),
        tol=tol,
        inequality_holds=bool(lhs >= bound - tol),
        monotonicity=report,
        f_nonnegative=report.nonnegative,
        edge_hypothesis=bool(edge_ok),
        primitive_min=low,
        primitive_max=high,
        primitive_ok=bool(primitive_ok),
        hypotheses_hold=bool(hyp),
    )


# ---------------------------------------------------------------------------
# Trigonometric-kernel sign checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierCheck(Record):
    """Value and expected sign of one trigonometric-kernel integral."""

    kernel: str
    m: int
    n: int
    value: float
    error_estimate: float
    expected_sign: str  # "nonnegative" | "unconstrained"
    sign_ok: bool
    profile_monotone: Optional[bool]
    profile_convex: Optional[bool]

    @property
    def passed(self) -> bool:
        """The value has the expected sign."""
        return self.sign_ok


def _profile_shape(F, lo: float, hi: float) -> tuple[bool, bool]:
    ts = np.linspace(lo, hi, 513)
    vals = F(ts)
    scale = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= -scale) or np.all(diffs <= scale))
    convex = bool(np.all(np.diff(vals, 2) >= -scale))
    return monotone, convex


_TWO_PI = 2.0 * math.pi
_SQUARE = Rect(0.0, _TWO_PI, 0.0, _TWO_PI)
# One row per kernel: the span its one-variable profile is sampled on (None for
# coscos2d, whose f takes two variables), its integrand of f at indices (m, n),
# its integrator, and the sign its theorem claims.  coscos2d's rests on f_xxyy >= 0:
# int f cos(mx) cos(ny) = (mn)^-2 int f_xxyy (1 - cos mx)(1 - cos ny) over _SQUARE.
_KERNELS = {
    "sinsin2d": (4.0 * math.pi,
                 lambda F, m, n: lambda x, y: F(x + y) * np.sin(m * x) * np.sin(n * y),
                 lambda g, spec: integrate2d(g, _SQUARE, spec), "nonnegative"),
    "coscos2d": (None, lambda G, m, n: lambda x, y: G(x, y) * np.cos(m * x) * np.cos(n * y),
                 lambda g, spec: integrate2d(g, _SQUARE, spec), "nonnegative"),
    "cos1d": (_TWO_PI, lambda F, m, n: lambda t: F(t) * np.cos(n * t),
              lambda g, spec: integrate1d(g, 0.0, _TWO_PI, spec), "nonnegative"),
    "sin1d": (_TWO_PI, lambda F, m, n: lambda t: F(t) * np.sin(n * t),
              lambda g, spec: integrate1d(g, 0.0, _TWO_PI, spec), "unconstrained"),
}


def fourier_check(kernel: str, f, m: int = 1, n: int = 1,
                  spec: Optional[QuadratureSpec] = None) -> FourierCheck:
    """Integrate f against a sin/cos kernel and compare against its sign claim.

    Kernels: "sinsin2d" integrates f(s+t) sin(ms) sin(nt) over [0, 2pi]^2
    for univariate f on [0, 4pi] (sign claim: nonnegative for monotone
    convex f); "coscos2d" a bivariate f against cos(mx) cos(ny) (nonnegative
    for f_xxyy >= 0, which is not checked); "cos1d" and "sin1d" the classical
    one-variable integrals over [0, 2pi] indexed by n (cos: nonnegative for
    convex f; sin: unconstrained).  A nonnegative value is one >= -1e-8.
    """
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if m < 1 or n < 1:
        raise ValueError("kernel indices m, n must be positive integers")
    span, integrand, integrate, expected = _KERNELS[kernel]
    if isinstance(f, BivariateFn if span else UnivariateFn):
        takes = ("one-variable profile, not a bivariate function" if span
                 else "two-variable integrand, not a one-variable function")
        raise ValueError(f"kernel {kernel!r} takes a {takes}")
    spec = spec or DEFAULT_SPEC
    spec_osc = replace(spec, cells=max(spec.cells, 2 * max(m, n)))

    F = as_univariate(f) if span else as_bivariate(f)
    profile_monotone, profile_convex = _profile_shape(F, 0.0, span) if span else (None, None)
    value, err = integrate(integrand(F, m, n), spec_osc)

    sign_ok = True if expected == "unconstrained" else bool(value >= -1e-8)
    return FourierCheck(kernel=kernel, m=m, n=n, value=float(value), error_estimate=float(err),
                        expected_sign=expected, sign_ok=sign_ok,
                        profile_monotone=profile_monotone, profile_convex=profile_convex)


# ---------------------------------------------------------------------------
# Stieltjes integration by parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BypartsResult(Record):
    """Residual of the Stieltjes integration-by-parts identity.

    The left side interprets the g-measure through the mixed density of
    g's absolutely continuous representation; the identity is confirmed
    numerically when g vanishes on the lower-left edges, which
    ``edge_vanishing`` reports.
    """

    residual: IdentityResidual
    corner_term: float
    edge_x_term: float
    edge_y_term: float
    stieltjes_term: float
    edge_vanishing: bool

    @property
    def passed(self) -> bool:
        """The residual is within the tolerance, or g does not vanish on the
        lower-left edges (the identity is not claimed)."""
        return self.residual.passed or not self.edge_vanishing


def byparts_residual(f, g: AcFunction, rect: Rect,
                     spec: Optional[QuadratureSpec] = None,
                     tolerance: float = 1e-6) -> BypartsResult:
    """Check int f dg = f(b,d) g(b,d) - int f_x(.,d) g(.,d) - int f_y(b,.) g(b,.)
    + int g df, with int f dg computed as the integral of f times g's
    mixed density, int g df by stieltjes2d from partition 64 with 3
    doublings, and g vanishing on the lower-left edges when |g| <= 1e-9 at
    the 65 lattice points of each."""
    spec = spec or DEFAULT_SPEC
    f = _require_symbolic(f, "byparts_residual")
    if not isinstance(g, AcFunction):
        raise TypeError("g must be built via from_ac so its mixed density is known")

    if g.density is not None:
        lhs = integrate2d(lambda x, y: f(x, y) * g.density(x, y), rect, spec).value
    else:
        lhs = 0.0
    corner, edge_x, edge_y = _boundary_terms(f, *map(f.symbolic_partial, "xy"), g, rect, spec)
    stj = stieltjes2d(g, f, rect, partition=64, tol=spec.tol, doublings=3)
    rhs = corner + edge_x + edge_y + stj.value

    left_edge = np.max(np.abs(g(rect.a, rect.ys(64))))
    bottom_edge = np.max(np.abs(g(rect.xs(64), rect.c)))
    return BypartsResult(
        residual=IdentityResidual.from_pair(lhs, rhs, tolerance),
        corner_term=float(corner),
        edge_x_term=float(edge_x),
        edge_y_term=float(edge_y),
        stieltjes_term=float(stj.value),
        edge_vanishing=bool(max(left_edge, bottom_edge) <= 1e-9),
    )


# ---------------------------------------------------------------------------
# Double sums versus double integrals with fractional-part weights
# ---------------------------------------------------------------------------

def sum_vs_integral(f, rect: Rect, spec: Optional[QuadratureSpec] = None,
                    tolerance: float = 1e-6) -> IdentityResidual:
    """Check sum_{a<m<=b} sum_{c<n<=d} f(m,n) against the four-term integral
    form with fractional-part weights, on a rectangle with integer corners.

    The quadrature aligns cell boundaries with every interior integer so
    each cell sees a smooth piece of the sawtooth weights.
    """
    spec = spec or DEFAULT_SPEC
    f = _require_symbolic(f, "sum_vs_integral")
    a, b, c, d = rect.as_tuple()
    for v in (a, b, c, d):
        if v != int(v):
            raise ValueError("rectangle corners must be integers")
    fx, fy, fxy = f.symbolic_partial("x"), f.symbolic_partial("y"), f.mixed_partial()
    ms = np.arange(int(a) + 1, int(b) + 1, dtype=float)
    ns = np.arange(int(c) + 1, int(d) + 1, dtype=float)
    lhs = float(_sample(f, "f", ms[:, None], ns[None, :]).sum())

    def integrand(x, y):
        sx, sy = x - np.floor(x), y - np.floor(y)  # the fractional-part weights
        return f(x, y) + fx(x, y) * sx + fy(x, y) * sy + fxy(x, y) * sx * sy

    rhs = integrate2d(integrand, rect, spec.with_breaks(ms[:-1], ns[:-1])).value
    return IdentityResidual.from_pair(lhs, rhs, tolerance)


# ---------------------------------------------------------------------------
# Mixed-partial consistency (the calculus criterion for 2d-monotonicity)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Report(Record):
    """Verdict-versus-mixed-partial consistency at lattice resolution."""

    verdict: str
    mixed_min: float
    mixed_max: float
    mixed_sign: str  # "nonnegative" | "nonpositive" | "zero" | "indefinite"
    consistent: bool
    grid: int
    tol: float

    @property
    def passed(self) -> bool:
        """The grid verdict agrees with the sign of the mixed partial."""
        return self.consistent


_MIXED_SIGN = {MONOTONE_2D: "nonnegative", ALTERNATING_2D: "nonpositive", MODULAR: "zero",
               INDEFINITE: "indefinite"}


def lemma1_check(f, rect: Rect, grid: int = 32, tol: float = 1e-9) -> Lemma1Report:
    """Compare the grid verdict with the sign of the symbolic mixed partial.

    For continuously differentiable f with a continuous mixed partial,
    2d-monotonicity is equivalent to a nonnegative mixed partial, so the
    two classifications must agree on smooth inputs.
    """
    f = _require_symbolic(f, "lemma1_check")
    report = certify(f, rect, grid=grid, tol=tol)
    er = report.eval_rect
    xs, ys = er.xs(grid)[1:-1], er.ys(grid)[1:-1]
    M = _scan(f.mixed_partial(), "mixed partial", xs, ys, cells=False).values
    mixed_min, mixed_max = M.min, M.max
    mixed = _classify(mixed_min, mixed_max, tol)
    return Lemma1Report(
        verdict=report.verdict,
        mixed_min=mixed_min,
        mixed_max=mixed_max,
        mixed_sign=_MIXED_SIGN[mixed],
        consistent=mixed == report.verdict,
        grid=grid,
        tol=tol,
    )
