"""Metamorphic relations between the theorem variants (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018).

thm4 and young2 are thm3 and young1 of the pair reflected through the
centre of the rectangle, rho(x, y) = (a+b-x, c+d-y), and remark3 is thm3
of the negated pair.  Each relation is checked against thm3 or young1 run
on expression strings that are reflected or negated here, as text, so the
tests do not re-run the library's own reflection.  The reflection in x
alone, sigma(x, y) = (a+b-x, y), swaps monotone2d and alternating2d.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from steff2d.core import Rect
from steff2d.expr import as_bivariate
from steff2d.ineq import steffensen_integral, young_residual
from steff2d.monotone import ALTERNATING_2D, MONOTONE_2D, certify
from steff2d.quad import QuadratureSpec, integrate2d

QUAD_TOL = QuadratureSpec().tol  # the default --quad-tol
GRID = 16
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# Templates in X and Y, so that a reflection is a substitution of text.
F_TEMPLATES = ["exp(({p})*X + ({q})*Y)", "(X + ({p}))*(Y + ({q}))",
               "X*Y + ({p})*X^2 - ({q})*Y", "sin(({p})*X + ({q})*Y)"]
W_TEMPLATES = ["sin(3*X)*sin(2*Y)", "({p}) + X*Y", "exp(({q})*X - Y)"]
# f_xy has the sign of p*q, bounded away from zero on every generated rectangle
SIGNED_TEMPLATES = ["exp(({p})*X + ({q})*Y)", "({p})*({q})*X*Y + X^2 - Y^3"]

coefficient = st.integers(-20, 20).map(lambda k: k / 10)
nonzero = st.integers(2, 20).flatmap(lambda k: st.sampled_from([k / 10, -k / 10]))


@st.composite
def interval(draw):
    lo = draw(st.integers(-10, 10)) / 10
    return lo, lo + draw(st.integers(5, 25)) / 10


@st.composite
def rect(draw):
    return Rect(*draw(interval()), *draw(interval()))


def template(templates, p=coefficient, q=coefficient):
    return st.builds(lambda t, p, q: t.format(p=p, q=q), st.sampled_from(templates), p, q)


def text(t: str, x: str = "x", y: str = "y") -> str:
    return t.replace("X", f"({x})").replace("Y", f"({y})")


def rho(t: str, r: Rect) -> str:
    return text(t, f"{r.a!r} + ({r.b!r} - x)", f"{r.c!r} + ({r.d!r} - y)")


def sigma(t: str, r: Rect) -> str:
    return text(t, f"{r.a!r} + ({r.b!r} - x)", "y")


def close(u: float, v: float) -> bool:
    """Two quadrature values of one quantity, each within --quad-tol."""
    return abs(u - v) <= 2 * QUAD_TOL * max(1.0, abs(u))


@SETTINGS
@given(template(F_TEMPLATES), template(W_TEMPLATES), rect())
@example("X*Y - 1", "1", Rect(0, 1, 0, 1))  # every hypothesis but f >= 0: f(a, c) = -1
def test_thm4_is_thm3_of_the_reflected_pair(f, w, r):
    rep = steffensen_integral("thm4", text(f), text(w), r, grid=GRID)
    ref = steffensen_integral("thm3", rho(f, r), rho(w, r), r, grid=GRID)
    assert close(rep.lhs, ref.lhs) and close(rep.bound, ref.bound)
    assert close(rep.primitive_min, ref.primitive_min)
    assert close(rep.primitive_max, ref.primitive_max)
    assert rep.edge_hypothesis == ref.edge_hypothesis
    assert rep.f_nonnegative == ref.f_nonnegative
    assert rep.hypotheses_hold == (ref.hypotheses_hold and ref.f_nonnegative)
    if abs(rep.lhs - rep.bound) > 2 * QUAD_TOL * max(1.0, abs(rep.lhs)):
        assert rep.inequality_holds == ref.inequality_holds
    # and, in the caller's frame: int f w >= f(a, c) times the whole integral of w
    F, W = as_bivariate(text(f)), as_bivariate(text(w))
    assert close(rep.lhs, integrate2d(lambda x, y: F(x, y) * W(x, y), r).value)
    assert close(rep.bound, F(r.a, r.c) * integrate2d(W, r).value)


@SETTINGS
@given(template(F_TEMPLATES), template(W_TEMPLATES), rect())
def test_remark3_is_thm3_of_the_negated_pair(f, w, r):
    rep = steffensen_integral("remark3", text(f), text(w), r, grid=GRID)
    ref = steffensen_integral("thm3", f"-({text(f)})", f"-({text(w)})", r, grid=GRID)
    # remark3 reports the sides and the primitive of (f, w), not of (-f, -w)
    assert close(rep.lhs, -ref.lhs) and close(rep.bound, -ref.bound)
    assert (rep.primitive_min, rep.primitive_max) == (-ref.primitive_max, -ref.primitive_min)
    assert rep.inequality_holds == ref.inequality_holds
    assert rep.edge_hypothesis == ref.edge_hypothesis
    assert rep.primitive_ok == ref.primitive_ok
    assert rep.hypotheses_hold == ref.hypotheses_hold
    assert rep.monotonicity.verdict == ref.monotonicity.verdict


@SETTINGS
@given(template(SIGNED_TEMPLATES, nonzero, nonzero), rect())
def test_reflection_in_x_swaps_monotone_and_alternating(f, r):
    swap = {MONOTONE_2D: ALTERNATING_2D, ALTERNATING_2D: MONOTONE_2D}
    rep = certify(text(f), r, grid=GRID)
    mirrored = certify(sigma(f, r), r, grid=GRID)
    assert rep.verdict in swap
    assert mirrored.verdict == swap[rep.verdict]
    # the same cells, mirrored: each measure changes sign
    scale = 1e-12 * max(abs(rep.min_measure), abs(rep.max_measure))
    assert math.isclose(mirrored.min_measure, -rep.max_measure, rel_tol=1e-9, abs_tol=scale)
    assert math.isclose(mirrored.max_measure, -rep.min_measure, rel_tol=1e-9, abs_tol=scale)


@SETTINGS
@given(template(F_TEMPLATES), template(W_TEMPLATES), rect())
def test_young2_is_young1_of_the_reflected_pair(f, w, r):
    y1 = young_residual("young1", text(f), text(w), r)
    y2 = young_residual("young2", text(f), text(w), r)
    ref = young_residual("young1", rho(f, r), rho(w, r), r)
    # both identities read int f w, within --quad-tol
    assert close(y1.residual.lhs, y2.residual.lhs)
    for name in ("corner_term", "edge_x_term", "edge_y_term", "mixed_term"):
        assert close(getattr(y2, name), getattr(ref, name)), name
    assert close(y2.residual.rhs, ref.residual.rhs)
