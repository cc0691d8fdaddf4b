"""The paper's theorems as a constructive oracle.

Each family below is built so that a theorem's hypotheses hold by
construction, and the theorem then decides the verdict the checks must
read.  The families are written as expression text, in X and Y, with
every constant exact in its repr, so the same generator could drive the
CLI.  Each construction's proof is in its test's docstring.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from steff2d.core import Rect
from steff2d.ineq import fourier_check, steffensen_integral

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

positive = st.integers(1, 15).map(lambda k: k / 10)
coefficient = st.integers(-20, 20).map(lambda k: k / 10)

# C increasing on [a, b] for k > 0 ({a} is the rectangle's left end)
INCREASING = ["exp(({k})*X)", "X^3 + ({k})*X", "log(1 + X - ({a}))", "sqrt(1 + X - ({a}))"]
# phi' of a phi with phi(a) = 0 and phi >= 0 on [a, b], for k > 0: phi is
# (X - a)^2, sin(k (X - a))^2 and exp(k (X - a)) - 1
DERIVATIVES = ["2*(X - ({a}))", "({k})*sin(2*({k})*(X - ({a})))", "({k})*exp(({k})*(X - ({a})))"]
# convex on [0, 2 pi] for every coefficient drawn; a linear profile is convex too
CONVEX = ["X^2", "exp(({k})*X)", "(X - ({c}))^4", "exp(X/4) + exp(-X/4)", "({c})*X + 1"]
ANY = ["sin(({c})*X)", "({c})*X^3", "exp(-X)", "0"]


@st.composite
def interval(draw):
    lo = draw(st.integers(-10, 10)) / 10
    return lo, lo + draw(st.integers(5, 25)) / 10


def text(t: str, var: str) -> str:
    return t.replace("X", f"({var})")


@st.composite
def thm3_instance(draw):
    """(f, w, rect) of the thm3 family, in x and y."""
    (a, b), (c, d) = draw(interval()), draw(interval())

    def pick(templates, lo):
        return draw(st.sampled_from(templates)).format(k=draw(positive), a=lo)

    C, D, dphi, dpsi = pick(INCREASING, a), pick(INCREASING, c), pick(DERIVATIVES, a), pick(
        DERIVATIVES, c)
    alpha, beta, gamma = draw(positive), draw(positive), draw(coefficient)
    f = (f"({text(C, 'x')} - ({text(C, repr(b))}))*({text(D, 'y')} - ({text(D, repr(d))}))"
         f" - ({alpha})*x - ({beta})*y + ({gamma})")
    w = f"({text(dphi, 'x')})*({text(dpsi, 'y')})"
    return f, w, Rect(a, b, c, d)


@SETTINGS
@given(thm3_instance())
def test_thm3_family_passes_with_its_hypotheses(instance):
    """f = (C(x) - C(b))(D(y) - D(d)) - alpha x - beta y + gamma, C and D
    increasing, alpha, beta > 0; w = phi'(x) psi'(y), phi(a) = psi(c) = 0,
    phi, psi >= 0.

    Proof: every cell measure of f is (C(x1) - C(x0))(D(y1) - D(y0)) >= 0;
    the top edge f(x, d) = gamma - alpha x - beta d and the right edge
    f(b, y) = gamma - alpha b - beta y decrease; W = phi(x) psi(y) >= 0.
    So thm3's hypotheses hold, and thm3 gives int f w >= f(b, d) W(b, d).
    """
    f, w, r = instance
    rep = steffensen_integral("thm3", f, w, r)
    assert rep.hypotheses_hold, (f, w, r)
    assert rep.passed and rep.inequality_holds, (f, w, r, rep.lhs, rep.bound)


@st.composite
def coscos2d_instance(draw):
    """(f, m, n) of the coscos2d family, in x and y."""
    def pick(templates, var):
        t = draw(st.sampled_from(templates)).format(k=draw(coefficient) / 4, c=draw(coefficient))
        return text(t, var)

    P, Q = pick(CONVEX, "x"), pick(CONVEX, "y")
    A, B = pick(ANY, "x"), pick(ANY, "y")
    return f"({P})*({Q}) + ({A}) + ({B})", draw(st.integers(1, 3)), draw(st.integers(1, 3))


@SETTINGS
@given(coscos2d_instance())
def test_coscos2d_family_is_nonnegative(instance):
    """f = P(x) Q(y) + A(x) + B(y) over [0, 2 pi]^2, P and Q convex, m, n >= 1.

    Proof: A(x) and B(y) integrate to 0 against cos(mx) cos(ny), since
    cos(ny) and cos(mx) do over [0, 2 pi]; the P Q term factors, and for
    convex P, int P cos(mt) = m^-2 int P'' (1 - cos mt) >= 0 by parts twice.
    So the value is a product of two nonnegative integrals (f_xxyy = P'' Q'' >= 0).
    """
    f, m, n = instance
    rep = fourier_check("coscos2d", f, m=m, n=n)
    assert rep.value >= -1e-8, (f, m, n, rep.value)
    assert rep.passed
