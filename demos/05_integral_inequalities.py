"""
Integral identities and sign inequalities
=========================================

The integration-by-parts identity expresses the integral of f*w through
the cumulative primitive of w and the partial derivatives of f.  When f
is 2d-monotone with decreasing top/right edges and the primitive stays
nonnegative, every correction term is nonnegative and the integral is
bounded below by its corner term.
"""

import math

from steff2d import Rect, fourier_check, steffensen_integral, young_residual

two_pi = 2 * math.pi

# The identity, term by term, for f = exp(-x-y) against a sine weight.
res = young_residual("Y1", "exp(-x-y)", "sin(x)*sin(y)", Rect(0, math.pi, 0, math.pi))
print(f"lhs  = {res.residual.lhs:.10f}")
print(f"rhs  = corner {res.corner_term:.3e} + edge_x {res.edge_x_term:.6f} "
      f"+ edge_y {res.edge_y_term:.6f} + mixed {res.mixed_term:.6f}")
print(f"residual = {res.residual.abs_residual:.2e}")

# The lower-bound inequality for the decreasing class.
rep = steffensen_integral("thm3", "exp(-x-y)", "sin(x)*sin(y)", Rect(0, two_pi, 0, two_pi))
closed = ((1 - math.exp(-two_pi)) / 2) ** 2
print(f"\ndecreasing multiplier: integral {rep.lhs:.7f} (closed form {closed:.7f}) "
      f">= bound {rep.bound:.2e}; hypotheses hold: {rep.hypotheses_hold}")

# The increasing class is the decreasing one reflected through the centre of
# the rectangle: thm3 of f(a+b-x, c+d-y) against w(a+b-x, c+d-y), with f >= 0.
rep = steffensen_integral("thm4", "x*y", "1", Rect(0, 1, 0, 1))
print(f"increasing multiplier: integral {rep.lhs:.4f} >= bound {rep.bound:.4f}")

# The alternating variant, with the classic logarithmic illustration.
L = 3 * math.pi / 4
rep = steffensen_integral("remark3", "log(x^2+y^2)", "-sin(x+y)",
                          Rect(0, L, 0, L), margin=1e-6)
print(f"alternating multiplier: {rep.lhs:.6f} <= {rep.bound:.6f}; "
      f"hypotheses hold: {rep.hypotheses_hold}")

# Trigonometric kernels: nonnegative for monotone convex profiles against
# sin x sin y, but the plain sine integral can go negative.
print()
for f in ("u^2", "u^3", "exp(u/10)"):
    res = fourier_check("sinsin2d", f, m=2, n=3)
    print(f"sine-product kernel with f(u) = {f:9s}: {res.value:12.6f} (nonnegative)")
res = fourier_check("sin1d", "x^2", n=1)
print(f"plain sine kernel with f(u) = u^2  : {res.value:12.6f} "
      f"(= -4 pi^2, sign unconstrained)")
