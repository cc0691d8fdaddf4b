"""Integral identity and inequality checker tests."""

import math

import numpy as np
import pytest

from conftest import SMOOTH_FAMILY, random_integer_rect, random_positive_smooth
from steff2d import expr, ineq
from steff2d.core import Rect
from steff2d.expr import BivariateFn, UnivariateFn
from steff2d.ineq import (
    byparts_residual,
    fourier_check,
    lemma1_check,
    steffensen_integral,
    sum_vs_integral,
    young_residual,
)
from steff2d.monotone import from_ac
from steff2d.quad import QuadratureSpec

TWO_PI = 2 * math.pi


class TestYoungIdentities:
    def test_hand_fixture_linear(self):
        res = young_residual("Y1", "x", "1", Rect(0, 1, 0, 1))
        assert res.residual.lhs == pytest.approx(0.5, abs=1e-10)
        assert res.corner_term == pytest.approx(1.0, abs=1e-12)
        assert res.edge_x_term == pytest.approx(-0.5, abs=1e-12)
        assert res.edge_y_term == pytest.approx(0.0, abs=1e-12)
        assert res.mixed_term == pytest.approx(0.0, abs=1e-12)
        assert res.residual.abs_residual <= 1e-10

    def test_hand_fixture_linear_upper_variant(self):
        res = young_residual("Y2", "x", "1", Rect(0, 1, 0, 1))
        assert res.residual.abs_residual <= 1e-10
        assert res.corner_term == pytest.approx(0.0, abs=1e-12)
        assert res.edge_x_term == pytest.approx(0.5, abs=1e-12)

    def test_constant_multiplier_collapses(self):
        res = young_residual("Y1", "3", "sin(x)*cos(y)", Rect(0, 2, 0, 2))
        assert res.residual.abs_residual <= 1e-10
        assert res.edge_x_term == res.edge_y_term == res.mixed_term == 0.0

    def test_exponential_sine_pair(self):
        res = young_residual("Y2", "exp(-x-y)", "sin(x)*sin(y)", Rect(0, math.pi, 0, math.pi))
        assert res.residual.abs_residual <= 1e-6

    @pytest.mark.parametrize("f,w,rect", SMOOTH_FAMILY)
    @pytest.mark.parametrize("variant", ["Y1", "Y2"])
    def test_smooth_family(self, variant, f, w, rect):
        res = young_residual(variant, f, w, rect, spec=QuadratureSpec(tol=1e-8))
        assert res.residual.abs_residual <= 1e-6, (variant, f, w)

    def test_gap_decomposition_matches_lower_bound_form(self):
        # decreasing nonnegative multiplier, nonnegative weight: the three
        # correction terms are nonnegative and sum to lhs - corner.
        for f, w, rect in [
            ("exp(-x-y)", "sin(x)*sin(y)", Rect(0, math.pi, 0, math.pi)),
            ("1/(exp(x)+exp(y)-1)", "1", Rect(0, 1, 0, 1)),
        ]:
            res = young_residual("Y1", f, w, rect)
            gap = res.residual.lhs - res.corner_term
            total = res.edge_x_term + res.edge_y_term + res.mixed_term
            assert res.edge_x_term >= -1e-9
            assert res.edge_y_term >= -1e-9
            assert res.mixed_term >= -1e-9
            assert gap == pytest.approx(total, abs=1e-6)

    def test_y_edge_integral_uses_y_breaks(self):
        # W(1, y) has kinks at breaks_y; at tol 1e-12 the edge integral along y
        # converges only on cells aligned with them
        spec = QuadratureSpec(tol=1e-12).with_breaks(breaks_y=(1 / 3, 2 / 3))
        res = young_residual("Y1", "x*y", "floor(3*y)", Rect(0, 1, 0, 1), spec)
        assert res.edge_y_term == pytest.approx(-5 / 18, abs=1e-14)
        assert res.residual.abs_residual <= 1e-14

    def test_requires_symbolic_partials(self):
        plain = BivariateFn.from_callable(lambda x, y: x + y)
        with pytest.raises(ValueError, match="symbolic"):
            young_residual("Y1", plain, "1", Rect(0, 1, 0, 1))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            young_residual("Y3", "x", "1", Rect(0, 1, 0, 1))


class TestSteffensenIntegral:
    def test_decreasing_fixture(self):
        rep = steffensen_integral("thm3", "exp(-x-y)", "sin(x)*sin(y)",
                                  Rect(0, TWO_PI, 0, TWO_PI))
        expect = ((1 - math.exp(-TWO_PI)) / 2) ** 2
        assert rep.lhs == pytest.approx(expect, abs=1e-6)
        assert rep.bound == pytest.approx(0.0, abs=1e-9)
        assert rep.inequality_holds
        assert rep.hypotheses_hold
        assert rep.monotonicity.verdict == "monotone2d"

    def test_increasing_fixture(self):
        rep = steffensen_integral("thm4", "x*y", "1", Rect(0, 1, 0, 1))
        assert rep.lhs == pytest.approx(0.25, abs=1e-9)
        assert rep.bound == pytest.approx(0.0, abs=1e-12)
        assert rep.inequality_holds and rep.hypotheses_hold

    def test_alternating_illustration(self):
        L = 3 * math.pi / 4
        rep = steffensen_integral("remark3", "log(x^2+y^2)", "-sin(x+y)",
                                  Rect(0, L, 0, L), margin=1e-6)
        assert rep.hypotheses_hold
        assert rep.inequality_holds
        # the reported orientation is int f*(-w) <= f(b,d) * int(-w)
        assert rep.lhs <= rep.bound + 1e-9
        assert rep.primitive_max <= 1e-9

    @pytest.mark.parametrize("f, lhs, bound, holds", [
        ("x", 0.5, 1.0, True),
        ("1 - x", 0.5, 0.0, False),  # f(b, d) = 0 leaves no room for int f(-w) = 1/2
    ])
    def test_alternating_inequality_read_in_the_negated_orientation(self, f, lhs, bound,
                                                                    holds):
        rep = steffensen_integral("remark3", f, "-1", Rect(0, 1, 0, 1))
        assert rep.lhs == pytest.approx(lhs, abs=1e-12)
        assert rep.bound == pytest.approx(bound, abs=1e-12)
        assert rep.inequality_holds is holds
        assert rep.primitive_ok

    def test_remark3_hypotheses_sample_f_once_per_lattice_point(self, monkeypatch):
        # the edge hypothesis reads the top and right edges of certify's lattice
        grid, seen, in_quadrature = 64, [], []
        f = BivariateFn.from_expression("log(x^2+y^2)")

        def counted(x, y):
            if not in_quadrature:
                seen.append(np.broadcast(x, y).size)
            return f(x, y)

        counting = BivariateFn.from_callable(counted)

        def integrate2d(*args, integrate=ineq.integrate2d, **kwargs):
            in_quadrature.append(True)
            try:
                return integrate(*args, **kwargs)
            finally:
                in_quadrature.pop()

        monkeypatch.setattr(ineq, "integrate2d", integrate2d)
        L = 3 * math.pi / 4
        rep = steffensen_integral("remark3", counting, "-sin(x+y)", Rect(0, L, 0, L),
                                  grid=grid, margin=1e-6)
        assert rep.hypotheses_hold
        # the lattice, then the corner f(b, d) of the bound
        assert seen == [(grid + 1) ** 2, 1]

    @pytest.mark.parametrize(
        "f,w,rect",
        [
            ("exp(-x-y)", "sin(x)*sin(y)", Rect(0, TWO_PI, 0, TWO_PI)),
            ("exp(-x-y)", "1", Rect(0, 1, 0, 1)),
            ("1/(exp(x)+exp(y)-1)", "1", Rect(0, 1, 0, 1)),
            ("1/((1+x)*(1+y))", "x*y", Rect(0, 1, 0, 1)),
        ],
    )
    def test_soundness_for_decreasing_class(self, f, w, rect):
        rep = steffensen_integral("thm3", f, w, rect)
        assert rep.hypotheses_hold, (f, w)
        assert rep.inequality_holds, (f, w)

    @pytest.mark.parametrize(
        "f,w,rect",
        [
            ("x*y", "1", Rect(0, 1, 0, 1)),
            ("(x+y)^2", "x*y", Rect(0, 1, 0, 1)),
            ("exp(x+y)", "1", Rect(0, 1, 0, 1)),
        ],
    )
    def test_soundness_for_increasing_class(self, f, w, rect):
        rep = steffensen_integral("thm4", f, w, rect)
        assert rep.hypotheses_hold, (f, w)
        assert rep.inequality_holds, (f, w)

    def test_diagnostic_mode_reports_failed_hypotheses(self):
        # indefinite f: hypotheses fail but the inequality is still evaluated
        rep = steffensen_integral("thm3", "sin(x+y)", "1", Rect(0, 3, 0, 3))
        assert not rep.hypotheses_hold
        assert isinstance(rep.inequality_holds, bool)

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            steffensen_integral("thm5", "x", "1", Rect(0, 1, 0, 1))


@pytest.mark.parametrize("check, plain, reflected, f, w, count", [
    (young_residual, "Y1", "Y2", "x", "1", 5),  # f, w, f_x, f_y, f_xy
    (steffensen_integral, "thm3", "thm4", "x*y", "1", 2),  # f, w
])
def test_reflections_compile_nothing_of_their_own(check, plain, reflected, f, w, count,
                                                  monkeypatch):
    # f o rho reads f's values, and young2 f's own partials at rho, so the
    # reflected check compiles what the plain one does
    compile_, compiled = expr._compile, []

    def counted(node):
        compiled.append(node)
        return compile_(node)

    monkeypatch.setattr(expr, "_compile", counted)
    for variant in (plain, reflected):
        compiled.clear()
        check(variant, f, w, Rect(0, 1, 0, 1))
        assert len(compiled) == count, variant

class TestFourier:
    def test_square_profile_value(self):
        res = fourier_check("sinsin2d", "u^2", 1, 1)
        assert res.value == pytest.approx(8 * math.pi**2, abs=1e-6)
        assert res.sign_ok and res.profile_monotone and res.profile_convex

    def test_sign_grid_small(self):
        for f in ("u^2", "u^3"):
            for m in (1, 2):
                for n in (1, 3):
                    res = fourier_check("sinsin2d", f, m, n)
                    assert res.value >= -1e-8, (f, m, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classical_cosine_values(self, n):
        res = fourier_check("cos1d", "x^2", n=n)
        assert res.value == pytest.approx(4 * math.pi / n**2, abs=1e-8)
        assert res.sign_ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classical_sine_counterexample(self, n):
        res = fourier_check("sin1d", "x^2", n=n)
        assert res.value == pytest.approx(-4 * math.pi**2 / n, abs=1e-8)
        assert res.value < 0
        assert res.expected_sign == "unconstrained"

    def test_shift_invariance(self):
        # the sine kernel integrates any constant to zero
        base = fourier_check("sinsin2d", "u^2", 2, 3).value
        shifted = fourier_check("sinsin2d", "u^2 + 10", 2, 3).value
        assert shifted == pytest.approx(base, abs=1e-7)
        const = fourier_check("sinsin2d", "10", 2, 3)
        assert const.value == pytest.approx(0.0, abs=1e-8)

    def test_bivariate_cosine_kernel(self):
        m, n = 2, 3
        res = fourier_check("coscos2d", "exp(x+y)", m, n)
        expect = (math.exp(TWO_PI) - 1) ** 2 / ((1 + m**2) * (1 + n**2))
        assert res.value == pytest.approx(expect, rel=1e-8)
        assert res.sign_ok

    def test_bivariate_cosine_kernel_orientation(self):
        # exp(x+y) is symmetric in x and y, so it cannot tell m from n; this f
        # reads 2.3354078 with the indices swapped
        def exp_cos(a, k):  # int_0^{2pi} e^{at} cos(kt) dt
            return a * (math.exp(TWO_PI * a) - 1) / (a**2 + k**2)

        res = fourier_check("coscos2d", "exp(x/2 + y/4)", 1, 2)
        assert res.value == pytest.approx(exp_cos(1 / 2, 1) * exp_cos(1 / 4, 2), rel=1e-12)

    @pytest.mark.parametrize("kernel", ["cos1d", "sin1d", "sinsin2d"])
    def test_bivariate_profile_rejected_up_front(self, kernel):
        with pytest.raises(ValueError, match=f"kernel {kernel!r} takes a one-variable profile"):
            fourier_check(kernel, BivariateFn.from_expression("x*y"))

    def test_univariate_integrand_rejected_for_coscos2d(self):
        with pytest.raises(ValueError, match="kernel 'coscos2d' takes a two-variable"):
            fourier_check("coscos2d", UnivariateFn.from_expression("x^2"))

    def test_breaks_of_the_spec_are_kept(self):
        # floor(u) jumps at 1..6 inside [0, 2pi]; without the breaks the
        # refinement cannot reach 1e-12 on the jump cells
        spec = QuadratureSpec(tol=1e-12).with_breaks((1, 2, 3, 4, 5, 6))
        res = fourier_check("cos1d", "floor(u)", n=1, spec=spec)
        exact = sum(k * (math.sin(min(k + 1, TWO_PI)) - math.sin(k)) for k in range(7))
        assert res.value == pytest.approx(exact, abs=1e-12)

    def test_kernel_and_indices_validated(self):
        with pytest.raises(ValueError):
            fourier_check("tan2d", "u^2")
        with pytest.raises(ValueError):
            fourier_check("cos1d", "u^2", m=1, n=0)


class TestByparts:
    def test_constant_against_product_density(self):
        g = from_ac(0.0, Rect(0, 1, 0, 1), density="1")  # g = xy
        res = byparts_residual("7", g, Rect(0, 1, 0, 1))
        assert res.residual.lhs == pytest.approx(7.0, abs=1e-9)
        assert res.residual.abs_residual <= 1e-9
        assert res.edge_vanishing

    def test_exponential_against_product(self):
        g = from_ac(0.0, Rect(0, 1, 0, 1), density="1")
        res = byparts_residual("exp(-x-y)", g, Rect(0, 1, 0, 1))
        assert res.residual.abs_residual <= 1e-6
        assert res.edge_vanishing

    def test_counterexample_for_non_vanishing_edges(self):
        g = from_ac(0.0, Rect(0, 1, 0, 1), g1="1", g2="1")  # g = x + y
        res = byparts_residual("x", g, Rect(0, 1, 0, 1))
        assert res.residual.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.residual.rhs == pytest.approx(0.5, abs=1e-9)
        assert res.residual.abs_residual == pytest.approx(0.5, abs=1e-9)
        assert not res.edge_vanishing
        assert not res.residual.passed

    def test_requires_ac_function(self):
        with pytest.raises(TypeError):
            byparts_residual("x", BivariateFn.from_expression("x*y"), Rect(0, 1, 0, 1))


class TestSumVsIntegral:
    def test_product_on_integer_square(self):
        res = sum_vs_integral("x*y", Rect(0, 2, 0, 2))
        assert res.lhs == 9.0  # (1+2)(1+2) by direct summation
        assert res.abs_residual <= 1e-10

    def test_constant_counts_lattice_points(self):
        res = sum_vs_integral("1", Rect(0, 3, 0, 2))
        assert res.lhs == 6.0
        assert res.abs_residual <= 1e-10

    def test_harmonic_block(self):
        res = sum_vs_integral("1/(x+y)", Rect(1, 4, 1, 4))
        direct = sum(1.0 / (m + n) for m in (2, 3, 4) for n in (2, 3, 4))
        assert res.lhs == pytest.approx(direct, abs=1e-14)
        assert res.abs_residual <= 1e-6

    def test_random_positive_profiles(self, rng):
        for _ in range(4):
            src = random_positive_smooth(rng)
            rect = random_integer_rect(rng)
            res = sum_vs_integral(src, rect)
            assert res.abs_residual <= 1e-6, (src, rect)

    def test_integer_corners_required(self):
        with pytest.raises(ValueError, match="integer"):
            sum_vs_integral("x*y", Rect(0, 1.5, 0, 2))


class TestLemma1:
    @pytest.mark.parametrize(
        "src,rect,verdict,sign",
        [
            ("x*y", Rect(-1, 1, -1, 1), "monotone2d", "nonnegative"),
            ("x^2 + y^2", Rect(-1, 1, -1, 1), "modular", "zero"),
            ("log(x^2+y^2)", Rect(0.5, 2, 0.5, 2), "alternating2d", "nonpositive"),
            ("x - y", Rect(0, 1, 0, 1), "modular", "zero"),
            ("sin(x+y)", Rect(0, 3, 0, 3), "indefinite", "indefinite"),
        ],
    )
    def test_verdict_sign_agreement(self, src, rect, verdict, sign):
        rep = lemma1_check(src, rect, grid=32)
        assert rep.verdict == verdict
        assert rep.mixed_sign == sign
        assert rep.consistent
