"""The verdict rule of each result record: its ``passed`` property, on one
input that passes and one that fails, and on the vacuous cases where a rule
makes no claim and passes."""

import numpy as np
import pytest

from steff2d.core import Rect
from steff2d.discrete import DoubleSequence, steffensen_check
from steff2d.ineq import (
    byparts_residual,
    fourier_check,
    lemma1_check,
    steffensen_integral,
    young_residual,
)
from steff2d.monotone import certify, from_ac
from steff2d.quad import QuadratureSpec, stieltjes2d

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
# one cell of two Gauss points and a tolerance every first estimate meets
COARSE = QuadratureSpec(cells=1, points=2, tol=10.0)
# w integrates to W = -sin(2 pi x)^2 sin(2 pi y)^2, which is 0 on the 3 x 3
# lattice of grid 2 and negative between its points
W_HIDDEN = "-4*pi^2*sin(4*pi*x)*sin(4*pi*y)"


class TestMonotonicityReport:
    def test_a_verdict_passes(self):
        assert certify("x*y", UNIT).passed

    def test_indefinite_fails(self):
        rep = certify("sin(3*x)*sin(3*y)", Rect(0.0, 2.0, 0.0, 2.0))
        assert rep.verdict == "indefinite"
        assert not rep.passed


class TestStieltjesResult:
    def test_converged_within_the_bound_passes(self):
        res = stieltjes2d("x+y", "x*y", UNIT, partition=32)
        assert res.converged and res.integrator_monotone
        assert res.passed

    def test_not_converged_fails(self):
        res = stieltjes2d("x+y", "x*y", UNIT, partition=32, doublings=0)
        assert not res.converged
        assert not res.passed

    def test_bound_of_a_non_monotone_integrator_is_not_asserted(self):
        # f vanishes on the boundary, so its rectangle measure and the bound are
        # 0, while the integral is (2/pi)^2
        with pytest.warns(UserWarning):
            res = stieltjes2d("x*y", "sin(pi*x)*sin(pi*y)", UNIT, partition=64, tol=1e-3)
        assert res.converged and not res.integrator_monotone
        assert abs(res.value) > res.bound + 1e-10
        assert res.passed


class TestSteffensenReport:
    A = DoubleSequence([[0.25, 0.125], [0.125, 0.0625]])
    U = DoubleSequence([[1.0, -1.0], [-1.0, 1.0]])

    def test_conclusion_under_the_hypotheses_passes(self):
        rep = steffensen_check(self.A, self.U)
        assert rep.hypotheses_hold and rep.conclusion_holds
        assert rep.passed

    def test_failed_conclusion_under_the_hypotheses_fails(self):
        # the theorem rules this out for exact sums, so only a tolerance below
        # zero, which asks for a sum of at least 0.5, shows the rule
        rep = steffensen_check(self.A, self.U, tol=-0.5)
        assert rep.hypotheses_hold and not rep.conclusion_holds
        assert not rep.passed

    def test_failed_hypotheses_pass(self):
        rep = steffensen_check(DoubleSequence([[-1.0]]), DoubleSequence([[1.0]]))
        assert not rep.hypotheses_hold and not rep.conclusion_holds
        assert rep.passed


class TestYoungResult:
    @pytest.mark.parametrize("variant", ["young1", "young2"])
    def test_residual_within_the_tolerance_passes(self, variant):
        assert young_residual(variant, "x", "1", UNIT).passed

    @pytest.mark.parametrize("variant", ["young1", "young2"])
    def test_residual_over_the_tolerance_fails(self, variant):
        res = young_residual(variant, "exp(x*y)", "cos(5*x*y)", UNIT, spec=COARSE)
        assert res.residual.rel_residual > res.residual.tolerance
        assert not res.passed


class TestTheoremReport:
    def test_inequality_under_the_hypotheses_passes(self):
        rep = steffensen_integral("thm3", "exp(-x-y)", "sin(x)*sin(y)",
                                  Rect(0.0, 2 * np.pi, 0.0, 2 * np.pi))
        assert rep.hypotheses_hold and rep.inequality_holds
        assert rep.passed

    @pytest.mark.parametrize("theorem, f, w", [
        ("thm3", "x*y-x-y", W_HIDDEN),
        ("thm4", "x*y", W_HIDDEN),
        ("remark3", "x+y-x*y", "-(" + W_HIDDEN + ")"),
    ])
    def test_failed_inequality_under_the_grid_hypotheses_fails(self, theorem, f, w):
        # the primitive meets its sign hypothesis on the lattice only, and the
        # inequality misses by 1/4
        rep = steffensen_integral(theorem, f, w, UNIT, grid=2)
        assert rep.hypotheses_hold and not rep.inequality_holds
        assert not rep.passed

    def test_failed_hypotheses_and_failed_inequality_pass(self):
        # x*y has increasing top and right edges: int f w = 1/4 < f(1,1) W(1,1) = 1
        rep = steffensen_integral("thm3", "x*y", "1", UNIT)
        assert not rep.hypotheses_hold and not rep.inequality_holds
        assert rep.passed


class TestFourierCheck:
    def test_expected_sign_passes(self):
        assert fourier_check("sinsin2d", "u^2").passed

    def test_wrong_sign_fails(self):
        # a concave profile against cos(t) integrates to -4 pi
        res = fourier_check("cos1d", "-(u^2)")
        assert res.expected_sign == "nonnegative" and res.value < 0
        assert not res.passed

    def test_unconstrained_sign_passes(self):
        res = fourier_check("sin1d", "u^2")
        assert res.value < 0 and res.passed


class TestBypartsResult:
    def test_residual_within_the_tolerance_passes(self):
        g = from_ac(0.0, UNIT, density="1")
        assert byparts_residual("exp(-x-y)", g, UNIT).passed

    def test_residual_over_the_tolerance_fails(self):
        g = from_ac(0.0, UNIT, density="1")
        res = byparts_residual("exp(-x-y)", g, UNIT, tolerance=0.0)
        assert res.edge_vanishing and not res.residual.passed
        assert not res.passed

    def test_edges_that_do_not_vanish_pass(self):
        g = from_ac(0.0, UNIT, g1="1", g2="1")
        res = byparts_residual("x", g, UNIT)
        assert not res.edge_vanishing and not res.residual.passed
        assert res.passed


class TestLemma1Report:
    def test_consistent_passes(self):
        assert lemma1_check("x*y", UNIT).passed

    def test_inconsistent_fails(self):
        # the jump of floor(2x) is a positive cell measure, but its derivative is 0
        with pytest.warns(UserWarning):
            rep = lemma1_check("floor(2*x)*y", UNIT)
        assert (rep.verdict, rep.mixed_sign) == ("monotone2d", "zero")
        assert not rep.passed




@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", [
    lambda tol: certify("x*y", UNIT, tol=tol),
    lambda tol: lemma1_check("floor(2*x)*y", UNIT, tol=tol),
    lambda tol: steffensen_integral("thm3", "x*y-x-y", W_HIDDEN, UNIT, grid=2, tol=tol),
], ids=["certify", "lemma1", "thm3"])
def test_a_tol_outside_zero_to_infinity_in_the_sign_rule_raises(check, tol):
    # lemma1 and thm3 fail at tol 1e-9; a negative or NaN tol made a hypothesis
    # unreachable and an infinite one met every sign, so they passed vacuously
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check(tol)
