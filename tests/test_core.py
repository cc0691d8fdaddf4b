"""Lattice kernel (mixed difference, prefix sums), domain-checked sampler and
identity residual tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steff2d.copula import validate_copula
from steff2d.core import IdentityResidual, NumericDomainError, Rect, _delta, _prefix_sums
from steff2d.expr import as_bivariate, as_univariate
from steff2d.ineq import lemma1_check
from steff2d.monotone import certify, f_measure
from steff2d.quad import Antiderivative1D, cumulative, integrate1d, integrate2d, stieltjes2d


class TestLatticeKernel:
    def test_delta_of_sampled_f_is_f_measure_of_every_cell(self):
        f = as_bivariate("exp(-x)*sin(2*x + y) + x*y^2")
        xs = np.linspace(-0.5, 1.0, 7)
        ys = np.linspace(0.25, 2.0, 5)
        D = _delta(f(xs[:, None], ys[None, :]))
        assert D.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                cell = Rect(xs[i], xs[i + 1], ys[j], ys[j + 1])
                assert D[i, j] == f_measure(f, cell)

    def test_prefix_sums_invert_zero_padded_delta_on_integers(self, rng):
        for _ in range(100):
            p, q = rng.integers(1, 12, size=2)
            S = rng.integers(-50, 51, size=(p, q)).astype(float)
            padded = np.zeros((p + 1, q + 1))
            padded[1:, 1:] = S
            assert np.array_equal(_prefix_sums(_delta(padded)), S)

    def test_prefix_sums_match_direct_summation(self, rng):
        U = rng.uniform(-1, 1, size=(9, 13))
        direct = np.array([[U[:i + 1, :j + 1].sum() for j in range(13)] for i in range(9)])
        assert np.allclose(_prefix_sums(U), direct, rtol=0, atol=1e-13)


UNIT = Rect(0, 1, 0, 1)
LOG_X = "log(x - 0.5)"  # NaN left of x = 0.5

# Every site that samples through core._sample: the call, and the function
# whose value at the named point must be non-finite.
SAMPLE_SITES = {
    "integrate1d": (lambda: integrate1d("log(t - 0.5)", 0, 1), as_univariate("log(t - 0.5)")),
    "integrate2d": (lambda: integrate2d(LOG_X, UNIT), as_bivariate(LOG_X)),
    "cumulative": (lambda: cumulative("log(y - 0.5)", UNIT), as_bivariate("log(y - 0.5)")),
    "Antiderivative1D": (lambda: Antiderivative1D("log(t - 0.5)", 0, 1),
                         as_univariate("log(t - 0.5)")),
    "stieltjes2d integrator": (lambda: stieltjes2d("x*y", LOG_X, UNIT, partition=8),
                               as_bivariate(LOG_X)),
    "stieltjes2d integrand": (lambda: stieltjes2d(LOG_X, "x*y", UNIT, partition=8),
                              as_bivariate(LOG_X)),
    "certify": (lambda: certify(LOG_X, UNIT, grid=8), as_bivariate(LOG_X)),
    "f_measure": (lambda: f_measure("log(x)", Rect(-1, 1, 0, 1)), as_bivariate("log(x)")),
    # NaN on the x = 0 edge only
    "validate_copula boundary": (lambda: validate_copula("x*y + 0*log(x)", grid=4),
                                 as_bivariate("x*y + 0*log(x)")),
    # NaN at the centre (0.5, 0.5) only, an interior lattice point
    "validate_copula inside": (
        lambda: validate_copula("x*y + 0*log(abs(x - 0.5) + abs(y - 0.5))", grid=4),
        as_bivariate("x*y + 0*log(abs(x - 0.5) + abs(y - 0.5))")),
    # f_xy = x/sqrt(x^2) is 0/0 on the x = 0 column
    "lemma1_check": (lambda: lemma1_check("y*sqrt(x^2)", Rect(-1, 1, -1, 1)),
                     as_bivariate("y*sqrt(x^2)").mixed_partial()),
}


@pytest.mark.parametrize("site", SAMPLE_SITES)
def test_nonfinite_sample_names_its_point(site):
    call, fn = SAMPLE_SITES[site]
    with pytest.raises(NumericDomainError) as info:
        call()
    m = re.fullmatch(r".+ is not finite at \((.+)\)", str(info.value))
    assert m, str(info.value)
    point = [float(v) for v in m.group(1).split(", ")]
    assert not np.isfinite(fn(*point)), point


def test_nonfinite_sample_is_the_first_in_row_major_order():
    # NaN at lattice points (0, 0.75) and (0.25, 0): row 0 comes first
    fn = "0*log(abs(x) + abs(y - 0.75)) + 0*log(abs(x - 0.25) + abs(y))"
    with pytest.raises(NumericDomainError, match=r"^f is not finite at \(0\.0, 0\.75\)$"):
        certify(fn, UNIT, grid=4, margin=0.0)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


class TestIdentityResidual:
    @given(finite_or_not, finite_or_not, st.floats(min_value=0, allow_infinity=False))
    def test_pass_rule_is_the_relative_residual(self, lhs, rhs, tol):
        # rel = abs / max(1, |lhs|) never exceeds abs, so "abs <= tol or
        # rel <= tol" and "rel <= tol" agree on every input.
        r = IdentityResidual.from_pair(lhs, rhs, tol)
        assert r.passed == (r.abs_residual <= tol or r.rel_residual <= tol)
        assert r.passed == (r.rel_residual <= tol)
        if not math.isnan(r.rel_residual):
            assert r.rel_residual <= r.abs_residual
