"""Lattice kernel (mixed difference, prefix sums) and identity residual tests."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from steff2d.core import IdentityResidual, Rect, _delta, _prefix_sums
from steff2d.expr import as_bivariate
from steff2d.monotone import f_measure


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
