"""Lattice kernel (mixed difference, prefix sums, the strip scanner),
domain-checked sampler and identity residual tests."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steff2d.copula import validate_copula
from steff2d.core import (
    IdentityResidual,
    NumericDomainError,
    Rect,
    _delta,
    _prefix_sums,
    _sample,
    _scan,
)
from steff2d.expr import as_bivariate, as_univariate
from steff2d.ineq import lemma1_check, steffensen_integral, sum_vs_integral, young_residual
from steff2d.monotone import catalog, certify, f_measure
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
    # the upper primitive samples the reflected integrand; the point is the caller's
    "cumulative upper": (lambda: cumulative("log(y - 0.5)", UNIT, "upper"),
                         as_bivariate("log(y - 0.5)")),
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
    # log 0 at the corner (a, c) only: certify's lattice is pulled inward
    "steffensen_integral corner": (
        lambda: steffensen_integral("thm4", "log(x^2+y^2)", "1", UNIT),
        as_bivariate("log(x^2+y^2)")),
    # 0*log 0 is NaN at the young2 corner (a, c) only
    "young_residual corner": (
        lambda: young_residual("young2", "x*y + 0*log(x^2+y^2)", "1", UNIT),
        as_bivariate("x*y + 0*log(x^2+y^2)")),
    # f_x = y/(2 sqrt(x*y)) is 0/0 on the young2 edge y = c; the edge names (x, c)
    "young_residual edge": (lambda: young_residual("young2", "sqrt(x*y)", "1", UNIT),
                            as_bivariate("sqrt(x*y)").symbolic_partial("x")),
    # a callable f is reflected by wrapping; log 0 at the thm4 corner (a, c) only
    "steffensen_integral callable": (
        lambda: steffensen_integral("thm4", lambda x, y: np.log(x * x + y * y), "1", UNIT),
        as_bivariate(lambda x, y: np.log(x * x + y * y))),
    # 0/0 at the lattice point (1, 1) of the corollary's sum only
    "sum_vs_integral lattice": (lambda: sum_vs_integral("sin(x-1)/(x-1)", Rect(0, 2, 0, 2)),
                                as_bivariate("sin(x-1)/(x-1)")),
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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _table_fn(T):
    """f(x, y) = T[x, y] on the integer lattice, counting its calls."""
    def fn(x, y):
        fn.calls += 1
        return T[np.asarray(x, dtype=int), np.asarray(y, dtype=int)]
    fn.calls = 0
    return fn


def _whole_lattice(fn, xs, ys):
    """The reference: the lattice sampled whole, its cells by _delta, and the
    extremes at the first np.argmin / np.argmax in row-major order."""
    V = _sample(fn, "f", xs[:, None], ys[None, :])
    D = _delta(V)
    ref = {}
    for name, A in (("values", V), ("cells", D)):
        kmin = np.unravel_index(np.argmin(A), A.shape)
        kmax = np.unravel_index(np.argmax(A), A.shape)
        ref[name] = (A[kmin], A[kmax], tuple(map(int, kmin)), tuple(map(int, kmax)))
    ref["edges"] = (V[:, 0], V[:, -1], V[0, :], V[-1, :])
    return ref


def _assert_scan_is_whole_lattice(fn, xs, ys):
    scan = _scan(fn, "f", xs, ys)
    ref = _whole_lattice(fn, xs, ys)
    for name in ("values", "cells"):
        got = getattr(scan, name)
        lo, hi, kmin, kmax = ref[name]
        assert (_bits(got.min), _bits(got.max)) == (_bits(lo), _bits(hi)), name
        assert (got.argmin, got.argmax) == (kmin, kmax), name
    for got, want in zip((scan.bottom, scan.top, scan.left, scan.right), ref["edges"]):
        assert got.tobytes() == want.tobytes()
    return scan


def _integer_lattice(n, m):
    return np.arange(n, dtype=float), np.arange(m, dtype=float)


class TestScan:
    """core._scan against the whole lattice: bitwise equal values, cells,
    witnesses and edges, whatever the strips."""

    # (rows, columns) -> strips: one strip up to 2^18 values, else 2^16-value
    # strips of whole rows; a row longer than 2^16 is a strip of its own
    @pytest.mark.parametrize("n, m, strips", [
        (33, 33, 1), (512, 512, 1), (2, 2**17 + 1, 2), (5, 70001, 5), (300, 1000, 5),
    ])
    def test_random_lattice_in_any_number_of_strips(self, rng, n, m, strips):
        fn = _table_fn(rng.standard_normal((n, m)))
        _assert_scan_is_whole_lattice(fn, *_integer_lattice(n, m))
        assert fn.calls == strips + 1  # the scan's strips, then the reference

    def test_expression_on_a_grid_2048_lattice(self):
        f = as_bivariate("sin(3*x - y)*exp(-x*y) + x/(1 + y^2)")
        r = Rect(-1, 2, 0.5, 3)
        _assert_scan_is_whole_lattice(f, r.xs(2048), r.ys(2048))

    def test_ties_across_seams_keep_the_first_cell(self):
        # constant f: every value and every cell ties, in every strip
        scan = _assert_scan_is_whole_lattice(as_bivariate("1"), *_integer_lattice(600, 1000))
        assert scan.values.argmin == scan.values.argmax == (0, 0)
        assert scan.cells.argmin == scan.cells.argmax == (0, 0)
        assert scan.cells.min == scan.cells.max == 0.0

    def test_extreme_cell_on_a_seam_row(self, rng):
        # strips of 65 rows: cell row 64 straddles the first seam.  A step of
        # 50 in the rows from 65 on, over columns 500-699, has the measure +50
        # in cell (64, 499) and -50 in cell (64, 699), and 0 in every other
        T = rng.uniform(-1, 1, (300, 1000))
        T[65:, 500:700] += 50.0
        scan = _assert_scan_is_whole_lattice(_table_fn(T), *_integer_lattice(300, 1000))
        assert scan.cells.argmin == (64, 699)
        assert scan.cells.argmax == (64, 499)

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_zero_minimum_of_both_signs(self, rng, first):
        # values >= 0 with zeros of both signs; the first zero, in the
        # second strip, sets the sign of the minimum
        T = rng.uniform(1, 2, (300, 1000))
        T[rng.uniform(size=T.shape) < 0.01] = -0.0
        T[rng.uniform(size=T.shape) < 0.01] = 0.0
        T[:70] = np.abs(T[:70]) + 1
        T[70, 3] = first
        scan = _assert_scan_is_whole_lattice(_table_fn(T), *_integer_lattice(300, 1000))
        assert scan.values.argmin == (70, 3)
        assert _bits(scan.values.min) == _bits(first)

    def test_cells_that_overflow(self, rng):
        # +-1e308 values in the fourth strip make cells of both infinities
        T = rng.uniform(-1, 1, (300, 1000))
        T[200, 10] = T[201, 11] = 1e308
        T[200, 11] = T[201, 10] = -1e308
        with np.errstate(over="ignore"):
            scan = _assert_scan_is_whole_lattice(_table_fn(T), *_integer_lattice(300, 1000))
        assert (scan.cells.min, scan.cells.max) == (-np.inf, np.inf)

    def test_nonfinite_value_in_a_later_strip(self, rng):
        T = rng.uniform(-1, 1, (300, 1000))
        T[250, 7] = T[280, 2] = np.nan
        xs, ys = _integer_lattice(300, 1000)
        with pytest.raises(NumericDomainError) as whole:
            _sample(_table_fn(T), "f", xs[:, None], ys[None, :])
        with pytest.raises(NumericDomainError) as scanned:
            _scan(_table_fn(T), "f", xs, ys)
        assert str(scanned.value) == str(whole.value) == "f is not finite at (250.0, 7.0)"

    def test_values_only_skips_the_cell_pass(self, rng):
        T = rng.standard_normal((300, 1000))
        scan = _scan(_table_fn(T), "f", *_integer_lattice(300, 1000), cells=False)
        assert scan.cells.argmin is None and scan.cells.argmax is None
        assert scan.values.argmin == tuple(map(int, np.unravel_index(np.argmin(T), T.shape)))

    @pytest.mark.parametrize("C", ["x*y", "min(x, y)", "x + y", "x*y*(1 + 0.5*(1-x)*(1-y))"])
    def test_validate_copula_at_grid_one(self, C):
        # one cell: its measure is the corner alternating sum of the unit square
        rep = validate_copula(C, grid=1)
        assert _bits(rep.min_cell_measure) == _bits(f_measure(C, Rect(0, 1, 0, 1)))

    def test_certify_at_grid_2048_holds_no_lattice_sized_array(self):
        # the whole lattice of values alone would be 2049^2 * 8 B = 32 MiB
        # (96 MiB traced peak when certify sampled it whole)
        f = catalog("midpoint_gap(t^2)")
        tracemalloc.start()
        try:
            certify(f, UNIT, grid=2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
