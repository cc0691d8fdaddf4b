"""Archimedean construction and copula-axiom validation tests."""

import dataclasses
import math

import numpy as np
import pytest

from steff2d.copula import Generator, InvalidGeneratorError, archimedean, validate_copula
from steff2d.core import NumericDomainError, Rect
from steff2d.expr import BivariateFn
from steff2d.quad import stieltjes2d


def _stop_test_inverse(gen, s):
    """The earlier bisection, kept as the reference: lo and hi carried over
    at most 60 sweeps, stopping once max(hi - lo) <= 1e-14."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    lo, hi = np.zeros_like(s), np.ones_like(s)
    with np.errstate(all="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = gen.phi(mid) > s
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
            if float(np.max(hi - lo)) <= 1e-14:
                break
    out = 0.5 * (lo + hi)
    out[s <= 0.0] = 1.0
    if math.isfinite(gen.phi_at_zero):
        out[s >= gen.phi_at_zero] = 0.0
    else:
        out[s == math.inf] = 0.0
    return float(out[0]) if scalar else out


class TestArchimedean:
    def test_log_generator_reproduces_product(self):
        A = archimedean("-log(t)")
        assert A(0.5, 0.5) == pytest.approx(0.25, abs=1e-12)
        ts = np.linspace(0.0, 1.0, 101)
        grid = A(ts[:, None], ts[None, :])
        assert np.max(np.abs(grid - ts[:, None] * ts[None, :])) <= 1e-12

    def test_clayton_theta_one(self):
        # closed-form inverse 1/(1+s) gives A(x,y) = xy/(x+y-xy)
        A = archimedean("1/t - 1")
        assert A(0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert A(0.4, 0.7) == pytest.approx(0.28 / (0.4 + 0.7 - 0.28), abs=1e-12)

    def test_unit_argument_is_identity(self):
        for phi in ("-log(t)", "1/t - 1", "(1-t)^2"):
            A = archimedean(phi)
            assert A(0.3, 1.0) == pytest.approx(0.3, abs=1e-12)
            assert A(1.0, 0.8) == pytest.approx(0.8, abs=1e-12)

    def test_finite_generator_clamps_to_lower_frechet(self):
        # phi(t) = 1 - t has phi(0+) = 1; the pseudo-inverse clamp gives
        # A(x, y) = max(x + y - 1, 0)
        A = archimedean("1 - t")
        assert A(0.3, 0.4) == pytest.approx(0.0, abs=1e-12)
        assert A(0.8, 0.7) == pytest.approx(0.5, abs=1e-12)

    def test_pseudo_inverse_consistency(self):
        gen = Generator.from_expression("-log(t)")
        ts = np.linspace(0.01, 1.0, 100)
        vals = np.array([gen.inverse(float(gen.phi(t))) for t in ts])
        assert np.max(np.abs(vals - ts)) <= 1e-12

    @pytest.mark.parametrize("phi", ["-log(t)", "1/t - 1", "(-log(t))^2", "1 - t"])
    def test_outputs_validate_as_copulas(self, phi):
        rep = validate_copula(archimedean(phi), grid=64, tol=1e-9)
        assert rep.passed, (phi, rep)

    def test_generator_diagnostics(self):
        gen = Generator.from_expression("-log(t)")
        assert math.isinf(gen.phi_at_zero)
        assert gen.strictly_decreasing and gen.convex
        gen2 = Generator.from_expression("1 - t")
        assert gen2.phi_at_zero == pytest.approx(1.0)

    # the four Archimedean families of the benchmark, three parameters each
    BISECTION_GENERATORS = [
        *(f"(t^(-{a!r}) - 1)/{a!r}" for a in (0.5, 2.0, 5.0)),  # Clayton
        *(f"(-log(t))^{a!r}" for a in (1.2, 2.0, 4.0)),  # Gumbel
        *(f"-log((exp(-{a!r}*t) - 1)/(exp(-{a!r}) - 1))" for a in (0.5, 3.0, 10.0)),  # Frank
        *(f"log((1 - ({a!r})*(1 - t))/t)" for a in (-0.9, 0.0, 0.9)),  # AMH
    ]

    @pytest.mark.parametrize("phi", BISECTION_GENERATORS)
    def test_bisection_equals_the_loop_with_a_stop_test(self, phi):
        gen = Generator.from_expression(phi)
        ts = np.linspace(0.0, 1.0, 65)
        s = np.asarray(gen.phi(ts[:, None]) + gen.phi(ts[None, :]))
        assert gen.inverse(s).tobytes() == _stop_test_inverse(gen, s).tobytes()

    # two families with phi(0+) infinite, two with it finite
    EDGE_GENERATORS = ["(t^(-2.0) - 1)/2.0", "(-log(t))^1.2", "1 - t", "(1 - t)^2"]

    @pytest.mark.parametrize("phi", EDGE_GENERATORS)
    def test_bisection_equals_the_loop_on_scalars(self, phi):
        gen = Generator.from_expression(phi)
        for s in (0.7, np.float64(0.7), np.array(0.7), 0.0, -0.0, math.inf, math.nan, 1e-300):
            new, old = gen.inverse(s), _stop_test_inverse(gen, s)
            assert type(new) is float
            assert np.float64(new).tobytes() == np.float64(old).tobytes(), s

    @pytest.mark.parametrize("phi", EDGE_GENERATORS)
    def test_bisection_equals_the_loop_on_a_non_square_broadcast(self, phi):
        gen = Generator.from_expression(phi)
        s = gen.phi(np.linspace(0.1, 0.9, 3)[:, None]) + gen.phi(np.linspace(0.05, 1.0, 5)[None, :])
        assert s.shape == (3, 5)
        new = gen.inverse(s)
        assert new.shape == (3, 5)
        assert new.tobytes() == _stop_test_inverse(gen, s).tobytes()

    @pytest.mark.parametrize("phi", EDGE_GENERATORS)
    def test_bisection_equals_the_loop_on_signed_zeros_infinities_and_nans(self, phi):
        gen = Generator.from_expression(phi)
        s = np.array([-0.0, 0.0, math.inf, math.nan, -0.5, 1e-300, 0.3, 0.3, math.nan, -0.0,
                      1.0, 1.0, -math.inf, 0.0, 2.5, 0.3])
        assert gen.inverse(s).tobytes() == _stop_test_inverse(gen, s).tobytes()

    @pytest.mark.parametrize("phi", EDGE_GENERATORS)
    def test_every_nonpositive_argument_inverts_to_one(self, phi):
        # -inf too, whether phi(0+) is finite or infinite
        gen = Generator.from_expression(phi)
        assert gen.inverse(-math.inf) == 1.0
        assert gen.inverse(np.array([-math.inf, -1.0, -0.0, 0.0])).tolist() == [1.0] * 4

    @pytest.mark.parametrize("phi", ["(t^(-2.0) - 1)/2.0", "log((1 - (0.9)*(1 - t))/t)"])
    def test_multi_strip_validation_equals_the_loop_with_a_stop_test(self, phi):
        # 521^2 lattice points are scanned in five strips
        gen = Generator.from_expression(phi)

        def reference(x, y):
            with np.errstate(all="ignore"):
                s = np.asarray(gen.phi(np.asarray(x, dtype=float)), dtype=float) + np.asarray(
                    gen.phi(np.asarray(y, dtype=float)), dtype=float)
            return _stop_test_inverse(gen, s)

        new = validate_copula(archimedean(gen), grid=520)
        old = validate_copula(BivariateFn.from_callable(reference), grid=520)
        assert new == old

    def test_bisection_takes_47_phi_points_per_inverted_point(self):
        gen = Generator.from_expression("-log(t)")
        seen = []
        counting = dataclasses.replace(gen, phi=lambda t: seen.append(np.size(t)) or gen.phi(t))
        counting.inverse(np.linspace(0.0, 5.0, 100))
        assert sum(seen) == 47 * 100

    def test_bisection_takes_47_phi_points_per_distinct_value(self):
        # phi(x) + phi(y) is symmetric, so the 65^2 lattice holds at most the
        # 65 * 66 / 2 values of one triangle, and each is bisected once
        gen = Generator.from_expression("(-log(t))^2.0")
        ts = np.linspace(0.0, 1.0, 65)
        s = np.asarray(gen.phi(ts[:, None]) + gen.phi(ts[None, :]))
        seen = []
        counting = dataclasses.replace(gen, phi=lambda t: seen.append(np.size(t)) or gen.phi(t))
        counting.inverse(s)
        distinct = np.unique(s).size
        assert distinct < 65 * 66 // 2
        assert sum(seen) == 47 * distinct

    @pytest.mark.parametrize("phi", ["(-log(t))^2.7", "1 - t"])
    def test_off_the_unit_square_is_nan(self, phi):
        A = archimedean(phi)
        for x, y in ((1.5, 0.5), (-0.2, 0.5), (0.5, 1.0000001), (math.nan, 0.5), (0.5, math.nan)):
            assert math.isnan(A(x, y)), (x, y)
        xs, ys = np.array([0.2, 1.5, 0.7])[:, None], np.array([0.3, -1.0, 1.0])[None, :]
        values = A(xs, ys)
        off = np.array([[False, True, False], [True, True, True], [False, True, False]])
        assert np.isnan(values[off]).all()
        assert values[~off].tobytes() == A(np.array([0.2, 0.2, 0.7, 0.7]),
                                           np.array([0.3, 1.0, 0.3, 1.0])).tobytes()

    def test_checks_sampling_off_the_unit_square_name_the_point(self):
        A = archimedean("(-log(t))^2.7")
        # the first lattice points past x = 1 in row-major order
        with pytest.raises(NumericDomainError, match=r"integrator .* at \(1\.0625, 0\.0\)"):
            stieltjes2d("x + y", A, Rect(0.0, 2.0, 0.0, 1.0), partition=32)
        with pytest.raises(NumericDomainError, match=r"copula .* at \(0\.625, 0\.0\)"):
            validate_copula(lambda x, y: A(2.0 * x, y), grid=8)

    @pytest.mark.parametrize("phi", ["t", "log(t)", "t - 1", "sqrt(1-t)*0 + t^2 - t"])
    def test_invalid_generators_rejected(self, phi):
        with pytest.raises(InvalidGeneratorError):
            archimedean(phi)


class TestValidateCopula:
    def test_product_passes(self):
        assert validate_copula("x*y").passed

    def test_upper_frechet_passes(self):
        rep = validate_copula("min(x, y)")
        assert rep.passed
        assert rep.min_cell_measure >= -1e-9

    def test_sum_fails_with_boundary_witness(self):
        rep = validate_copula("x + y")
        assert not rep.passed
        assert rep.boundary_max_error == pytest.approx(1.0)
        assert rep.boundary_witness_condition in ("C(x,0)=0", "C(0,y)=0")

    def test_non_two_increasing_candidate_fails(self):
        # boundary-correct but with negative rectangle measures
        rep = validate_copula("x*y + 0.5*x*(1-x)*y*(1-y)*(x-y)*20")
        assert rep.min_cell_measure < -1e-9 or rep.boundary_max_error > 1e-9
        assert not rep.passed

    def test_report_shape(self):
        rep = validate_copula("x*y", grid=16, tol=1e-10)
        assert rep.grid == 16
        assert rep.tol == 1e-10
        d = rep.to_dict()
        assert set(d) >= {"boundary_max_error", "min_cell_measure", "pass"}

    @pytest.mark.parametrize("candidate, condition, point", [
        # p(t) = t*(1-t)^2 peaks at t = 1/3, which is ts[2] at grid 6
        ("x*y + x*(1-x)^2*(1-y)", "C(x,0)=0", (1 / 3, 0.0)),
        ("x*y + y*(1-y)^2*(1-x)", "C(0,y)=0", (0.0, 1 / 3)),
        ("x*y + x*(1-x)^2*y", "C(x,1)=x", (1 / 3, 1.0)),
        ("x*y + y*(1-y)^2*x", "C(1,y)=y", (1.0, 1 / 3)),
    ])
    def test_boundary_witness_on_each_edge(self, candidate, condition, point):
        rep = validate_copula(candidate, grid=6)
        assert rep.boundary_witness_condition == condition
        assert rep.boundary_witness_point == pytest.approx(point, abs=1e-15)
        assert rep.boundary_max_error == pytest.approx(4 / 27, rel=1e-14)

    @pytest.mark.parametrize("candidate, condition, point", [
        ("x + y", "C(x,0)=0", (1.0, 0.0)),
        ("x*y + 0.5*(1-x)*y", "C(0,y)=0", (0.0, 1.0)),
        ("x*y + 0.5*x*(1-y)", "C(x,0)=0", (1.0, 0.0)),
        ("x*y + 0.5*x*y", "C(x,1)=x", (1.0, 1.0)),
    ])
    def test_shared_corners_go_to_the_first_condition(self, candidate, condition, point):
        # at grid 1 every boundary point is a corner shared by two conditions
        rep = validate_copula(candidate, grid=1)
        assert rep.boundary_witness_condition == condition
        assert rep.boundary_witness_point == point

    @pytest.mark.parametrize("grid", [0, -1])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            validate_copula("x*y", grid=grid)
