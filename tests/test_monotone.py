"""Rectangle-measure certification and catalog tests."""

import math

import numpy as np
import pytest

from conftest import CLASSIFICATION_FIXTURES
from steff2d.core import NumericDomainError, Rect
from steff2d.expr import BivariateFn
from steff2d.monotone import (
    CatalogError,
    catalog,
    certify,
    f_measure,
    from_ac,
    mixed_partial_fd,
)
from steff2d.quad import QuadratureSpec


class TestFMeasure:
    def test_product(self):
        assert f_measure("x*y", Rect(0, 1, 0, 1)) == 1.0

    def test_separable_terms_cancel(self):
        # dyadic corners keep the cancellation exact
        assert f_measure("x^2 + y^2", Rect(0.25, 0.75, 0.5, 1.0)) == 0.0

    def test_exponential_coupling_value(self):
        e = math.e
        expected = 1.0 - 2.0 / e + 1.0 / (2.0 * e - 1.0)
        assert f_measure("1/(exp(x)+exp(y)-1)", Rect(0, 1, 0, 1)) == pytest.approx(
            expected, abs=1e-14
        )

    def test_domain_violation_at_corner(self):
        with pytest.raises(NumericDomainError):
            f_measure("log(x)", Rect(-1, 1, 0, 1))


class TestMixedPartialFd:
    def test_product_is_exactly_one_on_dyadics(self):
        assert mixed_partial_fd("x*y", 0.5, 0.25, 0.125) == 1.0

    def test_separable_is_exactly_zero_on_dyadics(self):
        assert mixed_partial_fd("x^2 + y^2", 0.5, 0.25, 0.25) == 0.0

    def test_exponential_approximates_mixed_partial(self):
        # d2/dxdy exp(-x-y) = exp(-x-y) = 1 at the origin
        assert mixed_partial_fd("exp(-x-y)", 0.0, 0.0, 1e-3) == pytest.approx(1.0, abs=2e-3)

    def test_scales_f_measure_exactly(self, rng):
        # dyadic h keeps the divide-then-multiply round trip exact
        f = BivariateFn.from_expression("sin(x)*cos(y) + x^2*y")
        for h in (0.5, 0.25, 0.125, 0.0625):
            for _ in range(5):
                x, y = rng.uniform(0, 1, size=2)
                q = mixed_partial_fd(f, x, y, h)
                assert q * (h * h) == f_measure(f, Rect(x, x + h, y, y + h))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            mixed_partial_fd("x*y", 0, 0, 0.0)


class TestCertify:
    @pytest.mark.parametrize("src,rect,expected", CLASSIFICATION_FIXTURES)
    def test_classification_fixtures(self, src, rect, expected):
        assert certify(src, rect, grid=32).verdict == expected

    def test_report_invariants(self):
        rep = certify("x*y", Rect(-1, 1, -1, 1), grid=16)
        assert rep.verdict == "monotone2d"
        assert rep.min_measure >= -rep.tol
        assert rep.max_measure > rep.tol
        assert rep.grid == 16
        assert rep.min_witness.a >= rep.eval_rect.a

    def test_modular_requires_both_signs_within_tol(self):
        rep = certify("x - y", Rect(0, 1, 0, 1), grid=8)
        assert rep.verdict == "modular"
        assert abs(rep.min_measure) <= rep.tol
        assert abs(rep.max_measure) <= rep.tol

    def test_indefinite(self):
        rep = certify("sin(x+y)", Rect(0, 3, 0, 3), grid=32)
        assert rep.verdict == "indefinite"

    def test_edge_flags_for_decreasing_function(self):
        rep = certify("exp(-x-y)", Rect(0, 1, 0, 1), grid=16)
        assert rep.edge_top_decreasing and rep.edge_right_decreasing
        assert not rep.edge_bottom_increasing
        assert rep.nonnegative

    def test_edge_flags_for_increasing_function(self):
        rep = certify("x*y", Rect(0, 1, 0, 1), grid=16)
        assert rep.edge_bottom_increasing and rep.edge_left_increasing
        assert not rep.edge_top_decreasing

    def test_margin_avoids_boundary_singularity(self):
        # log(x^2+y^2) is singular at the origin corner of [0, L]^2
        rep = certify("log(x^2+y^2)", Rect(0, 1, 0, 1), grid=16, margin=1e-6)
        assert rep.verdict == "alternating2d"

    def test_domain_violation_raises(self):
        with pytest.raises(NumericDomainError):
            certify("log(x - 10)", Rect(0, 1, 0, 1), grid=8)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            certify("x*y", Rect(0, 1, 0, 1), grid=1)


class TestAdditivityAndNesting:
    def test_cell_measures_telescope(self):
        f = BivariateFn.from_expression("exp(-x-y) + sin(x)*y")
        r = Rect(0, 1, 0, 1)
        xs, ys = r.xs(8), r.ys(8)
        total = sum(
            f_measure(f, Rect(xs[i], xs[i + 1], ys[j], ys[j + 1]))
            for i in range(8)
            for j in range(8)
        )
        assert total == pytest.approx(f_measure(f, r), abs=1e-12)

    def test_nested_rectangle_measures_ordered(self):
        f = BivariateFn.from_expression("exp(-x-y)")
        r = Rect(0, 1, 0, 1)
        xs, ys = r.xs(8), r.ys(8)
        inner = Rect(xs[2], xs[6], ys[1], ys[5])
        outer = Rect(xs[1], xs[7], ys[0], ys[6])
        assert f_measure(f, inner) <= f_measure(f, outer) + 1e-12

    def test_remark_edge_differences_nondecreasing(self):
        # for a 2d-monotone f, x -> f(x,d) - f(x,c) is nondecreasing
        for src, rect in [("x*y", Rect(-1, 1, -1, 1)), ("exp(-x-y)", Rect(0, 1, 0, 1))]:
            f = BivariateFn.from_expression(src)
            assert certify(f, rect, grid=16).verdict == "monotone2d"
            xs, ys = rect.xs(16), rect.ys(16)
            dx = f(xs, rect.d) - f(xs, rect.c)
            dy = f(rect.b, ys) - f(rect.a, ys)
            assert np.all(np.diff(dx) >= -1e-12)
            assert np.all(np.diff(dy) >= -1e-12)


class TestCatalog:
    def test_named_entries(self):
        assert catalog("Pi")(2, 3) == 6.0
        assert catalog("E")(1, 2) == 5.0
        assert catalog("exp_decay")(0, 0) == 1.0
        assert catalog("C")(0, 0) == 1.0

    def test_log_pow(self):
        f = catalog("log_pow(3)")
        assert f(1.0, 1.0) == pytest.approx(math.log(2.0))

    def test_convex_attachments(self):
        neg = catalog("neg_convex_diff(t^2)")
        assert neg(2, 0.5) == -(1.5**2)
        assert certify(neg, Rect(-1, 1, -1, 1), grid=16).verdict == "monotone2d"

        gap = catalog("midpoint_gap(t^2)")
        xs = np.linspace(-1, 1, 11)
        expect = (xs[:, None] - xs[None, :]) ** 2 / 4.0
        assert np.allclose(gap(xs[:, None], xs[None, :]), expect, atol=1e-14)
        assert certify(gap, Rect(-1, 1, -1, 1), grid=16).verdict == "alternating2d"

        cs = catalog("convex_sum(t^2, 1)")
        assert cs(1, 2) == 9.0
        assert certify(cs, Rect(0, 1, 0, 1), grid=16).verdict == "monotone2d"

    def test_parameters_as_arguments(self):
        assert catalog("convex_sum", "t^2", 2.0)(1, 1) == 16.0

    def test_symbolic_partials_available(self):
        f = catalog("midpoint_gap(exp(t))")
        assert f.has_symbolic_partials
        assert f.mixed_partial()(0.0, 0.0) == pytest.approx(-0.25)

    @pytest.mark.parametrize(
        "bad",
        ["nope", "log_pow()", "log_pow(0)", "convex_sum(t^2)", "neg_convex_diff(q+)",
         "convex_sum(t^2, -1)", "E(3)"],
    )
    def test_malformed_requests(self, bad):
        with pytest.raises(CatalogError):
            catalog(bad)

    @pytest.mark.parametrize("name,rest", [("midpoint_gap", ()), ("neg_convex_diff", ()),
                                           ("convex_sum", (1.0,))])
    def test_callable_profile_is_refused(self, name, rest):
        # a callable has no AST to compose into the entry's expression
        with pytest.raises(CatalogError, match="no expression"):
            catalog(name, lambda t: t, *rest)


class TestAcRepresentation:
    def test_pure_density_gives_product(self):
        f = from_ac(0.0, Rect(0, 1, 0, 1), density="1")
        xs = np.linspace(0, 1, 9)
        assert np.allclose(f(xs[:, None], xs[None, :]), xs[:, None] * xs[None, :], atol=1e-9)
        assert certify(f, Rect(0, 1, 0, 1), grid=16).verdict == "monotone2d"

    def test_pure_edge_density_gives_coordinate(self):
        f = from_ac(0.0, Rect(0, 1, 0, 1), g1="1")
        assert f(0.3, 0.9) == pytest.approx(0.3, abs=1e-9)

    def test_full_representation_matches_closed_form(self):
        r = Rect(0, 1, 0, 1)
        f = from_ac(2.0, r, g1="cos(t)", g2="1", density="exp(-x-y)")
        xs = np.linspace(0, 1, 7)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        expect = 2.0 + np.sin(X) + Y + (1 - np.exp(-X)) * (1 - np.exp(-Y))
        assert np.allclose(f(X, Y), expect, atol=1e-8)

    def test_y_edge_density_uses_y_breaks(self):
        # G2 lies on the y axis: its cells must align with breaks_y, not breaks_x
        spec = QuadratureSpec().with_breaks(breaks_y=(1 / 3, 2 / 3))
        f = from_ac(0.0, Rect(0, 1, 0, 1), g2="floor(3*t)", spec=spec)
        ys = np.linspace(0, 1, 13)
        expect = np.maximum(ys - 1 / 3, 0.0) + np.maximum(ys - 2 / 3, 0.0)
        assert np.max(np.abs(f(0.5, ys) - expect)) <= 1e-14

    def test_fields_exposed(self):
        f = from_ac(1.0, Rect(0, 1, 0, 1), g1="t", density="x*y")
        assert f.f0 == 1.0
        assert f.g1 is not None and f.g2 is None
        assert f.density is not None
