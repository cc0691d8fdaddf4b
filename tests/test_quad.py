"""Quadrature, cumulative-primitive, Stieltjes, and mollifier tests."""

import math

import numpy as np
import pytest

from conftest import MONOTONE_CATALOG, random_h_expression
from steff2d.core import ConvergenceError, NumericDomainError, Rect, _delta
from steff2d.expr import BivariateFn, as_bivariate, as_univariate
from steff2d.monotone import catalog, certify, from_ac
from steff2d.quad import (
    Antiderivative1D,
    QuadratureSpec,
    bump_normalization,
    cumulative,
    integrate1d,
    integrate2d,
    make_mollifier,
    mollify,
    stieltjes2d,
    stieltjes_vs_riemann,
)
from steff2d.quad import _cell_values, _conv_nodes, _gauss, _legendre_matrix, _nodes, _q_values


class TestIntegrate2d:
    def test_constant(self):
        assert integrate2d("1", Rect(0, 1, 0, 1)).value == pytest.approx(1.0, abs=1e-13)

    def test_product(self):
        assert integrate2d("x*y", Rect(0, 1, 0, 1)).value == pytest.approx(0.25, abs=1e-13)

    def test_separable_sine(self):
        v = integrate2d("sin(x)*sin(y)", Rect(0, math.pi, 0, math.pi))
        assert v.value == pytest.approx(4.0, abs=1e-8)

    def test_tensor_polynomials_exact(self, rng):
        # Gauss-Legendre of order p integrates degree 2p-1 exactly per axis
        r = Rect(-1.0, 1.5, 0.25, 2.0)
        for _ in range(5):
            deg = 15
            C = rng.uniform(-1, 1, size=(deg + 1, deg + 1))

            def poly(x, y, C=C):
                xb, yb = np.broadcast_arrays(x, y)
                return np.polynomial.polynomial.polyval2d(xb, yb, C)

            def moment(lo, hi, k):
                return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

            exact = sum(
                C[i, j] * moment(r.a, r.b, i) * moment(r.c, r.d, j)
                for i in range(deg + 1)
                for j in range(deg + 1)
            )
            got = integrate2d(poly, r).value
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_breakpoints_handle_floor(self):
        spec = QuadratureSpec().with_breaks(breaks_x=(1.0, 2.0))
        v = integrate2d("floor(x) + y", Rect(0, 3, 0, 1), spec)
        assert v.value == pytest.approx(3.0 + 1.5, abs=1e-10)

    def test_fractional_part_moment(self):
        spec = QuadratureSpec().with_breaks(breaks_x=(1.0,))
        v = integrate2d("x - floor(x)", Rect(0, 2, 0, 1), spec)
        assert v.value == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(tol=1e-15, max_refine=2)
        with pytest.raises(ConvergenceError):
            integrate2d("sqrt(abs(x - 0.3))", Rect(0, 1, 0, 1), spec)

    def test_domain_violation_raises(self):
        with pytest.raises(NumericDomainError):
            integrate2d("log(x - 10)", Rect(0, 1, 0, 1))

    def test_fubini_axis_swap(self):
        spec = QuadratureSpec()
        r = Rect(0, 1, 0, 2)
        f = BivariateFn.from_expression("exp(-x-2*y)*sin(x+y)")
        direct = integrate2d(f, r, spec).value
        swapped = integrate2d(lambda x, y: f(y, x), Rect(0, 2, 0, 1), spec).value
        assert abs(direct - swapped) <= 2 * spec.tol

    def test_integrable_corner_singularity(self):
        # log singularity at the origin corner; adaptivity grades into it
        L = 3 * math.pi / 4
        eps = 1e-6
        v = integrate2d("log(x^2+y^2)*sin(x+y)", Rect(eps, L - eps, eps, L - eps),
                        QuadratureSpec(tol=1e-7, max_refine=20))
        assert v.value == pytest.approx(0.6828059815224063, abs=1e-5)  # scipy oracle


class TestIntegrate1d:
    def test_polynomial(self):
        assert integrate1d("t^3", 0, 2).value == pytest.approx(4.0, abs=1e-12)

    def test_expression_and_callable(self):
        assert integrate1d(np.sin, 0, math.pi).value == pytest.approx(2.0, abs=1e-10)
        assert integrate1d("sin(t)", 0, math.pi).value == pytest.approx(2.0, abs=1e-10)

    def test_nonconvergence(self):
        with pytest.raises(ConvergenceError):
            integrate1d("sqrt(abs(t - 0.5))", 0, 1, QuadratureSpec(tol=1e-15, max_refine=2))


class TestCumulative:
    def test_unit_density_lower(self):
        W = cumulative("1", Rect(0, 1, 0, 1))
        assert W(0.3, 0.7) == pytest.approx(0.21, abs=1e-12)
        assert W.total == pytest.approx(1.0, abs=1e-12)

    def test_lower_edges_exactly_zero(self):
        W = cumulative("exp(-x)*cos(y)", Rect(0, 2, 0, 2))
        ys = np.linspace(0, 2, 9)
        assert np.all(W(np.zeros_like(ys), ys) == 0.0)
        assert np.all(W(ys, np.zeros_like(ys)) == 0.0)

    def test_upper_edges_exactly_zero(self):
        W = cumulative("exp(-x)*cos(y)", Rect(0, 2, 0, 2), "upper")
        ys = np.linspace(0, 2, 9)
        assert np.all(W(np.full_like(ys, 2.0), ys) == 0.0)
        assert np.all(W(ys, np.full_like(ys, 2.0)) == 0.0)

    def test_sine_product_closed_form(self):
        two_pi = 2 * math.pi
        W = cumulative("sin(x)*sin(y)", Rect(0, two_pi, 0, two_pi))
        pts = np.linspace(0.1, two_pi - 0.1, 13)
        got = W(pts[:, None], pts[None, :])
        expect = (1 - np.cos(pts))[:, None] * (1 - np.cos(pts))[None, :]
        assert np.max(np.abs(got - expect)) <= 1e-8

    def test_upper_unit_density(self):
        W = cumulative("1", Rect(0, 1, 0, 1), "upper")
        assert W(0.25, 0.5) == pytest.approx(0.375, abs=1e-12)

    def test_lattice_extrema(self):
        W = cumulative("sin(x)*sin(y)", Rect(0, 2 * math.pi, 0, 2 * math.pi))
        ex = W.lattice_extrema(32)
        assert ex.minimum >= -1e-9
        assert ex.maximum == pytest.approx(4.0, abs=1e-6)

    def test_antiderivative_1d(self):
        A = Antiderivative1D("cos(t)", 0.0, math.pi)
        ts = np.linspace(0, math.pi, 21)
        assert np.max(np.abs(A(ts) - np.sin(ts))) <= 1e-10
        assert A(0.0) == 0.0

    def test_orientation_validated(self):
        with pytest.raises(ValueError):
            cumulative("1", Rect(0, 1, 0, 1), "sideways")

    def test_upper_primitive_aligns_its_cells_with_the_breaks(self):
        # floor(2x) jumps at the breaks 0.5 and 1; the upper primitive integrates
        # the reflected integrand, whose jumps sit at 0.8 and 0.3, so its cells
        # must align with the reflected breaks
        spec = QuadratureSpec().with_breaks(breaks_x=(0.5, 1.0))
        W = cumulative("floor(2*x)", Rect(0, 1.3, 0, 1), "upper", spec)
        xs, ys = np.linspace(0, 1.3, 27), np.linspace(0, 1, 5)

        def exact(x, y):  # int_x^1.3 floor(2s) ds * int_y^1 dt
            return (np.maximum(1.0 - np.maximum(x, 0.5), 0.0)
                    + 2 * (1.3 - np.maximum(x, 1.0))) * (1.0 - y)

        got = W(xs[:, None], ys[None, :])
        assert np.max(np.abs(got - exact(xs[:, None], ys[None, :]))) <= 1e-13
        assert W.total == pytest.approx(1.1, abs=1e-13)


class TestPrimitiveExactness:
    """Polynomials of degree below spec.points per axis are integrated exactly,
    so the primitives must match the closed form to rounding on non-uniform
    cells, at every kind of call."""

    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    def test_cumulative_polynomial(self, orientation, rng):
        r = Rect(-1.0, 1.5, 0.25, 2.0)
        a, b, c, d = r.as_tuple()
        spec = QuadratureSpec().with_breaks(breaks_x=(-0.7, 0.1, 0.2), breaks_y=(0.3, 1.9))
        W = cumulative("x^3*y^5 + x*y - 2", r, orientation, spec)
        assert np.ptp(W.hx) > 0.1 and np.ptp(W.hy) > 0.1  # non-uniform cells

        def exact(x, y):
            (x0, x1), (y0, y1) = ((a, x), (c, y)) if orientation == "lower" else ((x, b), (y, d))
            return ((x1 ** 4 - x0 ** 4) / 4 * (y1 ** 6 - y0 ** 6) / 6
                    + (x1 ** 2 - x0 ** 2) / 2 * (y1 ** 2 - y0 ** 2) / 2
                    - 2 * (x1 - x0) * (y1 - y0))

        xs = np.concatenate([W.bx, rng.uniform(a, b, 23)])
        ys = np.concatenate([W.by, rng.uniform(c, d, 19)])
        px, py = rng.uniform(a, b, 200), rng.uniform(c, d, 200)
        calls = [
            (W(px, py), exact(px, py)),                                  # scattered
            (W(xs, 0.7), exact(xs, 0.7)),                                # line
            (W(-0.2, ys), exact(-0.2, ys)),                              # line
            (W(0.4, 1.3), exact(0.4, 1.3)),                              # scalar
            (W(xs[:, None], ys[None, :]), exact(xs[:, None], ys[None, :])),  # lattice
            (W.total, exact(a, c) if orientation == "upper" else exact(b, d)),
        ]
        for got, expect in calls:
            assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))

    def test_antiderivative_polynomial(self, rng):
        lo, hi = -1.0, 2.0
        spec = QuadratureSpec().with_breaks(breaks_x=(-0.9, 0.3, 0.35))
        G = Antiderivative1D("t^5 - 3*t^2 + 1", lo, hi, spec)
        assert np.ptp(G.h) > 0.1

        def exact(t):
            return (t ** 6 - lo ** 6) / 6 - (t ** 3 - lo ** 3) + (t - lo)

        ts = np.concatenate([G.b, rng.uniform(lo, hi, 200)])
        grid = rng.uniform(lo, hi, (7, 5))
        for got, expect in [(G(ts), exact(ts)), (G(grid), exact(grid)),
                            (G(0.31), exact(0.31)), (G.total, exact(hi))]:
            assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


class TestAntiderivativeReadout:
    """Antiderivative1D at every input shape equals T[i, 0] + Q(xi) . T[i, 1:]
    of its cell i, and is exactly zero at lo."""

    @pytest.fixture
    def G(self):
        spec = QuadratureSpec().with_breaks(breaks_x=(-0.9, 0.3, 0.35))
        G = Antiderivative1D("exp(-t)*cos(3*t) + t", -1.0, 2.0, spec)
        assert np.ptp(G.h) > 0.1
        return G

    @staticmethod
    def reference(G, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(G.b, t, side="right") - 1, 0, G.h.size - 1)
        xi = np.clip(2.0 * (t - G.b[i]) / G.h[i] - 1.0, -1.0, 1.0)
        return G.T[i, 0] + np.sum(_q_values(xi, G.points) * G.T[i, 1:], axis=-1)

    def test_every_input_shape(self, G, rng):
        big = rng.uniform(G.lo, G.hi, 3 * (1 << 16) + 5)  # several blocks of 1 << 16
        for t in [0.31, np.float64(-0.2), np.array(1.7), np.array([]),
                  rng.uniform(G.lo, G.hi, (40, 1)), big]:
            got = G(t)
            expect = self.reference(G, t)
            assert np.shape(got) == np.shape(t)
            scale = max(1.0, float(np.max(np.abs(G.T))))
            assert np.max(np.abs(got - expect), initial=0.0) <= 1e-14 * scale
        assert isinstance(G(0.31), float) and isinstance(G(np.array(1.7)), float)

    def test_exactly_zero_at_lo(self, G, rng):
        big = rng.uniform(G.lo, G.hi, 3 * (1 << 16) + 5)
        big[[0, 1 << 16, 2 * (1 << 16) + 7]] = G.lo
        assert G(G.lo) == 0.0 and G(np.array(G.lo)) == 0.0
        assert np.all(G(np.full((5, 1), G.lo)) == 0.0)
        assert np.all(G(big)[[0, 1 << 16, 2 * (1 << 16) + 7]] == 0.0)


class TestPrimitiveBuild:
    """Both primitives build T by one rule: Antiderivative1D's T is the explicit
    1-D formula bit for bit, and W's T, the 1-D rows along x and then along y, is
    the contraction of both node axes at once up to rounding."""

    def test_antiderivative_is_the_1d_formula(self):
        spec = QuadratureSpec().with_breaks(breaks_x=(-0.9, 0.3, 0.35))
        g = as_univariate("exp(-t)*cos(3*t) + t")
        G = Antiderivative1D(g, -1.0, 2.0, spec)
        X, _ = _nodes(G.b[:-1], G.b[1:], G.points)
        T = np.zeros((G.h.size, G.points + 1))
        T[:, 1:] = 0.5 * G.h[:, None] * (g(X) @ _legendre_matrix(G.points).T)
        T[1:, 0] = 2 * T[:-1, 1].cumsum()
        assert G.T.shape == T.shape and G.T.tobytes() == T.tobytes()

    @pytest.mark.parametrize("points", [4, 8])
    def test_cumulative_is_the_full_contraction(self, points):
        # non-uniform cells, more in y than in x, and an integrand symmetric in
        # neither the axes nor the cell's node order
        spec = QuadratureSpec(points=points, tol=1e-6).with_breaks(breaks_x=(0.3, 1.1),
                                                                   breaks_y=(0.9, 1.05, 1.3))
        w = as_bivariate("exp(-x)*cos(3*y) + x*y^2")
        W = cumulative(w, Rect(-0.5, 2.0, 0.25, 1.75), spec=spec)
        nx, ny, p = W.hx.size, W.hy.size, points
        assert nx != ny and np.ptp(W.hx) > 1e-3 and np.ptp(W.hy) > 1e-3
        (X, _), (Y, _) = _nodes(W.bx[:-1], W.bx[1:], p), _nodes(W.by[:-1], W.by[1:], p)
        F = w(X[:, :, None, None], Y[None, None, :, :])
        M = _legendre_matrix(p)
        T = np.zeros((nx, ny, p + 1, p + 1))
        T[:, :, 1:, 1:] = (np.einsum("na,iajb,mb->ijnm", M, F, M)
                           * (0.25 * W.hx[:, None] * W.hy[None, :])[:, :, None, None])
        T[1:, :, 0, 1:] = 2 * T[:-1, :, 1, 1:].cumsum(axis=0)
        T[:, 1:, :, 0] = 2 * T[:, :-1, :, 1].cumsum(axis=1)
        assert W.T.shape == T.shape and W.T.flags.c_contiguous
        assert np.max(np.abs(W.T - T)) <= 1e-15 * np.max(np.abs(T))


def assert_lattice_matches_pointwise(fn, xs, ys):
    """fn on the outer product xs x ys agrees with fn at the meshgrid points."""
    lattice = fn(xs[:, None], ys[None, :])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pointwise = fn(X, Y)
    assert lattice.shape == pointwise.shape == (xs.size, ys.size)
    scale = max(1.0, float(np.max(np.abs(pointwise))))
    assert np.max(np.abs(lattice - pointwise)) <= 1e-14 * scale


def assert_matches_eval(W, got, x, y):
    """got equals W's pointwise _eval at the broadcast (x, y), to rounding."""
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    expect = W._eval(*W._oriented(xs.ravel(), ys.ravel())).reshape(xs.shape)
    assert np.shape(got) == expect.shape
    scale = max(1.0, float(np.max(np.abs(expect), initial=0.0)))
    assert np.max(np.abs(got - expect), initial=0.0) <= 1e-14 * scale


@pytest.fixture(params=["lower", "upper"])
def breaks_primitive(request):
    """A primitive on non-uniform cells (user breaks), in either orientation."""
    spec = QuadratureSpec().with_breaks(breaks_x=(0.3, 1.1), breaks_y=(0.9, 1.05))
    W = cumulative("exp(-x)*cos(3*y) + x*y", Rect(-0.5, 2.0, 0.25, 1.75), request.param, spec)
    assert np.ptp(W.hx) > 0.1 and np.ptp(W.hy) > 0.1
    return W


class TestLatticeEvaluation:
    def test_lines_and_scalars_match_pointwise(self, breaks_primitive, rng):
        W = breaks_primitive
        a, b, c, d = W.rect.as_tuple()
        xs = np.concatenate([W.bx, a + (b - W.bx), rng.uniform(a, b, 40)])
        ys = np.concatenate([W.by, c + (d - W.by), rng.uniform(c, d, 30)])
        for x, y in [
            (xs, 0.7), (xs, d), (xs, W.by[2]), (xs, [1.2]),     # x-lines
            (0.4, ys), (b, ys), (W.bx[3], ys), ([[0.1]], ys),   # y-lines
            (xs[:64].reshape(8, 8), 1.3),                       # an integrate1d-shaped x-line
            (0.4, 1.3), (a, c), (b, d), (W.bx[2], W.by[1]),     # scalars
            ([0.4], [[1.3]]), (xs[:0], 0.5), (0.5, ys[:0]),     # one point, empty lines
        ]:
            assert_matches_eval(W, W(x, y), x, y)
        assert isinstance(W(0.4, 1.3), float)

    @pytest.mark.parametrize("order", ["unsorted", "repeated", "one-cell", "descending"])
    def test_lattice_column_orders_match_pointwise(self, breaks_primitive, order, rng):
        W = breaks_primitive
        a, b, c, d = W.rect.as_tuple()
        xs = np.concatenate([W.bx, rng.uniform(a, b, 9)])
        ys = np.concatenate([W.by, rng.uniform(c, d, 12)])
        ys = {
            "unsorted": rng.permutation(ys),
            "repeated": np.repeat(rng.permutation(ys), 3),
            "one-cell": rng.uniform(W.by[1], W.by[2], 7),
            "descending": np.sort(ys)[::-1],
        }[order]
        assert_matches_eval(W, W(xs[:, None], ys[None, :]), xs[:, None], ys[None, :])

    def test_line_keeps_base_edges_exactly_zero(self):
        r = Rect(0, 2, 0, 2)
        spec = QuadratureSpec().with_breaks(breaks_x=(0.3,), breaks_y=(1.7,))
        t = np.linspace(0, 2, 17)
        lower = cumulative("exp(-x)*cos(y) + 1", r, "lower", spec)
        upper = cumulative("exp(-x)*cos(y) + 1", r, "upper", spec)
        for W, x0, y0 in [(lower, 0.0, 0.0), (upper, 2.0, 2.0)]:
            assert np.all(W(x0, t) == 0.0) and np.all(W(t, y0) == 0.0)
            assert W(x0, 1.3) == 0.0 and W(0.7, y0) == 0.0 and W(x0, y0) == 0.0

    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    def test_matches_pointwise(self, orientation, rng):
        r = Rect(-0.5, 2.0, 0.25, 1.75)
        spec = QuadratureSpec().with_breaks(breaks_x=(0.3, 1.1), breaks_y=(0.9,))
        W = cumulative("exp(-x)*cos(3*y) + x*y", r, orientation, spec)
        a, b, c, d = r.as_tuple()
        # cell boundaries in the caller's and the reflected coordinates (so
        # the corners too), then random points, on a non-square lattice
        xs = np.concatenate([W.bx, a + (b - W.bx), rng.uniform(a, b, 17)])
        ys = np.concatenate([W.by, c + (d - W.by), rng.uniform(c, d, 11)])
        assert_lattice_matches_pointwise(W, xs, ys)
        assert_lattice_matches_pointwise(W, xs[5:6], ys)  # single row
        assert_lattice_matches_pointwise(W, xs, ys[3:4])  # single column

    def test_many_cells_and_row_blocks(self):
        # 64 x 64 cells; 2000 columns put 32 rows in a block of 1 << 16 entries,
        # so both the 65-row y-strip table and the 100 lattice rows take blocks
        r = Rect(0, 1, 0, 2)
        W = cumulative("sin(40*x)*cos(30*y)", r, "upper", QuadratureSpec(cells=32))
        assert W.hx.size == W.hy.size == 64
        assert_lattice_matches_pointwise(W, r.xs(99), r.ys(1999))

    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    def test_row_blocks_in_every_column_order(self, orientation, rng):
        # as above: 4 row blocks, each with one matmul per occupied y cell
        r = Rect(0, 1, 0, 2)
        W = cumulative("sin(40*x)*cos(30*y)", r, orientation, QuadratureSpec(cells=32))
        xs = r.xs(99)
        for ys in (r.ys(1999), r.ys(1999)[::-1], rng.permutation(r.ys(1999))):
            assert_matches_eval(W, W(xs[:, None], ys[None, :]), xs[:, None], ys[None, :])

    def test_base_edges_exactly_zero(self):
        r = Rect(0, 2, 0, 2)
        xs = np.linspace(0, 2, 9)
        lower = cumulative("exp(-x)*cos(y)", r)(xs[:, None], xs[None, :])
        assert np.all(lower[0, :] == 0.0) and np.all(lower[:, 0] == 0.0)
        upper = cumulative("exp(-x)*cos(y)", r, "upper")(xs[:, None], xs[None, :])
        assert np.all(upper[-1, :] == 0.0) and np.all(upper[:, -1] == 0.0)

    @pytest.mark.parametrize("points", [1, 2, 8, 13])
    def test_q_values_match_legvander(self, points, rng):
        # the inline Legendre recurrence repeats legvander's arithmetic exactly
        xi = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, 50)])
        V = np.polynomial.legendre.legvander(xi, points)
        expect = np.empty((xi.size, points))
        expect[:, 0] = xi + 1.0
        for n in range(1, points):
            expect[:, n] = (V[:, n + 1] - V[:, n - 1]) / (2 * n + 1)
        assert np.array_equal(_q_values(xi, points), expect)

    def test_ac_function(self):
        r = Rect(0, 1.5, -1, 1)
        g = from_ac(0.5, r, g1="cos(t)", g2="t^2", density="x*y")
        xs, ys = np.linspace(0, 1.5, 13), np.linspace(-1, 1, 7)
        assert_lattice_matches_pointwise(g, xs, ys)
        x, y = xs[:, None], ys[None, :]
        expect = 0.5 + np.sin(x) + (y ** 3 + 1) / 3 + x ** 2 * (y ** 2 - 1) / 4
        assert np.max(np.abs(g(x, y) - expect)) <= 1e-10


class TestStieltjes:
    def test_unit_against_product(self):
        res = stieltjes2d("1", "x*y", Rect(0, 1, 0, 1))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.bound == pytest.approx(1.0, abs=1e-12)
        assert res.integrator_monotone

    def test_characteristic_function_measures_subrectangle(self):
        chi = BivariateFn.from_callable(
            lambda x, y: np.where((x <= 0.5) & (y <= 0.5), 1.0, 0.0)
        )
        res = stieltjes2d(chi, "x*y", Rect(0, 1, 0, 1), partition=64)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_modular_integrator_gives_zero(self):
        res = stieltjes2d("sin(x)*cos(y) + 2", "x^2 + y^2", Rect(0, 1, 0, 1))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_warns_on_non_monotone_integrator(self):
        with pytest.warns(UserWarning, match="not 2d-monotone"):
            res = stieltjes2d("1", "log(x^2+y^2)", Rect(0.5, 2, 0.5, 2))
        assert not res.integrator_monotone

    def test_bound_holds_for_monotone_catalog(self, rng):
        r = Rect(0, 1, 0, 1)
        for name in MONOTONE_CATALOG:
            f = catalog(name)
            assert certify(f, r, grid=16).verdict == "monotone2d"
            for _ in range(4):
                h = random_h_expression(rng)
                res = stieltjes2d(h, f, r, partition=32, doublings=1)
                assert abs(res.value) <= res.bound + 1e-10

    def test_riemann_reduction_product(self):
        res = stieltjes_vs_riemann("x+y", "x*y", Rect(0, 1, 0, 1))
        assert res.lhs == pytest.approx(1.0, abs=1e-10)
        assert res.passed

    def test_riemann_reduction_exponential(self):
        res = stieltjes_vs_riemann("1", "exp(-x-y)", Rect(0, 1, 0, 1))
        expect = (1 - 1 / math.e) ** 2
        assert res.lhs == pytest.approx(expect, abs=1e-10)
        assert abs(res.lhs - res.rhs) <= 1e-6

    def test_requires_symbolic_mixed_partial(self):
        plain = BivariateFn.from_callable(lambda x, y: x * y)
        with pytest.raises(ValueError, match="mixed partial"):
            stieltjes_vs_riemann("1", plain, Rect(0, 1, 0, 1))


class TestMollifier:
    def test_normalization_constant_positive(self):
        c = bump_normalization()
        assert 0.4 < c < 0.5

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_unit_mass(self, n):
        moll = make_mollifier(n)
        mass = integrate2d(moll, moll.support, QuadratureSpec(tol=1e-9, max_refine=18)).value
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_constant_preserved(self):
        g = mollify("5", Rect(0, 1, 0, 1), n=4)
        pts = np.linspace(0, 1, 5)
        assert np.max(np.abs(g(pts[:, None], pts[None, :]) - 5.0)) <= 1e-6

    def test_smoothing_error_decreases_with_n(self):
        r = Rect(0, 1, 0, 1)
        f = BivariateFn.from_expression("exp(-x-y)")
        xs = np.linspace(0.3, 0.7, 9)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        sup = {}
        for n in (4, 16):
            g = mollify(f, r, n)
            sup[n] = float(np.max(np.abs(g(X, Y) - f(X, Y))))
        assert sup[16] < sup[4]

    def test_support_and_nonnegativity(self):
        moll = make_mollifier(4)
        assert moll(0.3, 0.0) == 0.0  # outside radius 1/4
        xs = np.linspace(-0.25, 0.25, 33)
        vals = moll(xs[:, None], xs[None, :])
        assert np.all(vals >= 0.0)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            make_mollifier(0)

    @pytest.mark.parametrize("points", [2, 3])
    def test_convolution_rule_short_of_unit_mass_raises(self, points):
        # at 40 cells the rule's mass is 1 + 3.2e-7 (2 points) and 1 - 2.8e-8 (3 points)
        with pytest.raises(ConvergenceError, match="mollifier rule mass"):
            mollify("exp(-x-y)", Rect(0, 1, 0, 1), 4, QuadratureSpec(points=points))

    @pytest.mark.parametrize("n", [1, 4, 100])
    def test_default_convolution_rule_reaches_unit_mass(self, n):
        g = mollify("1", Rect(0, 1, 0, 1), n)
        assert g(0.5, 0.5) == pytest.approx(1.0, abs=1e-8)


UNIT = Rect(0, 1, 0, 1)


def _first_level(build, cells: int, axes: int):
    """build(fn, spec) from `cells` cells per axis, fn a smooth callable that
    records each call and fails the test if it is sampled while that first
    level exceeds spec.max_cells: such a level must be refused unsampled."""

    def run(spec):
        calls = []

        def fn(*point):
            calls.append(point)
            assert cells ** axes <= spec.max_cells, f"sampled {len(calls)} times over the cap"
            return np.exp(-sum(point))

        return build(fn, QuadratureSpec(cells=cells, max_cells=spec.max_cells))
    return run


@pytest.mark.parametrize("build", [
    lambda spec: integrate1d("sin(300*t)", 0, 1, spec),
    lambda spec: integrate2d("sin(60*x)*sin(60*y)", UNIT, spec),
    lambda spec: Antiderivative1D("sin(300*t)", 0, 1, spec),
    lambda spec: cumulative("sin(60*x)*sin(60*y)", UNIT, spec=spec),
    _first_level(lambda fn, spec: integrate1d(fn, 0, 1, spec), 64, 1),
    _first_level(lambda fn, spec: integrate2d(fn, UNIT, spec), 8, 2),
    _first_level(lambda fn, spec: Antiderivative1D(fn, 0, 1, spec), 64, 1),
    _first_level(lambda fn, spec: cumulative(fn, UNIT, spec=spec), 8, 2),
], ids=["integrate1d", "integrate2d", "Antiderivative1D", "cumulative",
        "integrate1d-first-level", "integrate2d-first-level", "Antiderivative1D-first-level",
        "cumulative-first-level"])
def test_active_cell_cap_raises(build):
    build(QuadratureSpec())  # converges under the default cap
    with pytest.raises(ConvergenceError):
        build(QuadratureSpec(max_cells=16))


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("build", [
    lambda tol: QuadratureSpec(tol=tol),
    lambda tol: stieltjes2d("x+y", "x*y", UNIT, tol=tol),
], ids=["QuadratureSpec", "stieltjes2d"])
def test_tolerance_must_be_positive_and_finite(build, tol):
    # stieltjes2d took any tol: nan and -1 never converged, 0 and inf passed
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        build(tol)


@pytest.mark.parametrize("lo, hi", [(1, 0), (0, 0), (0, math.nan), (0, math.inf),
                                    (-math.inf, 0)])
@pytest.mark.parametrize("build", [integrate1d, Antiderivative1D],
                         ids=["integrate1d", "Antiderivative1D"])
def test_interval_must_be_finite_and_increasing(build, lo, hi):
    # Antiderivative1D read (1, 0) as [0, 1] and raised IndexError on (0, 0) and
    # (0, nan); integrate1d ran (0, inf) through every sweep into ConvergenceError
    with pytest.raises(ValueError, match=r"finite with lo < hi"):
        build("1", lo, hi)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(cells=0)
        with pytest.raises(ValueError):
            QuadratureSpec(tol=0.0)

    def test_with_breaks_preserves_fields(self):
        spec = QuadratureSpec(cells=6, tol=1e-10).with_breaks((1.0,), (2.0,))
        assert spec.cells == 6 and spec.tol == 1e-10
        assert spec.breaks_x == (1.0,) and spec.breaks_y == (2.0,)


def _recording(fn):
    """fn, recording the number of points of each call in .sizes."""
    def rec(*coords):
        rec.sizes.append(np.broadcast(*coords).size)
        return fn(*coords)
    rec.sizes = []
    return rec


def _whole_level(fn, lo, hi, points):
    """The reference for _cell_values: every node of the level sampled at once."""
    _, w = _gauss(points)
    if len(lo) == 1:
        X, rad = _nodes(lo[0], hi[0], points)
        return rad * (fn(X) @ w)
    (X, xr), (Y, yr) = _nodes(lo[0], hi[0], points), _nodes(lo[1], hi[1], points)
    return xr * yr * np.einsum("a,nab,b->n", w, fn(X[:, :, None], Y[:, None, :]), w)


@pytest.mark.parametrize("points", [3, 8, 10])
@pytest.mark.parametrize("axes", [1, 2])
def test_quadrature_samples_a_level_in_blocks(rng, axes, points):
    # 2^16 nodes per block: several blocks and a short last one; each cell's
    # value equals the whole level's bitwise
    cells = 3 * (1 << 16) // points ** axes + 5
    lo = [rng.uniform(-1, 1, cells) for _ in range(axes)]
    hi = [b + rng.uniform(0.01, 1, cells) for b in lo]
    fn = (lambda t: np.exp(-t) * np.sin(3 * t)) if axes == 1 else (
        lambda x, y: np.exp(-x - y) * np.sin(3 * x + y))
    rec = _recording(fn)
    got = _cell_values(rec, lo, hi, points)
    assert got.tobytes() == _whole_level(fn, lo, hi, points).tobytes()
    assert max(rec.sizes) <= 1 << 16 and sum(rec.sizes) == cells * points ** axes


def test_mollifier_samples_f_in_blocks():
    # 64 points against 12,788 convolution nodes: every call of f holds at most
    # 2^16 values, and the calls together hold each (point, node) pair once, in
    # order; the rectangle holds every shifted point, so nothing is clamped
    calls = []

    def f(x, y):
        calls.append((x.copy(), y.copy()))
        return np.exp(-x - y)

    pts = np.linspace(0, 1, 8)
    mollify(f, Rect(-1, 2, -1, 2), n=4)(pts[:, None], pts[None, :])
    S, T, _ = _conv_nodes(make_mollifier(4), QuadratureSpec().points)
    X, Y = (a.ravel()[:, None] for a in np.broadcast_arrays(pts[:, None], pts[None, :]))
    assert max(x.size for x, _ in calls) <= 1 << 16
    assert np.concatenate([x for x, _ in calls]).tobytes() == (X - S[None, :]).tobytes()
    assert np.concatenate([y for _, y in calls]).tobytes() == (Y - T[None, :]).tobytes()


def test_integrate2d_children_sampled_in_blocks():
    # a first level of 4096 cells, 2^18 nodes, and its 2^20 child nodes
    rec = _recording(lambda x, y: np.exp(-x - y))
    value = integrate2d(rec, UNIT, QuadratureSpec(cells=64)).value
    assert value == pytest.approx((1 - math.exp(-1)) ** 2, abs=1e-14)
    assert max(rec.sizes) <= 1 << 16


def _whole_stieltjes(h, f, rect, n):
    """h and f on the whole n x n partition: the tags' values, the lattice and its cells."""
    xs, ys = rect.xs(n), rect.ys(n)
    V = f(xs[:, None], ys[None, :])
    H = h(0.5 * (xs[:-1] + xs[1:])[:, None], 0.5 * (ys[:-1] + ys[1:])[None, :])
    return H, V, _delta(V)


class TestStieltjesStrips:
    """Levels of more than 2^18 lattice values (partition 512 and up) are read
    in strips of whole rows of at most 2^16 values."""

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_value_is_the_whole_lattice_sum(self, n):
        h, f = as_bivariate("2 + sin(3*x - y)"), as_bivariate("exp(x*y) + x^2*y")
        res = stieltjes2d(h, f, UNIT, partition=n, doublings=0)
        H, V, D = _whole_stieltjes(h, f, UNIT, n)
        ref = math.fsum((H * D).ravel())
        assert abs(res.value - ref) <= 1e-15 * abs(ref)
        if (n + 1) ** 2 <= 1 << 18:  # one strip: the whole lattice's sum bitwise
            assert res.value == float((H * D).sum())
        measure = V[0, 0] - V[0, -1] - V[-1, 0] + V[-1, -1]
        assert res.bound == measure * np.max(np.abs(H))
        assert res.integrator_monotone and D.min() >= -1e-9

    def test_every_node_once_and_one_strip_per_call(self):
        h = _recording(lambda x, y: np.sin(x + 2 * y))
        f = _recording(lambda x, y: np.exp(x * y))
        res = stieltjes2d(h, f, UNIT, partition=256, tol=1e-300, doublings=3)
        assert res.partition == 2048 and not res.converged
        levels = (256, 512, 1024, 2048)
        assert sum(f.sizes) == sum((n + 1) ** 2 for n in levels)
        assert sum(h.sizes) == sum(n * n for n in levels)
        # 257^2 nodes are one strip; every later call holds at most 2^16 points
        assert f.sizes[0] == 257 ** 2 and max(f.sizes[1:] + h.sizes) <= 1 << 16

    # partition 512: strips of 127 node rows.  Both non-finite points lie in
    # the fourth strip, the first in row-major order at a later column.
    @pytest.mark.parametrize("which, h, f, point", [
        ("integrator", "1", "x*y + 0*log(abs(x - 0.75) + abs(y - 0.5))"
                            " + 0*log(abs(x - 0.875) + abs(y - 0.25))", (0.75, 0.5)),
        ("integrand", "x + 0*log(abs(x - 0.7509765625) + abs(y - 0.5009765625))"
                      " + 0*log(abs(x - 0.8759765625) + abs(y - 0.2509765625))", "x*y",
         (0.7509765625, 0.5009765625)),
    ])
    def test_nonfinite_point_in_a_later_strip(self, which, h, f, point):
        with pytest.raises(NumericDomainError) as info:
            stieltjes2d(h, f, UNIT, partition=512, doublings=0)
        assert (info.value.what, info.value.point) == (which, point)
