"""Quadrature engines: 2D Riemann integration, cumulative primitives,
Riemann-Stieltjes sums against 2d-monotone integrators, and mollifiers.

One adaptive engine serves integrate1d and integrate2d: composite
tensor-product Gauss-Legendre rules (fixed order per cell, on one or two
axes) refined by dyadic bisection.  Each sweep splits every active cell
into its 2^d children, and a cell is frozen once the difference between
its value and the sum over its children drops below its measure share of
the global tolerance.  Each sweep samples its cells through core._blocks,
the package's one block rule (at most 2^16 nodes per call), and each
cell's value is what the whole sweep would give bitwise; the primitives'
reads and mollify's convolution slice through the same rule.  Both
primitives (Antiderivative1D and CumulativePrimitive) run one build ->
probe -> halve loop over uniform cells.

A primitive is one coefficient tensor T: (cells, p+1) in 1D, (x cells,
y cells, p+1, p+1) in 2D.  With q = (1, Q_0(xi), ..., Q_{p-1}(xi)) at local
coordinate xi of cell i, Q_n the antiderivatives of the Legendre
polynomials, W(x, y) = qx . T[ix, iy] . qy: entry (0, 0) is W at the
cell's lower-left corner, row and column 0 are its strips, the rest its
Legendre coefficients times the cell half-widths.  q is (1, 0, ..., 0) at
a cell's left end and T's row 0 is zero in the first x cells (column 0 in
the first y cells), so W is exactly zero on its base edges.  One rule,
_primitive_rows, builds T from the Gauss samples: 1-D rows along x, and
then rows along y of those, about 2 nx ny p^3 multiply-adds per level.

stieltjes2d reads each level's lattice of the integrator through
core._strips and samples the integrand at the midpoints of each strip's
cells only, so a level never holds more than one strip; lattice_extrema
reads W's lattice through core._scan.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (ConvergenceError, IdentityResidual, NumericDomainError, Record, Rect, _blocks,
                   _sample, _scan, _strips)
from .expr import BivariateFn, as_bivariate, as_univariate

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "integrate1d",
    "integrate2d",
    "Antiderivative1D",
    "CumulativePrimitive",
    "cumulative",
    "StieltjesResult",
    "stieltjes2d",
    "stieltjes_vs_riemann",
    "Mollifier",
    "bump_normalization",
    "make_mollifier",
    "mollify",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters shared by the quadrature routines.

    cells       cells per axis at the coarsest level
    points      Gauss-Legendre points per cell per axis
    max_refine  refinement (bisection) sweeps before giving up
    tol         target tolerance for the global estimate
    breaks_x/y  interior abscissae the cell boundaries must align with
                (used for integrands with floor-type discontinuities)
    max_cells   safety cap on the number of simultaneously active cells
    """

    cells: int = 4
    points: int = 8
    max_refine: int = 14
    tol: float = 1e-8
    breaks_x: tuple = ()
    breaks_y: tuple = ()
    max_cells: int = 1 << 18

    def __post_init__(self):
        if self.cells < 1 or self.points < 1 or self.max_refine < 0:
            raise ValueError("cells and points must be >= 1, max_refine >= 0")
        if not 0 < self.tol < math.inf:
            raise ValueError("tolerance must be positive and finite")

    def with_breaks(self, breaks_x=(), breaks_y=()) -> "QuadratureSpec":
        return replace(self, breaks_x=tuple(breaks_x), breaks_y=tuple(breaks_y))


DEFAULT_SPEC = QuadratureSpec()


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


@lru_cache(maxsize=None)
def _gauss(points: int):
    g, w = np.polynomial.legendre.leggauss(points)
    return g, w


@lru_cache(maxsize=None)
def _legendre_matrix(points: int) -> np.ndarray:
    # M[n, i] maps Gauss-Legendre samples to Legendre coefficients,
    # exact for the degree points-1 interpolant.
    g, w = _gauss(points)
    P = np.polynomial.legendre.legvander(g, points - 1).T  # (points, points)
    scale = (2.0 * np.arange(points) + 1.0) / 2.0
    return scale[:, None] * w[None, :] * P


def _q_values(xi: np.ndarray, points: int) -> np.ndarray:
    """Antiderivatives Q_n(xi) = int_{-1}^{xi} P_n, for n < points."""
    # P_0 .. P_points by legvander's recurrence, without its per-call overhead
    P = [np.ones_like(xi), xi]
    for i in range(2, points + 1):
        P.append((P[i - 1] * xi * (2 * i - 1) - P[i - 2] * (i - 1)) / i)
    Q = np.empty(xi.shape + (points,))
    Q[..., 0] = xi + 1.0
    for n in range(1, points):
        Q[..., n] = (P[n + 1] - P[n - 1]) / (2 * n + 1)
    return Q


def _rho(rect: Rect, x, y):
    """The point reflection rho(x, y) = (a+b-x, c+d-y) of rect."""
    return rect.a + (rect.b - x), rect.c + (rect.d - y)


@contextmanager
def _reflected(rect: Rect, spec: QuadratureSpec, *fns):
    """Yields spec with its breaks reflected by _rho, then each BivariateFn f of
    fns as the callable f o rho, which reads only f's values.  A caller that
    needs partials of f o rho reflects f's own: rho's Jacobian is -I.  A
    NumericDomainError in the block at p is raised again at rho(p), the point
    that the caller's function received."""
    spec = spec.with_breaks(*_rho(rect, np.array(spec.breaks_x), np.array(spec.breaks_y)))
    try:
        yield (spec, *(BivariateFn.from_callable(lambda x, y, f=f: f(*_rho(rect, x, y)))
                       for f in fns))
    except NumericDomainError as exc:
        raise NumericDomainError(exc.what, _rho(rect, *exc.point)) from None


def _boundaries(lo: float, hi: float, cells: int, breaks: Sequence[float]) -> np.ndarray:
    base = np.linspace(lo, hi, cells + 1)
    inner = [b for b in breaks if lo < b < hi]
    if inner:
        base = np.unique(np.concatenate([base, np.asarray(inner, dtype=float)]))
    return base


def _rect_boundaries(rect: Rect, spec: QuadratureSpec) -> list:
    return [_boundaries(rect.a, rect.b, spec.cells, spec.breaks_x),
            _boundaries(rect.c, rect.d, spec.cells, spec.breaks_y)]


def _halve(boundaries: np.ndarray) -> np.ndarray:
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    return np.unique(np.concatenate([boundaries, mids]))


def _nodes(lo: np.ndarray, hi: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of the cells [lo, hi], shape (cells, points),
    and the cell half-widths that scale the weights."""
    g, _ = _gauss(points)
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    return mid[:, None] + rad[:, None] * g[None, :], rad


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre integration
# ---------------------------------------------------------------------------

def _cell_values(fn: Callable, lo: list, hi: list, points: int) -> np.ndarray:
    """Gauss-Legendre value of fn on each cell, given by its per-axis bounds.
    fn is sampled in core._blocks of cells, at most 2^16 nodes per call."""
    _, w = _gauss(points)
    if len(lo) == 1:
        X, rad = _nodes(lo[0], hi[0], points)
        F = np.empty(X.shape)
        for k in _blocks(len(X), points):
            F[k] = _sample(fn, "integrand", X[k])
        # one product over all cells: gemv rounds the last rows of a block its own way
        return rad * (F @ w)
    out = np.empty(lo[0].size)
    for k in _blocks(out.size, points * points):
        (X, xr), (Y, yr) = _nodes(lo[0][k], hi[0][k], points), _nodes(lo[1][k], hi[1][k], points)
        F = _sample(fn, "integrand", X[:, :, None], Y[:, None, :])
        out[k] = xr * yr * np.einsum("a,nab,b->n", w, F, w)
    return out


def _children(lo: list, hi: list) -> tuple[list, list]:
    """Per-axis bounds of the 2^d children of every cell, x-half fastest."""
    n = 1 << len(lo)
    clo, chi = [], []
    for axis, (l, h) in enumerate(zip(lo, hi)):
        m = 0.5 * (l + h)
        cl, ch = np.empty((l.size, n)), np.empty((l.size, n))
        for k in range(n):
            cl[:, k], ch[:, k] = (m, h) if (k >> axis) & 1 else (l, m)
        clo.append(cl.ravel())
        chi.append(ch.ravel())
    return clo, chi


def _adaptive(fn: Callable, boundaries: list, spec: QuadratureSpec) -> QuadResult:
    """Refine loop shared by integrate1d (one axis) and integrate2d (two).

    Every sweep splits each active cell into its 2^d children.  A cell is
    frozen once its value and the sum over its children differ by at most
    its measure share of half of spec.tol; the loop stops once that
    difference, summed over the cells refined in the sweep, is within
    spec.tol, and that last sum is the reported error estimate.
    """
    d = len(boundaries)
    sizes = [b.size - 1 for b in boundaries]
    if math.prod(sizes) > spec.max_cells:
        raise ConvergenceError(f"{d}d quadrature's first level exceeds the active-cell cap")
    index = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    lo = [b[i] for b, i in zip(boundaries, index)]
    hi = [b[i + 1] for b, i in zip(boundaries, index)]
    measure = math.prod(b[-1] - b[0] for b in boundaries)
    vals = _cell_values(fn, lo, hi, spec.points)
    frozen = 0.0
    for _ in range(spec.max_refine):
        clo, chi = _children(lo, hi)
        cvals = _cell_values(fn, clo, chi, spec.points)
        refined = cvals.reshape(-1, 1 << d).sum(axis=1)
        diff = np.abs(vals - refined)
        err = float(diff.sum())
        share = math.prod(h - l for l, h in zip(lo, hi)) / measure
        ok = diff <= 0.5 * spec.tol * share
        frozen += float(refined[ok].sum())
        keep = np.repeat(~ok, 1 << d)
        lo, hi = [c[keep] for c in clo], [c[keep] for c in chi]
        vals = cvals[keep]
        total = frozen + float(vals.sum())
        if err <= spec.tol or vals.size == 0:
            return QuadResult(total, err)
        if vals.size > spec.max_cells:
            raise ConvergenceError(f"{d}d quadrature exceeded the active-cell cap")
    raise ConvergenceError(
        f"{d}d quadrature did not reach tol={spec.tol} within {spec.max_refine} refinements"
    )


def _interval(lo: float, hi: float):
    """Refuses an interval that is not finite with lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("integration interval must be finite with lo < hi")


def integrate1d(fn, lo: float, hi: float, spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Adaptive composite Gauss-Legendre integral over [lo, hi] (either axis:
    the cells align with spec.breaks_x)."""
    spec = spec or DEFAULT_SPEC
    _interval(lo, hi)
    return _adaptive(as_univariate(fn), [_boundaries(lo, hi, spec.cells, spec.breaks_x)], spec)


def integrate2d(fn, rect: Rect, spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Tensor-product Gauss-Legendre integral over a rectangle.

    Cells are bisected in both directions until the inter-sweep change of
    the global estimate is within spec.tol; the reported error estimate
    is that last change (summed over refined cells, which is
    conservative).  Raises ConvergenceError past spec.max_refine sweeps.
    """
    spec = spec or DEFAULT_SPEC
    return _adaptive(as_bivariate(fn), _rect_boundaries(rect, spec), spec)


# ---------------------------------------------------------------------------
# Cumulative primitives W and the upper counterpart, and 1D antiderivatives
# ---------------------------------------------------------------------------

def _locate(b: np.ndarray, h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of each x among the boundaries b, and x mapped to [-1, 1]."""
    # minimum/maximum rather than np.clip, whose dispatch dominates small calls
    i = np.minimum(np.maximum(np.searchsorted(b, x, side="right") - 1, 0), h.size - 1)
    return i, np.minimum(np.maximum((x - b[i]) * 2.0 / h[i] - 1.0, -1.0), 1.0)


def _axes(points: int, *axes) -> list:
    """For each axis (b, h, x), x of shape (n,): the cell index of each x among
    the boundaries b, and its row (1, Q_0(xi), ..., Q_{p-1}(xi)) against which
    the coefficient tensor of a primitive is contracted, as [i, q, i, q, ...].

    The axes share one _q_values call, whose cost on short arrays is mostly
    per numpy operation, and a single point goes through numpy's scalar
    arithmetic, which costs about a fifth of a one-element array's and
    rounds the same.
    """
    located = [_locate(b, h, x) for b, h, x in axes]
    xi = np.concatenate([xi for _, xi in located])
    q = np.empty((xi.size, points + 1))
    q[:, 0] = 1.0
    q[:, 1:] = _q_values(xi[0] if xi.size == 1 else xi, points)
    rows, k = [], 0
    for i, _ in located:
        rows += [i, q[k:k + i.size]]
        k += i.size
    return rows


def _rows(R: np.ndarray, b: np.ndarray, h: np.ndarray, t: np.ndarray, points: int) -> np.ndarray:
    """A one-dimensional primitive with coefficient rows R, one per cell of the
    boundaries b, at the points t (n,): one dot product per point."""
    out = np.empty(t.size)
    for k in _blocks(t.size, 1):
        i, q = _axes(points, (b, h, t[k]))
        out[k] = np.einsum("na,na->n", q, R[i])
    return out


def _primitive_rows(F: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Primitive rows of samples F (cells of widths h, ..., Gauss nodes): entry 0
    is the integral over the earlier cells, 2 * their entry 1 (q = (1, 2, 0, ...)
    at a right end), the rest the Legendre coefficients times the half-width."""
    p = F.shape[-1]
    R = np.zeros(F.shape[:-1] + (p + 1,))
    R[..., 1:] = 0.5 * h.reshape((-1,) + (1,) * (F.ndim - 1)) * (F @ _legendre_matrix(p).T)
    R[1:, ..., 0] = 2 * R[:-1, ..., 1].cumsum(axis=0)
    return R


class _Primitive:
    """Build -> probe -> halve loop shared by the 1D and 2D primitives.

    A subclass stores the coefficient tensor T of the primitive in
    _build(fn, boundaries) and evaluates it at raveled coordinates in
    _eval.  The cells are halved on every axis until the primitive at the
    probe coordinates moves by at most spec.tol between two levels; a level of
    more than spec.max_cells cells is refused with ConvergenceError before it
    is built.
    """

    def _converge(self, fn: Callable, boundaries: list, spec: QuadratureSpec,
                  probe: tuple, what: str):
        self.points = spec.points
        prev = None
        for _ in range(spec.max_refine + 1):
            if math.prod(b.size - 1 for b in boundaries) > spec.max_cells:
                raise ConvergenceError(f"{what} exceeded the active-cell cap")
            self._build(fn, boundaries)
            values = self._eval(*probe)
            if prev is not None and float(np.max(np.abs(values - prev))) <= spec.tol:
                return
            prev = values
            boundaries = [_halve(b) for b in boundaries]
        raise ConvergenceError(f"{what} did not converge to tol={spec.tol}")


@dataclass(frozen=True)
class LatticeExtrema:
    minimum: float
    argmin: tuple
    maximum: float
    argmax: tuple
    grid: int


class CumulativePrimitive(_Primitive):
    """Evaluable double primitive of an integrand over a rectangle.

    Orientation "lower" integrates over [a, x] x [c, y] (vanishing on the
    left/bottom edges); "upper" over [x, b] x [y, d] (vanishing on the
    right/top edges).  The upper orientation is realized as the lower
    primitive of the point-reflected integrand and breaks (_reflected),
    so both orientations vanish exactly on their base edges.
    """

    def __init__(self, w, rect: Rect, orientation: str = "lower",
                 spec: Optional[QuadratureSpec] = None):
        if orientation not in ("lower", "upper"):
            raise ValueError("orientation must be 'lower' or 'upper'")
        spec = spec or DEFAULT_SPEC
        w = as_bivariate(w)
        self.rect = rect
        self.orientation = orientation
        Xg, Yg = np.meshgrid(np.linspace(rect.a, rect.b, 9), np.linspace(rect.c, rect.d, 9),
                             indexing="ij")
        upper = orientation == "upper"
        with _reflected(rect, spec, w) if upper else nullcontext((spec, w)) as (spec, fn):
            self._converge(fn, _rect_boundaries(rect, spec), spec, (Xg.ravel(), Yg.ravel()),
                           "cumulative primitive")

    def _build(self, fn: Callable, boundaries: list):
        self.bx, self.by = bx, by = boundaries
        self.hx, self.hy = hx, hy = np.diff(bx), np.diff(by)
        X, _ = _nodes(bx[:-1], bx[1:], self.points)
        Y, _ = _nodes(by[:-1], by[1:], self.points)
        F = _sample(fn, "cumulative integrand", X[:, :, None, None], Y[None, None, :, :])
        # rows along x of (x cell, y cell, y node, x node), then along y of those
        R = _primitive_rows(F.transpose(0, 2, 3, 1), hx).transpose(1, 0, 3, 2)
        self.T = T = np.ascontiguousarray(_primitive_rows(R, hy).transpose(1, 0, 2, 3))
        c = T[-1, -1]  # W(b, d), where both rows are (1, 2, 0, ..., 0)
        self.total = float(c[0, 0] + 2 * (c[1, 0] + c[0, 1]) + 4 * c[1, 1])

    def _eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        for k in _blocks(x.size, 1):
            # one _axes call per axis: a shared call over a block of 2^16 points
            # runs its arrays past the cache (15-30% slower at 1e6 points)
            ix, qx = _axes(self.points, (self.bx, self.hx, x[k]))
            iy, qy = _axes(self.points, (self.by, self.hy, y[k]))
            # two einsum calls: numpy's single three-operand call is about twice as slow
            out[k] = np.einsum("nb,nb->n", np.einsum("na,nab->nb", qx, self.T[ix, iy]), qy)
        return out

    def _line(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """W along a line, x (n,) at one y or one x at y (n,): contracting the
        scalar axis into T leaves one coefficient row per cell of the other
        axis, so the line is a 1-D primitive."""
        p = self.points
        if y.size == 1:
            iy, qy = _axes(p, (self.by, self.hy, y))
            return _rows(self.T[:, iy[0]] @ qy[0], self.bx, self.hx, x, p)
        ix, qx = _axes(p, (self.bx, self.hx, x))
        return _rows(qx[0] @ self.T[ix[0]], self.by, self.hy, y, p)

    def _lattice(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """W on the tensor lattice x (n,) by y (m,), shape (n, m), in the row
        blocks of core._blocks, each gathering at most 2^16 coefficient tensors.

        Each run of consecutive columns in one y cell takes one matmul
        against the x strip.  An ascending or a descending y (the upper
        orientation reverses an ascending lattice) has one run per occupied
        y cell; a shuffled y stays correct but costs one matmul per run.
        """
        ix, qx, iy, qy = _axes(self.points, (self.bx, self.hx, x), (self.by, self.hy, y))
        starts = np.flatnonzero(np.diff(iy, prepend=-1))
        runs = list(zip(iy[starts], starts, np.append(starts[1:], iy.size)))
        qyt = qy.T
        out = np.empty((x.size, y.size))
        for r in _blocks(x.size, max(y.size, self.hy.size)):
            strip = np.einsum("ka,kjab->jkb", qx[r], self.T[ix[r]])
            for j, s, e in runs:
                out[r, s:e] = strip[j] @ qyt[:, s:e]
        return out

    def _oriented(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _rho(self.rect, x, y) if self.orientation == "upper" else (x, y)

    def __call__(self, x, y):
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        if xs.ndim == ys.ndim == 2 and xs.shape[1] == ys.shape[0] == 1:
            # outer-product call x (n, 1), y (1, m): evaluate on the lattice
            return self._lattice(*self._oriented(xs[:, 0], ys[0]))
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        xb, yb = (np.broadcast_to(a, shape).ravel() if a.size > 1 else a.ravel()
                  for a in (xs, ys))
        # one axis a scalar: a line, or a scalar call
        line = xb.size == 1 or yb.size == 1
        out = (self._line if line else self._eval)(*self._oriented(xb, yb))
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    def lattice_extrema(self, grid: int = 32) -> LatticeExtrema:
        """Least and greatest W on the (grid+1)^2 lattice of the rectangle, each
        at its first lattice point in row-major order, read through core._scan."""
        xs = self.rect.xs(grid)
        ys = self.rect.ys(grid)
        ext = _scan(self, "primitive", xs, ys, cells=False).values
        return LatticeExtrema(
            minimum=ext.min,
            argmin=(float(xs[ext.argmin[0]]), float(ys[ext.argmin[1]])),
            maximum=ext.max,
            argmax=(float(xs[ext.argmax[0]]), float(ys[ext.argmax[1]])),
            grid=grid,
        )


def cumulative(w, rect: Rect, orientation: str = "lower",
               spec: Optional[QuadratureSpec] = None) -> CumulativePrimitive:
    """Cached double primitive of w from the lower-left or upper-right corner."""
    return CumulativePrimitive(w, rect, orientation, spec)


class Antiderivative1D(_Primitive):
    """Evaluable x -> int_lo^x g for an integrable univariate g, on either
    axis: the cells align with spec.breaks_x."""

    def __init__(self, fn, lo: float, hi: float, spec: Optional[QuadratureSpec] = None):
        spec = spec or DEFAULT_SPEC
        _interval(lo, hi)
        g = as_univariate(fn)
        self.lo, self.hi = lo, hi
        b = _boundaries(lo, hi, spec.cells, spec.breaks_x)
        self._converge(g, [b], spec, (np.linspace(lo, hi, 17),), "1d antiderivative")

    def _build(self, g: Callable, boundaries: list):
        (b,) = boundaries
        self.b, self.h = b, np.diff(b)
        X, _ = _nodes(b[:-1], b[1:], self.points)
        self.T = T = _primitive_rows(_sample(g, "antiderivative integrand", X), self.h)
        self.total = float(T[-1, 0] + 2 * T[-1, 1])  # W(hi), where q = (1, 2, 0, ..., 0)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        return _rows(self.T, self.b, self.h, x, self.points)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self._eval(xs.ravel())
        if xs.shape == ():
            return float(out[0])
        return out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Riemann-Stieltjes sums against a bivariate integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StieltjesResult(Record):
    """Midpoint-tagged Riemann-Stieltjes sum plus the step-function bound.

    ``bound`` is the rectangle measure of the integrator times the sup of
    |h| on the tag lattice; it bounds |value| only when the integrator is
    2d-monotone, which ``integrator_monotone`` reports.
    """

    value: float
    bound: float
    error_estimate: float
    converged: bool
    integrator_monotone: bool
    partition: int

    @property
    def passed(self) -> bool:
        """Converged, and within the bound when the integrator is 2d-monotone
        (otherwise the bound is not asserted)."""
        return self.converged and (not self.integrator_monotone
                                   or abs(self.value) <= self.bound + 1e-10)


def _stieltjes_level(h, f, rect: Rect, n: int) -> tuple[float, float, float]:
    """One level of stieltjes2d on the n x n partition of rect, read strip by
    strip through core._strips: the midpoint sum of h against the cell
    measures of f, the bound (the rectangle measure of f times max |h| on
    the tags) and the least cell measure.

    h is sampled at the midpoints of each strip's cells only.  A level of
    one strip gives the whole lattice's sum bitwise; a larger one sums its
    strips' sums in row order.
    """
    xs, ys = rect.xs(n), rect.ys(n)
    xm = 0.5 * (xs[:-1] + xs[1:])
    ym = 0.5 * (ys[:-1] + ys[1:])
    value, H_max, cells_min = -0.0, 0.0, math.inf  # -0.0 + s is s, even for s = -0.0
    for r, V, D in _strips(f, "integrator", xs, ys):
        c = max(r - 1, 0)
        H = _sample(h, "integrand", xm[c:c + len(D), None], ym[None, :])
        value += float((H * D).sum())
        H_max = max(H_max, float(np.max(np.abs(H))))
        cells_min = min(cells_min, float(D.min()))
        if r == 0:
            bottom_left, top_left = V[0, 0], V[0, -1]
    # the corner alternating sum, as _delta takes it
    measure = float(bottom_left - top_left - V[-1, 0] + V[-1, -1])
    return value, measure * H_max, cells_min


def stieltjes2d(h, f, rect: Rect, partition: int = 64, tol: float = 1e-8,
                doublings: int = 4) -> StieltjesResult:
    """Integrate h against the rectangle measure of f.

    value = sum over cells of h(midpoint) * cell measure of f on a
    partition x partition grid, with the partition doubled until two
    successive values agree to tol or the doubling limit is reached.  f is
    2d-monotone when no cell measure of the last partition is below -1e-9.
    """
    if partition < 1:
        raise ValueError("partition must be >= 1")
    if doublings < 0:
        raise ValueError("doublings must be >= 0")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    h = as_bivariate(h)
    f = as_bivariate(f)
    n = partition
    prev = None
    err = float("inf")
    converged = False
    for _ in range(doublings + 1):
        value, bound, cells_min = _stieltjes_level(h, f, rect, n)
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                converged = True
                break
        prev = value
        n *= 2
    else:
        n //= 2
    monotone = bool(cells_min >= -1e-9)
    if not monotone:
        warnings.warn(
            "integrator is not 2d-monotone on the partition; the step-function "
            "bound is not asserted",
            stacklevel=2,
        )
    return StieltjesResult(
        value=value,
        bound=bound,
        error_estimate=float(err),
        converged=converged,
        integrator_monotone=monotone,
        partition=n,
    )


def stieltjes_vs_riemann(h, f, rect: Rect, spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-6) -> IdentityResidual:
    """Residual between the Stieltjes sum from partition 64 and the
    mixed-density Riemann integral; f must be expression-backed, so that it
    carries its symbolic mixed partial."""
    f = as_bivariate(f)
    h = as_bivariate(h)
    fxy = f.mixed_partial()
    if fxy is None:
        raise ValueError("integrator must be expression-backed to supply its mixed partial")
    s = stieltjes2d(h, f, rect, partition=64, tol=(spec or DEFAULT_SPEC).tol)
    r = integrate2d(lambda x, y: h(x, y) * fxy(x, y), rect, spec)
    return IdentityResidual.from_pair(s.value, r.value, tolerance)


# ---------------------------------------------------------------------------
# Mollifier (Dirac sequence) machinery
# ---------------------------------------------------------------------------

def _bump_raw(x, y):
    # exp(1/(r^2-1)) inside the open unit disk, 0 outside
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x * x + y * y
    out = np.zeros(np.broadcast(x, y).shape)
    inside = s < 1.0
    out[inside] = np.exp(1.0 / (np.broadcast_to(s, out.shape)[inside] - 1.0))
    return out


_BUMP_NORMALIZATION: Optional[float] = None


def bump_normalization() -> float:
    """Normalizing constant of the unit bump, computed once by quadrature."""
    global _BUMP_NORMALIZATION
    if _BUMP_NORMALIZATION is None:
        spec = QuadratureSpec(cells=4, tol=1e-10, max_refine=20)
        _BUMP_NORMALIZATION = integrate2d(_bump_raw, Rect(-1, 1, -1, 1), spec).value
    return _BUMP_NORMALIZATION


@dataclass(frozen=True)
class Mollifier:
    """Normalized bump rho_n(x, y) = n^2 rho(nx, ny), supported on radius 1/n."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mollifier index must be >= 1")

    @property
    def radius(self) -> float:
        return 1.0 / self.n

    def __call__(self, x, y):
        n = self.n
        return (n * n / self.c) * _bump_raw(n * np.asarray(x, dtype=float),
                                            n * np.asarray(y, dtype=float))

    @property
    def support(self) -> Rect:
        r = self.radius
        return Rect(-r, r, -r, r)


def make_mollifier(n: int) -> Mollifier:
    return Mollifier(n=n, c=bump_normalization())


def _conv_nodes(moll: Mollifier, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Tensor Gauss grid over the support, sized so the discrete mass is 1 to
    # 1e-8, else ConvergenceError; zero-weight nodes outside the disk are pruned.
    _, w = _gauss(points)
    r = moll.radius
    for cells in (8, 12, 16, 24, 32, 40):
        b = np.linspace(-r, r, cells + 1)
        X, rad = _nodes(b[:-1], b[1:], points)
        wx = (rad[:, None] * w[None, :]).ravel()
        nodes = X.ravel()
        S, T = np.meshgrid(nodes, nodes, indexing="ij")
        WW = np.outer(wx, wx)
        rho = moll(S, T)
        wconv = (WW * rho).ravel()
        mass = float(wconv.sum())
        if abs(mass - 1.0) <= 1e-8:
            break
    else:
        raise ConvergenceError(f"mollifier rule mass {mass!r} is not within 1e-8 of 1 at 40 cells")
    nz = wconv != 0.0
    return S.ravel()[nz], T.ravel()[nz], wconv[nz]


def mollify(f, rect: Rect, n: int, spec: Optional[QuadratureSpec] = None) -> BivariateFn:
    """Convolution of f with the index-n mollifier, as a new BivariateFn.

    f is extended beyond the rectangle by clamping coordinates to it.
    """
    spec = spec or DEFAULT_SPEC
    f = as_bivariate(f)
    moll = make_mollifier(n)
    S, T, wconv = _conv_nodes(moll, spec.points)
    a, b, c, d = rect.as_tuple()

    def conv(x, y):
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        xf = np.broadcast_to(xs, shape).ravel()
        yf = np.broadcast_to(ys, shape).ravel()
        out = np.empty(xf.size)
        for k in _blocks(xf.size, S.size):
            xe = np.clip(xf[k, None] - S[None, :], a, b)
            ye = np.clip(yf[k, None] - T[None, :], c, d)
            out[k] = np.asarray(f(xe, ye), dtype=float) @ wconv
        return out.reshape(shape)

    label = f.expression or "f"
    return BivariateFn.from_callable(conv, name=f"mollify({label}, n={n})")
