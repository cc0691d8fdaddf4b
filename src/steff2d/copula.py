"""Archimedean copula construction and validation of the copula axioms.

A generator is a continuous, strictly decreasing, convex map phi on
(0, 1] with phi(1) = 0; the induced coupling is

    A(x, y) = phi_inv(min(phi(x) + phi(y), phi(0+)))

with the pseudo-inverse convention that arguments at or beyond phi(0+)
map to 0.  Inversion is done by bisection on [0, 1], which works for any
valid generator expression; closed-form inverses serve as test oracles.
Each distinct value of phi(x) + phi(y) is bisected once, in 47 sweeps
whose midpoints are exact dyadic numbers, so a symmetric lattice, which
holds almost every value twice, costs about half the phi evaluations.

validate_copula samples a candidate once, on a lattice over the unit
square, through core._scan: the boundary conditions are read from the
lattice's edges and 2d-monotonicity from its cell measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .core import Record, _scan
from .expr import BivariateFn, UnivariateFn, as_bivariate, as_univariate, to_string

__all__ = [
    "InvalidGeneratorError",
    "Generator",
    "CopulaReport",
    "archimedean",
    "validate_copula",
]

_BISECTION_TOL = 1e-14
# hi - lo is exactly 2^-k after k halvings of [0, 1] at every point, so the
# bracket is within the tolerance after this many sweeps: 47 for 1e-14
_BISECTION_SWEEPS = math.ceil(math.log2(1.0 / _BISECTION_TOL))


class InvalidGeneratorError(ValueError):
    """The proposed generator violates a generator invariant."""


@dataclass
class Generator:
    """Validated copula generator with its sampled shape diagnostics."""

    phi: UnivariateFn
    phi_at_zero: float
    strictly_decreasing: bool
    convex: bool
    value_at_one: float

    @classmethod
    def from_expression(cls, phi) -> "Generator":
        """Validate phi on 257 points from 1e-6 to 1: strictly decreasing,
        convex (second differences >= -1e-9), and phi(1) = 0 within 1e-12."""
        phi = as_univariate(phi)
        v1 = float(phi(1.0))
        if not (math.isfinite(v1) and abs(v1) <= 1e-12):
            raise InvalidGeneratorError(f"generator must satisfy phi(1) = 0, got {v1}")
        vals = phi(np.linspace(1e-6, 1.0, 257))
        if not np.all(np.isfinite(vals)):
            raise InvalidGeneratorError("generator is not finite on (0, 1]")
        decreasing = bool(np.all(np.diff(vals) < 0.0))
        convex = bool(np.all(np.diff(vals, 2) >= -1e-9))
        if not decreasing:
            raise InvalidGeneratorError("generator is not strictly decreasing on (0, 1]")
        if not convex:
            raise InvalidGeneratorError("generator is not convex on (0, 1]")
        v0 = float(phi(0.0))
        if math.isnan(v0):
            v0 = float(phi(1e-300))
        if not math.isfinite(v0) or v0 > 1e15:
            v0 = math.inf
        return cls(
            phi=phi,
            phi_at_zero=v0,
            strictly_decreasing=decreasing,
            convex=convex,
            value_at_one=v1,
        )

    def inverse(self, s):
        """Pseudo-inverse by bisection: phi_inv(s), clamped to 1 for every
        s <= 0 (-inf included) and to 0 once s reaches phi(0+).

        Each distinct value of s is bisected once, in _BISECTION_SWEEPS (47)
        sweeps of [0, 1].  After k sweeps the bracket is [lo, lo + 2^-k], so
        only lo is carried and every midpoint lo + 2^-(k+1) is exact.
        """
        s = np.asarray(s, dtype=float)
        # s is read only through comparisons, so equal values get equal outputs
        u, back = np.unique(s, return_inverse=True)
        lo, mid, h = np.zeros_like(u), np.empty_like(u), 0.5
        with np.errstate(all="ignore"):
            for _ in range(_BISECTION_SWEEPS):
                np.add(lo, h, out=mid)
                # phi decreasing: value above target -> root is to the right
                np.copyto(lo, mid, where=self.phi(mid) > u)
                h *= 0.5
        out = lo + h  # the midpoint of the last bracket
        out[u <= 0.0] = 1.0
        out[u >= self.phi_at_zero] = 0.0  # only +inf when phi(0+) is infinite
        out = out[back.reshape(s.shape)]
        return float(out) if s.ndim == 0 else out


def archimedean(gen) -> BivariateFn:
    """Coupling A(x, y) = phi_inv(phi(x) + phi(y)) on the unit square [0, 1]^2.

    A is defined only there: a generator lives on (0, 1], so off the square,
    or at a NaN coordinate, A is NaN, and a check that samples it there
    raises NumericDomainError naming the point.

    Accepts a Generator, a univariate expression string, or a callable;
    generator invariants are validated before construction.
    """
    if not isinstance(gen, Generator):
        gen = Generator.from_expression(gen)
    phi = gen.phi

    def fn(x, y):
        with np.errstate(all="ignore"):
            s = np.asarray(phi(x), dtype=float) + np.asarray(phi(y), dtype=float)
        out = gen.inverse(s)
        # NaN coordinates compare false, so they fall off the square too
        off_x, off_y = ~((0.0 <= x) & (x <= 1.0)), ~((0.0 <= y) & (y <= 1.0))
        if off_x.any() or off_y.any():
            out = np.where(off_x | off_y, np.nan, out)
        return out

    label = phi.name or (phi.ast and to_string(phi.ast)) or "phi"
    out = BivariateFn.from_callable(fn, name=f"archimedean({label})")
    out.generator = gen
    return out


@dataclass(frozen=True)
class CopulaReport(Record):
    """Boundary and 2d-monotonicity diagnostics for a candidate copula."""

    boundary_max_error: float
    boundary_witness_condition: str
    boundary_witness_point: tuple
    min_cell_measure: float
    grid: int
    tol: float
    passed: bool

    _renames = {"passed": "pass"}


# the boundary conditions, in the order that breaks ties
_BOUNDARY = ("C(x,0)=0", "C(0,y)=0", "C(x,1)=x", "C(1,y)=y")


def validate_copula(C, grid: int = 64, tol: float = 1e-9) -> CopulaReport:
    """Check the boundary conditions and 2-increasing property on a grid.

    C is sampled once, on the (grid+1) x (grid+1) lattice over the unit
    square, through core._scan.  Boundary conditions: C(x,0) = 0,
    C(0,y) = 0, C(x,1) = x, C(1,y) = y at the grid+1 lattice points of each
    edge; the witness is the lattice point of the largest error, the first
    condition winning ties.  2d-monotonicity via the cell measures of the
    lattice.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    ts = np.linspace(0.0, 1.0, grid + 1)  # ts[0] == 0 and ts[-1] == 1 exactly
    scan = _scan(as_bivariate(C), "candidate copula", ts, ts)
    errs = np.abs([scan.bottom, scan.left, scan.top - ts, scan.right - ts])
    k, i = np.unravel_index(np.argmax(errs), errs.shape)
    ix, iy = ((i, 0), (0, i), (i, -1), (-1, i))[k]
    worst_err = float(errs[k, i])
    min_cell = scan.cells.min
    return CopulaReport(
        boundary_max_error=worst_err,
        boundary_witness_condition=_BOUNDARY[k],
        boundary_witness_point=(float(ts[ix]), float(ts[iy])),
        min_cell_measure=min_cell,
        grid=grid,
        tol=tol,
        passed=bool(worst_err <= tol and min_cell >= -tol),
    )
