"""Shared geometry, result, and error types, the JSON form of every result
record, the lattice kernel (mixed difference and its inverse, the
rectangular prefix sum) used across the package, and the sampler
(``_sample``) through which the checks read function values: a
non-finite sample raises NumericDomainError naming the point."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Steff2dError",
    "NumericDomainError",
    "ConvergenceError",
    "Record",
    "Rect",
    "IdentityResidual",
]


class Steff2dError(Exception):
    """Base class for numeric failures raised by this package."""


class NumericDomainError(Steff2dError):
    """A function evaluation produced NaN/inf inside the requested domain."""


class ConvergenceError(Steff2dError):
    """A refinement loop hit its limit before reaching the target tolerance."""


class Record:
    """Base of the result dataclasses: ``to_dict`` is their JSON form.

    It has one entry per field, in field order, keyed by the field name or
    by its entry in ``_renames``.  A nested record becomes its own dict,
    except an IdentityResidual, whose entries are merged inline.
    """

    _renames = {}

    def to_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, IdentityResidual):
                out.update(value.to_dict())
                continue
            if isinstance(value, Record):
                value = value.to_dict()
            out[self._renames.get(field.name, field.name)] = value
        return out


@dataclass(frozen=True)
class Rect(Record):
    """Closed axis-aligned rectangle [a, b] x [c, d] with a < b and c < d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"rectangle corners must be finite, got {vals}")
        if not (self.a < self.b and self.c < self.d):
            raise ValueError(f"degenerate rectangle [{self.a},{self.b}]x[{self.c},{self.d}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def shrink(self, margin: float) -> "Rect":
        """Rectangle with every side moved inward by ``margin``."""
        if margin == 0.0:
            return self
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        if 2 * margin >= min(self.width, self.height):
            raise ValueError(f"margin {margin} collapses rectangle {self}")
        return Rect(self.a + margin, self.b - margin, self.c + margin, self.d - margin)

    def xs(self, n: int) -> np.ndarray:
        """n+1 equispaced abscissae from a to b."""
        return np.linspace(self.a, self.b, n + 1)

    def ys(self, n: int) -> np.ndarray:
        return np.linspace(self.c, self.d, n + 1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _sample(fn, what: str, *coords) -> np.ndarray:
    """fn(*coords) as a float array, with NumericDomainError when any value
    is NaN or infinite.  The message names the first such point of the
    broadcast coordinates, in row-major order."""
    with np.errstate(all="ignore"):
        F = np.asarray(fn(*coords), dtype=float)
    if not np.isfinite(F).all():
        *grids, F = np.broadcast_arrays(*coords, F)
        k = np.flatnonzero(~np.isfinite(F))[0]
        point = ", ".join(repr(float(g.flat[k])) for g in grids)
        raise NumericDomainError(f"{what} is not finite at ({point})")
    return F


def _delta(V: np.ndarray) -> np.ndarray:
    """Mixed difference of a lattice of values, one entry per cell:

        V[i, j] - V[i, j+1] - V[i+1, j] + V[i+1, j+1],

    the corner alternating sum f(a,c) - f(a,d) - f(b,c) + f(b,d) of the
    cell when V[i, j] = f(x_i, y_j).  Allocates one cell-lattice array.
    """
    out = V[:-1, :-1] - V[:-1, 1:]
    out -= V[1:, :-1]
    out += V[1:, 1:]
    return out


def _prefix_sums(U: np.ndarray) -> np.ndarray:
    """Rectangular prefix sums S[i, j] = sum of U[:i+1, :j+1].

    Inverts _delta on tables zero-padded before the first row and column.
    """
    return U.cumsum(axis=0).cumsum(axis=1)


@dataclass(frozen=True)
class IdentityResidual(Record):
    """Two-sided identity evaluation with absolute/relative residuals.

    ``passed`` is true when the relative residual |lhs - rhs| / max(1, |lhs|)
    is within ``tolerance``.  This also covers the absolute residual: the
    relative one never exceeds it, so an absolute residual within the
    tolerance always passes.
    """

    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool

    _renames = {"passed": "pass"}

    @classmethod
    def from_pair(cls, lhs: float, rhs: float, tolerance: float) -> "IdentityResidual":
        abs_res = abs(lhs - rhs)
        rel_res = abs_res / max(1.0, abs(lhs))
        return cls(
            lhs=float(lhs),
            rhs=float(rhs),
            abs_residual=float(abs_res),
            rel_residual=float(rel_res),
            tolerance=float(tolerance),
            passed=bool(rel_res <= tolerance),
        )
