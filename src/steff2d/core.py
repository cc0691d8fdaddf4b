"""Shared geometry, result, and error types, the JSON form of every result
record, the lattice kernel (mixed difference and its inverse, the
rectangular prefix sum) used across the package, and the sampler
(``_sample``) through which the checks read function values: a
non-finite sample raises NumericDomainError naming the point.

``_blocks`` is the one block rule: every bounded sampling loop, the
quadrature sweeps, the primitive's reads and the mollifier's convolution
included, takes row slices of at most 2^16 values per call.  ``_strips``
is the one way a lattice of values is read: one strip of rows at a time,
each with its cell measures, the cells on the seam between two strips
included.  A lattice of at most 2^18 values (2 MiB) is one strip; a
larger one goes in the slices of ``_blocks``, so that no array the size
of the lattice is ever made and each strip stays in cache.  Every
lattice point is sampled once, and every value and cell measure equals
what the whole lattice would give bitwise.  ``_scan`` reduces the strips
to value and cell-measure extremes, with their first cells in row-major
order, and the four edges; certify, lemma1_check, validate_copula and
the primitive's lattice_extrema read through it.  stieltjes2d folds its
sums over the strips of each level.
"""

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
    """A sample of the quantity ``what`` was NaN/inf in the domain, first at ``point``."""

    def __init__(self, what: str, point):
        self.what, self.point = what, tuple(map(float, point))
        super().__init__(f"{what} is not finite at ({', '.join(map(repr, self.point))})")


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
        raise NumericDomainError(what, [g.flat[k] for g in grids])
    return F


def _delta(V: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Mixed difference of a lattice of values, one entry per cell:

        V[i, j] - V[i, j+1] - V[i+1, j] + V[i+1, j+1],

    the corner alternating sum f(a,c) - f(a,d) - f(b,c) + f(b,d) of the
    cell when V[i, j] = f(x_i, y_j).  Written into out when given, else
    into one new cell-lattice array.
    """
    out = np.subtract(V[:-1, :-1], V[:-1, 1:], out=out)
    out -= V[1:, :-1]
    out += V[1:, 1:]
    return out


# A lattice of at most _ONE_STRIP values is read whole; a larger one in _blocks.
_ONE_STRIP = 1 << 18


def _blocks(rows: int, width: int) -> list:
    """Row slices of a (rows, width) array, each holding at most 2^16 entries
    (at least one row): the package's one block rule for a sampling call."""
    step = max(1, (1 << 16) // max(width, 1))
    return [slice(k, k + step) for k in range(0, rows, step)]


def _strips(fn, what: str, xs: np.ndarray, ys: np.ndarray, cells: bool = True):
    """Sample fn on the lattice xs x ys through _sample, one strip of rows at
    a time, and yield (r, V, D) per strip: V holds lattice rows r, r+1, ...
    and D, when cells is true, the cell measures of cell rows max(r - 1, 0),
    ... (None otherwise).

    The cells on the seam between two strips are the _delta of the earlier
    strip's last row stacked on the later strip's first row, so every
    lattice point is sampled once, every cell comes once, in row order, and
    each equals the whole lattice's _delta bitwise.
    """
    n, m = xs.size, ys.size
    last = None
    for k in [slice(0, n)] if n * m <= _ONE_STRIP else _blocks(n, m):
        V = _sample(fn, what, xs[k, None], ys[None, :])
        D = None
        if cells:
            seam = last is not None
            D = np.empty((len(V) - 1 + seam, m - 1))
            if seam:
                _delta(np.stack((last, V[0])), D[:1])
            _delta(V, D[seam:])
        last = V[-1].copy()
        yield k.start, V, D


@dataclass
class Extremes:
    """Minimum and maximum of a lattice array, each with the (row, column)
    of its first occurrence in row-major order, as np.argmin and np.argmax
    pick them."""

    min: float = math.nan
    max: float = math.nan
    argmin: tuple = None
    argmax: tuple = None

    def add(self, A: np.ndarray, row: int):
        """Fold in the block A, which holds lattice rows row, row+1, ...
        Blocks arrive in row order, so a tie keeps the held entry: np.argmin
        (np.argmax) over (held, new) picks the new one only when it is
        strictly smaller (larger)."""
        if A.size == 0:
            return
        i, j = np.unravel_index(np.argmin(A), A.shape)
        if self.argmin is None or np.argmin((self.min, A[i, j])) == 1:
            self.min, self.argmin = float(A[i, j]), (row + int(i), int(j))
        i, j = np.unravel_index(np.argmax(A), A.shape)
        if self.argmax is None or np.argmax((self.max, A[i, j])) == 1:
            self.max, self.argmax = float(A[i, j]), (row + int(i), int(j))


@dataclass
class Scan:
    """What _scan reads off the lattice V[i, j] = fn(xs[i], ys[j]): the
    value and cell-measure extremes, and the edges bottom = V[:, 0],
    top = V[:, -1], left = V[0, :] and right = V[-1, :]."""

    values: Extremes
    cells: Extremes
    bottom: np.ndarray
    top: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _scan(fn, what: str, xs: np.ndarray, ys: np.ndarray, cells: bool = True) -> Scan:
    """Sample fn on the lattice xs x ys through _strips and reduce each strip
    as it comes.  With cells false the cell pass is skipped and Scan.cells
    stays empty."""
    n = xs.size
    out = Scan(Extremes(), Extremes(), np.empty(n), np.empty(n), None, None)
    for r, V, D in _strips(fn, what, xs, ys, cells):
        out.values.add(V, r)
        if cells:
            out.cells.add(D, max(r - 1, 0))
        out.bottom[r:r + len(V)], out.top[r:r + len(V)] = V[:, 0], V[:, -1]
        if r == 0:
            out.left = V[0].copy()
    out.right = V[-1].copy()
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
