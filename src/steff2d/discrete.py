"""Discrete 2D summation by parts and the double-sequence sign inequality.

The central identity rewrites sum a_ij u_ij over a p x q index box in
terms of the second-difference table of a and the rectangular partial
sums of u.  With the convention that the (p, q) slot of the difference
table stores a_pq itself, the right-hand side is simply the entrywise
product of the two tables, and the inequality follows: nonnegative a,
nonnegative differences, and nonnegative partial sums force the sum to
be nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import IdentityResidual, Record, _delta, _prefix_sums

__all__ = [
    "DoubleSequence",
    "DeltaTable",
    "SteffensenReport",
    "partial_sums",
    "delta_table",
    "integrate_delta",
    "hardy_residual",
    "steffensen_check",
    "random_pair",
    "hypothesis_pair",
]


class _Matrix:
    """Finite p x q real matrix with 1-based index accessors."""

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("expected a non-empty 2D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.flags.writeable = False
        self.values = arr

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    def at(self, i: int, j: int) -> float:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.p and 1 <= j <= self.q):
            raise IndexError(f"index ({i}, {j}) outside 1..{self.p} x 1..{self.q}")
        return float(self.values[i - 1, j - 1])

    def __eq__(self, other):
        return type(self) is type(other) and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"{type(self).__name__}({self.values.tolist()!r})"


class DoubleSequence(_Matrix):
    """Input matrix (a_ij) or (u_ij), 1-based semantics."""

    @classmethod
    def from_function(cls, p: int, q: int, fn) -> "DoubleSequence":
        return cls([[fn(i, j) for j in range(1, q + 1)] for i in range(1, p + 1)])


class DeltaTable(_Matrix):
    """Second-difference table; the (p, q) slot stores a_pq itself."""


def partial_sums(u: DoubleSequence) -> DoubleSequence:
    """Rectangular partial sums S_ij = sum_{k<=i} sum_{l<=j} u_kl."""
    return DoubleSequence(_prefix_sums(u.values))


def delta_table(a: DoubleSequence) -> DeltaTable:
    """Piecewise second-difference table of a double sequence.

    Interior: a_ij - a_{i+1,j} - a_{i,j+1} + a_{i+1,j+1};
    last column (j = q): a_iq - a_{i+1,q};
    last row (i = p): a_pj - a_{p,j+1};
    corner slot (p, q): a_pq.
    That is the mixed difference of a with a zero row and column appended.
    """
    p, q = a.values.shape
    padded = np.zeros((p + 1, q + 1))
    padded[:p, :q] = a.values
    return DeltaTable(_delta(padded))


def integrate_delta(d: DeltaTable) -> DoubleSequence:
    """Inverse of delta_table: a_ij is the sum of the table over k >= i, l >= j."""
    return DoubleSequence(_prefix_sums(d.values[::-1, ::-1])[::-1, ::-1])


def _require_same_shape(a: DoubleSequence, u: DoubleSequence):
    if a.values.shape != u.values.shape:
        raise ValueError(
            f"dimension mismatch: a is {a.p}x{a.q}, u is {u.p}x{u.q}"
        )


def hardy_residual(a: DoubleSequence, u: DoubleSequence,
                   tolerance: float = 1e-12) -> IdentityResidual:
    """Residual of the 2D summation-by-parts identity.

    lhs = sum a_ij u_ij; rhs = sum of the difference table (corner
    convention included) times the partial-sum table.
    """
    _require_same_shape(a, u)
    lhs = float((a.values * u.values).sum())
    rhs = float((delta_table(a).values * partial_sums(u).values).sum())
    return IdentityResidual.from_pair(lhs, rhs, tolerance)


def _first_negative(values: np.ndarray) -> Optional[tuple[int, int]]:
    """1-based row-major index of the first strictly negative entry."""
    neg = np.argwhere(values < 0.0)
    if neg.size == 0:
        return None
    i, j = neg[0]
    return (int(i) + 1, int(j) + 1)


@dataclass(frozen=True)
class SteffensenReport(Record):
    """Hypothesis diagnostics and conclusion for the double-sum inequality."""

    nonneg_a: bool
    nonneg_delta: bool
    nonneg_partial_sums: bool
    first_violation_a: Optional[tuple[int, int]]
    first_violation_delta: Optional[tuple[int, int]]
    first_violation_partial_sums: Optional[tuple[int, int]]
    total: float
    tolerance: float
    conclusion_holds: bool

    _renames = {"total": "sum"}

    @property
    def hypotheses_hold(self) -> bool:
        return self.nonneg_a and self.nonneg_delta and self.nonneg_partial_sums

    @property
    def passed(self) -> bool:
        """The conclusion holds, or the hypotheses fail (no claim is made)."""
        return self.conclusion_holds or not self.hypotheses_hold

    def to_dict(self) -> dict:
        return {**super().to_dict(), "hypotheses_hold": self.hypotheses_hold}


def steffensen_check(a: DoubleSequence, u: DoubleSequence,
                     tol: float = 1e-12) -> SteffensenReport:
    """Check the sign hypotheses on (a, u) and evaluate sum a_ij u_ij.

    The three hypothesis flags are computed exhaustively and
    independently of the conclusion; the corner slot of the difference
    table (which stores a_pq, not a difference) is covered by the
    nonneg_a flag and excluded from nonneg_delta.
    """
    _require_same_shape(a, u)
    D = delta_table(a).values.copy()
    D[-1, -1] = 0.0  # corner stores a_pq; checked by nonneg_a
    S = partial_sums(u).values
    viol_a = _first_negative(a.values)
    viol_d = _first_negative(D)
    viol_s = _first_negative(S)
    total = float((a.values * u.values).sum())
    return SteffensenReport(
        nonneg_a=viol_a is None,
        nonneg_delta=viol_d is None,
        nonneg_partial_sums=viol_s is None,
        first_violation_a=viol_a,
        first_violation_delta=viol_d,
        first_violation_partial_sums=viol_s,
        total=total,
        tolerance=tol,
        conclusion_holds=bool(total >= -tol),
    )


# ---------------------------------------------------------------------------
# Deterministic generators (also used by the CLI trial modes)
# ---------------------------------------------------------------------------

def random_pair(p: int, q: int, rng: np.random.Generator) -> tuple[DoubleSequence, DoubleSequence]:
    """Unconstrained pair with entries uniform in [-1, 1]."""
    a = DoubleSequence(rng.uniform(-1.0, 1.0, size=(p, q)))
    u = DoubleSequence(rng.uniform(-1.0, 1.0, size=(p, q)))
    return a, u


def hypothesis_pair(p: int, q: int, rng: np.random.Generator) -> tuple[DoubleSequence, DoubleSequence]:
    """Constructive hypothesis-satisfying pair with small integer entries.

    Draws a difference table with entries 0..4 and integrates it to a, and
    a partial-sum table with entries 0..16 and differences it to u.  Integer
    entries keep every operation exact in floating point, so the hypotheses
    hold exactly rather than approximately.
    """
    D = DeltaTable(rng.integers(0, 5, size=(p, q)).astype(float))
    a = integrate_delta(D)
    S = DoubleSequence(rng.integers(0, 17, size=(p, q)).astype(float))
    padded = np.zeros((p + 1, q + 1))
    padded[1:, 1:] = S.values
    u = DoubleSequence(_delta(padded))
    return a, u
