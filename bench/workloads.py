"""Seeded check generators and their closed-form references.

Each workload is an endless stream of ``Case`` objects built from one
seed.  The stream is organised in rounds: every round issues the same
list of check kinds, so each kind keeps a fixed share of the stream, and
the flags that set a check's size or control path (grids, doublings,
families) are drawn from seeded permutations of their range, so every
value in the range recurs at a fixed rate.  The continuous parameters
(coefficients, rectangles, evaluation points) are drawn uniformly and
rounded to four significant digits, and each reference below is
computed from those rounded values, never from the program's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator

import numpy as np

PI = math.pi


@dataclass
class Case:
    """One check: the argv, the expected outcome and the references.

    ``refs`` holds ``(path, op, reference, tol)`` tuples, where path is a
    dotted key into the JSON ``result`` and op is one of ``close``
    (|value - reference| <= tol * max(1, |reference|)), ``eq``, ``le``
    and ``ge``.
    """

    kind: str
    argv: list
    exit_code: int = 0
    passed: bool = True
    refs: list = field(default_factory=list)


def _r(v: float) -> float:
    """Round to four significant digits so the argv states the value exactly."""
    return float(f"{v:.4g}")


def _s(v: float) -> str:
    return repr(_r(v))


class _Cycle:
    """Draws from seeded permutations of a fixed value list."""

    def __init__(self, rng: np.random.Generator, values):
        self.rng = rng
        self.values = list(values)
        self.queue: list = []

    def __call__(self):
        if not self.queue:
            self.queue = [self.values[i] for i in self.rng.permutation(len(self.values))]
        return self.queue.pop()


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def exp_sin(a: float, m: float, lo: float, hi: float) -> float:
    """int_lo^hi exp(-a t) sin(m t) dt."""
    def F(t):
        return math.exp(-a * t) * (-a * math.sin(m * t) - m * math.cos(m * t)) / (a * a + m * m)
    return F(hi) - F(lo)


def exp_cos(a: float, m: float, lo: float, hi: float) -> float:
    """int_lo^hi exp(-a t) cos(m t) dt (m = 0 gives the plain exponential)."""
    def F(t):
        return math.exp(-a * t) * (m * math.sin(m * t) - a * math.cos(m * t)) / (a * a + m * m)
    return F(hi) - F(lo)


def power(i: int, lo: float, hi: float) -> float:
    """int_lo^hi t^i dt."""
    return (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)


# ---------------------------------------------------------------------------
# Check families shared by the workloads
# ---------------------------------------------------------------------------

QUAD_TOL = 1e-8      # default --quad-tol of every quadrature-backed command
LATTICE_TOL = 1e-9   # default --tol of certify / copula / thm checks


class Families:
    """Seeded generators, one method per check kind.

    ``small`` shrinks grids, trial counts and matrix sizes for the
    cold-process workload, where every check also pays for an import.
    """

    def __init__(self, rng: np.random.Generator, small: bool = False):
        self.rng = rng
        self.small = small
        c = lambda values: _Cycle(rng, values)  # noqa: E731
        self.doublings = c(range(1, 5))
        self.partition = c([8, 16, 32, 64])
        self.fourier_kind = c(["sinsin2d-u2", "sinsin2d-exp", "cos1d", "sin1d", "coscos2d"])
        self.young_kind = c(["exp-sin", "poly"])
        # The cold workload issues only the README's byparts shape (exp f, constant
        # density), whose in-process cost of 300-390 ms varies little with its
        # parameters; it is the heavy class that sets the cold tail.
        self.byparts_kind = c(["exp-const"] if small else ["exp", "exp-edges", "poly"])
        self.corollary_kind = c(["exp", "poly"])
        self.integrate_kind = c(["exp", "poly"])
        # Lattice checks cost what their family and grid make them cost, so
        # each (family, grid) pair recurs at a fixed rate.
        families = list(LATTICE_FAMILIES)
        self.certify_case = c(product(families, [64, 128] if small else
                                      [512, 768, 1024, 1536, 2048]))
        self.lemma1_case = c(product(families, [32, 64] if small else [256, 512, 768, 1024]))
        self.archimedean_case = c(product(["clayton", "gumbel", "frank", "amh"],
                                          [16, 32] if small else [64, 128, 192, 256]))
        self.validate_case = c(product(["product", "upper", "lower", "fgm", "amh"],
                                       [32, 64] if small else [128, 256, 384, 512]))
        self.thm_grid = c([16, 32, 48, 64])

    def u(self, lo: float, hi: float) -> float:
        return _r(self.rng.uniform(lo, hi))

    def i(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    # --- quadrature-heavy checks --------------------------------------

    def integrate(self) -> Case:
        kind = self.integrate_kind()
        x0, y0 = self.u(-1, 0.5), self.u(-1, 0.5)
        x1, y1 = _r(x0 + self.u(0.5, 2)), _r(y0 + self.u(0.5, 2))
        rect = f"{x0!r},{x1!r},{y0!r},{y1!r}"
        if kind == "exp":
            a, b = self.u(0.2, 3), self.u(0.2, 3)
            f = f"exp(-{a!r}*x-{b!r}*y)"
            ref = exp_cos(a, 0, x0, x1) * exp_cos(b, 0, y0, y1)
        else:
            p, q = self.u(-2, 2), self.u(-2, 2)
            i, j = self.i(0, 4), self.i(0, 4)
            f = f"{p!r}*x^{i}*y^{j} + {q!r}"
            ref = p * power(i, x0, x1) * power(j, y0, y1) + q * (x1 - x0) * (y1 - y0)
        return Case("integrate", ["integrate", "--f", f, "--rect", rect],
                    refs=[("value", "close", ref, QUAD_TOL)])

    def integrate_floor(self) -> Case:
        k = self.i(2, 5)
        y0 = self.u(0, 1)
        y1 = _r(y0 + self.u(0.5, 2))
        c = self.u(-2, 2)
        breaks = "x:" + ",".join(str(v) for v in range(1, k))
        ref = (y1 - y0) * k * (k - 1) / 2 + c * k * (y1 * y1 - y0 * y0) / 2
        return Case("integrate-floor",
                    ["integrate", "--f", f"floor(x) + {c!r}*y", "--rect", f"0,{k},{y0!r},{y1!r}",
                     "--breaks", breaks],
                    refs=[("value", "close", ref, QUAD_TOL)])

    def integrate_kink(self, t: float = None, b: float = None, breaks: bool = True) -> Case:
        t = self.u(0.1, 0.9) if t is None else t
        b = self.u(0.3, 2) if b is None else b
        argv = ["integrate", "--f", f"abs(x - {t!r})*exp(-{b!r}*y)", "--rect", "0,1,0,1"]
        if breaks:
            argv += ["--breaks", f"x:{t!r}"]
        ref = (t * t + (1 - t) ** 2) / 2 * exp_cos(b, 0, 0, 1)
        return Case("integrate-kink", argv, refs=[("value", "close", ref, QUAD_TOL)])

    def young(self, variant: str) -> Case:
        B, D = self.u(0.5, 3), self.u(0.5, 3)
        rect = f"0,{B!r},0,{D!r}"
        if self.young_kind() == "exp-sin":
            a, b = self.u(0.2, 2), self.u(0.2, 2)
            m, n = self.i(1, 6), self.i(1, 6)
            f, w = f"exp(-{a!r}*x-{b!r}*y)", f"sin({m}*x)*sin({n}*y)"
            ref = exp_sin(a, m, 0, B) * exp_sin(b, n, 0, D)
        else:
            p = self.u(0.5, 2)
            i, j, k, l = self.i(1, 3), self.i(1, 3), self.i(0, 2), self.i(0, 2)
            f, w = f"{p!r}*x^{i}*y^{j}", f"x^{k} + y^{l}"
            ref = p * (power(i + k, 0, B) * power(j, 0, D) + power(i, 0, B) * power(j + l, 0, D))
        return Case(variant, ["verify", variant, "--f", f, "--w", w, "--rect", rect],
                    refs=[("lhs", "close", ref, QUAD_TOL)])

    def young1(self) -> Case:
        return self.young("young1")

    def young2(self) -> Case:
        return self.young("young2")

    def thm3(self) -> Case:
        a, b = self.u(0.2, 2), self.u(0.2, 2)
        m, n = self.i(1, 6), self.i(1, 6)
        B, D = self.u(0.5, 2 * PI), self.u(0.5, 2 * PI)
        lhs = exp_sin(a, m, 0, B) * exp_sin(b, n, 0, D)
        bound = math.exp(-a * B - b * D) * (1 - math.cos(m * B)) / m * (1 - math.cos(n * D)) / n
        return Case("thm3",
                    ["verify", "thm3", "--f", f"exp(-{a!r}*x-{b!r}*y)",
                     "--w", f"sin({m}*x)*sin({n}*y)", "--rect", f"0,{B!r},0,{D!r}",
                     "--grid", str(self.thm_grid())],
                    refs=[("lhs", "close", lhs, QUAD_TOL), ("bound", "close", bound, QUAD_TOL),
                          ("hypotheses_hold", "eq", True, 0)])

    def thm4(self) -> Case:
        a, b = self.u(0.05, 0.4), self.u(0.05, 0.4)
        m, n = self.i(1, 4), self.i(1, 4)
        k, l = self.i(1, 2), self.i(1, 2)
        B, D = 2 * PI * k / m, 2 * PI * l / n
        lhs = exp_sin(-a, m, 0, B) * exp_sin(-b, n, 0, D)
        return Case("thm4",
                    ["verify", "thm4", "--f", f"exp({a!r}*x+{b!r}*y)",
                     "--w", f"sin({m}*x)*sin({n}*y)",
                     "--rect", f"0,{2 * k}*pi/{m},0,{2 * l}*pi/{n}",
                     "--grid", str(self.thm_grid())],
                    refs=[("lhs", "close", lhs, QUAD_TOL), ("bound", "close", 0.0, QUAD_TOL),
                          ("hypotheses_hold", "eq", True, 0)])

    def remark3(self) -> Case:
        a, b = self.u(0.2, 2), self.u(0.2, 2)
        m, n = self.i(1, 6), self.i(1, 6)
        B, D = self.u(0.5, 2 * PI), self.u(0.5, 2 * PI)
        lhs = -exp_sin(a, m, 0, B) * exp_sin(b, n, 0, D)
        bound = -math.exp(-a * B - b * D) * (1 - math.cos(m * B)) / m * (1 - math.cos(n * D)) / n
        return Case("remark3",
                    ["verify", "remark3", "--f", f"-exp(-{a!r}*x-{b!r}*y)",
                     "--w", f"-sin({m}*x)*sin({n}*y)", "--rect", f"0,{B!r},0,{D!r}",
                     "--grid", str(self.thm_grid())],
                    refs=[("lhs", "close", lhs, QUAD_TOL), ("bound", "close", bound, QUAD_TOL),
                          ("hypotheses_hold", "eq", True, 0)])

    def fourier(self) -> Case:
        kind = self.fourier_kind()
        m, n = self.i(1, 6), self.i(1, 6)
        a, b = self.u(0.1, 2), self.u(0.1, 2)
        two_pi = 2 * PI
        if kind == "sinsin2d-u2":
            kernel, f, ref = "sinsin2d", "u^2", 8 * PI * PI / (m * n)
        elif kind == "sinsin2d-exp":
            kernel, f = "sinsin2d", f"exp(-{a!r}*u)"
            ref = exp_sin(a, m, 0, two_pi) * exp_sin(a, n, 0, two_pi)
        elif kind == "cos1d":
            kernel, f, ref = "cos1d", "u^2", 4 * PI / (n * n)
        elif kind == "sin1d":
            kernel, f, ref = "sin1d", "u^2", -4 * PI * PI / n
        else:
            kernel, f = "coscos2d", f"exp(-{a!r}*x-{b!r}*y)"
            ref = exp_cos(a, m, 0, two_pi) * exp_cos(b, n, 0, two_pi)
        return Case("fourier",
                    ["verify", "fourier", "--kernel", kernel, "--f", f, "--m", str(m), "--n", str(n)],
                    refs=[("value", "close", ref, QUAD_TOL)])

    def byparts(self) -> Case:
        # The identity's Stieltjes term is a midpoint sum on at most a 512 x 512
        # partition, so the ranges keep its O(h^2) error well inside the 1e-6
        # tolerance; the polynomial family is bilinear, where the sum is exact.
        kind = self.byparts_kind()
        B, D = self.u(0.5, 1), self.u(0.5, 1)
        argv = ["verify", "byparts", "--rect", f"0,{B!r},0,{D!r}"]
        if kind == "poly":
            p, q, r, c = self.u(0.5, 2), self.u(-1, 1), self.u(-1, 1), self.u(0.5, 2)
            argv += ["--f", f"{p!r}*x*y + {q!r}*x + {r!r}*y", "--gdensity", _s(c)]
            ref = c * (p * power(1, 0, B) * power(1, 0, D) + q * power(1, 0, B) * D
                       + r * B * power(1, 0, D))
        elif kind == "exp-const":
            a, b, c = self.u(0.2, 2), self.u(0.2, 2), self.u(0.5, 2)
            argv += ["--f", f"exp(-{a!r}*x-{b!r}*y)", "--gdensity", _s(c)]
            ref = c * exp_cos(a, 0, 0, B) * exp_cos(b, 0, 0, D)
        else:
            a, b, c, d = (self.u(0.2, 1) for _ in range(4))
            argv += ["--f", f"exp(-{a!r}*x-{b!r}*y)", "--gdensity", f"exp(-{c!r}*x-{d!r}*y)"]
            ref = exp_cos(a + c, 0, 0, B) * exp_cos(b + d, 0, 0, D)
            if kind == "exp-edges":
                argv += ["--g1", _s(self.u(0.5, 2)), "--g2", f"{self.u(0.5, 2)!r}*t"]
        return Case("byparts", argv, refs=[("lhs", "close", ref, QUAD_TOL)])

    def corollary(self) -> Case:
        k1, k2 = self.i(1, 3), self.i(1, 3)
        ms = range(1, k1 + 1)
        ns = range(1, k2 + 1)
        if self.corollary_kind() == "exp":
            a, b = self.u(0.2, 2), self.u(0.2, 2)
            f = f"exp(-{a!r}*x-{b!r}*y)"
            total = sum(math.exp(-a * i - b * j) for i in ms for j in ns)
        else:
            p, q = self.u(-2, 2), self.u(-2, 2)
            f = f"{p!r}*x*y + {q!r}*x^2"
            total = sum(p * i * j + q * i * i for i in ms for j in ns)
        return Case("corollary", ["verify", "corollary", "--f", f, "--rect", f"0,{k1},0,{k2}"],
                    refs=[("lhs", "close", total, 1e-12), ("rhs", "close", total, 1e-6)])

    def stieltjes(self, doublings: int = None) -> Case:
        p, q, r = self.u(-2, 2), self.u(-2, 2), self.u(-2, 2)
        c = self.u(-1, 1)
        x0, y0 = self.u(-1, 0.5), self.u(-1, 0.5)
        x1, y1 = _r(x0 + self.u(0.5, 2)), _r(y0 + self.u(0.5, 2))
        doublings = self.doublings() if doublings is None else doublings
        ref = (p * (x1 * x1 - x0 * x0) / 2 * (y1 - y0) + q * (x1 - x0) * (y1 * y1 - y0 * y0) / 2
               + r * (x1 - x0) * (y1 - y0))
        # The integrator's rectangle measure is dx dy (sin(x) and y^2 have none), and
        # the midpoint rule is exact for a linear h, so one doubling converges.  With
        # zero doublings there is no error estimate and the check must report failure.
        ok = doublings > 0
        return Case("stieltjes",
                    ["stieltjes", "--h", f"{p!r}*x + {q!r}*y + {r!r}",
                     "--f", f"x*y + sin(x) + {c!r}*y^2", "--rect", f"{x0!r},{x1!r},{y0!r},{y1!r}",
                     "--partition", str(self.partition()), "--doublings", str(doublings)],
                    exit_code=0 if ok else 1, passed=ok,
                    refs=[("value", "close", ref, QUAD_TOL), ("converged", "eq", ok, 0)])

    def mollify(self) -> Case:
        n = self.i(3, 8)
        p, q, r = self.u(-2, 2), self.u(-2, 2), self.u(-2, 2)
        lo, hi = 1.0 / n + 0.01, 1.0 - 1.0 / n - 0.01
        x, y = self.u(lo, hi), self.u(lo, hi)
        return Case("mollify",
                    ["mollify", "--f", f"{p!r}*x + {q!r}*y + {r!r}", "--rect", "0,1,0,1",
                     "--n", str(n), "--eval", f"{x!r},{y!r}"],
                    refs=[("value", "close", p * x + q * y + r, 1e-7),
                          ("mollifier_mass", "close", 1.0, 1e-6)])

    # --- lattice checks -------------------------------------------------

    def certify(self) -> Case:
        family, grid = self.certify_case()
        f, rect, verdict, _ = LATTICE_FAMILIES[family](self)
        ok = verdict != "indefinite"
        return Case("certify",
                    ["certify", "--f", f, "--rect", rect, "--grid", str(grid)],
                    exit_code=0 if ok else 1, passed=ok,
                    refs=[("verdict", "eq", verdict, 0)])

    def lemma1(self) -> Case:
        family, grid = self.lemma1_case()
        f, rect, verdict, sign = LATTICE_FAMILIES[family](self)
        return Case("lemma1",
                    ["verify", "lemma1", "--f", f, "--rect", rect, "--grid", str(grid)],
                    refs=[("verdict", "eq", verdict, 0), ("mixed_sign", "eq", sign, 0)])

    def archimedean(self) -> Case:
        family, grid = self.archimedean_case()
        x, y = self.u(0.05, 0.95), self.u(0.05, 0.95)
        phi, value = ARCHIMEDEAN[family](self, x, y)
        return Case("archimedean",
                    ["copula", "archimedean", "--phi", phi, "--eval", f"{x!r},{y!r}",
                     "--grid", str(grid)],
                    refs=[("value", "close", value, LATTICE_TOL),
                          ("validation.boundary_max_error", "le", LATTICE_TOL, 0)])

    def validate(self) -> Case:
        family, grid = self.validate_case()
        t = self.u(-0.9, 0.9)
        f = {
            "product": "x*y",
            "upper": "min(x, y)",
            "lower": "max(x + y - 1, 0)",
            "fgm": f"x*y*(1 + ({t!r})*(1 - x)*(1 - y))",
            "amh": f"x*y/(1 - ({t!r})*(1 - x)*(1 - y))",
        }[family]
        return Case("validate",
                    ["copula", "validate", "--f", f, "--grid", str(grid)],
                    refs=[("boundary_max_error", "le", LATTICE_TOL, 0),
                          ("min_cell_measure", "ge", -LATTICE_TOL, 0)])

    def hardy(self) -> Case:
        lo, hi = (3, 12) if self.small else (20, 100)
        p, q = self.i(lo, hi), self.i(lo, hi)
        trials = self.i(2, 5)
        argv = ["verify", "hardy", "--p", str(p), "--q", str(q), "--trials", str(trials),
                "--seed", str(self.i(0, 10**6))]
        # At p, q = 20-100, rounding in sums of up to 10^4 terms alone can exceed
        # the 1e-12 default --tol (known defect hardy-default-tol, reproduced by
        # its probe), so the stream states --tol 1e-10 at these sizes.
        tol = 1e-12
        if not self.small:
            tol = 1e-10
            argv += ["--tol", repr(tol)]
        return Case("hardy", argv, refs=[("max_rel_residual", "le", tol, 0)])

    def steffensen(self) -> Case:
        lo, hi = (3, 12) if self.small else (20, 100)
        p, q = self.i(lo, hi), self.i(lo, hi)
        trials = self.i(2, 5)
        return Case("steffensen",
                    ["verify", "steffensen", "--p", str(p), "--q", str(q), "--trials", str(trials),
                     "--seed", str(self.i(0, 10**6))],
                    refs=[("min_sum", "ge", 0.0, 0)])

    def steffensen_single(self) -> Case:
        # Constructive 2x2 pair: a from a nonnegative difference table, u from
        # nonnegative partial sums, so the hypotheses and the conclusion hold.
        d = [[self.i(0, 4) for _ in range(2)] for _ in range(2)]
        a22 = d[1][1]
        a = [[d[0][0] + d[1][0] + d[0][1] + a22, d[0][1] + a22], [d[1][0] + a22, a22]]
        s = [[self.i(0, 8) for _ in range(2)] for _ in range(2)]
        u = [[s[0][0], s[0][1] - s[0][0]], [s[1][0] - s[0][0], s[1][1] - s[0][1] - s[1][0] + s[0][0]]]
        total = sum(a[i][j] * u[i][j] for i in range(2) for j in range(2))
        return Case("steffensen-single",
                    ["verify", "steffensen", "--a", str(a), "--u", str(u)],
                    refs=[("sum", "close", float(total), 1e-12), ("hypotheses_hold", "eq", True, 0)])


# Lattice families: name -> draw(families) returning (f, rect, verdict, mixed sign).
# The verdict follows from the sign of the mixed partial, which is constant on
# each rectangle below, and the grids are fine enough that every cell measure
# clears the 1e-9 tolerance on the side the sign says.
LATTICE_FAMILIES: dict[str, Callable] = {
    "exp-decay": lambda s: (
        f"exp(-{s.u(0.5, 2)!r}*x-{s.u(0.5, 2)!r}*y)",
        f"0,{s.u(1, 2)!r},0,{s.u(1, 2)!r}", "monotone2d", "nonnegative"),
    "saddle": lambda s: (
        f"-{s.u(0.5, 3)!r}*x*y + x^2 + y^3",
        f"0,{s.u(1, 2)!r},0,{s.u(1, 2)!r}", "alternating2d", "nonpositive"),
    "separable": lambda s: (
        f"x^2 + {s.u(0.5, 2)!r}*y^2 + {s.u(-1, 1)!r}*x",
        f"0,{s.u(1, 3)!r},0,{s.u(1, 3)!r}", "modular", "zero"),
    "wave": lambda s: (
        "sin(x + y)", f"0,{s.u(2.5, 3)!r},0,{s.u(2.5, 3)!r}", "indefinite", "indefinite"),
    "catalog-pi": lambda s: (
        "catalog:pi", f"0,{s.u(0.5, 2)!r},0,{s.u(0.5, 2)!r}", "monotone2d", "nonnegative"),
    "catalog-c": lambda s: (
        "catalog:c", f"0,{s.u(0.5, 1)!r},0,{s.u(0.5, 1)!r}", "monotone2d", "nonnegative"),
    "catalog-log-pow": lambda s: (
        f"catalog:log_pow({s.i(1, 4)})", f"0.5,{s.u(1.5, 2.5)!r},0.5,{s.u(1.5, 2.5)!r}",
        "alternating2d", "nonpositive"),
    "catalog-convex-sum": lambda s: (
        f"catalog:convex_sum(t^2, {s.u(0.5, 2)!r})", f"0,{s.u(1, 2)!r},0,{s.u(1, 2)!r}",
        "monotone2d", "nonnegative"),
    "catalog-midpoint-gap": lambda s: (
        "catalog:midpoint_gap(t^2)", f"0,{s.u(1, 2)!r},0,{s.u(1, 2)!r}",
        "alternating2d", "nonpositive"),
}


def _clayton(s: Families, x: float, y: float):
    t = s.u(0.5, 5)
    return f"(t^(-{t!r}) - 1)/{t!r}", (x ** -t + y ** -t - 1) ** (-1 / t)


def _gumbel(s: Families, x: float, y: float):
    t = s.u(1.2, 4)
    return f"(-log(t))^{t!r}", math.exp(-((-math.log(x)) ** t + (-math.log(y)) ** t) ** (1 / t))


def _frank(s: Families, x: float, y: float):
    t = s.u(0.5, 10)
    value = -math.log(1 + math.expm1(-t * x) * math.expm1(-t * y) / math.expm1(-t)) / t
    return f"-log((exp(-{t!r}*t) - 1)/(exp(-{t!r}) - 1))", value


def _amh(s: Families, x: float, y: float):
    t = s.u(-0.9, 0.9)
    return f"log((1 - ({t!r})*(1 - t))/t)", x * y / (1 - t * (1 - x) * (1 - y))


ARCHIMEDEAN = {"clayton": _clayton, "gumbel": _gumbel, "frank": _frank, "amh": _amh}


# ---------------------------------------------------------------------------
# Known-defect probes
# ---------------------------------------------------------------------------

# One fixed input per known defect of the program (bench/gate.py).  The timed
# stream holds no input that trips a known defect, so its failures are 0 while
# the program is correct; each run then issues its workload's probes, untimed,
# so every defect is reproduced and reported in every run until it is fixed.
PROBE_SEED = 4592


def _probe_hardy(fam: Families) -> Case:
    # Found by a search over p, q = 60-100: one trial at the 1e-12 default
    # --tol has a relative residual of 1.8e-12 from rounding alone.
    return Case("hardy", ["verify", "hardy", "--p", "85", "--q", "97", "--trials", "1",
                          "--seed", "4592"],
                refs=[("max_rel_residual", "le", 1e-12, 0)])


PROBES: dict[str, Callable] = {
    # Any input with zero doublings prints "error_estimate": Infinity.
    "stieltjes-infinity": lambda fam: fam.stieltjes(doublings=0),
    # A kink 0.2523 from 1/2, without --breaks: the value is off by 2.8e-6
    # behind an error estimate below --quad-tol.
    "kink-understated-error": lambda fam: fam.integrate_kink(t=0.7477, b=1.417, breaks=False),
    "hardy-default-tol": _probe_hardy,
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named round of check kinds; ``cold`` runs each check in a fresh
    process, with the small inputs of ``Families(small=True)``."""

    name: str
    cold: bool
    round_kinds: tuple
    trace_rounds: int
    probes: tuple  # ids of the known defects whose inputs this workload's kinds cover

    def stream(self, seed: int) -> Iterator[Case]:
        fam = Families(np.random.default_rng(seed), small=self.cold)
        while True:
            for kind in self.round_kinds:
                yield getattr(fam, kind)()

    def cases(self, seed: int, count: int) -> list:
        stream = self.stream(seed)
        return [next(stream) for _ in range(count)]

    def probe_cases(self) -> list:
        fam = Families(np.random.default_rng(PROBE_SEED), small=self.cold)
        return [PROBES[defect](fam) for defect in self.probes]


# identities puts quad under load and barely touches the lattice code; lattice
# is the reverse, so a quad change predicts no change there; cli-cold pays the
# import in every check, so import-time and eager-table costs show there.
IDENTITY_ROUND = (
    "integrate", "integrate", "integrate_floor", "integrate_kink", "young1", "young2",
    "thm3", "thm4", "remark3", "fourier", "fourier", "byparts", "corollary",
    "stieltjes", "mollify",
)
LATTICE_ROUND = (
    "certify", "certify", "lemma1", "archimedean", "validate", "hardy", "steffensen",
)
# A cold run holds about 100 checks, so its tail (the 11th-largest) sits near
# p90.  Four byparts checks in 19 put that rank inside the byparts class, near
# its median, rather than at the extreme of process-start noise.
COLD_ROUND = (
    "certify", "integrate", "byparts", "integrate_floor", "stieltjes", "validate",
    "byparts", "archimedean", "mollify", "hardy", "byparts", "steffensen_single", "young1",
    "thm3", "byparts", "remark3", "fourier", "corollary", "lemma1",
)

WORKLOADS = {
    "identities": Workload("identities", False, IDENTITY_ROUND, trace_rounds=6,
                           probes=("stieltjes-infinity", "kink-understated-error")),
    "lattice": Workload("lattice", False, LATTICE_ROUND, trace_rounds=8,
                        probes=("hardy-default-tol",)),
    "cli-cold": Workload("cli-cold", True, COLD_ROUND, trace_rounds=3,
                         probes=("stieltjes-infinity",)),
}
