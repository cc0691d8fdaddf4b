"""Command-line front end: every check as a subcommand with JSON output.

One JSON document (schema: command, inputs, result, pass, diagnostics,
version) goes to stdout; a one-line human summary goes to stderr.  Exit
codes: 0 check passed, 1 check evaluated but failed, 2 usage or
expression error, 3 numeric failure (non-convergent quadrature or a
domain violation).  Each result record enters the document through its
to_dict().  Non-finite numbers are written as null, so stdout is strict
JSON, and the dotted path of each one (for example result.error_estimate)
is listed under diagnostics.nonfinite; the key is absent when there were
none.  Warnings raised during a check (for example
FloorDerivativeWarning, or stieltjes2d's non-monotone integrator) are
listed once each, in order, under diagnostics.warnings and echoed to
stderr; the key is absent when there were none.  The argparse tree is
built once per process, on the first run() call, and reused by every
later call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import lru_cache
from typing import Optional

import numpy as np

from . import __version__
from .copula import InvalidGeneratorError, archimedean, validate_copula
from .core import ConvergenceError, NumericDomainError, Rect, _sample
from .discrete import (
    DoubleSequence,
    hardy_residual,
    hypothesis_pair,
    random_pair,
    steffensen_check,
)
from .expr import ParseError, evaluate, free_variables, parse
from .ineq import (
    byparts_residual,
    fourier_check,
    lemma1_check,
    steffensen_integral,
    sum_vs_integral,
    young_residual,
)
from .monotone import CatalogError, catalog, certify, from_ac
from .quad import DEFAULT_SPEC, QuadratureSpec, integrate2d, make_mollifier, mollify, stieltjes2d

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    """Bad flag value discovered during input validation."""


def _constant(text: str) -> float:
    """Numeric literal or constant expression like 'pi', '3*pi/4'."""
    ast = parse(text)
    if free_variables(ast):
        raise UsageError(f"expected a constant expression, got {text!r}")
    return evaluate(ast, 0.0, 0.0)


def _parse_rect(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--rect expects a,b,c,d, got {text!r}")
    a, b, c, d = (_constant(p) for p in parts)
    try:
        return Rect(a, b, c, d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected x,y, got {text!r}")
    return _constant(parts[0]), _constant(parts[1])


def _parse_breaks(text: Optional[str]) -> tuple[tuple, tuple]:
    """Breakpoint lists in the form 'x:1,2,3;y:0.5' (either axis optional)."""
    if not text:
        return (), ()
    bx, by = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("x:"):
            bx.extend(_constant(v) for v in chunk[2:].split(",") if v.strip())
        elif chunk.startswith("y:"):
            by.extend(_constant(v) for v in chunk[2:].split(",") if v.strip())
        else:
            raise UsageError(f"breakpoints must look like 'x:...;y:...', got {chunk!r}")
    return tuple(bx), tuple(by)


def _load_matrix(text: str) -> DoubleSequence:
    """Inline JSON array or a path to a row-major headerless CSV file."""
    text = text.strip()
    if text.startswith("["):
        return DoubleSequence(json.loads(text))
    data = np.loadtxt(text, delimiter=",", ndmin=2)
    return DoubleSequence(data)


def _spec_from(args) -> QuadratureSpec:
    return QuadratureSpec(cells=args.cells, points=args.points, max_refine=args.max_refine,
                          tol=args.quad_tol)


def _jsonable(obj, path: str, nonfinite: list):
    """obj with numpy scalars as Python numbers and NaN/inf as None; the
    dotted path of each non-finite number is appended to ``nonfinite``."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{path}.{k}", nonfinite) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{path}.{i}", nonfinite) for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN and +-inf are not JSON
        nonfinite.append(path)
        return None
    return obj


def _add_quad_flags(p: argparse.ArgumentParser):
    d = DEFAULT_SPEC
    p.add_argument("--quad-tol", type=float, default=d.tol, help="quadrature tolerance")
    p.add_argument("--cells", type=int, default=d.cells, help="coarsest cells per axis")
    p.add_argument("--points", type=int, default=d.points, help="Gauss points per cell per axis")
    p.add_argument("--max-refine", type=int, default=d.max_refine, help="refinement sweep limit")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="steff2d",
        description="Numerical checks for bivariate monotonicity, summation by parts, "
        "copulas, and Stieltjes quadrature.",
    )
    root.add_argument("--out", help="write the JSON document to this path instead of stdout")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="classify a function's 2d-monotonicity on a grid")
    p.add_argument("--f", required=True, help="bivariate expression or catalog:NAME")
    p.add_argument("--rect", required=True)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--margin", type=float, default=None)

    p = sub.add_parser("integrate", help="tensor Gauss-Legendre double integral")
    p.add_argument("--f", required=True)
    p.add_argument("--rect", required=True)
    p.add_argument("--breaks", default=None, help="e.g. 'x:1,2;y:0.5'")
    _add_quad_flags(p)

    p = sub.add_parser("stieltjes", help="Riemann-Stieltjes sum of h against df")
    p.add_argument("--h", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--rect", required=True)
    p.add_argument("--partition", type=int, default=64)
    p.add_argument("--doublings", type=int, default=4)
    p.add_argument("--quad-tol", type=float, default=DEFAULT_SPEC.tol)

    p = sub.add_parser("copula", help="copula construction and validation")
    csub = p.add_subparsers(dest="copula_command", required=True)
    pv = csub.add_parser("validate")
    pv.add_argument("--f", required=True)
    pv.add_argument("--grid", type=int, default=64)
    pv.add_argument("--tol", type=float, default=1e-9)
    pa = csub.add_parser("archimedean")
    pa.add_argument("--phi", required=True, help="generator expression in t")
    pa.add_argument("--eval", dest="eval_point", required=True, help="x,y")
    pa.add_argument("--grid", type=int, default=64)
    pa.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("mollify", help="evaluate a mollified function")
    p.add_argument("--f", required=True)
    p.add_argument("--rect", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", dest="eval_point", required=True, help="x,y")
    _add_quad_flags(p)

    p = sub.add_parser("verify", help="identity and inequality checks")
    vsub = p.add_subparsers(dest="check", required=True)

    pv = vsub.add_parser("hardy")
    pv.add_argument("--p", type=int, default=5)
    pv.add_argument("--q", type=int, default=5)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=1e-12)

    pv = vsub.add_parser("steffensen")
    pv.add_argument("--a", default=None, help="matrix as inline JSON or CSV path")
    pv.add_argument("--u", default=None)
    pv.add_argument("--p", type=int, default=5)
    pv.add_argument("--q", type=int, default=5)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=1e-12)

    for name in ("young1", "young2"):
        pv = vsub.add_parser(name)
        pv.add_argument("--f", required=True)
        pv.add_argument("--w", required=True)
        pv.add_argument("--rect", required=True)
        pv.add_argument("--tolerance", type=float, default=1e-6)
        _add_quad_flags(pv)

    for name in ("thm3", "thm4", "remark3"):
        pv = vsub.add_parser(name)
        pv.add_argument("--f", required=True)
        pv.add_argument("--w", required=True)
        pv.add_argument("--rect", required=True)
        pv.add_argument("--grid", type=int, default=32)
        pv.add_argument("--margin", type=float, default=0.0)
        pv.add_argument("--tol", type=float, default=1e-9)
        _add_quad_flags(pv)

    pv = vsub.add_parser("fourier")
    pv.add_argument("--kernel", required=True,
                    choices=["sinsin2d", "coscos2d", "cos1d", "sin1d"])
    pv.add_argument("--f", required=True)
    pv.add_argument("--m", type=int, default=1)
    pv.add_argument("--n", type=int, default=1)
    _add_quad_flags(pv)

    pv = vsub.add_parser("byparts")
    pv.add_argument("--f", required=True)
    pv.add_argument("--gdensity", default=None, help="mixed density of g")
    pv.add_argument("--g1", default=None, help="x-edge density of g")
    pv.add_argument("--g2", default=None, help="y-edge density of g")
    pv.add_argument("--g0", type=float, default=0.0, help="g at the lower-left corner")
    pv.add_argument("--rect", required=True)
    pv.add_argument("--tolerance", type=float, default=1e-6)
    _add_quad_flags(pv)

    pv = vsub.add_parser("corollary")
    pv.add_argument("--f", required=True)
    pv.add_argument("--rect", required=True)
    pv.add_argument("--tolerance", type=float, default=1e-6)
    _add_quad_flags(pv)

    pv = vsub.add_parser("lemma1")
    pv.add_argument("--f", required=True)
    pv.add_argument("--rect", required=True)
    pv.add_argument("--grid", type=int, default=32)
    pv.add_argument("--tol", type=float, default=1e-9)

    return root


def _function_arg(text: str):
    """Expression string, or catalog:NAME(...) for a catalog entry."""
    if text.startswith("catalog:"):
        try:
            return catalog(text[len("catalog:"):])
        except CatalogError as exc:
            raise UsageError(str(exc)) from exc
    return text


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (result, passed, diagnostics)
# ---------------------------------------------------------------------------

def _run_certify(args):
    rep = certify(
        _function_arg(args.f),
        _parse_rect(args.rect),
        grid=args.grid,
        tol=args.tol,
        margin=args.margin,
    )
    return rep.to_dict(), rep.verdict != "indefinite", {"verdict": rep.verdict}


def _run_integrate(args):
    bx, by = _parse_breaks(args.breaks)
    spec = _spec_from(args).with_breaks(bx, by)
    value, err = integrate2d(_function_arg(args.f), _parse_rect(args.rect), spec)
    return (
        {"value": value, "error_estimate": err},
        True,
        {"tolerance": spec.tol},
    )


def _run_stieltjes(args):
    res = stieltjes2d(
        _function_arg(args.h),
        _function_arg(args.f),
        _parse_rect(args.rect),
        partition=args.partition,
        tol=args.quad_tol,
        doublings=args.doublings,
    )
    bound_ok = (not res.integrator_monotone) or abs(res.value) <= res.bound + 1e-10
    return res.to_dict(), bool(bound_ok and res.converged), {
        "bound_checked": res.integrator_monotone,
    }


def _run_copula(args):
    if args.copula_command == "validate":
        rep = validate_copula(_function_arg(args.f), grid=args.grid, tol=args.tol)
        return rep.to_dict(), rep.passed, {"witness": rep.boundary_witness_condition}
    A = archimedean(args.phi)
    x, y = _parse_point(args.eval_point)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise UsageError(f"--eval point ({x}, {y}) lies outside the unit square [0, 1]^2")
    value = A(x, y)
    rep = validate_copula(A, grid=args.grid, tol=args.tol)
    result = {"value": value, "point": [x, y], "validation": rep.to_dict()}
    return result, rep.passed, {"generator": args.phi}


def _run_mollify(args):
    rect = _parse_rect(args.rect)
    spec = _spec_from(args)
    moll = make_mollifier(args.n)
    mass, mass_err = integrate2d(moll, moll.support, spec)
    g = mollify(_function_arg(args.f), rect, args.n, spec)
    x, y = _parse_point(args.eval_point)
    value = float(_sample(g, "mollified value", x, y))
    passed = abs(mass - 1.0) <= 1e-6
    return (
        {"value": value, "point": [x, y], "mollifier_mass": mass,
         "mass_error_estimate": mass_err, "n": args.n},
        passed,
        {"normalization": moll.c},
    )


def _run_verify(args):
    check = args.check
    trial_mode = check == "hardy" or (check == "steffensen" and args.a is args.u is None)
    if trial_mode and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if check == "hardy":
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.trials):
            a, u = random_pair(args.p, args.q, rng)
            worst = max(worst, hardy_residual(a, u, args.tol).rel_residual)
        return (
            {"trials": args.trials, "p": args.p, "q": args.q, "max_rel_residual": worst},
            worst <= args.tol,
            {"seed": args.seed},
        )

    if check == "steffensen":
        if (args.a is None) != (args.u is None):
            raise UsageError("provide both --a and --u, or neither (trial mode)")
        if args.a is not None:
            rep = steffensen_check(_load_matrix(args.a), _load_matrix(args.u), tol=args.tol)
            passed = rep.conclusion_holds or not rep.hypotheses_hold
            return rep.to_dict(), passed, {"mode": "single"}
        rng = np.random.default_rng(args.seed)
        min_sum = float("inf")
        for _ in range(args.trials):
            a, u = hypothesis_pair(args.p, args.q, rng)
            rep = steffensen_check(a, u, tol=args.tol)
            if not rep.hypotheses_hold:
                raise UsageError("constructive generator produced a non-hypothesis pair")
            min_sum = min(min_sum, rep.total)
        return (
            {"trials": args.trials, "p": args.p, "q": args.q, "min_sum": min_sum},
            min_sum >= -args.tol,
            {"seed": args.seed, "mode": "trials"},
        )

    if check in ("young1", "young2"):
        res = young_residual(
            check,
            _function_arg(args.f),
            _function_arg(args.w),
            _parse_rect(args.rect),
            spec=_spec_from(args),
            tolerance=args.tolerance,
        )
        return res.to_dict(), res.residual.passed, {"variant": res.variant}

    if check in ("thm3", "thm4", "remark3"):
        rep = steffensen_integral(
            check,
            _function_arg(args.f),
            _function_arg(args.w),
            _parse_rect(args.rect),
            grid=args.grid,
            spec=_spec_from(args),
            margin=args.margin,
            tol=args.tol,
        )
        passed = rep.inequality_holds or not rep.hypotheses_hold
        return rep.to_dict(), passed, {"hypotheses_hold": rep.hypotheses_hold}

    if check == "fourier":
        res = fourier_check(args.kernel, _function_arg(args.f), args.m, args.n,
                            spec=_spec_from(args))
        return res.to_dict(), res.sign_ok, {"expected_sign": res.expected_sign}

    if check == "byparts":
        rect = _parse_rect(args.rect)
        g = from_ac(args.g0, rect, g1=args.g1, g2=args.g2, density=args.gdensity,
                    spec=_spec_from(args))
        res = byparts_residual(_function_arg(args.f), g, rect, spec=_spec_from(args),
                               tolerance=args.tolerance)
        passed = res.residual.passed or not res.edge_vanishing
        return res.to_dict(), passed, {"edge_vanishing": res.edge_vanishing}

    if check == "corollary":
        res = sum_vs_integral(_function_arg(args.f), _parse_rect(args.rect),
                              spec=_spec_from(args), tolerance=args.tolerance)
        return res.to_dict(), res.passed, {}

    if check == "lemma1":
        res = lemma1_check(_function_arg(args.f), _parse_rect(args.rect),
                           grid=args.grid, tol=args.tol)
        return res.to_dict(), res.consistent, {"verdict": res.verdict}

    raise UsageError(f"unknown check {check!r}")


_DISPATCH = {
    "certify": _run_certify,
    "integrate": _run_integrate,
    "stieltjes": _run_stieltjes,
    "copula": _run_copula,
    "mollify": _run_mollify,
    "verify": _run_verify,
}


# Flags whose values are expressions and may legitimately start with '-'
# (e.g. --phi -log(t)); they are merged into --flag=value before argparse.
_VALUE_FLAGS = {
    "--f", "--w", "--h", "--phi", "--g1", "--g2", "--gdensity",
    "--eval", "--rect", "--breaks", "--a", "--u",
}


def _merge_value_flags(argv):
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _report_warnings(caught: list, stderr) -> list:
    """Each distinct recorded warning once, in order, also echoed to stderr."""
    raised = list(dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught))
    for text in raised:
        print(f"warning: {text}", file=stderr)
    return raised


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse argv, dispatch, emit the JSON document, and return the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_flags(list(argv)))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    # argparse reads a lone '--' as a flag value (--f=--) into an empty list
    if any(isinstance(v, list) for v in vars(args).values()):
        print("error: '--' is not a flag value", file=stderr)
        return EXIT_USAGE

    command = args.command
    label = command if command != "verify" else f"verify {args.check}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, passed, diagnostics = _DISPATCH[command](args)
    except (UsageError, ParseError, CatalogError, InvalidGeneratorError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        _report_warnings(caught, stderr)
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except (NumericDomainError, ConvergenceError) as exc:
        _report_warnings(caught, stderr)
        print(f"numeric failure: {exc}", file=stderr)
        return EXIT_NUMERIC

    raised = _report_warnings(caught, stderr)
    if raised:
        diagnostics = {**diagnostics, "warnings": raised}

    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "check", "copula_command", "out") and v is not None
    }
    nonfinite = []
    doc = {
        "command": label,
        "inputs": _jsonable(inputs, "inputs", nonfinite),
        "result": _jsonable(result, "result", nonfinite),
        "pass": bool(passed),
        "diagnostics": _jsonable(diagnostics, "diagnostics", nonfinite),
        "version": __version__,
    }
    if nonfinite:
        doc["diagnostics"]["nonfinite"] = nonfinite
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=stdout)
    print(f"{label}: {'PASS' if passed else 'FAIL'}", file=stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
