"""Command-line front end: every check as a subcommand with JSON output.

One JSON document (schema: command, inputs, result, pass, diagnostics,
version) goes to stdout; a one-line human summary goes to stderr.  Exit
codes: 0 check passed, 1 check evaluated but failed, 2 usage or
expression error, 3 numeric failure (non-convergent quadrature or a
domain violation).

Every command is one entry of _COMMANDS: its path, such as ("verify",
"thm3"), the function that runs it, and its flags, each declared once in
_FLAGS.  The function returns a result record and the diagnostics; the
record's to_dict() is the document's result and its passed the pass.

Non-finite numbers are written as null, so stdout is strict JSON, and
the dotted path of each one (for example result.error_estimate) is
listed under diagnostics.nonfinite; the key is absent when there were
none.  Warnings raised during a check (for example
FloorDerivativeWarning, or stieltjes2d's non-monotone integrator) are
listed once each, in order, under diagnostics.warnings and echoed to
stderr; the key is absent when there were none.  The argparse tree is
built from the table once per process, on the first run() call, and
reused by every later call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
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
from .expr import ParseError, _constant
from .ineq import (
    _KERNELS,
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


def _number(text: str) -> float:
    """Numeric literal or constant expression like 'pi', '3*pi/4'."""
    value = _constant(text)
    if value is None:
        raise UsageError(f"expected a constant expression, got {text!r}")
    return value


def _finite(text: str, bound: str = "") -> float:
    """A finite float flag value: --g0, or a trial check's --tol, which only
    tightens the check's conclusion when negative.  bound ">= 0" is what a --tol
    or --tolerance also needs, see monotone._classify, and a --margin; "> 0" what
    a --quad-tol also needs, as QuadratureSpec does."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    bounded = not bound or value > 0 or (value == 0 and bound == ">= 0")
    if not (math.isfinite(value) and bounded):
        raise argparse.ArgumentTypeError(
            f"must be a finite number{' ' if bound else ''}{bound}, got {text!r}")
    return value


def _parse_rect(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--rect expects a,b,c,d, got {text!r}")
    a, b, c, d = (_number(p) for p in parts)
    try:
        return Rect(a, b, c, d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected x,y, got {text!r}")
    return _number(parts[0]), _number(parts[1])


def _parse_breaks(text: Optional[str]) -> tuple[tuple, tuple]:
    """Breakpoint lists in the form 'x:1,2,3;y:0.5' (either axis optional)."""
    if not text:
        return (), ()
    axes = {"x:": [], "y:": []}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk[:2] not in axes:
            raise UsageError(f"breakpoints must look like 'x:...;y:...', got {chunk!r}")
        axes[chunk[:2]].extend(_number(v) for v in chunk[2:].split(",") if v.strip())
    return tuple(axes["x:"]), tuple(axes["y:"])


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


def _function_arg(text: str):
    """Expression string, or catalog:NAME(...) for a catalog entry."""
    if text.startswith("catalog:"):
        try:
            return catalog(text[len("catalog:"):])
        except CatalogError as exc:
            raise UsageError(str(exc)) from exc
    return text


@dataclass(frozen=True)
class _Summary:
    """The result of a command that is not one library record: its JSON
    entries and its verdict."""

    entries: dict
    passed: bool

    def to_dict(self) -> dict:
        return self.entries


# ---------------------------------------------------------------------------
# Commands: each returns (record, diagnostics); the record's to_dict() is the
# document's result and its passed is the document's pass
# ---------------------------------------------------------------------------

def _run_certify(args):
    rep = certify(_function_arg(args.f), _parse_rect(args.rect), grid=args.grid, tol=args.tol,
                  margin=args.margin)
    return rep, {"verdict": rep.verdict}


def _run_integrate(args):
    bx, by = _parse_breaks(args.breaks)
    spec = _spec_from(args).with_breaks(bx, by)
    value, err = integrate2d(_function_arg(args.f), _parse_rect(args.rect), spec)
    return _Summary({"value": value, "error_estimate": err}, True), {"tolerance": spec.tol}


def _run_stieltjes(args):
    res = stieltjes2d(_function_arg(args.h), _function_arg(args.f), _parse_rect(args.rect),
                      partition=args.partition, tol=args.quad_tol, doublings=args.doublings)
    return res, {"bound_checked": res.integrator_monotone}


def _run_validate(args):
    rep = validate_copula(_function_arg(args.f), grid=args.grid, tol=args.tol)
    return rep, {"witness": rep.boundary_witness_condition}


def _run_archimedean(args):
    A = archimedean(args.phi)
    x, y = _parse_point(args.eval_point)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise UsageError(f"--eval point ({x}, {y}) lies outside the unit square [0, 1]^2")
    value = A(x, y)
    rep = validate_copula(A, grid=args.grid, tol=args.tol)
    result = {"value": value, "point": [x, y], "validation": rep.to_dict()}
    return _Summary(result, rep.passed), {"generator": args.phi}


def _run_mollify(args):
    rect = _parse_rect(args.rect)
    spec = _spec_from(args)
    moll = make_mollifier(args.n)
    mass, mass_err = integrate2d(moll, moll.support, spec)
    g = mollify(_function_arg(args.f), rect, args.n, spec)
    x, y = _parse_point(args.eval_point)
    value = float(_sample(g, "mollified value", x, y))
    result = {"value": value, "point": [x, y], "mollifier_mass": mass,
              "mass_error_estimate": mass_err, "n": args.n}
    return _Summary(result, abs(mass - 1.0) <= 1e-6), {"normalization": moll.c}


def _trial_mode(args, draw, check, key: str, field: str, worst) -> _Summary:
    """check(a, u) on --trials pairs from draw(p, q, rng), rng seeded by
    --seed.  The result reports worst (max or min) of the records' field
    under key, and it passes when every trial's record passes."""
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    passed, value = True, None
    for _ in range(args.trials):
        rec = check(*draw(args.p, args.q, rng))
        passed = passed and rec.passed
        value = getattr(rec, field) if value is None else worst(value, getattr(rec, field))
    return _Summary({"trials": args.trials, "p": args.p, "q": args.q, key: value}, passed)


def _run_hardy(args):
    summary = _trial_mode(args, random_pair, lambda a, u: hardy_residual(a, u, args.tol),
                          "max_rel_residual", "rel_residual", max)
    return summary, {"seed": args.seed}


def _run_steffensen(args):
    if (args.a is None) != (args.u is None):
        raise UsageError("provide both --a and --u, or neither (trial mode)")
    if args.a is not None:
        rep = steffensen_check(_load_matrix(args.a), _load_matrix(args.u), tol=args.tol)
        return rep, {"mode": "single"}

    def check(a, u):
        rep = steffensen_check(a, u, tol=args.tol)
        if not rep.hypotheses_hold:  # such a trial would pass vacuously
            raise UsageError("constructive generator produced a non-hypothesis pair")
        return rep

    summary = _trial_mode(args, hypothesis_pair, check, "min_sum", "total", min)
    return summary, {"seed": args.seed, "mode": "trials"}


def _run_young(args):
    res = young_residual(args.check, _function_arg(args.f), _function_arg(args.w),
                         _parse_rect(args.rect), spec=_spec_from(args), tolerance=args.tolerance)
    return res, {"variant": res.variant}


def _run_theorem(args):
    rep = steffensen_integral(args.check, _function_arg(args.f), _function_arg(args.w),
                              _parse_rect(args.rect), grid=args.grid, spec=_spec_from(args),
                              margin=args.margin, tol=args.tol)
    return rep, {"hypotheses_hold": rep.hypotheses_hold}


def _run_fourier(args):
    res = fourier_check(args.kernel, _function_arg(args.f), args.m, args.n,
                        spec=_spec_from(args))
    return res, {"expected_sign": res.expected_sign}


def _run_byparts(args):
    rect = _parse_rect(args.rect)
    g = from_ac(args.g0, rect, g1=args.g1, g2=args.g2, density=args.gdensity,
                spec=_spec_from(args))
    res = byparts_residual(_function_arg(args.f), g, rect, spec=_spec_from(args),
                           tolerance=args.tolerance)
    return res, {"edge_vanishing": res.edge_vanishing}


def _run_corollary(args):
    res = sum_vs_integral(_function_arg(args.f), _parse_rect(args.rect),
                          spec=_spec_from(args), tolerance=args.tolerance)
    return res, {}


def _run_lemma1(args):
    res = lemma1_check(_function_arg(args.f), _parse_rect(args.rect),
                       grid=args.grid, tol=args.tol)
    return res, {"verdict": res.verdict}


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

# Every flag once, as its add_argument keywords.  A flag without a type or
# choices takes a free-form value, such as an expression, which may start with
# '-' (--phi -log(t)); _merge_value_flags joins the two into --flag=value.
_FLAGS = {
    "--f": {"required": True, "help": "expression or catalog:NAME"},
    "--w": {"required": True},
    "--h": {"required": True},
    "--rect": {"required": True},
    "--breaks": {"help": "e.g. 'x:1,2;y:0.5'"},
    "--eval": {"dest": "eval_point", "required": True, "help": "x,y"},
    "--phi": {"required": True, "help": "generator expression in t"},
    "--a": {"help": "matrix as inline JSON or CSV path"},
    "--u": {"help": "matrix as inline JSON or CSV path"},
    "--gdensity": {"help": "mixed density of g"},
    "--g1": {"help": "x-edge density of g"},
    "--g2": {"help": "y-edge density of g"},
    "--g0": {"type": _finite, "default": 0.0, "help": "g at the lower-left corner"},
    "--kernel": {"required": True, "choices": list(_KERNELS)},
    "--grid": {"type": int, "default": 32},
    "--tol": {"type": partial(_finite, bound=">= 0"), "default": 1e-9},
    "--tolerance": {"type": partial(_finite, bound=">= 0"), "default": 1e-6},
    "--margin": {"type": partial(_finite, bound=">= 0"), "default": 0.0},
    "--partition": {"type": int, "default": 64},
    "--doublings": {"type": int, "default": 4},
    "--m": {"type": int, "default": 1},
    "--n": {"type": int, "default": 1},
    "--p": {"type": int, "default": 5},
    "--q": {"type": int, "default": 5},
    "--trials": {"type": int, "default": 100},
    "--seed": {"type": int, "default": 42},
    "--quad-tol": {"type": partial(_finite, bound="> 0"), "default": DEFAULT_SPEC.tol,
                   "help": "quadrature tolerance"},
    "--cells": {"type": int, "default": DEFAULT_SPEC.cells, "help": "coarsest cells per axis"},
    "--points": {"type": int, "default": DEFAULT_SPEC.points,
                 "help": "Gauss points per cell per axis"},
    "--max-refine": {"type": int, "default": DEFAULT_SPEC.max_refine,
                     "help": "refinement sweep limit"},
}
_QUAD = ("--quad-tol", "--cells", "--points", "--max-refine")
_TRIALS = ("--p", "--q", "--trials", "--seed", ("--tol", {"type": _finite, "default": 1e-12}))
_COPULA_GRID = ("--grid", {"default": 64})

# Each first word of a command: its help, and for a group of commands the
# dest of their second word.
_TOP_LEVEL = {
    "certify": ("classify a function's 2d-monotonicity on a grid", None),
    "integrate": ("tensor Gauss-Legendre double integral", None),
    "stieltjes": ("Riemann-Stieltjes sum of h against df", None),
    "copula": ("copula construction and validation", "copula_command"),
    "mollify": ("evaluate a mollified function", None),
    "verify": ("identity and inequality checks", "check"),
}

# Each command: the function that runs it and its flags, in order.  A flag is
# its name, or (name, keywords) where the command needs other keywords.
_THEOREM = (_run_theorem, ("--f", "--w", "--rect", "--grid", "--margin", "--tol", *_QUAD))
_YOUNG = (_run_young, ("--f", "--w", "--rect", "--tolerance", *_QUAD))
_COMMANDS = {
    ("certify",): (_run_certify, ("--f", "--rect", "--grid", "--tol",
                                  ("--margin", {"default": None}))),
    ("integrate",): (_run_integrate, ("--f", "--rect", "--breaks", *_QUAD)),
    ("stieltjes",): (_run_stieltjes, ("--h", "--f", "--rect", "--partition", "--doublings",
                                      "--quad-tol")),
    ("copula", "validate"): (_run_validate, ("--f", _COPULA_GRID, "--tol")),
    ("copula", "archimedean"): (_run_archimedean, ("--phi", "--eval", _COPULA_GRID, "--tol")),
    ("mollify",): (_run_mollify, ("--f", "--rect", ("--n", {"required": True, "default": None}),
                                  "--eval", *_QUAD)),
    ("verify", "hardy"): (_run_hardy, _TRIALS),
    ("verify", "steffensen"): (_run_steffensen, ("--a", "--u", *_TRIALS)),
    ("verify", "young1"): _YOUNG,
    ("verify", "young2"): _YOUNG,
    ("verify", "thm3"): _THEOREM,
    ("verify", "thm4"): _THEOREM,
    ("verify", "remark3"): _THEOREM,
    ("verify", "fourier"): (_run_fourier, ("--kernel", "--f", "--m", "--n", *_QUAD)),
    ("verify", "byparts"): (_run_byparts, ("--f", "--gdensity", "--g1", "--g2", "--g0", "--rect",
                                          "--tolerance", *_QUAD)),
    ("verify", "corollary"): (_run_corollary, ("--f", "--rect", "--tolerance", *_QUAD)),
    ("verify", "lemma1"): (_run_lemma1, ("--f", "--rect", "--grid", "--tol")),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="steff2d",
        description="Numerical checks for bivariate monotonicity, summation by parts, "
        "copulas, and Stieltjes quadrature.",
    )
    root.add_argument("--out", help="write the JSON document to this path instead of stdout")
    sub = root.add_subparsers(dest="command", required=True)
    top = {}
    for name, (help_, dest) in _TOP_LEVEL.items():
        p = sub.add_parser(name, help=help_)
        top[name] = p.add_subparsers(dest=dest, required=True) if dest else p
    for (name, *leaf), (_, flags) in _COMMANDS.items():
        p = top[name].add_parser(*leaf) if leaf else top[name]
        for flag in flags:
            flag, own = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**_FLAGS[flag], **own})
    return root


def _merge_value_flags(argv):
    """argv with each free-form flag and its value joined into --flag=value."""
    free = {flag for flag, kw in _FLAGS.items() if "type" not in kw and "choices" not in kw}
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in free and i + 1 < len(argv):
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
    group = _TOP_LEVEL[command][1]
    path = (command, getattr(args, group)) if group else (command,)
    label = command if command != "verify" else f"verify {args.check}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record, diagnostics = _COMMANDS[path][0](args)
            result, passed = record.to_dict(), record.passed
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
