#!/usr/bin/env python3
"""Cross-check traced per-layer times against the ROADMAP baseline table.

    python3 bench/crosscheck.py

Runs each row of the table through the public API with the tracer
installed, three times, and prints the median traced time of the row's
span group (``spans.GROUPS``) next to the table's figure, flagging rows that differ by more than
2x.  Run from the root of a source checkout.
"""

from __future__ import annotations

import statistics
import sys

import run  # first: it fixes the BLAS thread count before numpy loads
from spans import Tracer, group_ms

import numpy as np  # noqa: E402


def main() -> int:
    run.import_cli()
    import steff2d as s

    unit = s.Rect(0, 1, 0, 1)
    two_pi = s.Rect(0, 2 * np.pi, 0, 2 * np.pi)
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 2 * np.pi, 10**6), rng.uniform(0, 2 * np.pi, 10**6)
    primitive = s.cumulative("sin(x)*sin(y)", two_pi)
    ac = s.from_ac(0.0, unit, density="1")
    px, py = rng.uniform(0.3, 0.7, 100), rng.uniform(0.3, 0.7, 100)
    clayton = s.archimedean("1/t - 1")

    # call -> rows of (label, ROADMAP ms or None, span group) read from its spans
    calls = [
        (lambda: s.integrate2d("exp(-x-y)", unit),
         [('integrate2d("exp(-x-y)")', 0.5, "quad.integrate2d")]),
        (lambda: s.cumulative("sin(x)*sin(y)", two_pi),
         [('cumulative("sin(x)*sin(y)") build', 2.7, "quad.primitive_init")]),
        (lambda: primitive(xs, ys),
         [("primitive evaluation at 1e6 scattered points", 830.0,
           "quad.primitive_eval")]),
        (lambda: primitive.lattice_extrema(512),
         [("lattice_extrema(512)", 280.0, "quad.lattice_extrema")]),
        (lambda: s.certify("x*y", unit, grid=2048),
         [("certify, grid 2048", 49.0, "monotone.certify")]),
        (lambda: s.validate_copula(clayton, grid=512),
         [("validate_copula(clayton), grid 512", 196.0, "copula.validate")]),
        (lambda: s.mollify("exp(-x-y)", unit, 4)(px, py),
         [("mollify(..., n=4) at 100 points", 23.0, "quad.mollify"),
          ("  of which evaluation", None, "quad.mollify_eval")]),
        (lambda: s.byparts_residual("exp(-x-y)", ac, unit),
         [("byparts_residual, g from from_ac", 320.0, "ineq.byparts"),
          ("  of which primitive evaluation", 250.0, "quad.primitive_eval")]),
    ]
    imports = [run.setup_sample("cli-cold", 0)["import_ms"] for _ in range(3)]
    print("machine: " + " ".join(f"{k}={v}" for k, v in run.machine_record().items()))
    print(f"{'row':48s} {'roadmap ms':>11s} {'traced ms':>10s} {'ratio':>6s}")
    table = [("import steff2d (fresh interpreter)", 270.0, statistics.median(imports))]
    tracer = Tracer()
    for call, rows in calls:
        times: list = [[] for _ in rows]
        for _ in range(3):
            tracer.reset()
            tracer.install()
            try:
                call()
            finally:
                tracer.uninstall()
            for k, (_, _, group) in enumerate(rows):
                times[k].append(group_ms(tracer, group))
        table += [(label, roadmap, statistics.median(t))
                  for (label, roadmap, _), t in zip(rows, times)]
    for label, roadmap, traced in table:
        if roadmap is None:  # a split of the row above, with no figure of its own
            print(f"{label:48s} {'-':>11s} {traced:10.2f}")
            continue
        ratio = traced / roadmap
        flag = "  <-- differs by more than 2x" if not 0.5 <= ratio <= 2.0 else ""
        print(f"{label:48s} {roadmap:11.1f} {traced:10.2f} {ratio:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
