"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps the public names of each layer module (its
``__all__``, or its public definitions when it has none): functions,
and the public methods plus ``__init__``/``__call__`` of public
classes.  A function is rebound in every ``steff2d`` module that imports
it; a method is rebound on its class.  Each call becomes a span (name,
start, end, parent, check id, points) kept in memory; ``uninstall``
restores the originals.  A direct recursive call of a wrapped name folds
into the outer span.

``layer_metrics`` turns the spans of one pass into the per-layer
metrics.  A metric whose span names no longer exist in the program is
reported as missing (None) instead of failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "ineq", "monotone", "copula", "discrete", "quad", "expr")


def _size(value) -> int:
    values = getattr(value, "values", value)
    return int(np.size(values))


# Span name -> how many points the call handled, from (args, result).
POINTS = {
    "expr.BivariateFn.__call__": lambda args, out: _size(out),
    "expr.UnivariateFn.__call__": lambda args, out: _size(out),
    "quad.CumulativePrimitive.__call__": lambda args, out: _size(out),
    "quad.Antiderivative1D.__call__": lambda args, out: _size(out),
    "copula.Generator.inverse": lambda args, out: _size(args[1]) if len(args) > 1 else 0,
    "discrete.partial_sums": lambda args, out: _size(out),
}


class Tracer:
    def __init__(self):
        self.check_id = -1
        self.wrapped: set = set()
        self._restore: list = []
        self._stack = [-1]
        self.reset()

    def reset(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.checks: list = []
        self.points: list = []
        self.raised: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        points = POINTS.get(name)
        # The mollified function's evaluations get a quad span of their own.
        wrap_result = name == "quad.mollify"
        stack, clock = self._stack, time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and tracer.names[parent] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(parent)
            tracer.checks.append(tracer.check_id)
            tracer.ends.append(0)
            tracer.points.append(0)
            tracer.raised.append(False)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = True
                raise
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if points is not None:
                tracer.points[idx] = points(args, out)
            if wrap_result and callable(getattr(out, "_fn", None)):
                out._fn = tracer._wrap("quad.mollify.conv", out._fn)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        self.wrapped.add(name)
        return span

    def install(self):
        import steff2d.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "steff2d" or k.startswith("steff2d."))]
        for layer in LAYERS:
            module = sys.modules.get(f"steff2d.{layer}")
            if module is None:
                continue
            for attr in _public_names(module):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._restore.append((m, key, obj))
                                setattr(m, key, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(layer, obj, module.__file__)

    def _wrap_class(self, layer: str, cls, source: str):
        for key, raw in list(vars(cls).items()):
            if key.startswith("_") and key not in ("__init__", "__call__") or key == "to_dict":
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            # Generated methods (dataclass __init__ and the like) have no source file.
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{key}", fn)
            self._restore.append((cls, key, raw))
            setattr(cls, key, kind(wrapper) if kind else wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path):
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tcheck\tname\tstart_ns\tend_ns\tpoints\traised\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.checks[i]}\t{name}\t{self.starts[i]}"
                         f"\t{self.ends[i]}\t{self.points[i]}\t{int(self.raised[i])}\n")


def _public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    return list(names)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

GROUPS = {
    "cli.run": {"cli.run"},
    "expr.compile": {"expr.parse", "expr.parse_univariate",
                     "expr.BivariateFn.from_expression", "expr.BivariateFn.from_ast",
                     "expr.UnivariateFn.from_expression", "expr.UnivariateFn.from_ast"},
    "expr.build": {"expr.BivariateFn.from_expression", "expr.BivariateFn.from_ast",
                   "expr.UnivariateFn.from_expression", "expr.UnivariateFn.from_ast"},
    "expr.diff": {"expr.differentiate"},
    "expr.eval": {"expr.BivariateFn.__call__", "expr.UnivariateFn.__call__"},
    "quad.integrate2d": {"quad.integrate2d"},
    "quad.integrate1d": {"quad.integrate1d"},
    "quad.primitive_build": {"quad.cumulative", "quad.CumulativePrimitive.__init__",
                             "quad.Antiderivative1D.__init__"},
    "quad.primitive_init": {"quad.CumulativePrimitive.__init__", "quad.Antiderivative1D.__init__"},
    "quad.primitive_eval": {"quad.CumulativePrimitive.__call__", "quad.Antiderivative1D.__call__"},
    "quad.lattice_extrema": {"quad.CumulativePrimitive.lattice_extrema"},
    "quad.stieltjes": {"quad.stieltjes2d"},
    "quad.mollify": {"quad.mollify", "quad.make_mollifier", "quad.bump_normalization",
                     "quad.Mollifier.__call__", "quad.mollify.conv"},
    "quad.mollify_eval": {"quad.mollify.conv"},
    "monotone.certify": {"monotone.certify"},
    "monotone.from_ac": {"monotone.from_ac", "monotone.AcFunction.__init__"},
    "copula.archimedean": {"copula.archimedean", "copula.Generator.from_expression"},
    "copula.validate": {"copula.validate_copula"},
    "copula.inverse": {"copula.Generator.inverse"},
    "discrete.partial_sums": {"discrete.partial_sums"},
    "discrete.hardy": {"discrete.hardy_residual"},
    "discrete.steffensen": {"discrete.steffensen_check"},
    "discrete.generate": {"discrete.random_pair", "discrete.hypothesis_pair"},
    "ineq.young": {"ineq.young_residual"},
    "ineq.thm": {"ineq.steffensen_integral"},
    "ineq.byparts": {"ineq.byparts_residual"},
    "ineq.corollary": {"ineq.sum_vs_integral"},
    "ineq.fourier": {"ineq.fourier_check"},
    "ineq.lemma1": {"ineq.lemma1_check"},
}

# (metric, unit, measure, group, inside-group, outside-group)
#   time   total ms of the group's outermost spans
#   self   total ms of the group's spans minus their direct child spans
#   calls  number of the group's spans
#   points sum of the group's span points
# "inside" keeps only spans under a span of that group; "outside" drops them.
METRICS = [
    ("cli.self_ms", "ms", "self", "cli.run", None, None),
    ("expr.compile_ms", "ms", "time", "expr.compile", None, None),
    ("expr.compile_calls", "count", "calls", "expr.build", None, None),
    ("expr.diff_ms", "ms", "time", "expr.diff", None, None),
    ("expr.eval_ms", "ms", "time", "expr.eval", None, None),
    ("expr.eval_calls", "count", "calls", "expr.eval", None, None),
    ("expr.eval_points", "count", "points", "expr.eval", None, None),
    ("quad.integrate2d_ms", "ms", "time", "quad.integrate2d", None, None),
    ("quad.integrate2d_calls", "count", "calls", "quad.integrate2d", None, None),
    ("quad.integrate2d_points", "count", "points", "expr.eval", "quad.integrate2d", None),
    ("quad.integrate1d_ms", "ms", "time", "quad.integrate1d", None, None),
    ("quad.primitive_build_ms", "ms", "time", "quad.primitive_build", None, None),
    ("quad.primitive_builds", "count", "calls", "quad.primitive_init", None, None),
    ("quad.primitive_eval_ms", "ms", "time", "quad.primitive_eval", None, "quad.primitive_build"),
    ("quad.primitive_eval_points", "count", "points", "quad.primitive_eval", None,
     "quad.primitive_build"),
    ("quad.lattice_extrema_ms", "ms", "time", "quad.lattice_extrema", None, None),
    ("quad.stieltjes_ms", "ms", "time", "quad.stieltjes", None, None),
    ("quad.mollify_ms", "ms", "time", "quad.mollify", None, None),
    ("monotone.certify_ms", "ms", "time", "monotone.certify", None, None),
    ("monotone.certify_points", "count", "points", "expr.eval", "monotone.certify", None),
    ("monotone.from_ac_ms", "ms", "time", "monotone.from_ac", None, None),
    ("copula.archimedean_ms", "ms", "time", "copula.archimedean", None, None),
    ("copula.validate_ms", "ms", "time", "copula.validate", None, None),
    ("copula.inverse_ms", "ms", "time", "copula.inverse", None, None),
    ("copula.inverse_points", "count", "points", "copula.inverse", None, None),
    ("discrete.partial_sums_ms", "ms", "time", "discrete.partial_sums", None, None),
    ("discrete.partial_sums_entries", "count", "points", "discrete.partial_sums", None, None),
    ("discrete.hardy_ms", "ms", "time", "discrete.hardy", None, None),
    ("discrete.steffensen_ms", "ms", "time", "discrete.steffensen", None, None),
    ("discrete.generate_ms", "ms", "time", "discrete.generate", None, None),
] + [
    (f"ineq.{checker}.self_ms", "ms", "self", f"ineq.{checker}", None, None)
    for checker in ("young", "thm", "byparts", "corollary", "fourier", "lemma1")
]

# (metric, unit, numerator metric or (measure, group, inside, outside), denominator, scale)
RATIOS = [
    ("quad.primitive_eval_ns_per_point", "ns", "quad.primitive_eval_ms",
     "quad.primitive_eval_points", 1e6),
    ("monotone.certify_ns_per_point", "ns", "monotone.certify_ms", "monotone.certify_points", 1e6),
    ("copula.phi_points_per_inverse_point", "ratio",
     ("points", "expr.eval", "copula.inverse", None), "copula.inverse_points", 1.0),
]

COUNT_METRICS = [name for name, unit, *_ in METRICS if unit == "count"] + ["quad.errors"]

# Metrics measured outside the spans; run.py fills them in.
EXTERNAL = [("cli.import_ms", "ms"), ("trace.overhead_pct", "%")]


def metric_units() -> dict:
    units = {name: unit for name, unit, *_ in METRICS}
    units.update({name: unit for name, unit, *_ in RATIOS})
    units["quad.errors"] = "count"
    units.update(dict(EXTERNAL))
    return units


def _measure(tr: Tracer, spans: dict, anc: list, dur: list, child: list,
             measure: str, group: str, inside, outside) -> float:
    bit = {g: 1 << k for k, g in enumerate(GROUPS)}
    total = 0
    for name in GROUPS[group]:
        for i in spans.get(name, ()):
            if inside and not anc[i] & bit[inside]:
                continue
            if outside and anc[i] & bit[outside]:
                continue
            if measure == "time":
                if not anc[i] & bit[group]:
                    total += dur[i]
            elif measure == "self":
                total += dur[i] - child[i]
            elif measure == "calls":
                total += 1
            else:
                total += tr.points[i]
    return total / 1e6 if measure in ("time", "self") else float(total)


def _index(tr: Tracer) -> tuple:
    """(spans by name, ancestor group bits, durations, child time, quad ancestry)."""
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0] * n
    name_bits: dict = {}
    for k, names in enumerate(GROUPS.values()):
        for name in names:
            name_bits[name] = name_bits.get(name, 0) | (1 << k)
    spans: dict = {}
    # anc[i]: bit set of the groups of span i's ancestors (parents precede children).
    anc = [0] * n
    quad_anc = [False] * n
    for i, name in enumerate(tr.names):
        spans.setdefault(name, []).append(i)
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
            anc[i] = anc[p] | name_bits.get(tr.names[p], 0)
            quad_anc[i] = quad_anc[p] or tr.names[p].startswith("quad.")
    return spans, anc, dur, child, quad_anc


def group_ms(tr: Tracer, group: str) -> float:
    """Total ms of the outermost spans of one GROUPS entry."""
    spans, anc, dur, child, _ = _index(tr)
    return _measure(tr, spans, anc, dur, child, "time", group, None, None)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer totals over the spans recorded since the last reset."""
    n = len(tr.names)
    spans, anc, dur, child, quad_anc = _index(tr)

    def measure(spec):
        measure_, group, inside, outside = spec
        if not GROUPS[group] & tr.wrapped:
            return None
        return _measure(tr, spans, anc, dur, child, measure_, group, inside, outside)

    out: dict = {}
    for name, unit, *spec in METRICS:
        out[name] = measure(spec)
    for name, unit, num, den, scale in RATIOS:
        top = out[num] if isinstance(num, str) else measure(num)
        bottom = out[den]
        if top is None or bottom is None:
            out[name] = None
        else:
            out[name] = top * scale / bottom if bottom else 0.0
    # Exceptions leaving the outermost quad span of a call chain.
    if any(w.startswith("quad.") for w in tr.wrapped):
        out["quad.errors"] = float(sum(
            1 for i in range(n)
            if tr.raised[i] and tr.names[i].startswith("quad.") and not quad_anc[i]))
    else:
        out["quad.errors"] = None
    return out
