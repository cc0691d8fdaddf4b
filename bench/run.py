#!/usr/bin/env python3
"""steff2d benchmark: seeded, closed-loop, single-client streams of checks.

    python3 bench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced replay.  The last line of
stdout is one JSON object (correct, attempted, failed, metrics); the
lines above it are the human-readable report.  See bench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

# One BLAS thread, set before numpy loads here and inherited by every child, so
# every figure is for one BLAS thread.  With the default of a thread per core on
# a 2-vCPU machine, the small matrix products of a check fall into a slow mode
# in some processes and not in others, which moved the identities median by up
# to 50% from run to run.  That slowdown is the program's, not the benchmark's:
# bench/README.md records it under "Known findings".
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_SETUP_CHILD = "--setup-child"


def _setup_child() -> int:
    """Child process used to time set-up: import, then the warm-up pass.

    argv: --setup-child <t0 monotonic ns> <src> <workload> <seed>.  It
    prints the import time and the time since t0 (the parent's spawn) at
    the end of set-up, as JSON.
    """
    t0_ns, src, workload, seed = sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import steff2d.cli as cli

    import_ms = (time.perf_counter() - start) * 1e3
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    if not wl.cold:
        warm_up(cli, wl, seed)
    setup_s = (time.monotonic_ns() - int(t0_ns)) / 1e9
    import json

    print(json.dumps({"import_ms": import_ms, "setup_s": setup_s}))
    return 0


def warm_up(cli, wl, seed: int):
    """One round of the workload's check kinds, on a fixed seed other than the run's.

    The warm-up inputs do not depend on the run's seed, so set-up does the
    same work in every run.
    """
    warm_seed = WARMUP_SEED if seed != WARMUP_SEED else WARMUP_SEED + 1
    for case in wl.cases(warm_seed, len(wl.round_kinds)):
        invoke_in_process(cli, case.argv)


WARMUP_SEED = 20170711


def invoke_in_process(cli, argv):
    """Run one check through cli.run; return (exit code, stdout, ms)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):  # warnings raised inside the check
        start = time.perf_counter_ns()
        code = cli.run(list(argv), stdout=out, stderr=err)
        text = out.getvalue()
        ms = (time.perf_counter_ns() - start) / 1e6
    return code, text, ms


if __name__ == "__main__" and len(sys.argv) > 1 and sys.argv[1] == BENCH_SETUP_CHILD:
    sys.exit(_setup_child())

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5       # set-up repetitions per run; setup_s is their median
IMPORT_SAMPLES = 3      # fresh-interpreter imports behind cli.import_ms
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 120


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample(workload: str, seed: int) -> dict:
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), BENCH_SETUP_CHILD, str(t0), str(SRC),
         workload, str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def invoke_cold(argv):
    """Run one check as a fresh `python -m steff2d.cli` process."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "steff2d.cli", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ms = (time.perf_counter_ns() - start) / 1e6
    return proc.returncode, proc.stdout, ms


def tail(durations: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(durations)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (n - min(n, TAIL_BEYOND)) / n


def run_stream(invoke, cases, gate, seconds: float = None) -> tuple:
    """Closed loop: issue each check after the previous one returns."""
    durations: list = []
    seen: set = set()
    repeats = 0
    start = time.perf_counter()
    for case in cases:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        key = tuple(case.argv)
        repeats += key in seen
        seen.add(key)
        code, stdout, ms = invoke(case.argv)
        durations.append(ms)
        gate.record(case, code, stdout)
    return durations, time.perf_counter() - start, repeats


def run_probes(wl, invoke) -> tuple:
    """Issue the workload's known-defect probes, untimed, after the timed phase."""
    from gate import Gate

    probes = Gate()
    outcomes = {}
    for defect, case in zip(wl.probes, wl.probe_cases()):
        code, stdout, _ = invoke(case.argv)
        outcomes[defect] = probes.record(case, code, stdout)
    return probes, outcomes


def import_cli():
    sys.path.insert(0, str(SRC))
    import steff2d.cli as cli

    return cli


def end_to_end(wl, seed: int, seconds: float) -> tuple:
    from gate import Gate

    setups = [setup_sample(wl.name, seed)["setup_s"] for _ in range(SETUP_SAMPLES)]
    if not wl.cold:
        cli = import_cli()
        warm_up(cli, wl, seed)
        invoke = lambda argv: invoke_in_process(cli, argv)  # noqa: E731
    else:
        invoke = invoke_cold
    gate = Gate()
    durations, elapsed, repeats = run_stream(invoke, wl.stream(seed), gate, seconds)
    who = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_ms, tail_pct = tail(durations)
    metrics = {
        "check_p50_ms": (statistics.median(durations), "ms"),
        "check_tail_ms": (tail_ms, "ms"),
        "checks_per_s": (len(durations) / elapsed, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "check_tail_ms":
            note = f" (p{tail_pct:.2f}: {TAIL_BEYOND} of {len(durations)} checks lie beyond it)"
        elif name == "setup_s":
            note = f" (median of {SETUP_SAMPLES}: " + ", ".join(f"{s:.4f}" for s in setups) + ")"
        elif name == "peak_rss_mb" and wl.cold:
            note = " (largest child process)"
        print(f"{name}: {value:.6g} {unit}{note}")
    print(f"repeat_share: {repeats / len(durations):.4f} (checks whose argv repeats an "
          f"earlier one in this run)")
    return gate, invoke, metrics, {"durations_ms": durations}


def traced(wl, seed: int, seconds: float) -> tuple:
    """Replay a fixed list of checks in-process, traced and untraced in turn."""
    from gate import Gate
    from spans import COUNT_METRICS, Tracer, layer_metrics, metric_units

    imports = [setup_sample("cli-cold", seed)["import_ms"] for _ in range(IMPORT_SAMPLES)]
    cli = import_cli()
    warm_up(cli, wl, seed)
    cases = wl.cases(seed, len(wl.round_kinds) * wl.trace_rounds)
    invoke = lambda argv: invoke_in_process(cli, argv)  # noqa: E731
    gate = Gate()
    tracer = Tracer()
    passes: list = []
    traced_ms: list = []
    plain_ms: list = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # Alternate which half of a pass runs first, so drift in machine speed
        # does not fall on one side of trace.overhead_pct.
        if len(passes) % 2:
            plain_ms += run_stream(invoke, cases, gate)[0]
        tracer.reset()
        tracer.install()
        try:
            for check_id, case in enumerate(cases):
                tracer.check_id = check_id
                code, stdout, ms = invoke(case.argv)
                traced_ms.append(ms)
                gate.record(case, code, stdout)
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer))
        if len(passes) == 1:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{wl.name}-{seed}.tsv")
        if len(passes) % 2:
            plain_ms += run_stream(invoke, cases, gate)[0]
    metrics: dict = {}
    units = metric_units()
    for name, value in passes[0].items():
        if value is None or name in COUNT_METRICS:
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["cli.import_ms"] = statistics.median(imports)
    p50_traced, p50_plain = statistics.median(traced_ms), statistics.median(plain_ms)
    metrics["trace.overhead_pct"] = 100.0 * (p50_traced / p50_plain - 1.0)
    repeatable = all(p[name] == passes[0][name] for p in passes for name in COUNT_METRICS)
    print(f"traced passes: {len(passes)} over {len(cases)} checks; counts identical across "
          f"passes: {'yes' if repeatable else 'no'}; spans of pass 1 in "
          f"{(OUT / f'spans-{wl.name}-{seed}.tsv').relative_to(ROOT)}")
    print(f"traced check_p50_ms {p50_traced:.4f} vs untraced {p50_plain:.4f}")
    for name in sorted(metrics):
        value = metrics[name]
        shown = "missing (its span names no longer exist)" if value is None else f"{value:.6g}"
        print(f"{name}: {shown} {units[name]}")
    return gate, invoke, {k: (v, units[k]) for k, v in metrics.items()}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "steff2d" / "__init__.py").is_file():
        print(f"error: no steff2d sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    from gate import report
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"mode={'traced' if args.trace else 'untraced'}")
    measure = traced if args.trace else end_to_end
    gate, invoke, metrics, extra = measure(wl, args.seed, args.seconds)
    probes, outcomes = run_probes(wl, invoke)
    report(gate, probes, outcomes)

    # The result line counts the timed checks; the probes reproduce known defects
    # and count in fail_ratio, and any failure no known defect explains, in either,
    # makes the run incorrect.
    result = {
        "correct": gate.correct and probes.correct,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, machine=machine, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=[{"argv": c.argv, "reason": r, "known_defect": k}
                            for c, r, k in gate.failures + probes.failures],
                  known_defects=outcomes, **extra)
    with open(OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
