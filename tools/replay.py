#!/usr/bin/env python3
"""Replay the benchmark's checks and the README's commands through cli.run.

    python3 tools/replay.py OUT

Writes one JSON line per document to OUT: its argv, exit code and stdout.
The documents are the first 30 checks of each workload's stream at seeds
1-10, each workload's probes (bench/workloads.py, imported read-only) and
the README's ``steff2d`` command lines, 921 in all.  Two trees whose OUT
files are byte-identical give the same documents and exit codes; so must
two runs of one tree under different PYTHONHASHSEED values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

# one BLAS thread, as in bench/run.py, so every run rounds its products alike
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import steff2d.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
CHECKS = 30


def readme_argvs() -> list:
    """The argv of each ``steff2d`` line between the README's "Command line"
    and "Expression grammar" headings."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Command line"):text.index("\n## Expression grammar")]
    return [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("steff2d ")]


def argvs():
    for wl in WORKLOADS.values():
        for seed in SEEDS:
            yield from (case.argv for case in wl.cases(seed, CHECKS))
        yield from (case.argv for case in wl.probe_cases())
    yield from readme_argvs()


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):  # warnings raised inside the check
        code = cli.run(list(argv), stdout=out, stderr=err)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/replay.py OUT", file=sys.stderr)
        return 2
    count = 0
    with open(args[0], "w") as fh:
        for doc in map(replay, argvs()):
            fh.write(json.dumps(doc) + "\n")
            count += 1
    print(f"{count} documents written to {args[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
