"""The benchmark's correctness gate, run in-process on a few rounds.

For each workload in bench/workloads.py, the first round of check kinds at
seeds 1-3 must pass bench/gate.check, and the known-defect probes must leave
the gate correct (each probe fails only in the way its defect is documented).
Stream cases deep in a run, which a short run never reaches, are pinned by
their index.  The bench files are only read here.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from gate import Gate, check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from steff2d.cli import run  # noqa: E402


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):  # warnings raised inside the check
        code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_round_passes_the_gate(workload, seed):
    wl = WORKLOADS[workload]
    for case in wl.cases(seed, len(wl.round_kinds)):
        why, _ = check(case, *invoke(case.argv))
        assert why is None, f"{case.argv}: {why}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_probes_fail_only_as_documented(workload):
    gate = Gate()
    for case in WORKLOADS[workload].probe_cases():
        gate.record(case, *invoke(case.argv))
    assert gate.correct, gate.failures


# Stream cases that stopped a timed run, as (workload, seed, index in the
# stream, argv).  The argv pins the stream: if the stream is reshaped, the entry
# fails here and is pinned again.
PINNED = [
    # W >= 0 in closed form; its lattice minimum -2.6e-9 is within the primitive's
    # own tolerance, so the hypotheses hold
    ("identities", 6, 14226, ["verify", "thm3", "--f", "exp(-1.924*x-1.074*y)",
                              "--w", "sin(6*x)*sin(2*y)", "--rect", "0,5.879,0,3.82",
                              "--grid", "64"]),
]


@pytest.mark.parametrize("workload, seed, index, argv", PINNED,
                         ids=[f"{w}-{s}-{i}" for w, s, i, _ in PINNED])
def test_pinned_stream_case_passes_the_gate(workload, seed, index, argv):
    case = WORKLOADS[workload].cases(seed, index + 1)[index]
    assert case.argv == argv
    why, _ = check(case, *invoke(case.argv))
    assert why is None, f"{case.argv}: {why}"
