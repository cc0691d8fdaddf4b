"""The span names the benchmark measures stay defined in the program.

bench/spans.py wraps the public functions and methods of each layer module
and measures groups of them by name; a name that no longer exists reads as
a missing metric, not as a failure.  This test reads bench/ only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from spans import GROUPS, Tracer  # noqa: E402

# wrapped on the function mollify returns, when it returns it
WRAPPED_AT_CALL_TIME = {"quad.mollify.conv"}


def test_every_measured_span_name_is_wrapped():
    tracer = Tracer()
    try:
        tracer.install()
        measured = set().union(*GROUPS.values())
        assert measured - tracer.wrapped - WRAPPED_AT_CALL_TIME == set()
    finally:
        tracer.uninstall()


def test_every_measured_span_name_is_wrapped_in_a_fresh_process():
    # Here pytest has imported every module; a bench run has imported only
    # what `import steff2d.cli` loads, so a layer loaded later goes unwrapped.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from spans import GROUPS, Tracer; "
             "t = Tracer(); t.install(); print(*sorted(set().union(*GROUPS.values()) - t.wrapped))")
    done = subprocess.run([sys.executable, "-c", probe, str(BENCH)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) - WRAPPED_AT_CALL_TIME == set()
