"""The span names the benchmark measures stay defined in the program.

bench/spans.py wraps the public functions and methods of each layer module
and measures groups of them by name; a name that no longer exists reads as
a missing metric, not as a failure.  This test reads bench/ only.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
