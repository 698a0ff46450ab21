"""The benchmark harness's own self-test passes against this checkout.

`perfbench/tracer.py` binds package functions by name; a package change that
breaks one of those bindings fails here instead of only at benchmark time.
"""

import importlib.util
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_harness_selftest_passes():
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.run_all(0) == []
