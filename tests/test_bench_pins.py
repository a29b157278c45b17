"""The benchmark's tracer and counter rebind library functions by name
(`perfbench/layers.py`), so a renamed or deleted function breaks
`perfbench/run.py --trace 1` without failing any library test.  Each
instrument is installed in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
layers.{instrument}.install()
"""


@pytest.mark.parametrize("instrument", ["Tracer()", "Counter(1)"])
def test_benchmark_instruments_install(instrument):
    code = SCRIPT.format(src=os.path.join(ROOT, "src"),
                         bench=os.path.join(ROOT, "perfbench"),
                         instrument=instrument)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
