"""A traced classify run of the benchmark (`perfbench/run.py --trace 1`)
requires spans of `lattice.simple_quotient`, the tracer's name for
`is_simple_quotient`.  A csa scan that stopped calling it would fail that
run without failing any library test, so one csa classification runs
under the tracer here, in a fresh interpreter."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
from gliderbs import gbs
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import AlgebraFiltration, valuation_filtration
from gliderbs.lattice import matrix_algebra
from gliderbs.orders import builtin_mnr

tracer = layers.Tracer()
tracer.install()
f5 = valuation_filtration(padic(5))
fa = AlgebraFiltration(matrix_algebra(2), f5,
                       builtin_mnr(2, f5.base_ring).lattice, mode="induced")
point = gbs.BsPoint([QQ_FIELD.from_int(1), QQ_FIELD.from_int(2)])
chain = gbs.realize_csa_element(fa, point, 1)
tracer.start_op(0)
verdict = gbs.classify_csa_glider(chain)
tracer.end_op()
print(verdict.status, tracer.summary()["lattice.simple_quotient"]["calls"])
"""


def test_csa_scan_records_simple_quotient_spans():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"),
                         bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, calls = proc.stdout.split()
    assert status == "irreducible"
    assert int(calls) >= 1
